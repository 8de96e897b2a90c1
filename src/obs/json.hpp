#pragma once
// Minimal JSON value + recursive-descent parser.
//
// Exists so the exporter tests can prove "emits valid JSON" by actually
// parsing the output back (and so the JSONL importer can round-trip every
// event field) without adding a third-party dependency.  Supports the full
// JSON grammar the exporters emit: objects, arrays, strings with escapes,
// numbers, booleans, null.  Not a general-purpose library: no comments, no
// trailing commas, throws std::runtime_error with a byte offset on any
// malformed input.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace photon::obs::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::map<std::string, Value>& as_object() const;

  /// Object member access; throws std::out_of_range on a missing key.
  const Value& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::map<std::string, Value> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// Throws std::runtime_error on malformed input and on objects or arrays
/// nested more than 512 levels deep.
Value parse(std::string_view text);

}  // namespace photon::obs::json
