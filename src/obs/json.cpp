#include "obs/json.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace photon::obs::json {

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  return array_;
}

const std::map<std::string, Value>& Value::as_object() const {
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  return object_;
}

const Value& Value::at(const std::string& key) const {
  return as_object().at(key);
}

bool Value::contains(const std::string& key) const {
  return as_object().count(key) > 0;
}

Value Value::make_bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::make_object(std::map<std::string, Value> members) {
  Value v;
  v.type_ = Type::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  static constexpr int kMaxDepth = 512;

  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Each container level recurses once; the cap bounds the stack.
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value::make_null();
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    std::map<std::string, Value> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value::make_object(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value::make_array(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Exporters only emit ASCII escapes; encode BMP code points UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return Value::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open objects and arrays around pos_
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace photon::obs::json
