#pragma once
// Binary (de)serialization used for Link payloads and checkpoints.
//
// The wire format is little-endian, length-prefixed, with no alignment
// padding.  It is intentionally simple: Photon messages are dominated by
// flat float buffers (model parameters / pseudo-gradients), so the format
// optimizes for bulk memcpy of those.

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace photon {

class BinaryWriter {
 public:
  BinaryWriter() = default;

  /// Reuse `buffer`'s capacity: the writer starts empty but keeps the
  /// allocation.  Pair with take() to recycle a scratch buffer across
  /// encodes without reallocating.
  explicit BinaryWriter(std::vector<std::uint8_t> buffer)
      : buf_(std::move(buffer)) {
    buf_.clear();
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void write_string(const std::string& s) {
    write(static_cast<std::uint64_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_span(std::span<const T> data) {
    write(static_cast<std::uint64_t>(data.size()));
    const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
    buf_.insert(buf_.end(), p, p + data.size_bytes());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vector(const std::vector<T>& v) {
    write_span(std::span<const T>(v));
  }

  void write_raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string read_string() {
    const auto n = read<std::uint64_t>();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    // Compared as an element count: n * sizeof(T) could wrap.
    if (n > remaining() / sizeof(T)) {
      throw std::runtime_error("BinaryReader: truncated buffer");
    }
    std::vector<T> v(n);
    if (n != 0) {  // empty vector's data() is null; memcpy requires nonnull
      std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return v;
  }

  std::vector<std::uint8_t> read_raw(std::size_t n) {
    require(n);
    std::vector<std::uint8_t> v(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return v;
  }

  /// Zero-copy variant of read_raw: a view into the underlying buffer,
  /// valid for the buffer's lifetime.
  std::span<const std::uint8_t> view_raw(std::size_t n) {
    require(n);
    const auto v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

 private:
  // Compared against what remains: pos_ + n could wrap.
  void require(std::size_t n) const {
    if (n > remaining()) {
      throw std::runtime_error("BinaryReader: truncated buffer");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// CRC32 (IEEE, reflected) for payload integrity checks on the Link.
/// Dispatches to a PCLMULQDQ fold-by-4 fast path (crc32_pclmul.cpp) when the
/// CPU supports it and PHOTON_SIMD != scalar; values are identical either
/// way.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Fused copy + CRC: copies `src` to `dst` and returns crc32(src), touching
/// each byte once.  The wire path's identity encode/decode uses this instead
/// of a memcpy followed by a CRC pass.
std::uint32_t crc32_copy(std::uint8_t* dst, std::span<const std::uint8_t> src);

namespace detail {
/// True when the PCLMUL fold path is compiled in, supported by this CPU, and
/// not disabled via PHOTON_SIMD=scalar.
bool crc32_clmul_available();
/// Raw-register (un-finalized) CRC over a prefix with n % 16 == 0, n >= 64.
std::uint32_t crc32_clmul_raw(const std::uint8_t* p, std::size_t n,
                              std::uint32_t raw);
/// Same fold, also copying the consumed bytes to dst.
std::uint32_t crc32_clmul_copy_raw(std::uint8_t* dst, const std::uint8_t* p,
                                   std::size_t n, std::uint32_t raw);
}  // namespace detail

/// CRC of the concatenation A||B given crc(A), crc(B), and |B|, in
/// O(log |B|): crc(A) times x^(8|B|) mod P from a table of x^(2^k) mod P
/// (zlib 1.2.12's method).  Lets per-chunk CRCs computed in parallel be
/// folded in chunk order into the exact whole-buffer CRC:
///   crc32(A||B) == crc32_combine(crc32(A), crc32(B), B.size()).
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

}  // namespace photon
