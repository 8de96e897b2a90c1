#include "util/serialization.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace photon {
namespace {

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table;
// table[k][i] advances the register by k extra zero bytes, letting the hot
// loop fold 8 input bytes per iteration (~5-8x the bytewise throughput,
// identical CRC values).
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

const std::array<std::array<std::uint32_t, 256>, 8>& crc_tables() {
  static const auto tables = make_crc_tables();
  return tables;
}

// Table-path continuation over a tail, on the RAW register (no final xor).
std::uint32_t crc32_table_raw(const std::uint8_t* p, std::size_t n,
                              std::uint32_t c) {
  const auto& tables = crc_tables();
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
          tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n-- != 0) {
    c = tables[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
  }
  return c;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& tables = crc_tables();
  std::uint32_t c = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n >= 64 && detail::crc32_clmul_available()) {
    const std::size_t head = n & ~static_cast<std::size_t>(15);
    c = detail::crc32_clmul_raw(p, head, c);
    p += head;
    n -= head;
  }
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
          tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n-- != 0) {
    c = tables[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint32_t crc32_copy(std::uint8_t* dst,
                         std::span<const std::uint8_t> src) {
  const std::uint8_t* p = src.data();
  const std::size_t n = src.size();
  if (n >= 64 && detail::crc32_clmul_available()) {
    const std::size_t head = n & ~static_cast<std::size_t>(15);
    std::uint32_t c = detail::crc32_clmul_copy_raw(dst, p, head, 0xffffffffu);
    std::memcpy(dst + head, p + head, n - head);
    c = crc32_table_raw(p + head, n - head, c);
    return c ^ 0xffffffffu;
  }
  if (n != 0) {
    std::memcpy(dst, p, n);
  }
  return crc32(src);
}

namespace {

constexpr std::uint32_t kCrcPoly = 0xedb88320u;  // reflected CRC-32

// a * b mod P over GF(2), in the reflected order where bit 31 is x^0
// (zlib 1.2.12's multmodp).  `a` must be nonzero.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) != 0 ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return p;
}

// x^(2^k) mod P for k = 0..31.  P is irreducible, so x^(2^32) = x mod P
// and the sequence repeats with period 32.
constexpr std::array<std::uint32_t, 32> kX2nTable = [] {
  std::array<std::uint32_t, 32> table{};
  std::uint32_t p = 1u << 30;  // x^1
  table[0] = p;
  for (std::size_t k = 1; k < table.size(); ++k) table[k] = p = multmodp(p, p);
  return table;
}();

// x^(n * 2^k) mod P (zlib 1.2.12's x2nmodp): one table multiply per set
// bit of n.
std::uint32_t x2nmodp(std::uint64_t n, unsigned k) {
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k) {
    if ((n & 1u) != 0) p = multmodp(kX2nTable[k & 31u], p);
  }
  return p;
}

}  // namespace

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  if (len_b == 0) return crc_a;
  // Feeding len_b zero bytes through the CRC register multiplies it by
  // x^(8 * len_b) mod P.
  return multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b;
}

}  // namespace photon
