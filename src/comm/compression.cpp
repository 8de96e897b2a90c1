#include "comm/compression.hpp"

#include "comm/quantization.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace photon {
namespace {

// ------------------------------- RLE0 --------------------------------
// Format: a stream of ops.
//   0x00 <count:u8>         -> `count` zero bytes (count >= 1)
//   0x01 <count:u8> <bytes> -> `count` literal bytes (count >= 1)
constexpr std::uint8_t kOpZeros = 0x00;
constexpr std::uint8_t kOpLiteral = 0x01;

}  // namespace

void Rle0Codec::compress_into(std::span<const std::uint8_t> input,
                              std::vector<std::uint8_t>& out) const {
  // Ops are staged in a stack block and appended ~4 KiB at a time.
  constexpr std::size_t kBlock = 4096;
  std::uint8_t block[kBlock + 2 + 255];
  std::size_t b = 0;
  for (std::size_t i = 0; i < input.size();) {
    const bool zeros = input[i] == 0;
    const std::size_t max_run = std::min<std::size_t>(255, input.size() - i);
    std::size_t run = 1;
    while (run < max_run && (input[i + run] == 0) == zeros) ++run;
    block[b++] = zeros ? kOpZeros : kOpLiteral;
    block[b++] = static_cast<std::uint8_t>(run);
    if (!zeros) {
      std::memcpy(block + b, input.data() + i, run);
      b += run;
    }
    i += run;
    if (b >= kBlock) {
      out.insert(out.end(), block, block + b);
      b = 0;
    }
  }
  out.insert(out.end(), block, block + b);
}

void Rle0Codec::decompress_into(std::span<const std::uint8_t> input,
                                std::span<std::uint8_t> out) const {
  std::size_t i = 0;
  std::size_t o = 0;
  while (i < input.size()) {
    if (i + 2 > input.size()) throw std::runtime_error("rle0: truncated op");
    const std::uint8_t op = input[i];
    const std::size_t count = input[i + 1];
    i += 2;
    if (count == 0) throw std::runtime_error("rle0: zero count");
    if (o + count > out.size()) throw std::runtime_error("rle0: output overflow");
    if (op == kOpZeros) {
      std::memset(out.data() + o, 0, count);
    } else if (op == kOpLiteral) {
      if (i + count > input.size()) throw std::runtime_error("rle0: truncated literal");
      std::memcpy(out.data() + o, input.data() + i, count);
      i += count;
    } else {
      throw std::runtime_error("rle0: bad op");
    }
    o += count;
  }
  if (o != out.size()) throw std::runtime_error("rle0: output underflow");
}

std::vector<std::uint8_t> Rle0Codec::decompress(
    std::span<const std::uint8_t> input) const {
  // Scan once for the decompressed size, then decode without growth.
  std::size_t total = 0;
  std::size_t i = 0;
  while (i < input.size()) {
    if (i + 2 > input.size()) throw std::runtime_error("rle0: truncated op");
    const std::uint8_t op = input[i];
    const std::size_t count = input[i + 1];
    i += 2;
    if (count == 0) throw std::runtime_error("rle0: zero count");
    if (op == kOpLiteral) {
      i += count;
    } else if (op != kOpZeros) {
      throw std::runtime_error("rle0: bad op");
    }
    total += count;
  }
  std::vector<std::uint8_t> out(total);
  decompress_into(input, out);
  return out;
}

namespace {

/// Identity codec used when message.codec == "".  The chunked Message path
/// special-cases is_identity() to copy straight between payload and wire;
/// these methods exist for generic callers.
class IdentityCodec final : public Codec {
 public:
  std::string name() const override { return ""; }
  bool is_identity() const override { return true; }
  void compress_into(std::span<const std::uint8_t> input,
                     std::vector<std::uint8_t>& out) const override {
    out.insert(out.end(), input.begin(), input.end());
  }
  void decompress_into(std::span<const std::uint8_t> input,
                       std::span<std::uint8_t> out) const override {
    if (input.size() != out.size()) {
      throw std::runtime_error("identity: size mismatch");
    }
    if (!input.empty()) std::memcpy(out.data(), input.data(), input.size());
  }
  std::vector<std::uint8_t> decompress(
      std::span<const std::uint8_t> input) const override {
    return {input.begin(), input.end()};
  }
};

}  // namespace

const Codec* codec_by_name(const std::string& name) {
  static const IdentityCodec identity;
  static const Rle0Codec rle0;
  static const QuantCodec q8{8};
  static const QuantCodec q4{4};
  if (name.empty()) return &identity;
  if (name == "rle0") return &rle0;
  if (name == "q8") return &q8;
  if (name == "q4") return &q4;
  return nullptr;
}

const std::vector<std::string>& enabled_wire_codecs() {
  static const std::vector<std::string> kEnabled = {"", "rle0", "q8", "q4"};
  return kEnabled;
}

}  // namespace photon
