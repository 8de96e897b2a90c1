#include "comm/quantization.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "comm/message.hpp"
#include "tensor/simd.hpp"

namespace photon {

// ---------------------------------------------------------------------------
// wire_quant: blockwise q8/q4 chunk transforms.

namespace wire_quant {
namespace {

constexpr std::size_t kModeOff = 0;   // u8
constexpr std::size_t kCountOff = 1;  // u32 n_floats
constexpr std::size_t kScalesOff = 5;

std::size_t n_blocks(std::size_t n) {
  return (n + kBlockFloats - 1) / kBlockFloats;
}

std::size_t code_bytes_for(std::size_t n, int bits) {
  return bits == 4 ? (n + 1) / 2 : n;
}

// Per-block packed-code bytes for q4: every full block packs to an even 128
// bytes; only the final partial block can have an odd float count.
std::size_t block_code_bytes(std::size_t block_len, int bits) {
  return bits == 4 ? (block_len + 1) / 2 : block_len;
}

bool aligned_floats(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(float) == 0;
}

void pack_nibbles(const std::int8_t* codes, std::size_t n,
                  std::uint8_t* out) {
  std::size_t k = 0;
  for (; k + 1 < n; k += 2) {
    out[k / 2] = static_cast<std::uint8_t>(
        (static_cast<std::uint8_t>(codes[k]) & 0x0F) |
        ((static_cast<std::uint8_t>(codes[k + 1]) & 0x0F) << 4));
  }
  if (k < n) {
    out[k / 2] = static_cast<std::uint8_t>(codes[k]) & 0x0F;
  }
}

void unpack_nibbles(const std::uint8_t* in, std::size_t n,
                    std::int8_t* codes) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint8_t byte = in[k / 2];
    const std::uint8_t nib = (k & 1) ? (byte >> 4) : (byte & 0x0F);
    // Sign-extend the 4-bit two's-complement code.
    codes[k] = static_cast<std::int8_t>(static_cast<std::int8_t>(nib << 4) >> 4);
  }
}

}  // namespace

std::size_t encoded_bytes(std::size_t n_floats, int bits) {
  return kScalesOff + 4 * n_blocks(n_floats) + code_bytes_for(n_floats, bits);
}

bool encode_chunk(const float* x, std::size_t n, int bits,
                  std::vector<std::uint8_t>& out) {
  if (n > 0xFFFFFFFFull) return false;
  const std::size_t nb = n_blocks(n);
  out.resize(encoded_bytes(n, bits));
  std::uint8_t* p = out.data();
  p[kModeOff] = 0;
  const std::uint32_t n32 = static_cast<std::uint32_t>(n);
  std::memcpy(p + kCountOff, &n32, sizeof(n32));

  const int limit = code_limit(bits);
  const auto& ops = simd::ops();

  // Pass 1: block scales.  Bail to raw passthrough if the data is not
  // finite — dequantizing 0 * inf would manufacture NaNs.
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t off = b * kBlockFloats;
    const std::size_t len = std::min(kBlockFloats, n - off);
    const float max_abs = ops.max_abs(x + off, len);
    if (!std::isfinite(max_abs)) return false;
    const float scale = max_abs > 0.0f ? max_abs : 1.0f;
    std::memcpy(p + kScalesOff + 4 * b, &scale, sizeof(scale));
  }

  // Pass 2: codes.
  std::uint8_t* codes_out = p + kScalesOff + 4 * nb;
  alignas(64) std::int8_t tmp[kBlockFloats];
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t off = b * kBlockFloats;
    const std::size_t len = std::min(kBlockFloats, n - off);
    float scale;
    std::memcpy(&scale, p + kScalesOff + 4 * b, sizeof(scale));
    const float inv = static_cast<float>(limit) / scale;
    if (bits == 4) {
      // |x*inv| <= 7 by construction, so the i8 kernel's ±127 clamp never
      // fires and the codes fit a signed nibble.
      ops.quant_i8(tmp, x + off, len, inv);
      pack_nibbles(tmp, len, codes_out);
    } else {
      ops.quant_i8(reinterpret_cast<std::int8_t*>(codes_out), x + off, len,
                   inv);
    }
    codes_out += block_code_bytes(len, bits);
  }
  return true;
}

std::size_t decoded_bytes(std::span<const std::uint8_t> in) {
  if (in.empty()) return 0;
  if (in[kModeOff] == 1) return in.size() - 1;
  if (in[kModeOff] != 0 || in.size() < kScalesOff) {
    throw std::runtime_error("wire_quant: malformed chunk header");
  }
  std::uint32_t n32;
  std::memcpy(&n32, in.data() + kCountOff, sizeof(n32));
  return static_cast<std::size_t>(n32) * sizeof(float);
}

void decode_chunk(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                  int bits) {
  if (in.size() < kScalesOff || in[kModeOff] != 0) {
    throw std::runtime_error("wire_quant: malformed chunk header");
  }
  std::uint32_t n32;
  std::memcpy(&n32, in.data() + kCountOff, sizeof(n32));
  const std::size_t n = n32;
  if (n * sizeof(float) != out.size()) {
    throw std::runtime_error("wire_quant: chunk size mismatch");
  }
  if (in.size() != encoded_bytes(n, bits)) {
    throw std::runtime_error("wire_quant: truncated chunk");
  }
  const std::size_t nb = n_blocks(n);
  const std::uint8_t* scales = in.data() + kScalesOff;
  const std::uint8_t* codes_in = scales + 4 * nb;
  const int limit = code_limit(bits);
  const auto& ops = simd::ops();

  alignas(64) std::int8_t tmp[kBlockFloats];
  alignas(64) float ftmp[kBlockFloats];
  const bool direct = aligned_floats(out.data());
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t off = b * kBlockFloats;
    const std::size_t len = std::min(kBlockFloats, n - off);
    float scale;
    std::memcpy(&scale, scales + 4 * b, sizeof(scale));
    const float factor = scale / static_cast<float>(limit);
    const std::int8_t* codes;
    if (bits == 4) {
      unpack_nibbles(codes_in, len, tmp);
      codes = tmp;
    } else {
      codes = reinterpret_cast<const std::int8_t*>(codes_in);
    }
    if (direct) {
      ops.dequant_i8(reinterpret_cast<float*>(out.data()) + off, codes, len,
                     factor);
    } else {
      ops.dequant_i8(ftmp, codes, len, factor);
      std::memcpy(out.data() + off * sizeof(float), ftmp, len * sizeof(float));
    }
    codes_in += block_code_bytes(len, bits);
  }
}

void residual_of(const float* x, float* res, std::size_t n, int bits) {
  const std::size_t chunk_bytes = wire_chunk_bytes();
  if (chunk_bytes % sizeof(float) != 0 && chunk_bytes != 0) {
    // The codec would see float-misaligned chunks and fall back to raw
    // passthrough: no quantization loss, no residual.
    std::memset(res, 0, n * sizeof(float));
    return;
  }
  const std::size_t chunk_floats =
      chunk_bytes == 0 ? n : chunk_bytes / sizeof(float);
  const int limit = code_limit(bits);
  const auto& ops = simd::ops();
  alignas(64) std::int8_t codes[kBlockFloats];

  for (std::size_t start = 0; start < n; start += chunk_floats) {
    const std::size_t len = std::min(chunk_floats, n - start);
    // Mirror encode_chunk's all-or-nothing finiteness fallback per chunk.
    bool finite = true;
    for (std::size_t off = 0; off < len && finite; off += kBlockFloats) {
      const std::size_t blen = std::min(kBlockFloats, len - off);
      finite = std::isfinite(ops.max_abs(x + start + off, blen));
    }
    if (!finite) {
      std::memset(res + start, 0, len * sizeof(float));
      continue;
    }
    for (std::size_t off = 0; off < len; off += kBlockFloats) {
      const std::size_t blen = std::min(kBlockFloats, len - off);
      const float max_abs = ops.max_abs(x + start + off, blen);
      const float scale = max_abs > 0.0f ? max_abs : 1.0f;
      const float inv = static_cast<float>(limit) / scale;
      const float factor = scale / static_cast<float>(limit);
      ops.quant_i8_ef(codes, res + start + off, x + start + off, blen, inv,
                      factor);
    }
  }
}

}  // namespace wire_quant

// ---------------------------------------------------------------------------
// QuantCodec

QuantCodec::QuantCodec(int bits) : bits_(bits) {
  if (bits != 8 && bits != 4) {
    throw std::invalid_argument("QuantCodec: bits must be 8 or 4");
  }
}

void QuantCodec::compress_into(std::span<const std::uint8_t> input,
                               std::vector<std::uint8_t>& out) const {
  if (!input.empty() && input.size() % sizeof(float) == 0 &&
      wire_quant::aligned_floats(input.data())) {
    const float* x = reinterpret_cast<const float*>(input.data());
    if (wire_quant::encode_chunk(x, input.size() / sizeof(float), bits_,
                                 out)) {
      return;
    }
  }
  // Raw passthrough: not interpretable as finite floats.
  out.resize(input.size() + 1);
  out[0] = 1;
  if (!input.empty()) std::memcpy(out.data() + 1, input.data(), input.size());
}

void QuantCodec::decompress_into(std::span<const std::uint8_t> input,
                                 std::span<std::uint8_t> out) const {
  if (input.empty()) {
    if (!out.empty()) throw std::runtime_error("q-codec: empty chunk");
    return;
  }
  if (input[0] == 1) {
    if (input.size() - 1 != out.size()) {
      throw std::runtime_error("q-codec: raw chunk size mismatch");
    }
    if (!out.empty()) std::memcpy(out.data(), input.data() + 1, out.size());
    return;
  }
  wire_quant::decode_chunk(input, out, bits_);
}

std::vector<std::uint8_t> QuantCodec::decompress(
    std::span<const std::uint8_t> input) const {
  std::vector<std::uint8_t> out(wire_quant::decoded_bytes(input));
  decompress_into(input, out);
  return out;
}

}  // namespace photon
