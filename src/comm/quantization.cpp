#include "comm/quantization.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "comm/message.hpp"
#include "tensor/kernels.hpp"
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

/// Whether the codec quantizes `chunk`: only whole, aligned floats; any
/// other chunk rides the wire raw (mode 1).
bool float_chunk(std::span<const std::uint8_t> chunk) {
  return !chunk.empty() && chunk.size() % sizeof(float) == 0 &&
         aligned_floats(chunk.data());
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

namespace {

/// One block of form_delta: x = g - x for the len <= kBlockFloats floats
/// g whose bytes start at `global`, copied first into an aligned block.
void form_delta_block(const simd::Ops& ops, float* x,
                      const std::uint8_t* global, std::size_t len) {
  alignas(64) float g[kBlockFloats];
  std::memcpy(g, global, len * sizeof(float));
  ops.sub(x, g, x, len);
}

/// UpdateWalk's chunk walk (see quantization.hpp).  X is float when the
/// chunk is formed in place and const float when it is only read; global
/// and res_in must then be nullptr.
template <typename X>
bool walk_chunk(X* x, const std::uint8_t* global, const float* res_in,
                float* res_out, std::size_t n, int bits,
                std::vector<std::uint8_t>& out) {
  const auto& ops = simd::ops();
  const int limit = code_limit(bits);
  const std::size_t nb = n_blocks(n);
  const std::size_t start = out.size();
  bool quantized = n <= 0xFFFFFFFFull;
  std::uint8_t* p = nullptr;
  std::uint8_t* codes_out = nullptr;
  if (quantized) {
    out.resize(start + encoded_bytes(n, bits));
    p = out.data() + start;
    p[kModeOff] = 0;
    const std::uint32_t n32 = static_cast<std::uint32_t>(n);
    std::memcpy(p + kCountOff, &n32, sizeof(n32));
    codes_out = p + kScalesOff + 4 * nb;
  }
  alignas(64) std::int8_t tmp[kBlockFloats];
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t off = b * kBlockFloats;
    const std::size_t len = std::min(kBlockFloats, n - off);
    X* xb = x + off;
    if constexpr (!std::is_const_v<X>) {
      if (global != nullptr) {
        form_delta_block(ops, xb, global + off * sizeof(float), len);
      }
      if (res_in != nullptr) ops.acc(xb, res_in + off, len);
    }
    if (!quantized) continue;  // the chunk goes raw: only form the rest
    // A non-finite block sends the chunk raw: dequantizing 0 * inf would
    // manufacture NaNs.
    const float max_abs = ops.max_abs(xb, len);
    if (!std::isfinite(max_abs)) {
      quantized = false;
      continue;
    }
    const float scale = max_abs > 0.0f ? max_abs : 1.0f;
    std::memcpy(p + kScalesOff + 4 * b, &scale, sizeof(scale));
    const float inv = static_cast<float>(limit) / scale;
    // q4: |x*inv| <= 7 by construction, so the i8 kernel's ±127 clamp never
    // fires and the codes fit a signed nibble.
    std::int8_t* codes =
        bits == 4 ? tmp : reinterpret_cast<std::int8_t*>(codes_out);
    if (res_out != nullptr) {
      ops.quant_i8_ef(codes, res_out + off, xb, len, inv,
                      scale / static_cast<float>(limit));
    } else {
      ops.quant_i8(codes, xb, len, inv);
    }
    if (bits == 4) pack_nibbles(tmp, len, codes_out);
    codes_out += block_code_bytes(len, bits);
  }
  if (quantized) return true;
  const auto* raw = reinterpret_cast<const std::uint8_t*>(x);
  out.resize(start);
  out.push_back(1);
  out.insert(out.end(), raw, raw + n * sizeof(float));
  if (res_out != nullptr) std::memset(res_out, 0, n * sizeof(float));
  return false;
}

}  // namespace

void form_delta(float* x, const std::uint8_t* global, std::size_t n) {
  const auto& ops = simd::ops();
  for (std::size_t off = 0; off < n; off += kBlockFloats) {
    form_delta_block(ops, x + off, global + off * sizeof(float),
                     std::min(kBlockFloats, n - off));
  }
}

bool encode_chunk(const float* x, std::size_t n, int bits,
                  std::vector<std::uint8_t>& out) {
  return walk_chunk(x, nullptr, nullptr, nullptr, n, bits, out);
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

namespace {

// Calls fn(off, len, codes, factor) for every block of a mode-0 chunk that
// decodes to raw_bytes bytes, after the header and size checks every reader
// of the layout shares.  q4 codes are unpacked into a block of int8 first.
template <typename Fn>
void for_each_block(std::span<const std::uint8_t> in, std::size_t raw_bytes,
                    int bits, Fn&& fn) {
  if (in.size() < kScalesOff || in[kModeOff] != 0) {
    throw std::runtime_error("wire_quant: malformed chunk header");
  }
  std::uint32_t n32;
  std::memcpy(&n32, in.data() + kCountOff, sizeof(n32));
  const std::size_t n = n32;
  if (n * sizeof(float) != raw_bytes) {
    throw std::runtime_error("wire_quant: chunk size mismatch");
  }
  if (in.size() != encoded_bytes(n, bits)) {
    throw std::runtime_error("wire_quant: truncated chunk");
  }
  const std::size_t nb = n_blocks(n);
  const std::uint8_t* scales = in.data() + kScalesOff;
  const std::uint8_t* codes_in = scales + 4 * nb;
  const int limit = code_limit(bits);
  alignas(64) std::int8_t tmp[kBlockFloats];
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
    fn(off, len, codes, factor);
    codes_in += block_code_bytes(len, bits);
  }
}

}  // namespace

void decode_chunk(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                  int bits) {
  const auto& ops = simd::ops();
  alignas(64) float ftmp[kBlockFloats];
  const bool direct = aligned_floats(out.data());
  for_each_block(in, out.size(), bits,
                 [&](std::size_t off, std::size_t len,
                     const std::int8_t* codes, float factor) {
                   if (direct) {
                     ops.dequant_i8(reinterpret_cast<float*>(out.data()) + off,
                                    codes, len, factor);
                   } else {
                     ops.dequant_i8(ftmp, codes, len, factor);
                     std::memcpy(out.data() + off * sizeof(float), ftmp,
                                 len * sizeof(float));
                   }
                 });
}

void accumulate_chunk(std::span<const std::uint8_t> in, std::size_t n_floats,
                      int bits, double w, double* acc) {
  if (in.empty()) {
    if (n_floats != 0) throw std::runtime_error("q-codec: empty chunk");
    return;
  }
  if (in[kModeOff] == 1) {
    // Raw passthrough: fold the verbatim floats (unaligned in the wire).
    if (in.size() - 1 != n_floats * sizeof(float)) {
      throw std::runtime_error("q-codec: raw chunk size mismatch");
    }
    for (std::size_t e = 0; e < n_floats; ++e) {
      float x;
      std::memcpy(&x, in.data() + 1 + e * sizeof(float), sizeof(x));
      acc[e] += w * static_cast<double>(x);
    }
    return;
  }
  const auto& ops = simd::ops();
  for_each_block(in, n_floats * sizeof(float), bits,
                 [&](std::size_t off, std::size_t len,
                     const std::int8_t* codes, float factor) {
                   ops.dequant_i8_acc_pd(acc + off, codes, len, factor, w);
                 });
}

void residual_of(const float* x, float* res, std::size_t n, int bits) {
  const ChunkPlan plan = ChunkPlan::of(n * sizeof(float));
  std::vector<std::uint8_t> image;
  for (std::size_t c = 0; c < plan.n_chunks(); ++c) {
    const std::size_t off = plan.raw_off(c) / sizeof(float);
    image.clear();
    walk_chunk(x + off, nullptr, nullptr, res + off,
               plan.raw_len(c) / sizeof(float), bits, image);
  }
}

UpdateWalk::UpdateWalk(float* x, const std::uint8_t* global, float* residual,
                       std::size_t n, int bits)
    : x_(x),
      global_(global),
      res_(residual),
      n_(n),
      bits_(bits),
      plan_(ChunkPlan::of(n * sizeof(float))) {}

void UpdateWalk::write_chunk(std::size_t c, std::vector<std::uint8_t>& out) {
  const std::size_t off = plan_.raw_off(c) / sizeof(float);
  const std::size_t len = plan_.raw_len(c) / sizeof(float);
  walk_chunk(x_ + off,
             global_ == nullptr ? nullptr : global_ + off * sizeof(float),
             res_ == nullptr ? nullptr : res_ + off,
             res_ == nullptr ? nullptr : res_ + off, len, bits_, out);
  if (res_ == nullptr) return;
  // Every norm block the walk has now finished, while it is still hot; a
  // block that straddles chunks waits for the chunk that completes it.
  const auto& ops = simd::ops();
  const std::size_t done = off + len;
  while (normed_ < done &&
         (normed_ + kernels::kNormBlock <= done || done == n_)) {
    const std::size_t blk = std::min(kernels::kNormBlock, n_ - normed_);
    sumsq_ += ops.sumsq_pd(res_ + normed_, blk);
    normed_ += blk;
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
  if (wire_quant::float_chunk(input)) {
    wire_quant::encode_chunk(reinterpret_cast<const float*>(input.data()),
                             input.size() / sizeof(float), bits_, out);
    return;
  }
  // Raw passthrough: not interpretable as floats.
  out.push_back(1);
  out.insert(out.end(), input.begin(), input.end());
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
