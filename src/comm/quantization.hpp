#pragma once
// Lossy update quantization (paper §6 "Cross-device Federated Scenarios":
// Photon "can be extended with existing methods ... such as quantization").
//
// wire_quant + QuantCodec are the q8/q4 blockwise *wire* codecs: per-block
// (256-float) fp32 scales + int8/int4 codes, deterministic
// round-to-nearest-even so the client's error-feedback residual can
// reproduce the server's reconstruction bit for bit.  Registered in
// enabled_wire_codecs() and held to the ≥1 GB/s encode floor by
// bench_round_path.

#include <cstdint>
#include <span>
#include <vector>

#include "comm/compression.hpp"

namespace photon {

// ---------------------------------------------------------------------------
// Blockwise wire quantization (the q8/q4 codec core).
//
// Per-chunk compressed layout (the codec sees one PHO2 wire chunk at a
// time):
//
//   u8   mode          0 = quantized floats, 1 = raw passthrough
//   u32  n_floats      (mode 0) float count in this chunk
//   f32  scale[nb]     nb = ceil(n_floats / kBlockFloats) block max-abs
//                      scales (1.0 for all-zero blocks)
//   u8   codes[]       q8: n_floats int8 codes; q4: per block
//                      ceil(block_len / 2) packed nibble pairs
//
// Mode 1 covers inputs the quantizer cannot interpret as floats (size not a
// multiple of 4, misaligned base, non-finite values): the chunk rides the
// wire verbatim.  Quantization is deterministic round-to-nearest-even via
// the fused SIMD max_abs/quant_i8 kernels — NOT stochastic — which is what
// lets error feedback reconstruct the exact wire loss client-side.
namespace wire_quant {

inline constexpr std::size_t kBlockFloats = 256;

/// Symmetric code range for a bit width: 127 for q8, 7 for q4.
constexpr int code_limit(int bits) { return bits == 4 ? 7 : 127; }

/// Exact mode-0 compressed size for a chunk of n floats.
std::size_t encoded_bytes(std::size_t n_floats, int bits);

/// Encode one chunk of floats into the mode-0 layout (resizes out exactly).
/// Returns false — leaving `out` unspecified — if any block scale is
/// non-finite or n exceeds the u32 header field; the caller then falls back
/// to mode-1 raw passthrough.
bool encode_chunk(const float* x, std::size_t n, int bits,
                  std::vector<std::uint8_t>& out);

/// Decode a full chunk (mode byte included) into exactly out.size() bytes.
/// Throws std::runtime_error on malformed input.
void decode_chunk(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                  int bits);

/// Raw size (bytes) a full encoded chunk decodes to; throws on malformed.
std::size_t decoded_bytes(std::span<const std::uint8_t> in);

/// Overwrite `res` with the blockwise reconstruction error the q8/q4 codec
/// will leave on `x` (res = x - dequant(quant(x))), replicating the PHO2
/// chunking at wire_chunk_bytes() and the per-block scales exactly.  This is
/// the client-side half of error feedback: carrying `res` into the next
/// round's pseudo-gradient makes quantization loss transient instead of
/// cumulative.  Runs the fused quant_i8_ef kernel; deterministic across
/// SIMD variants and thread counts.
void residual_of(const float* x, float* res, std::size_t n, int bits);

}  // namespace wire_quant

/// Blockwise-quantized lossy wire codec ("q8" / "q4").  Lossy: round-trips
/// within scale/code_limit per element, not bit-exactly — excluded from the
/// lossless codec property tests, covered by its own error-bound tests.
class QuantCodec final : public Codec {
 public:
  explicit QuantCodec(int bits);
  std::string name() const override { return bits_ == 4 ? "q4" : "q8"; }
  int quant_bits() const override { return bits_; }
  void compress_into(std::span<const std::uint8_t> input,
                     std::vector<std::uint8_t>& out) const override;
  void decompress_into(std::span<const std::uint8_t> input,
                       std::span<std::uint8_t> out) const override;
  std::vector<std::uint8_t> decompress(
      std::span<const std::uint8_t> input) const override;

 private:
  int bits_;
};

}  // namespace photon
