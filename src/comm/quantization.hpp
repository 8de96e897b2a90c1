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

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/compression.hpp"
#include "comm/message.hpp"

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

/// Append one chunk of n floats to `out` in the mode-0 layout (exactly
/// encoded_bytes(n, bits) bytes), or, when a block is not finite or n
/// exceeds the u32 header field, as a mode-1 raw chunk.  Returns whether
/// the chunk went out quantized.  This is UpdateWalk's chunk walk with
/// nothing to form and no residual: x is only read.
bool encode_chunk(const float* x, std::size_t n, int bits,
                  std::vector<std::uint8_t>& out);

/// Decode a full chunk (mode byte included) into exactly out.size() bytes.
/// Throws std::runtime_error on malformed input.
void decode_chunk(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                  int bits);

/// Fold a full encoded chunk (mode byte included) of n_floats floats into
/// an fp64 weighted sum: acc[e] += w * x[e] for the floats x that
/// decode_chunk (or, for a mode-1 chunk, the raw passthrough) would yield,
/// bit for bit, without writing them out.  Mode-0 codes dequantize straight
/// from the wire through the SIMD dequant_i8_acc_pd op.  Throws
/// std::runtime_error wherever QuantCodec::decompress_into would.
void accumulate_chunk(std::span<const std::uint8_t> in, std::size_t n_floats,
                      int bits, double w, double* acc);

/// Raw size (bytes) a full encoded chunk decodes to; throws on malformed.
std::size_t decoded_bytes(std::span<const std::uint8_t> in);

/// Overwrite `res` with the blockwise reconstruction error the q8/q4 codec
/// will leave on `x` (res = x - dequant(quant(x))), walking the PHO2
/// ChunkPlan at wire_chunk_bytes() with the update walk (its codes go to a
/// scratch image); a chunk the codec sends raw leaves a zero residual.
/// This is the client-side half of error feedback: carrying `res` into the
/// next round's pseudo-gradient makes quantization loss transient instead
/// of cumulative.  Deterministic across SIMD variants and thread counts.
void residual_of(const float* x, float* res, std::size_t n, int bits);

/// x[i] = g[i] - x[i] over n floats, where g is the global model as its
/// broadcast image carries it: `global` points at g's raw little-endian
/// bytes, at any alignment.  This forms a client's update delta
/// theta_global - theta_k over its trained params.  `global` is read in
/// aligned kBlockFloats blocks through memcpy, never through a misaligned
/// float*, and each block is the arithmetic of simd::Ops::sub.
void form_delta(float* x, const std::uint8_t* global, std::size_t n);

/// A client's lossy update encode (Alg. 1 L28, DESIGN.md §11), and the
/// one writer of the q8/q4 chunk layout.  write_chunk walks one PHO2 chunk
/// of the payload (ChunkPlan order, as Message::encode_into's chunk
/// writer) in a single pass, 256-float block by block, each block in L1
/// while the walk
///   1. forms the update in place over the trained params `x`:
///      x = global - x as form_delta does (unless global is nullptr),
///      then x += residual (unless residual is nullptr), the arithmetic of
///      sub followed by acc;
///   2. takes the block's max-abs and appends its scale and codes;
///   3. overwrites the residual with x - dequant(quant(x)).
/// A non-finite block anywhere in a chunk sends that chunk raw (mode 1):
/// the rest of the chunk is still formed, the codes appended so far give
/// way to the formed bytes, and the chunk's residual is zeroed.  So `x`
/// ends as the update sent, `residual` as the loss it leaves, and the
/// chunks as the q8/q4 codec's output for that update.  With global ==
/// nullptr the delta is already formed in `x` (clip and DP noise ran on
/// it first).
class UpdateWalk {
 public:
  UpdateWalk(float* x, const std::uint8_t* global, float* residual,
             std::size_t n, int bits);

  /// Appends chunk c's codec output to `out`.  Chunks come in order.
  void write_chunk(std::size_t c, std::vector<std::uint8_t>& out);

  /// The new residual's L2 norm with kernels::l2_norm's bits: each
  /// kNormBlock block's sumsq_pd, taken once the walk has written that
  /// block, added in block order.  Read it after the last chunk.
  double residual_norm() const { return std::sqrt(sumsq_); }

 private:
  float* x_;
  const std::uint8_t* global_;
  float* res_;
  std::size_t n_;
  int bits_;
  ChunkPlan plan_;
  std::size_t normed_ = 0;  // residual floats summed into sumsq_ so far
  double sumsq_ = 0.0;
};

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
