#pragma once
// Payload codecs for the Link post-processing pipeline (paper §4: "By
// default, Photon uses lossless compression techniques without pruning").
//
//  * rle0  — run-length encodes zero bytes; effective on clipped/sparse
//            pseudo-gradients and on padded buffers.  Round-trips
//            bit-exactly on arbitrary input (property-tested).
//  * q8/q4 — lossy blockwise-quantized wire codecs (quantization.hpp).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace photon {

class Codec {
 public:
  virtual ~Codec() = default;
  virtual std::string name() const = 0;

  /// True for the "" pass-through codec: compressed bytes == input bytes.
  /// Callers use this to skip intermediate buffers entirely.
  virtual bool is_identity() const { return false; }

  /// Nonzero for lossy blockwise-quantized codecs (q8 -> 8, q4 -> 4).  The
  /// Aggregator keys the streamed dequantize-and-accumulate fan-in on this,
  /// and clients key error-feedback residual tracking on it; lossless
  /// codecs return 0.
  virtual int quant_bits() const { return 0; }

  /// Compress into `out`, reusing its capacity (cleared first).  This is
  /// the allocation-free primitive the chunked Message path calls per
  /// chunk with scratch buffers held across rounds.
  virtual void compress_into(std::span<const std::uint8_t> input,
                             std::vector<std::uint8_t>& out) const = 0;

  /// Decompress into the caller-provided buffer of exactly the original
  /// size (the chunked wire format stores it).  Writes no temporaries.
  /// Throws std::runtime_error on malformed input or if the output does
  /// not fill `out` exactly.
  virtual void decompress_into(std::span<const std::uint8_t> input,
                               std::span<std::uint8_t> out) const = 0;

  /// Size-discovering decompress (legacy convenience; allocates).
  virtual std::vector<std::uint8_t> decompress(
      std::span<const std::uint8_t> input) const = 0;

  std::vector<std::uint8_t> compress(std::span<const std::uint8_t> input) const {
    std::vector<std::uint8_t> out;
    compress_into(input, out);
    return out;
  }
};

class Rle0Codec final : public Codec {
 public:
  std::string name() const override { return "rle0"; }
  void compress_into(std::span<const std::uint8_t> input,
                     std::vector<std::uint8_t>& out) const override;
  void decompress_into(std::span<const std::uint8_t> input,
                       std::span<std::uint8_t> out) const override;
  std::vector<std::uint8_t> decompress(
      std::span<const std::uint8_t> input) const override;
};

/// Codec registry; returns nullptr for unknown names, and an identity for "".
const Codec* codec_by_name(const std::string& name);

/// Codecs eligible for default wire paths: "" identity, lossless "rle0",
/// and the lossy blockwise-quantized "q8"/"q4" (see quantization.hpp).
/// Every lossless entry must sustain >= 0.3 GB/s encode and every quantized
/// entry >= 1 GB/s on adversarial payloads — enforced by bench_round_path.
const std::vector<std::string>& enabled_wire_codecs();

}  // namespace photon
