#pragma once
// Link wire messages between the Aggregator and LLM clients.
//
// A message carries model parameters or pseudo-gradients plus training
// metadata (paper §4, "Link between Agg and LLM-C": payloads carry training
// and evaluation instructions, metrics, and global instructions).  Payloads
// are CRC-protected and optionally compressed with a lossless codec.
//
// Wire format (little-endian, no padding):
//
//   u32  magic "PHO2"
//   u8   type,  u32 round,  u32 sender
//   str  codec
//   u64  n_meta, then (str key, f64 value) * n_meta
//   u64  payload_elems        number of floats in the payload
//   u64  chunk_raw_bytes      raw payload bytes per chunk (last may be short)
//   u32  n_chunks
//   u64  compressed_len[n_chunks]
//   ...  concatenated per-chunk codec output
//   u32  crc                  CRC32 of the concatenated chunk bytes
//
// The payload is split into fixed-size raw chunks; the codec and the CRC
// run per chunk (parallelizable across a ThreadPool) and the per-chunk
// CRCs are folded in chunk order with crc32_combine, which reproduces the
// whole-buffer CRC exactly.  Chunk boundaries depend only on the payload
// size and the configured chunk size — never on thread count — so the
// wire bytes are bit-identical between serial and parallel encodes.
//
// Zero-copy: a message can borrow its payload (`payload_view`) instead of
// owning it, so one broadcast buffer serves every client without per-client
// copies, and encode/decode work against caller-held scratch buffers
// (`WireScratch`) that are reused across rounds.

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/serialization.hpp"

namespace photon {

class ThreadPool;

enum class MessageType : std::uint8_t {
  kModelBroadcast = 0,  // Agg -> LLM-C: global parameters + round config
  kClientUpdate = 1,    // LLM-C -> Agg: pseudo-gradient + metrics
  kMetrics = 2,         // LLM-C -> Agg: metrics only (eval rounds)
  kControl = 3,         // either direction: instructions
};

/// Reusable encode scratch: the wire buffer plus per-chunk codec output
/// buffers.  Held by each SimLink so repeated transmits allocate nothing
/// after the first round.
struct WireScratch {
  std::vector<std::uint8_t> wire;
  std::vector<std::vector<std::uint8_t>> chunks;
  /// Byte offset (set by encode_into) where the CRC-protected region of
  /// `wire` begins: the concatenated chunk bytes followed by the CRC field.
  /// Fault injectors flip bits at/after this offset so every injected
  /// corruption is guaranteed to be detectable by the per-chunk CRCs
  /// (header and metadata bytes before it are validated structurally, not
  /// by checksum).
  std::size_t payload_offset = 0;
};

/// Raw payload bytes per wire chunk (default 256 KiB; 0 = one chunk for
/// the whole payload).  Settable for tests and benches; changing it changes
/// the wire bytes of compressed messages, so set it once at startup.
std::size_t wire_chunk_bytes();
void set_wire_chunk_bytes(std::size_t bytes);

/// A validated-but-undecoded wire image: header parsed, every chunk CRC
/// verified, compressed chunk bytes retained verbatim.  Because the wire CRC
/// covers the *codec output* bytes, integrity checking needs no
/// decompression — which is what lets the Aggregator's streamed fan-in
/// dequantize-and-accumulate each chunk as it arrives instead of
/// materializing the full fp32 payload per client (Message::validate_wire).
struct WireView {
  std::vector<std::uint8_t> bytes;  // owned copy of the full wire image
  std::string codec;
  std::uint64_t elems = 0;          // payload float count
  std::size_t raw_bytes = 0;        // elems * sizeof(float)
  std::size_t chunk_raw_bytes = 0;  // raw payload bytes per chunk
  std::vector<std::uint64_t> lens;  // compressed length per chunk
  std::vector<std::uint64_t> offs;  // absolute chunk offsets into `bytes`

  std::size_t n_chunks() const { return lens.size(); }
  std::size_t raw_off(std::size_t c) const { return c * chunk_raw_bytes; }
  std::size_t raw_len(std::size_t c) const {
    return std::min(chunk_raw_bytes, raw_bytes - raw_off(c));
  }
  std::span<const std::uint8_t> chunk(std::size_t c) const {
    return {bytes.data() + offs[c], static_cast<std::size_t>(lens[c])};
  }
};

struct Message {
  MessageType type = MessageType::kControl;
  std::uint32_t round = 0;
  std::uint32_t sender = 0;
  std::string codec;                         // "" = uncompressed payload
  std::vector<float> payload;                // parameters / pseudo-gradient
  std::map<std::string, double> metadata;    // metrics & instructions

  /// Zero-copy alternative to `payload`: a non-owning view that must stay
  /// valid for the duration of any encode/transmit.  When non-empty it
  /// takes precedence over `payload`, letting one buffer (e.g. the global
  /// model) back the broadcast to every client without K copies.
  std::span<const float> payload_view{};

  /// The payload this message would put on the wire.
  std::span<const float> view() const {
    return payload_view.empty() ? std::span<const float>(payload)
                                : payload_view;
  }

  /// Serialize to wire bytes (header + optionally compressed payload + CRC).
  std::vector<std::uint8_t> encode() const;

  /// Chunked encode into reused scratch; per-chunk codec and CRC work runs
  /// on `pool` when given (nullptr = inline).  Returns a view of
  /// scratch.wire.  Bytes are identical for any pool / thread count.
  std::span<const std::uint8_t> encode_into(WireScratch& scratch,
                                            ThreadPool* pool = nullptr) const;

  /// Parse wire bytes; throws std::runtime_error on CRC mismatch or
  /// truncation.
  static Message decode(std::span<const std::uint8_t> wire);

  /// Decode into `out`, reusing its payload capacity; per-chunk CRC and
  /// codec work runs on `pool` when given.
  static void decode_into(std::span<const std::uint8_t> wire, Message& out,
                          ThreadPool* pool = nullptr);

  /// Validate `wire` without decompressing: parse the header into `out`
  /// (payload left empty), CRC-check every chunk on `pool`, and retain the
  /// compressed image in `view` (capacity reused across rounds).  Throws
  /// std::runtime_error exactly where decode_into would — same corruption
  /// detection, none of the dequantization cost.
  static void validate_wire(std::span<const std::uint8_t> wire, Message& out,
                            WireView& view, ThreadPool* pool = nullptr);
};

}  // namespace photon
