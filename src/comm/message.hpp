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
// The payload is split into fixed-size raw chunks (ChunkPlan); the codec
// and the CRC run per chunk and the per-chunk CRCs are folded in chunk
// order with crc32_combine, which reproduces the whole-buffer CRC exactly.
// Chunk boundaries depend only on the payload size and the chunk size its
// sender passed to the encode — never on thread count — so the wire bytes
// are bit-identical between serial and parallel encodes.
//
// Zero-copy: a message can borrow its payload (`payload_view`) instead of
// owning it, so one broadcast buffer serves every client without per-client
// copies, and encode/decode work against caller-held scratch buffers
// (`WireScratch`) that are reused across rounds.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
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

/// A sender's reusable encode buffer: the wire image.  Held by each
/// message's sender, whose encode_into fills it and whose SimLink transmits
/// then send it, so repeated rounds allocate nothing after the first.
struct WireScratch {
  std::vector<std::uint8_t> wire;
  /// Byte offset (set by encode_into) where the CRC-protected region of
  /// `wire` begins: the concatenated chunk bytes followed by the CRC field.
  /// Fault injectors flip bits at/after this offset so every injected
  /// corruption is guaranteed to be detectable by the per-chunk CRCs
  /// (header and metadata bytes before it are validated structurally, not
  /// by checksum).
  std::size_t payload_offset = 0;

  /// The concatenated chunk bytes, from payload_offset up to the CRC
  /// field.  In an identity-coded image they are the payload's floats as
  /// raw little-endian bytes, at whatever alignment the header leaves.
  std::span<const std::uint8_t> chunks() const {
    return std::span<const std::uint8_t>(wire).subspan(
        payload_offset, wire.size() - payload_offset - sizeof(std::uint32_t));
  }
};

/// Raw payload bytes per wire chunk of an encode that names no size, and an
/// aggregator's initial chunk size (Aggregator::set_wire_chunk_bytes).
inline constexpr std::size_t kDefaultWireChunkBytes = 256 * 1024;

/// Appends chunk c of a payload, as its codec encodes it, to the image
/// `out` (see Message::encode_into).
using ChunkWriter =
    std::function<void(std::size_t c, std::vector<std::uint8_t>& out)>;

/// The PHO2 chunking of a payload's raw bytes, read by the encoder, the
/// decoder, WireView and the client's error-feedback residual alike.
struct ChunkPlan {
  std::size_t raw_bytes = 0;    // payload bytes
  std::size_t chunk_bytes = 0;  // raw bytes per chunk (the last may be short)

  /// Whether chunks of `chunk_bytes` hold whole floats, as every chunk of a
  /// float payload must: a multiple of 4, 0 (one chunk) included.
  static bool whole_floats(std::size_t chunk_bytes) {
    return chunk_bytes % sizeof(float) == 0;
  }

  /// The plan for a payload of `raw_bytes` (whole floats) at `chunk_bytes`
  /// per chunk; 0, or a size past the payload, makes the whole payload one
  /// chunk.  Throws std::invalid_argument unless whole_floats(chunk_bytes).
  static ChunkPlan of(std::size_t raw_bytes, std::size_t chunk_bytes) {
    if (!whole_floats(chunk_bytes)) {
      throw std::invalid_argument("ChunkPlan: chunk size splits a float");
    }
    return {raw_bytes, chunk_bytes == 0 || chunk_bytes > raw_bytes
                           ? std::max<std::size_t>(raw_bytes, 1)
                           : chunk_bytes};
  }

  std::size_t n_chunks() const {
    return raw_bytes == 0 ? 0 : (raw_bytes + chunk_bytes - 1) / chunk_bytes;
  }
  std::size_t raw_off(std::size_t c) const { return c * chunk_bytes; }
  std::size_t raw_len(std::size_t c) const {
    return std::min(chunk_bytes, raw_bytes - raw_off(c));
  }
};

/// A validated-but-undecoded wire image: header parsed, every chunk CRC
/// verified, compressed chunk bytes read where they lie.  Because the wire
/// CRC covers the *codec output* bytes, integrity checking needs no
/// decompression — which is what lets the Aggregator's streamed fan-in
/// dequantize-and-accumulate each chunk as it arrives instead of
/// materializing the full fp32 payload per client (Message::validate_wire).
/// The view owns no bytes: it borrows the image validate_wire checked.  Its
/// ChunkPlan is the payload's (raw_bytes = elems * sizeof(float)).
struct WireView : ChunkPlan {
  std::span<const std::uint8_t> bytes;  // the validated image, borrowed
  std::string codec;
  std::uint64_t elems = 0;          // payload float count
  std::vector<std::uint64_t> lens;  // compressed length per chunk
  std::vector<std::uint64_t> offs;  // absolute chunk offsets into `bytes`

  std::span<const std::uint8_t> chunk(std::size_t c) const {
    return bytes.subspan(offs[c], lens[c]);
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

  /// Serialize to wire bytes: encode_into, into a buffer of its own.
  std::vector<std::uint8_t> encode(
      std::size_t chunk_bytes = kDefaultWireChunkBytes) const;

  /// Chunked encode into reused scratch.wire, sized once, in the ChunkPlan
  /// at `chunk_bytes` (ChunkPlan::of).  The identity encode's per-chunk
  /// copy+CRC runs on `pool` when given (nullptr = inline); a codec appends
  /// its chunks in order, patching the length table and folding the CRC as
  /// each lands.  A codec's chunks come from `write_chunk` when one is given
  /// (a sender that forms its payload and encodes it in one walk of the same
  /// plan, wire_quant::UpdateWalk), else from the codec's compress_into.
  /// Returns a view of scratch.wire.  Bytes are identical for any pool /
  /// thread count.
  std::span<const std::uint8_t> encode_into(
      WireScratch& scratch, std::size_t chunk_bytes = kDefaultWireChunkBytes,
      ThreadPool* pool = nullptr, const ChunkWriter& write_chunk = {}) const;

  /// Overwrite metadata value `key` in the header of the image `wire`, in
  /// place.  The header precedes the CRC-protected chunks and its layout
  /// does not depend on the values, so a sender can write in a value its
  /// own encode computed.  Throws std::runtime_error if the image has no
  /// such key.
  static void set_metadata(std::span<std::uint8_t> wire,
                           const std::string& key, double value);

  /// Parse wire bytes; throws std::runtime_error on CRC mismatch,
  /// truncation, or a chunk size that splits a float.
  static Message decode(std::span<const std::uint8_t> wire);

  /// Decode into `out`, reusing its payload capacity; per-chunk CRC and
  /// codec work runs on `pool` when given.
  static void decode_into(std::span<const std::uint8_t> wire, Message& out,
                          ThreadPool* pool = nullptr);

  /// Decode into a caller's buffer: the header fields and metadata go into
  /// `header` (its payload_view cleared, its payload left as it is), the
  /// payload into `payload`, which must hold exactly the image's float
  /// count.  The same decode as above: each chunk's copy or decompress
  /// runs with its CRC on `pool`, so a corrupted image has written some
  /// of `payload` by the time it throws.  Throws std::runtime_error where
  /// the overload above would, and on a float count other than
  /// payload.size().
  static void decode_into(std::span<const std::uint8_t> wire,
                          Message& header, std::span<float> payload,
                          ThreadPool* pool = nullptr);

  /// Validate `wire` without decompressing: parse the header into `out`
  /// (payload left empty), CRC-check every chunk on `pool`, and point
  /// `view` at `wire`.  The view borrows `wire`: it is good only while
  /// those bytes stay alive and unchanged.  view.bytes is set only once
  /// the CRC check passes, so a view never points at bytes that failed it.
  /// Throws std::runtime_error wherever decode_into's frame parse or CRC
  /// check would; it runs no codec, so none of the dequantization cost.
  static void validate_wire(std::span<const std::uint8_t> wire, Message& out,
                            WireView& view, ThreadPool* pool = nullptr);

  /// The codec named in `wire`'s header, read without checking the rest of
  /// the image.  Throws std::runtime_error on a bad magic or a header cut
  /// short.
  static std::string peek_codec(std::span<const std::uint8_t> wire);
};

}  // namespace photon
