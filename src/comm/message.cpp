#include "comm/message.hpp"

#include <cstring>
#include <stdexcept>

#include "comm/compression.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

constexpr std::uint32_t kMagic = 0x324F4850;  // "PHO2"
constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

std::size_t g_chunk_bytes = kDefaultChunkBytes;

// Fixed chunking of the raw payload bytes.  Boundaries depend only on the
// payload size and the configured chunk size — never on the thread count —
// which is what makes serial and parallel encodes bit-identical.
struct ChunkPlan {
  std::size_t raw_bytes = 0;
  std::size_t chunk_bytes = 0;
  std::size_t n_chunks = 0;

  std::size_t raw_off(std::size_t c) const { return c * chunk_bytes; }
  std::size_t raw_len(std::size_t c) const {
    const std::size_t off = raw_off(c);
    return std::min(chunk_bytes, raw_bytes - off);
  }
};

ChunkPlan plan_chunks(std::size_t raw_bytes, std::size_t chunk_bytes) {
  ChunkPlan p;
  p.raw_bytes = raw_bytes;
  p.chunk_bytes = (chunk_bytes == 0 || chunk_bytes > raw_bytes)
                      ? std::max<std::size_t>(raw_bytes, 1)
                      : chunk_bytes;
  p.n_chunks = raw_bytes == 0 ? 0 : (raw_bytes + p.chunk_bytes - 1) / p.chunk_bytes;
  return p;
}

// Run fn(c) for each chunk, on the pool when one is given and there is more
// than one chunk.  ThreadPool::parallel_for traps per-chunk exceptions
// (malformed codec input, CRC problems), joins every task, and rethrows the
// lowest-index one, so no task can outlive the locals it references and the
// surfaced error is deterministic.
void for_chunks(ThreadPool* pool, std::size_t n,
                const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (std::size_t c = 0; c < n; ++c) fn(c);
    return;
  }
  pool->parallel_for(n, fn);
}

std::uint32_t fold_crcs(const std::vector<std::uint32_t>& crcs,
                        const std::vector<std::uint64_t>& lens) {
  std::uint32_t folded = 0;
  bool first = true;
  for (std::size_t c = 0; c < crcs.size(); ++c) {
    if (lens[c] == 0) continue;
    folded = first ? crcs[c] : crc32_combine(folded, crcs[c], lens[c]);
    first = false;
  }
  return folded;
}

const Codec* require_codec(const std::string& name, const char* who) {
  const Codec* codec_ptr = codec_by_name(name);
  if (codec_ptr == nullptr) {
    throw std::runtime_error(std::string(who) + ": unknown codec " + name);
  }
  return codec_ptr;
}

/// The one PHO2 frame parser: the header goes into `out` (metadata
/// replaced, payload untouched), the chunk table into `view` (offsets into
/// `wire`, `bytes` untouched).  Returns the CRC the chunk bytes must fold
/// to.  Throws std::runtime_error on a bad magic, an unknown codec, or a
/// chunk table that does not fit the payload size or the wire.
std::uint32_t parse_frame(std::span<const std::uint8_t> wire, Message& out,
                          WireView& view) {
  BinaryReader r(wire);
  if (r.read<std::uint32_t>() != kMagic) {
    throw std::runtime_error("Message::decode: bad magic");
  }
  out.type = static_cast<MessageType>(r.read<std::uint8_t>());
  out.round = r.read<std::uint32_t>();
  out.sender = r.read<std::uint32_t>();
  out.codec = r.read_string();
  out.metadata.clear();
  const auto n_meta = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_meta; ++i) {
    const std::string key = r.read_string();
    out.metadata[key] = r.read<double>();
  }
  const auto elems = r.read<std::uint64_t>();
  const auto chunk_bytes = r.read<std::uint64_t>();
  const auto n_chunks = r.read<std::uint32_t>();

  // No codec expands a wire byte into more than 128 raw bytes (rle0 tops
  // out at 255 raw per 2-byte op), so this bound rejects corrupted element
  // counts before any payload resize without overflowing elems * 4.
  if (elems / 128 > wire.size()) {
    throw std::runtime_error("Message::decode: implausible payload size");
  }
  const std::size_t raw_bytes = static_cast<std::size_t>(elems) * sizeof(float);
  const ChunkPlan plan = plan_chunks(raw_bytes, chunk_bytes);
  if (plan.n_chunks != n_chunks ||
      (raw_bytes != 0 && plan.chunk_bytes != chunk_bytes)) {
    throw std::runtime_error("Message::decode: bad chunk table");
  }
  view.lens.resize(n_chunks);
  view.offs.resize(n_chunks);
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < n_chunks; ++c) {
    view.lens[c] = r.read<std::uint64_t>();
    view.offs[c] = total;
    if (view.lens[c] > r.remaining()) {
      throw std::runtime_error("Message::decode: truncated chunk table");
    }
    total += view.lens[c];
  }
  const auto data = r.view_raw(total);
  const auto data_off = static_cast<std::size_t>(data.data() - wire.data());
  for (std::uint64_t& off : view.offs) off += data_off;
  require_codec(out.codec, "Message::decode");
  view.codec = out.codec;
  view.elems = elems;
  view.raw_bytes = raw_bytes;
  view.chunk_raw_bytes = plan.chunk_bytes;
  return r.read<std::uint32_t>();
}

void write_header(BinaryWriter& w, const Message& m, const ChunkPlan& plan) {
  w.write(kMagic);
  w.write(static_cast<std::uint8_t>(m.type));
  w.write(m.round);
  w.write(m.sender);
  w.write_string(m.codec);
  w.write(static_cast<std::uint64_t>(m.metadata.size()));
  for (const auto& [key, value] : m.metadata) {
    w.write_string(key);
    w.write(value);
  }
  w.write(static_cast<std::uint64_t>(m.view().size()));
  w.write(static_cast<std::uint64_t>(plan.chunk_bytes));
  w.write(static_cast<std::uint32_t>(plan.n_chunks));
}

}  // namespace

std::size_t wire_chunk_bytes() { return g_chunk_bytes; }
void set_wire_chunk_bytes(std::size_t bytes) { g_chunk_bytes = bytes; }

std::span<const std::uint8_t> Message::encode_into(WireScratch& scratch,
                                                   ThreadPool* pool) const {
  const Codec* codec_ptr = require_codec(codec, "Message");
  const auto pv = view();
  const auto* raw = reinterpret_cast<const std::uint8_t*>(pv.data());
  const ChunkPlan plan = plan_chunks(pv.size() * sizeof(float), g_chunk_bytes);

  BinaryWriter w{std::move(scratch.wire)};
  write_header(w, *this, plan);

  std::vector<std::uint32_t> crcs(plan.n_chunks);
  std::vector<std::uint64_t> lens(plan.n_chunks);

  if (codec_ptr->is_identity()) {
    // Identity fast path: compressed bytes == raw bytes, so every chunk's
    // wire offset is known up front.  Write the length table, size the
    // buffer once (CRC included, so its append never reallocates), then
    // fused copy+CRC each chunk straight into place — one pass over the
    // payload instead of a memcpy followed by a CRC pass.
    for (std::size_t c = 0; c < plan.n_chunks; ++c) {
      lens[c] = plan.raw_len(c);
      w.write(lens[c]);
    }
    auto buf = w.take();
    const std::size_t data_off = buf.size();
    scratch.payload_offset = data_off;
    buf.reserve(data_off + plan.raw_bytes + sizeof(std::uint32_t));
    buf.resize(data_off + plan.raw_bytes);
    for_chunks(pool, plan.n_chunks, [&](std::size_t c) {
      const std::size_t off = plan.raw_off(c);
      const std::size_t len = plan.raw_len(c);
      crcs[c] = crc32_copy(buf.data() + data_off + off, {raw + off, len});
    });
    const std::uint32_t folded = fold_crcs(crcs, lens);
    const auto* cp = reinterpret_cast<const std::uint8_t*>(&folded);
    buf.insert(buf.end(), cp, cp + sizeof(folded));
    scratch.wire = std::move(buf);
    return scratch.wire;
  }

  // Codec path: compress chunks (in parallel) into reused per-chunk scratch
  // buffers, then lay the length table and chunk bytes into the wire.
  if (scratch.chunks.size() < plan.n_chunks) scratch.chunks.resize(plan.n_chunks);
  for_chunks(pool, plan.n_chunks, [&](std::size_t c) {
    const std::size_t off = plan.raw_off(c);
    const std::size_t len = plan.raw_len(c);
    codec_ptr->compress_into({raw + off, len}, scratch.chunks[c]);
    crcs[c] = crc32(scratch.chunks[c]);
  });
  std::size_t total = 0;
  for (std::size_t c = 0; c < plan.n_chunks; ++c) {
    lens[c] = scratch.chunks[c].size();
    total += scratch.chunks[c].size();
    w.write(lens[c]);
  }
  auto buf = w.take();
  scratch.payload_offset = buf.size();
  buf.reserve(buf.size() + total + sizeof(std::uint32_t));
  for (std::size_t c = 0; c < plan.n_chunks; ++c) {
    buf.insert(buf.end(), scratch.chunks[c].begin(), scratch.chunks[c].end());
  }
  const std::uint32_t folded = fold_crcs(crcs, lens);
  const auto* cp = reinterpret_cast<const std::uint8_t*>(&folded);
  buf.insert(buf.end(), cp, cp + sizeof(folded));
  scratch.wire = std::move(buf);
  return scratch.wire;
}

std::vector<std::uint8_t> Message::encode() const {
  WireScratch scratch;
  encode_into(scratch, nullptr);
  return std::move(scratch.wire);
}

void Message::decode_into(std::span<const std::uint8_t> wire, Message& out,
                          ThreadPool* pool) {
  WireView v;
  const std::uint32_t expected_crc = parse_frame(wire, out, v);
  out.payload_view = {};
  out.payload.resize(v.elems);
  auto* raw_out = reinterpret_cast<std::uint8_t*>(out.payload.data());
  const Codec* codec_ptr = codec_by_name(v.codec);
  std::vector<std::uint32_t> crcs(v.n_chunks());
  const bool identity = codec_ptr->is_identity();
  for_chunks(pool, v.n_chunks(), [&](std::size_t c) {
    const auto comp = wire.subspan(v.offs[c], v.lens[c]);
    if (identity && comp.size() == v.raw_len(c)) {
      // Fused copy+CRC; a size mismatch falls through to decompress_into,
      // which raises the usual corrupt-chunk error.
      crcs[c] = crc32_copy(raw_out + v.raw_off(c), comp);
    } else {
      crcs[c] = crc32(comp);
      codec_ptr->decompress_into(comp, {raw_out + v.raw_off(c), v.raw_len(c)});
    }
  });
  if (fold_crcs(crcs, v.lens) != expected_crc) {
    throw std::runtime_error("Message::decode: CRC mismatch");
  }
}

Message Message::decode(std::span<const std::uint8_t> wire) {
  Message m;
  decode_into(wire, m, nullptr);
  return m;
}

void Message::validate_wire(std::span<const std::uint8_t> wire, Message& out,
                            WireView& view, ThreadPool* pool) {
  const std::uint32_t expected_crc = parse_frame(wire, out, view);
  // The wire CRC is folded over the *compressed* chunk bytes, so integrity
  // is fully checked here without touching the codec.
  std::vector<std::uint32_t> crcs(view.n_chunks());
  for_chunks(pool, view.n_chunks(), [&](std::size_t c) {
    crcs[c] = crc32(wire.subspan(view.offs[c], view.lens[c]));
  });
  if (fold_crcs(crcs, view.lens) != expected_crc) {
    throw std::runtime_error("Message::decode: CRC mismatch");
  }
  out.payload.clear();
  out.payload_view = {};
  view.bytes.assign(wire.begin(), wire.end());
}

}  // namespace photon
