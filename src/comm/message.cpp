#include "comm/message.hpp"

#include <cstring>
#include <stdexcept>

#include "comm/compression.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

constexpr std::uint32_t kMagic = 0x324F4850;  // "PHO2"

/// Folds per-chunk CRCs, in chunk order, into the CRC of the chunks laid
/// end to end (crc32_combine); an empty chunk adds nothing.
struct CrcFold {
  std::uint32_t crc = 0;
  bool empty = true;
  void add(std::uint32_t chunk_crc, std::uint64_t len) {
    if (len == 0) return;
    crc = empty ? chunk_crc : crc32_combine(crc, chunk_crc, len);
    empty = false;
  }
};

/// CRC-checks every chunk of `v`: crc_of(c), which may decode chunk c on
/// the way, runs per chunk on `pool` when one is given.  Throws
/// std::runtime_error unless the CRCs fold to `expected`.
void check_chunks(const WireView& v, std::uint32_t expected, ThreadPool* pool,
                  const std::function<std::uint32_t(std::size_t)>& crc_of) {
  std::vector<std::uint32_t> crcs(v.n_chunks());
  const auto run = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) crcs[c] = crc_of(c);
  };
  if (pool != nullptr) {
    pool->parallel_for(crcs.size(), 1, run);
  } else {
    run(0, crcs.size());
  }
  CrcFold fold;
  for (std::size_t c = 0; c < crcs.size(); ++c) fold.add(crcs[c], v.lens[c]);
  if (fold.crc != expected) {
    throw std::runtime_error("Message::decode: CRC mismatch");
  }
}

const Codec* require_codec(const std::string& name, const char* who) {
  const Codec* codec_ptr = codec_by_name(name);
  if (codec_ptr == nullptr) {
    throw std::runtime_error(std::string(who) + ": unknown codec " + name);
  }
  return codec_ptr;
}

/// The header fields ahead of the metadata: magic, type, round, sender
/// and codec.  Throws std::runtime_error on a bad magic.
void read_prefix(BinaryReader& r, Message& out) {
  if (r.read<std::uint32_t>() != kMagic) {
    throw std::runtime_error("Message::decode: bad magic");
  }
  out.type = static_cast<MessageType>(r.read<std::uint8_t>());
  out.round = r.read<std::uint32_t>();
  out.sender = r.read<std::uint32_t>();
  out.codec = r.read_string();
}

/// The one PHO2 frame parser: the header goes into `out` (metadata
/// replaced, payload untouched), the chunk table into `view` (offsets into
/// `wire`, `bytes` untouched).  Returns the CRC the chunk bytes must fold
/// to.  Throws std::runtime_error on a bad magic, an unknown codec, a chunk
/// size that splits a float, or a chunk table that does not fit the payload
/// size or the wire.
std::uint32_t parse_frame(std::span<const std::uint8_t> wire, Message& out,
                          WireView& view) {
  BinaryReader r(wire);
  read_prefix(r, out);
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
  // An empty payload is no chunk at any size (its encode writes 1); any
  // other chunk must hold whole floats, or a fold by raw_len / 4 skips some.
  if (raw_bytes != 0 && !ChunkPlan::whole_floats(chunk_bytes)) {
    throw std::runtime_error("Message::decode: chunk size splits a float");
  }
  const ChunkPlan plan =
      ChunkPlan::of(raw_bytes, raw_bytes == 0 ? 0 : chunk_bytes);
  if (plan.n_chunks() != n_chunks ||
      (raw_bytes != 0 && plan.chunk_bytes != chunk_bytes)) {
    throw std::runtime_error("Message::decode: bad chunk table");
  }
  static_cast<ChunkPlan&>(view) = plan;
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
  return r.read<std::uint32_t>();
}

/// The payload decode behind both decode_into overloads: every chunk of
/// the frame parse_frame read into `v` is copied or decompressed into
/// `out` (exactly v.elems floats) and CRC-checked against `expected_crc`.
void decode_payload(std::span<const std::uint8_t> wire, const WireView& v,
                    std::uint32_t expected_crc, std::span<float> out,
                    ThreadPool* pool) {
  auto* raw_out = reinterpret_cast<std::uint8_t*>(out.data());
  const Codec* codec_ptr = codec_by_name(v.codec);
  const bool identity = codec_ptr->is_identity();
  check_chunks(v, expected_crc, pool, [&](std::size_t c) {
    const auto comp = wire.subspan(v.offs[c], v.lens[c]);
    std::uint8_t* out_c = raw_out + v.raw_off(c);
    if (identity && comp.size() == v.raw_len(c)) {
      // Fused copy+CRC; a size mismatch falls through to decompress_into,
      // which raises the usual corrupt-chunk error.
      return crc32_copy(out_c, comp);
    }
    codec_ptr->decompress_into(comp, {out_c, v.raw_len(c)});
    return crc32(comp);
  });
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
  w.write(static_cast<std::uint32_t>(plan.n_chunks()));
}

}  // namespace

std::span<const std::uint8_t> Message::encode_into(
    WireScratch& scratch, std::size_t chunk_bytes, ThreadPool* pool,
    const ChunkWriter& write_chunk) const {
  const Codec* codec_ptr = require_codec(codec, "Message");
  const auto pv = view();
  const auto* raw = reinterpret_cast<const std::uint8_t*>(pv.data());
  const ChunkPlan plan = ChunkPlan::of(pv.size() * sizeof(float), chunk_bytes);
  const std::size_t n_chunks = plan.n_chunks();
  const bool identity = codec_ptr->is_identity();

  BinaryWriter w{std::move(scratch.wire)};
  write_header(w, *this, plan);
  const std::size_t table_off = w.size();
  for (std::size_t c = 0; c < n_chunks; ++c) {
    w.write(static_cast<std::uint64_t>(identity ? plan.raw_len(c) : 0));
  }
  auto buf = w.take();
  const std::size_t data_off = buf.size();
  scratch.payload_offset = data_off;
  // Size the image once, CRC included, at its all-raw size.  That bounds
  // the whole identity, q8 or q4 image, though not each chunk: a q8/q4
  // chunk of under 3 floats outgrows its raw bytes plus mode byte by up to
  // 5 bytes, which any full chunk of 20 bytes or more pays back.  Only a
  // payload of such short chunks alone, or rle0 that does not shrink, can
  // grow the image.
  buf.reserve(data_off + plan.raw_bytes + n_chunks + sizeof(std::uint32_t));
  CrcFold fold;
  if (identity) {
    // Compressed bytes == raw bytes, so every chunk's offset is known up
    // front: fused copy+CRC each chunk straight into place, on the pool.
    buf.resize(data_off + plan.raw_bytes);
    std::vector<std::uint32_t> crcs(n_chunks);
    const auto copy = [&](std::size_t c0, std::size_t c1) {
      for (std::size_t c = c0; c < c1; ++c) {
        const std::size_t off = plan.raw_off(c);
        crcs[c] = crc32_copy(buf.data() + data_off + off,
                             {raw + off, plan.raw_len(c)});
      }
    };
    if (pool != nullptr) {
      pool->parallel_for(n_chunks, 1, copy);
    } else {
      copy(0, n_chunks);
    }
    for (std::size_t c = 0; c < n_chunks; ++c) {
      fold.add(crcs[c], plan.raw_len(c));
    }
  } else {
    // A chunk's compressed length is known only once it is written: append
    // the chunks in order, patching each length into the table and folding
    // its CRC in while its bytes are hot.
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t start = buf.size();
      if (write_chunk) {
        write_chunk(c, buf);
      } else {
        codec_ptr->compress_into({raw + plan.raw_off(c), plan.raw_len(c)},
                                 buf);
      }
      const std::uint64_t len = buf.size() - start;
      std::memcpy(buf.data() + table_off + c * sizeof(len), &len, sizeof(len));
      fold.add(crc32({buf.data() + start, len}), len);
    }
  }
  const auto* cp = reinterpret_cast<const std::uint8_t*>(&fold.crc);
  buf.insert(buf.end(), cp, cp + sizeof(fold.crc));
  scratch.wire = std::move(buf);
  return scratch.wire;
}

std::vector<std::uint8_t> Message::encode(std::size_t chunk_bytes) const {
  WireScratch scratch;
  encode_into(scratch, chunk_bytes);
  return std::move(scratch.wire);
}

void Message::decode_into(std::span<const std::uint8_t> wire, Message& out,
                          ThreadPool* pool) {
  WireView v;
  const std::uint32_t expected_crc = parse_frame(wire, out, v);
  out.payload_view = {};
  out.payload.resize(v.elems);
  decode_payload(wire, v, expected_crc, out.payload, pool);
}

void Message::decode_into(std::span<const std::uint8_t> wire,
                          Message& header, std::span<float> payload,
                          ThreadPool* pool) {
  WireView v;
  const std::uint32_t expected_crc = parse_frame(wire, header, v);
  header.payload_view = {};
  if (v.elems != payload.size()) {
    throw std::runtime_error("Message::decode: payload size mismatch");
  }
  decode_payload(wire, v, expected_crc, payload, pool);
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
  check_chunks(view, expected_crc, pool, [&](std::size_t c) {
    return crc32(wire.subspan(view.offs[c], view.lens[c]));
  });
  out.payload.clear();
  out.payload_view = {};
  view.bytes = wire;
}

void Message::set_metadata(std::span<std::uint8_t> wire,
                           const std::string& key, double value) {
  BinaryReader r(wire);
  Message header;
  read_prefix(r, header);
  const auto n_meta = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_meta; ++i) {
    const bool found = r.read_string() == key;
    const std::size_t at = wire.size() - r.remaining();
    r.read<double>();
    if (found) {
      std::memcpy(wire.data() + at, &value, sizeof(value));
      return;
    }
  }
  throw std::runtime_error("Message::set_metadata: no key " + key);
}

std::string Message::peek_codec(std::span<const std::uint8_t> wire) {
  BinaryReader r(wire);
  Message header;
  read_prefix(r, header);
  return header.codec;
}

}  // namespace photon
