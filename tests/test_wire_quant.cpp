// Wire compression 2.0 (DESIGN.md §11): blockwise q8/q4 quantized wire
// codecs, client-side error feedback, and the aggregator's streamed
// dequantize-and-accumulate fan-in.
//
// The load-bearing contracts pinned here:
//  * the codec round-trips within the per-block scale/code_limit error
//    bound and falls back to raw passthrough on unquantizable chunks;
//  * wire_quant::residual_of reproduces EXACTLY (bit for bit) the loss the
//    full Message encode/decode pipeline leaves on a payload — the
//    invariant error feedback stands on;
//  * the streamed chunk-major mean equals the materialized fp32 collective
//    bitwise, serial or pooled;
//  * error-feedback residuals survive checkpoint/crash/restore so a
//    recovered run is bit-identical to an uninterrupted one, including
//    under injected wire corruption.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/collective.hpp"
#include "comm/compression.hpp"
#include "comm/link.hpp"
#include "comm/message.hpp"
#include "comm/quantization.hpp"
#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/model.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

std::vector<float> gaussian_floats(std::size_t n, std::uint64_t seed,
                                   float scale = 1.0f) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (auto& x : v) x = scale * static_cast<float>(rng.next_gaussian());
  return v;
}

std::span<const std::uint8_t> as_bytes(const std::vector<float>& v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(float)};
}

// ------------------------------------------------------ codec round trips --

TEST(WireQuant, Q8RoundTripWithinBlockErrorBound) {
  for (const int bits : {8, 4}) {
    const Codec* codec = codec_by_name(bits == 4 ? "q4" : "q8");
    ASSERT_NE(codec, nullptr);
    EXPECT_EQ(codec->quant_bits(), bits);
    // 5000 floats: 19 full 256-float blocks plus a 136-float tail block.
    const auto x = gaussian_floats(5000, 0xBEEF + bits);
    std::vector<std::uint8_t> wire;
    codec->compress_into(as_bytes(x), wire);
    std::vector<float> back(x.size());
    codec->decompress_into(wire, {reinterpret_cast<std::uint8_t*>(back.data()),
                                  back.size() * sizeof(float)});
    const float limit = static_cast<float>(wire_quant::code_limit(bits));
    for (std::size_t b = 0; b < x.size(); b += wire_quant::kBlockFloats) {
      const std::size_t e = std::min(x.size(), b + wire_quant::kBlockFloats);
      float max_abs = 0.0f;
      for (std::size_t i = b; i < e; ++i) {
        max_abs = std::max(max_abs, std::fabs(x[i]));
      }
      // Round-to-nearest: error <= scale / (2 * limit), plus fp slack.
      const float bound = max_abs / limit * 0.5f * 1.01f + 1e-7f;
      for (std::size_t i = b; i < e; ++i) {
        ASSERT_LE(std::fabs(x[i] - back[i]), bound)
            << "bits=" << bits << " i=" << i;
      }
    }
  }
}

TEST(WireQuant, CompressionRatioMatchesLayout) {
  const auto x = gaussian_floats(1 << 16, 7);
  for (const auto& [name, min_ratio] :
       std::vector<std::pair<std::string, double>>{{"q8", 3.5}, {"q4", 6.5}}) {
    const Codec* codec = codec_by_name(name);
    std::vector<std::uint8_t> wire;
    codec->compress_into(as_bytes(x), wire);
    EXPECT_EQ(wire.size(),
              wire_quant::encoded_bytes(x.size(), codec->quant_bits()));
    const double ratio =
        static_cast<double>(x.size() * sizeof(float)) /
        static_cast<double>(wire.size());
    EXPECT_GT(ratio, min_ratio) << name;
  }
}

TEST(WireQuant, AllZeroInputRoundTripsExactly) {
  const std::vector<float> x(4096, 0.0f);
  for (const char* name : {"q8", "q4"}) {
    const Codec* codec = codec_by_name(name);
    std::vector<std::uint8_t> wire;
    codec->compress_into(as_bytes(x), wire);
    std::vector<float> back(x.size(), 1.0f);
    codec->decompress_into(wire, {reinterpret_cast<std::uint8_t*>(back.data()),
                                  back.size() * sizeof(float)});
    EXPECT_EQ(x, back) << name;
  }
}

TEST(WireQuant, UnquantizableInputsFallBackToRawBitExact) {
  const Codec* codec = codec_by_name("q8");
  // (a) byte length not a multiple of sizeof(float)
  {
    const std::vector<std::uint8_t> raw = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<std::uint8_t> wire;
    codec->compress_into(raw, wire);
    std::vector<std::uint8_t> back(raw.size());
    codec->decompress_into(wire, back);
    EXPECT_EQ(raw, back);
  }
  // (b) non-finite floats poison a block scale
  {
    auto x = gaussian_floats(1024, 3);
    x[100] = std::numeric_limits<float>::infinity();
    x[900] = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::uint8_t> wire;
    codec->compress_into(as_bytes(x), wire);
    std::vector<float> back(x.size());
    codec->decompress_into(wire, {reinterpret_cast<std::uint8_t*>(back.data()),
                                  back.size() * sizeof(float)});
    EXPECT_EQ(0, std::memcmp(x.data(), back.data(), x.size() * sizeof(float)));
  }
  // (c) empty input
  {
    std::vector<std::uint8_t> wire;
    codec->compress_into({}, wire);
    std::vector<std::uint8_t> back;
    codec->decompress_into(wire, back);
    EXPECT_TRUE(back.empty());
  }
}

// ---------------------------------------------------------- error feedback --

TEST(WireQuant, ResidualMatchesWireRoundTripExactly) {
  // residual_of must reproduce the loss of the FULL message pipeline —
  // including the PHO2 chunking — bit for bit, for both codecs, with and
  // without a decode pool.
  for (const char* name : {"q8", "q4"}) {
    const int bits = codec_by_name(name)->quant_bits();
    // > one wire chunk (256 KiB = 65536 floats): exercises chunk seams.
    const auto x = gaussian_floats(70000, 0xC0FFEE, 0.02f);
    Message m;
    m.codec = name;
    m.payload = x;
    const auto wire = m.encode();
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &global_pool()}) {
      Message out;
      Message::decode_into(wire, out, pool);
      ASSERT_EQ(out.payload.size(), x.size());
      std::vector<float> expected(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        expected[i] = x[i] - out.payload[i];
      }
      std::vector<float> res(x.size(), -1.0f);
      wire_quant::residual_of(x.data(), res.data(), x.size(), bits);
      EXPECT_EQ(0, std::memcmp(expected.data(), res.data(),
                               res.size() * sizeof(float)))
          << name << (pool ? " pooled" : " inline");
    }
  }
}

TEST(WireQuant, ResidualIsDeterministicAcrossRepeatedCalls) {
  const auto x = gaussian_floats(30000, 42, 0.1f);
  std::vector<float> a(x.size()), b(x.size());
  wire_quant::residual_of(x.data(), a.data(), x.size(), 8);
  wire_quant::residual_of(x.data(), b.data(), x.size(), 8);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
  EXPECT_GT(kernels::l2_norm(kernels::default_context(), a.data(),
                             a.size()), 0.0);
}

TEST(WireQuant, NonFiniteInAChunksLastBlockZeroesTheWholeChunk) {
  // The scale pass stops at a chunk's first non-finite block.  One that
  // only the chunk's last block holds must still send the whole chunk raw
  // (zero residual), while the chunks around it keep their residuals.
  const std::size_t chunk = kDefaultWireChunkBytes / sizeof(float);
  const std::size_t n = 2 * chunk + 1000;  // two full chunks and a tail
  auto x = gaussian_floats(n, 0xF1, 0.02f);
  x[chunk - 1] = std::numeric_limits<float>::infinity();
  x[n - 1] = -std::numeric_limits<float>::infinity();
  for (const int bits : {8, 4}) {
    std::vector<float> res(n, -1.0f);
    wire_quant::residual_of(x.data(), res.data(), n, bits);
    const auto zero = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        if (res[i] != 0.0f || std::signbit(res[i])) return false;
      }
      return true;
    };
    EXPECT_TRUE(zero(0, chunk)) << bits;
    EXPECT_TRUE(zero(2 * chunk, n)) << bits;
    // The finite middle chunk keeps the residual it has on its own.
    const std::vector<float> mid(x.begin() + chunk, x.begin() + 2 * chunk);
    std::vector<float> want(chunk);
    wire_quant::residual_of(mid.data(), want.data(), chunk, bits);
    EXPECT_EQ(0, std::memcmp(want.data(), res.data() + chunk,
                             chunk * sizeof(float)))
        << bits;
    EXPECT_GT(kernels::l2_norm(kernels::default_context(), want.data(),
                               chunk),
              0.0);
  }
}

// ----------------------------------------------------------- the update walk --

// The two passes the update walk replaced, kept as its reference: the codec's
// scale pass then code pass per chunk (encode_chunk before the walk), and
// residual_of's mirror of them.  Both run on the active SIMD table.
void ref_pack_nibbles(const std::int8_t* codes, std::size_t n,
                      std::uint8_t* out) {
  for (std::size_t k = 0; k < n; k += 2) {
    const std::uint8_t hi =
        k + 1 < n ? static_cast<std::uint8_t>(codes[k + 1]) & 0x0F : 0;
    out[k / 2] = static_cast<std::uint8_t>(
        (static_cast<std::uint8_t>(codes[k]) & 0x0F) | (hi << 4));
  }
}

void ref_encode_chunk(const float* x, std::size_t n, int bits,
                      std::vector<std::uint8_t>& out) {
  constexpr std::size_t kB = wire_quant::kBlockFloats;
  const auto& ops = simd::ops();
  const std::size_t start = out.size();
  const std::size_t nb = (n + kB - 1) / kB;
  std::vector<float> scales(nb);
  bool finite = true;
  for (std::size_t b = 0; b < nb && finite; ++b) {
    const float m = ops.max_abs(x + b * kB, std::min(kB, n - b * kB));
    finite = std::isfinite(m);
    scales[b] = m > 0.0f ? m : 1.0f;
  }
  if (!finite) {
    const auto* raw = reinterpret_cast<const std::uint8_t*>(x);
    out.push_back(1);
    out.insert(out.end(), raw, raw + n * sizeof(float));
    return;
  }
  out.push_back(0);
  const auto n32 = static_cast<std::uint32_t>(n);
  const auto* np = reinterpret_cast<const std::uint8_t*>(&n32);
  out.insert(out.end(), np, np + sizeof(n32));
  const auto* sp = reinterpret_cast<const std::uint8_t*>(scales.data());
  out.insert(out.end(), sp, sp + nb * sizeof(float));
  const float limit = static_cast<float>(wire_quant::code_limit(bits));
  std::int8_t codes[kB];
  std::uint8_t packed[kB / 2];
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t len = std::min(kB, n - b * kB);
    ops.quant_i8(codes, x + b * kB, len, limit / scales[b]);
    if (bits == 4) {
      ref_pack_nibbles(codes, len, packed);
      out.insert(out.end(), packed, packed + (len + 1) / 2);
    } else {
      const auto* cp = reinterpret_cast<const std::uint8_t*>(codes);
      out.insert(out.end(), cp, cp + len);
    }
  }
  EXPECT_EQ(out.size() - start, wire_quant::encoded_bytes(n, bits));
}

void ref_residual_of(const float* x, float* res, std::size_t n, int bits,
                     std::size_t chunk_bytes) {
  constexpr std::size_t kB = wire_quant::kBlockFloats;
  const auto& ops = simd::ops();
  const ChunkPlan plan = ChunkPlan::of(n * sizeof(float), chunk_bytes);
  const float limit = static_cast<float>(wire_quant::code_limit(bits));
  std::int8_t codes[kB];
  for (std::size_t c = 0; c < plan.n_chunks(); ++c) {
    const float* xc = x + plan.raw_off(c) / sizeof(float);
    float* rc = res + plan.raw_off(c) / sizeof(float);
    const std::size_t nf = plan.raw_len(c) / sizeof(float);
    std::vector<float> max_abs;
    bool finite = true;
    for (std::size_t b = 0; b * kB < nf && finite; ++b) {
      max_abs.push_back(ops.max_abs(xc + b * kB, std::min(kB, nf - b * kB)));
      finite = std::isfinite(max_abs.back());
    }
    if (!finite) {
      std::memset(rc, 0, nf * sizeof(float));
      continue;
    }
    for (std::size_t b = 0; b * kB < nf; ++b) {
      const float scale = max_abs[b] > 0.0f ? max_abs[b] : 1.0f;
      ops.quant_i8_ef(codes, rc + b * kB, xc + b * kB,
                      std::min(kB, nf - b * kB), limit / scale,
                      scale / limit);
    }
  }
}

/// One client update's four outputs: the image sent, `received` (the
/// update as sent), the residual it leaves and that residual's norm.
struct UpdateOut {
  std::vector<std::uint8_t> image;
  std::vector<float> received;
  std::vector<float> residual;
  double norm = 0.0;
};

Message update_message(const char* codec, std::span<const float> payload,
                       bool ef, double norm) {
  Message m;
  m.type = MessageType::kClientUpdate;
  m.round = 3;
  m.sender = 1;
  m.codec = codec;
  m.payload_view = payload;
  m.metadata["train_loss"] = 2.5;
  m.metadata["tokens"] = 4096.0;
  if (ef) m.metadata["ef_residual_norm"] = norm;
  return m;
}

/// The composition the walk replaced: sub (when params is given), acc
/// (under EF), residual_of, l2_norm, then the codec's encode of the result.
UpdateOut composed_update(const char* codec, std::vector<float> received,
                          const std::vector<float>* params,
                          std::vector<float> residual, bool ef,
                          std::size_t chunk_bytes) {
  const int bits = codec_by_name(codec)->quant_bits();
  const auto& ops = simd::ops();
  const std::size_t n = received.size();
  UpdateOut out;
  if (params != nullptr) {
    ops.sub(received.data(), received.data(), params->data(), n);
  }
  if (ef) {
    ops.acc(received.data(), residual.data(), n);
    ref_residual_of(received.data(), residual.data(), n, bits, chunk_bytes);
    out.norm = kernels::l2_norm(kernels::default_context(), residual.data(),
                                n);
  }
  const Message m = update_message(codec, received, ef, out.norm);
  const ChunkPlan plan = ChunkPlan::of(n * sizeof(float), chunk_bytes);
  WireScratch image;
  m.encode_into(image, chunk_bytes, nullptr,
                [&](std::size_t c, std::vector<std::uint8_t>& wire) {
                  ref_encode_chunk(
                      received.data() + plan.raw_off(c) / sizeof(float),
                      plan.raw_len(c) / sizeof(float), bits, wire);
                });
  out.image = std::move(image.wire);
  out.received = std::move(received);
  out.residual = std::move(residual);
  return out;
}

/// The same update through the one walk, as LLMClient::run_round sends it:
/// with params, the walk forms received - params over a copy of params,
/// reading `received` as the bytes of a broadcast image.
UpdateOut walked_update(const char* codec, std::vector<float> received,
                        const std::vector<float>* params,
                        std::vector<float> residual, bool ef,
                        std::size_t chunk_bytes) {
  const int bits = codec_by_name(codec)->quant_bits();
  const std::size_t n = received.size();
  UpdateOut out;
  std::vector<float> x = params != nullptr ? *params : received;
  const Message m = update_message(codec, x, ef, 0.0);
  wire_quant::UpdateWalk walk(
      x.data(),
      params != nullptr ? reinterpret_cast<const std::uint8_t*>(received.data())
                        : nullptr,
      ef ? residual.data() : nullptr, n, bits, chunk_bytes);
  WireScratch image;
  m.encode_into(image, chunk_bytes, nullptr,
                [&](std::size_t c, std::vector<std::uint8_t>& wire) {
                  walk.write_chunk(c, wire);
                });
  if (ef) {
    out.norm = walk.residual_norm();
    Message::set_metadata(image.wire, "ef_residual_norm", out.norm);
  }
  out.image = std::move(image.wire);
  out.received = std::move(x);
  out.residual = std::move(residual);
  return out;
}

std::vector<simd::Variant> supported_variants() {
  std::vector<simd::Variant> v;
  for (auto cand : {simd::Variant::kScalar, simd::Variant::kAvx2,
                    simd::Variant::kAvx512}) {
    if (simd::supported(cand)) v.push_back(cand);
  }
  return v;
}

TEST(UpdateWalk, EqualsSubAccResidualOfEncodeOnEveryVariant) {
  // Four outputs must match the composition byte for byte: the image, the
  // residual, `received` and the norm's bits.  Lengths are not multiples
  // of 16 or 256.  At 40 KiB chunks a norm block ends mid-chunk, at 64 KiB
  // it spans two chunks, at the default a chunk holds two, and at 0 the
  // payload is one chunk.  A non-finite value in the first chunk, in its
  // last block only or in its first, must send that whole chunk raw.
  const simd::Variant saved_variant = simd::active_variant();
  for (const simd::Variant v : supported_variants()) {
    simd::set_active_variant(v);
    for (const std::size_t chunk_bytes :
         {std::size_t{0}, std::size_t{40 * 1024}, std::size_t{64 * 1024},
          kDefaultWireChunkBytes}) {
      const ChunkPlan plan = ChunkPlan::of(70001 * sizeof(float), chunk_bytes);
      for (const std::size_t n : {std::size_t{1000}, std::size_t{70001}}) {
        const auto global = gaussian_floats(n, 0x6100 + n, 0.05f);
        const auto params = gaussian_floats(n, 0x6200 + n, 0.05f);
        auto residual = gaussian_floats(n, 0x6300 + n, 1e-3f);
        residual[n / 3] = -0.0f;
        // 0: finite; 1: inf inside the first chunk's last block only;
        // 2: inf in its first block, so the walk must still form the
        // blocks after it.
        for (const int poison : {0, 1, 2}) {
          auto received = global;
          const std::size_t first =
              std::min(n, plan.raw_len(0) / sizeof(float));
          const std::size_t last_block =
              (first - 1) / wire_quant::kBlockFloats * wire_quant::kBlockFloats;
          if (poison == 1) {
            received[last_block + (first - last_block) / 2] =
                std::numeric_limits<float>::infinity();
          } else if (poison == 2) {
            received[7] = -std::numeric_limits<float>::infinity();
          }
          for (const char* codec : {"q8", "q4"}) {
            for (const bool ef : {true, false}) {
              for (const bool with_params : {true, false}) {
                SCOPED_TRACE(testing::Message()
                             << simd::variant_name(v) << " chunk "
                             << chunk_bytes << " n " << n << " " << codec
                             << (ef ? " ef" : "") << (with_params ? " sub" : "")
                             << " poison " << poison);
                const std::vector<float>* p = with_params ? &params : nullptr;
                const UpdateOut want = composed_update(
                    codec, received, p, residual, ef, chunk_bytes);
                const UpdateOut got = walked_update(codec, received, p,
                                                    residual, ef, chunk_bytes);
                EXPECT_EQ(want.image, got.image);
                EXPECT_EQ(0, std::memcmp(want.received.data(),
                                         got.received.data(),
                                         n * sizeof(float)));
                EXPECT_EQ(0, std::memcmp(want.residual.data(),
                                         got.residual.data(),
                                         n * sizeof(float)));
                EXPECT_EQ(0, std::memcmp(&want.norm, &got.norm,
                                         sizeof(double)));
                Message header;
                WireView view;
                Message::validate_wire(got.image, header, view);
                EXPECT_EQ(view.chunk(0)[0], poison != 0 ? 1 : 0);
                if (view.n_chunks() > 1) {
                  EXPECT_EQ(view.chunk(1)[0], 0);
                }
              }
            }
          }
        }
      }
    }
  }
  simd::set_active_variant(saved_variant);
}

TEST(UpdateWalk, ChunkSizeMustHoldWholeFloats) {
  // Every sender takes its plan from ChunkPlan::of, which refuses a chunk
  // size that splits a float, and both decoders refuse one in a header: an
  // image encoded at 1020 and patched to 1022 keeps its 4 chunks and CRCs,
  // and a fold of raw_len / 4 floats per chunk would skip floats 510, 999.
  auto x = gaussian_floats(1000, 7, 0.05f);
  std::vector<float> res(x.size());
  EXPECT_THROW(wire_quant::UpdateWalk(x.data(), nullptr, res.data(), x.size(),
                                      8, 1022),
               std::invalid_argument);
  EXPECT_THROW(wire_quant::residual_of(x.data(), res.data(), x.size(), 8, 1022),
               std::invalid_argument);
  for (const char* codec : {"q8", ""}) {
    const Message m = update_message(codec, x, false, 0.0);
    WireScratch image;
    EXPECT_THROW(m.encode_into(image, 1022), std::invalid_argument);
    m.encode_into(image, 1020);
    // chunk_raw_bytes (u64) precedes n_chunks (u32) and 4 lengths (u64).
    std::uint8_t* field = image.wire.data() + image.payload_offset - 44;
    ASSERT_EQ(field[0] + 256 * field[1], 1020);
    field[0] += 2;  // 1022
    Message out;
    WireView view;
    EXPECT_THROW(Message::validate_wire(image.wire, out, view),
                 std::runtime_error) << codec;
    EXPECT_THROW(Message::decode_into(image.wire, out), std::runtime_error)
        << codec;
  }
}

TEST(UpdateWalk, HeaderChunkSizeMustMatchTheChunks) {
  // The CRC does not cover the header: an image of 1000 floats encoded at
  // 1020-byte chunks and patched to 1016 in one bit keeps its 4 chunks and
  // CRCs.  Each q8 chunk states its float count and each identity chunk
  // its length, so both decoders refuse it before the streamed fold could
  // throw mid-round.
  const auto x = gaussian_floats(1000, 8, 0.05f);
  for (const char* codec : {"q8", ""}) {
    const Message m = update_message(codec, x, false, 0.0);
    WireScratch image;
    m.encode_into(image, 1020);
    std::uint8_t* field = image.wire.data() + image.payload_offset - 44;
    ASSERT_EQ(field[0] + 256 * field[1], 1020);
    field[0] ^= 4;  // 1016
    Message out;
    WireView view;
    EXPECT_THROW(Message::validate_wire(image.wire, out, view),
                 std::runtime_error) << codec;
    EXPECT_TRUE(view.bytes.empty()) << codec;
    EXPECT_THROW(Message::decode_into(image.wire, out), std::runtime_error)
        << codec;
  }
}

TEST(WireQuant, AccumulateChunkEqualsDecodeThenFold) {
  // accumulate_chunk folds a chunk's codes straight into the fp64 sum; it
  // must equal decompress_into followed by acc += w * double(x), bit for
  // bit, on quantized and raw-fallback chunks, and reject what
  // decompress_into rejects before touching the sum.
  for (const char* name : {"q8", "q4"}) {
    const Codec* codec = codec_by_name(name);
    const int bits = codec->quant_bits();
    for (const std::size_t n : {std::size_t{1}, std::size_t{300},
                                std::size_t{4099}}) {
      for (const bool finite : {true, false}) {
        SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n) +
                     (finite ? "" : " raw"));
        auto x = gaussian_floats(n, 0xACC + n, 0.05f);
        if (!finite) x[n / 2] = std::numeric_limits<float>::infinity();
        const auto wire = codec->compress(as_bytes(x));
        ASSERT_EQ(wire[0], finite ? 0 : 1);
        std::vector<float> decoded(n);
        codec->decompress_into(
            wire, {reinterpret_cast<std::uint8_t*>(decoded.data()),
                   n * sizeof(float)});
        const auto acc0 = [&] {
          std::vector<double> a(n);
          Rng rng(n);
          for (auto& v : a) v = rng.next_gaussian();
          return a;
        }();
        constexpr double kW = 0.7;
        std::vector<double> want = acc0;
        for (std::size_t e = 0; e < n; ++e) {
          want[e] += kW * static_cast<double>(decoded[e]);
        }
        std::vector<double> got = acc0;
        wire_quant::accumulate_chunk(wire, n, bits, kW, got.data());
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(double)));

        const std::span<const std::uint8_t> w8(wire);
        EXPECT_THROW(wire_quant::accumulate_chunk(w8.first(w8.size() - 1), n,
                                                  bits, kW, got.data()),
                     std::runtime_error);
        EXPECT_THROW(
            wire_quant::accumulate_chunk(w8, n + 1, bits, kW, got.data()),
            std::runtime_error);
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(double)));
      }
    }
    std::vector<double> none(1, 0.0);
    EXPECT_THROW(wire_quant::accumulate_chunk({}, 1, bits, 1.0, none.data()),
                 std::runtime_error);
  }
}

// ---------------------------------------------------- streamed aggregation --

TEST(StreamedAggregation, ChunkMeanMatchesMaterializedCollective) {
  // The aggregator's streamed fan-in accumulates survivors per element into
  // a double and narrows once — the exact arithmetic of mean_rows_pd.  Pin
  // that equivalence at the wire level: chunk-major dequant+accumulate over
  // retained wire images must equal decompress-everything + ps collective.
  constexpr std::size_t kN = 70000;  // spans two 256 KiB wire chunks
  constexpr std::size_t kK = 3;
  std::vector<std::vector<float>> raw;
  std::vector<std::vector<std::uint8_t>> images(kK);  // the views borrow them
  std::vector<WireView> views(kK);
  for (std::size_t k = 0; k < kK; ++k) {
    raw.push_back(gaussian_floats(kN, 100 + k, 0.05f));
    Message m;
    m.codec = "q8";
    m.payload_view = raw.back();
    images[k] = m.encode();
    Message header;
    Message::validate_wire(images[k], header, views[k], nullptr);
    ASSERT_TRUE(header.payload.empty());
    ASSERT_EQ(views[k].elems, kN);
  }
  const Codec* codec = codec_by_name("q8");

  // Materialized reference: full fp32 buffers through the PS collective.
  std::vector<std::vector<float>> mats(kK, std::vector<float>(kN));
  std::vector<std::span<float>> spans;
  for (std::size_t k = 0; k < kK; ++k) {
    auto* out8 = reinterpret_cast<std::uint8_t*>(mats[k].data());
    for (std::size_t c = 0; c < views[k].n_chunks(); ++c) {
      codec->decompress_into(views[k].chunk(c),
                             {out8 + views[k].raw_off(c), views[k].raw_len(c)});
    }
    spans.emplace_back(mats[k]);
  }
  collective_mean(Topology::kParameterServer, spans);

  // Streamed: per chunk, fold each survivor's codes into an fp64 sum with
  // the aggregator's per-chunk accumulate, then narrow to the mean.
  std::vector<float> streamed(kN);
  const double inv = 1.0 / static_cast<double>(kK);
  const WireView& head = views.front();
  for (std::size_t c = 0; c < head.n_chunks(); ++c) {
    const std::size_t len = head.raw_len(c) / sizeof(float);
    std::vector<double> acc(len, 0.0);
    for (std::size_t k = 0; k < kK; ++k) {
      wire_quant::accumulate_chunk(views[k].chunk(c), len,
                                   codec->quant_bits(), 1.0, acc.data());
    }
    float* out = streamed.data() + head.raw_off(c) / sizeof(float);
    for (std::size_t e = 0; e < len; ++e) {
      out[e] = static_cast<float>(acc[e] * inv);
    }
  }
  EXPECT_EQ(0, std::memcmp(streamed.data(), mats[0].data(),
                           kN * sizeof(float)));
}

TEST(StreamedAggregation, CorruptedQuantizedWireIsRetransmittedExactly) {
  // A bit flip in a quantized chunk must be CRC-rejected without
  // decompressing, and the retransmitted wire image must decode to the
  // same floats a clean transmit yields (the codec is deterministic).
  for (const char* name : {"q8", "q4"}) {
    const Codec* codec = codec_by_name(name);
    Message m;
    m.codec = name;
    m.payload = gaussian_floats(20000, 0xFEED, 0.03f);
    m.metadata["round_trip"] = 1.0;
    WireScratch image;
    m.encode_into(image);

    SimLink clean("clean", 1.0);
    Message clean_header;
    WireView clean_view;
    clean.transmit_wire(m, image, clean_header, clean_view);

    SimLink flaky("flaky", 1.0);
    flaky.set_fault_hook([](const Message&, int attempt) {
      LinkFault f;
      if (attempt == 1) f.corrupt = 0xBADC0DEULL;
      return f;
    });
    Message header;
    WireView view;
    flaky.transmit_wire(m, image, header, view);
    EXPECT_EQ(flaky.stats().corrupt_chunks, 1u) << name;
    EXPECT_EQ(flaky.stats().retries, 1u) << name;
    // The view borrows the sender's image, never the corrupted attempt's
    // private copy, which is gone once its attempt ends.
    EXPECT_EQ(view.bytes.data(), image.wire.data()) << name;
    EXPECT_EQ(view.bytes.size(), image.wire.size()) << name;
    EXPECT_EQ(header.metadata.at("round_trip"), 1.0) << name;

    ASSERT_EQ(view.n_chunks(), clean_view.n_chunks()) << name;
    std::vector<float> got(m.payload.size()), want(m.payload.size());
    auto* g8 = reinterpret_cast<std::uint8_t*>(got.data());
    auto* w8 = reinterpret_cast<std::uint8_t*>(want.data());
    for (std::size_t c = 0; c < view.n_chunks(); ++c) {
      codec->decompress_into(view.chunk(c), {g8 + view.raw_off(c),
                                             view.raw_len(c)});
      codec->decompress_into(clean_view.chunk(c),
                             {w8 + clean_view.raw_off(c),
                              clean_view.raw_len(c)});
    }
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(float)))
        << name;
  }
}

// ----------------------------------------------------- federated round path --

ModelConfig tiny_model() {
  ModelConfig c;
  c.n_layers = 2;
  c.d_model = 16;
  c.n_heads = 2;
  c.vocab_size = 64;
  c.seq_len = 16;
  c.expansion_ratio = 2;
  return c;
}

std::unique_ptr<DataSource> tiny_stream(std::uint64_t seed) {
  CorpusConfig cc;
  cc.vocab_size = 64;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  return std::make_unique<CorpusStreamSource>(corpus, seed);
}

std::unique_ptr<Aggregator> build_q_aggregator(
    AggregatorConfig ac, const std::string& codec, bool error_feedback = true,
    int population = 3) {
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < population; ++i) {
    ClientTrainConfig ctc;
    ctc.model = tiny_model();
    ctc.local_batch = 2;
    ctc.schedule.max_lr = 5e-3f;
    ctc.schedule.warmup_steps = 2;
    ctc.schedule.total_steps = 1000;
    ctc.link_codec = codec;
    ctc.quant_error_feedback = error_feedback;
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc, tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
  }
  ac.seed = 33;
  return std::make_unique<Aggregator>(tiny_model(), ac,
                                      make_server_opt("nesterov", 0.5f, 0.9f),
                                      std::move(clients), 55);
}

TEST(StreamedAggregation, ParallelAndSequentialRoundsAgreeBitExactly) {
  auto make = [&](bool parallel) {
    AggregatorConfig ac;
    ac.local_steps = 2;
    ac.parallel_clients = parallel;
    return build_q_aggregator(ac, "q8");
  };
  auto seq = make(false);
  auto par = make(true);
  for (int r = 0; r < 2; ++r) {
    const RoundRecord rs = seq->run_round();
    const RoundRecord rp = par->run_round();
    EXPECT_EQ(rs.comm_bytes, rp.comm_bytes);
    EXPECT_DOUBLE_EQ(rs.mean_train_loss, rp.mean_train_loss);
    EXPECT_DOUBLE_EQ(rs.update_norm, rp.update_norm);
    ASSERT_EQ(seq->global_params().size(), par->global_params().size());
    EXPECT_EQ(0, std::memcmp(seq->global_params().data(),
                             par->global_params().data(),
                             seq->global_params().size() * sizeof(float)));
  }
}

TEST(StreamedAggregation, QuantizedRoundCutsCommBytesAndCommTime) {
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;  // asserts the streamed (unmasked) fan-in
  ac.local_steps = 2;
  ac.parallel_clients = false;
  // rle0 is lossless (fp32 content, ~3% framing savings) and, unlike "",
  // immune to a PHOTON_WIRE_CODEC override in the environment.
  auto fp32 = build_q_aggregator(ac, "rle0");
  auto q8 = build_q_aggregator(ac, "q8");
  const RoundRecord rf = fp32->run_round();
  const RoundRecord rq = q8->run_round();
  // Update-return + collective bytes shrink ~3.9x; the fp32 broadcast is
  // shared, so total round bytes land well under 60%.
  EXPECT_LT(rq.comm_bytes, rf.comm_bytes * 6 / 10);
  EXPECT_LT(rq.sim_comm_seconds, rf.sim_comm_seconds);
  EXPECT_GT(rq.update_norm, 0.0);
  // Updates stay close to the fp32 round despite the lossy wire.
  EXPECT_NEAR(rq.update_norm, rf.update_norm, 0.05 * rf.update_norm + 1e-6);
}

TEST(ErrorFeedback, ResidualIsTrackedAndReportedPerRound) {
  AggregatorConfig ac;
  ac.local_steps = 2;
  ac.parallel_clients = false;
  auto agg = build_q_aggregator(ac, "q8", /*error_feedback=*/true);
  const RoundRecord rec = agg->run_round();
  EXPECT_EQ(rec.client_metrics.count("ef_residual_norm"), 1u);
  EXPECT_GT(rec.client_metrics.at("ef_residual_norm"), 0.0);
  for (int c = 0; c < agg->population(); ++c) {
    EXPECT_EQ(agg->client(c).ef_residual().size(),
              agg->global_params().size());
  }
  auto off = build_q_aggregator(ac, "q8", /*error_feedback=*/false);
  const RoundRecord rec_off = off->run_round();
  EXPECT_EQ(rec_off.client_metrics.count("ef_residual_norm"), 0u);
  EXPECT_TRUE(off->client(0).ef_residual().empty());
}

TEST(ErrorFeedback, ResidualSurvivesCrashRecoveryBitExactly) {
  // An aggregator killed after round 3 and rebuilt from disk must finish a
  // 5-round q8+EF run bit-identical to one that never crashed — which can
  // only hold if every client's error-feedback residual is checkpointed and
  // restored exactly.  Wire corruption is injected throughout to prove the
  // retransmit path composes with EF and recovery.
  const auto base = std::filesystem::temp_directory_path() /
                    "photon_ef_recovery_test";
  std::filesystem::remove_all(base);
  auto config_for = [&](const char* leaf) {
    AggregatorConfig ac;
    ac.clients_per_round = 2;  // partial participation: residuals desync
    ac.local_steps = 2;
    ac.parallel_clients = false;
    ac.checkpoint_dir = base / leaf;
    return ac;
  };
  auto inject = [](Aggregator& agg) {
    for (int id = 0; id < agg.population(); ++id) {
      agg.link(id).set_fault_hook([id](const Message& m, int attempt) {
        LinkFault f;
        if (attempt == 1 && m.round % 2 == 0) {
          f.corrupt = hash_combine(m.round, static_cast<std::uint64_t>(id)) | 1;
        }
        return f;
      });
    }
  };

  auto ref = build_q_aggregator(config_for("ref"), "q8");
  inject(*ref);
  for (int r = 0; r < 5; ++r) ref->run_round();
  EXPECT_GT(kernels::l2_norm(kernels::default_context(),
                             ref->client(0).ef_residual().data(),
                             ref->client(0).ef_residual().size()),
            0.0);

  {
    auto crashed = build_q_aggregator(config_for("crash"), "q8");
    inject(*crashed);
    for (int r = 0; r < 3; ++r) crashed->run_round();
    // process dies here
  }
  auto recovered = build_q_aggregator(config_for("crash"), "q8");
  inject(*recovered);
  ASSERT_TRUE(recovered->restore_latest_checkpoint());
  EXPECT_EQ(recovered->round(), 3u);
  for (int r = 3; r < 5; ++r) recovered->run_round();

  ASSERT_EQ(ref->global_params().size(), recovered->global_params().size());
  EXPECT_EQ(0, std::memcmp(ref->global_params().data(),
                           recovered->global_params().data(),
                           ref->global_params().size() * sizeof(float)));
  for (int c = 0; c < ref->population(); ++c) {
    const auto& a = ref->client(c).ef_residual();
    const auto& b = recovered->client(c).ef_residual();
    ASSERT_EQ(a.size(), b.size()) << "client " << c;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << "client " << c;
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace photon
