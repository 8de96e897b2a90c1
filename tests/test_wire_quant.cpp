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

// ---------------------------------------------------- streamed aggregation --

TEST(StreamedAggregation, ChunkMeanMatchesMaterializedCollective) {
  // The aggregator's streamed fan-in accumulates survivors per element into
  // a double and narrows once — the exact arithmetic of mean_rows_pd.  Pin
  // that equivalence at the wire level: chunk-major dequant+accumulate over
  // retained wire images must equal decompress-everything + ps collective.
  constexpr std::size_t kN = 70000;  // spans two 256 KiB wire chunks
  constexpr std::size_t kK = 3;
  std::vector<std::vector<float>> raw;
  std::vector<WireView> views(kK);
  for (std::size_t k = 0; k < kK; ++k) {
    raw.push_back(gaussian_floats(kN, 100 + k, 0.05f));
    Message m;
    m.codec = "q8";
    m.payload_view = raw.back();
    const auto wire = m.encode();
    Message header;
    Message::validate_wire(wire, header, views[k], nullptr);
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

  // Streamed: per chunk, dequantize each survivor and fold into the mean.
  std::vector<float> streamed(kN);
  const double inv = 1.0 / static_cast<double>(kK);
  const WireView& head = views.front();
  for (std::size_t c = 0; c < head.n_chunks(); ++c) {
    const std::size_t len = head.raw_len(c) / sizeof(float);
    std::vector<float> tmp(len);
    std::vector<double> acc(len, 0.0);
    for (std::size_t k = 0; k < kK; ++k) {
      codec->decompress_into(views[k].chunk(c),
                             {reinterpret_cast<std::uint8_t*>(tmp.data()),
                              len * sizeof(float)});
      for (std::size_t e = 0; e < len; ++e) {
        acc[e] += static_cast<double>(tmp[e]);
      }
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

    SimLink clean("clean", 1.0);
    Message clean_header;
    WireView clean_view;
    clean.transmit_wire(m, clean_header, clean_view);

    SimLink flaky("flaky", 1.0);
    flaky.set_fault_hook([](const Message&, int attempt) {
      LinkFault f;
      if (attempt == 1) f.corrupt = 0xBADC0DEULL;
      return f;
    });
    Message header;
    WireView view;
    flaky.transmit_wire(m, header, view);
    EXPECT_EQ(flaky.stats().corrupt_chunks, 1u) << name;
    EXPECT_EQ(flaky.stats().retries, 1u) << name;
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
