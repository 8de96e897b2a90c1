// Autotuner invariants (DESIGN.md §13): decisions are pure functions of
// (seed, config, trace), so serial and parallel twins agree bit-for-bit, a
// crash-restored run continues the exact decision timeline through the v2
// checkpoint's tuner-state field, and a disabled tuner leaves the round
// path byte-identical to an untuned aggregator.  The JSONL parse-back fuzz
// for faulted async churn traces (the tuner's input format) lives here too.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "comm/message.hpp"
#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "tensor/kernel_context.hpp"
#include "tune/autotuner.hpp"
#include "tune/session.hpp"
#include "tune/trace_digest.hpp"

namespace photon::tune {
namespace {

ModelConfig tune_test_model() {
  ModelConfig c;
  c.n_layers = 2;
  c.d_model = 16;
  c.n_heads = 2;
  c.vocab_size = 64;
  c.seq_len = 16;
  c.expansion_ratio = 2;
  return c;
}

std::unique_ptr<Aggregator> build_aggregator(AggregatorConfig ac,
                                             int population = 6) {
  ClientTrainConfig ctc;
  ctc.model = tune_test_model();
  ctc.local_batch = 2;
  ctc.schedule.max_lr = 5e-3f;
  ctc.schedule.warmup_steps = 2;
  ctc.schedule.total_steps = 1000;
  CorpusConfig cc;
  cc.vocab_size = 64;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < population; ++i) {
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc,
        std::make_unique<CorpusStreamSource>(
            corpus, 100 + static_cast<std::uint64_t>(i)),
        7));
  }
  ac.seed = 33;
  return std::make_unique<Aggregator>(tune_test_model(), ac,
                                      make_server_opt("nesterov", 0.5f, 0.9f),
                                      std::move(clients), 55);
}

AggregatorConfig base_config() {
  AggregatorConfig ac;
  ac.clients_per_round = 4;
  ac.local_steps = 2;
  ac.topology = Topology::kParameterServer;
  ac.bandwidth_mbps = 1.25;       // WAN-ish: wire time first-order
  ac.link_bandwidth_gbps = 0.01;
  ac.sim_throughput_bps = 10.0;
  ac.checkpoint_every = 0;
  return ac;
}

FaultPlan tail_plan() {
  FaultPlan plan;
  plan.seed = 0xBE7A7ULL;
  plan.straggle_prob = 0.25;
  plan.straggle_factor_min = 3.0;
  plan.straggle_factor_max = 9.0;
  return plan;
}

TunerConfig tuner_config() {
  TunerConfig tc;
  tc.threads = 4;  // explicit: decisions must not depend on the machine
  tc.min_cohort = 2;
  tc.max_cohort = 64;
  return tc;
}

/// apply() mutates two process-wide knobs; every arm of a twin test must
/// start from the same values or the tuner's initial decision (seeded from
/// the live configuration) diverges.
struct GlobalKnobReset {
  std::size_t grain = kernels::default_context().grain();
  std::size_t chunk = wire_chunk_bytes();
  void reset() const {
    kernels::set_default_grain(grain);
    set_wire_chunk_bytes(chunk);
  }
  ~GlobalKnobReset() { reset(); }
};

void expect_same_tuner(const RoundAutotuner& a, const RoundAutotuner& b) {
  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t i = 0; i < a.history().size(); ++i) {
    EXPECT_EQ(a.history()[i], b.history()[i]) << "decision " << i;
  }
  ASSERT_EQ(a.digests().size(), b.digests().size());
  for (std::size_t i = 0; i < a.digests().size(); ++i) {
    EXPECT_EQ(a.digests()[i].hash(), b.digests()[i].hash()) << "digest " << i;
  }
  const auto sa = a.capture_state();
  const auto sb = b.capture_state();
  ASSERT_EQ(sa.size(), sb.size());
  EXPECT_EQ(0, std::memcmp(sa.data(), sb.data(), sa.size()));
}

// ------------------------------------------------- determinism invariants --

TEST(Autotune, DecisionsIdenticalAcrossThreadCounts) {
  // A faulted, deadline-cut federation run serially and in parallel must
  // produce bit-identical decision histories, digests, and global params.
  GlobalKnobReset knobs;
  const FaultInjector injector(tail_plan());
  auto run_twin = [&](bool parallel) {
    knobs.reset();
    AggregatorConfig ac = base_config();
    ac.parallel_clients = parallel;
    ac.round_deadline_s = 2.0;
    auto agg = build_aggregator(ac);
    injector.install(*agg);
    auto session = std::make_unique<TunedSession>(*agg, tuner_config());
    for (int r = 0; r < 6; ++r) session->step();
    return std::pair{std::move(agg), std::move(session)};
  };
  auto [agg_s, ses_s] = run_twin(false);
  auto [agg_p, ses_p] = run_twin(true);

  expect_same_tuner(ses_s->tuner(), ses_p->tuner());
  ASSERT_EQ(agg_s->global_params().size(), agg_p->global_params().size());
  EXPECT_EQ(0, std::memcmp(agg_s->global_params().data(),
                           agg_p->global_params().data(),
                           agg_s->global_params().size() * sizeof(float)));
  EXPECT_DOUBLE_EQ(agg_s->sim_now(), agg_p->sim_now());
  if (obs::Tracer::compiled_in()) {
    // The WAN-ish fabric must actually have driven the tuner off its
    // initial configuration — otherwise this twin test proves nothing.
    EXPECT_GT(ses_s->tuner().last_decision_change(), 0u);
  }
}

TEST(Autotune, CrashRestoreContinuesExactDecisionTimeline) {
  // Kill a tuned run after round 3 (checkpoint every round), rebuild from
  // disk, and finish: decision history, digests, tuner state bytes, and
  // global params must all match the uninterrupted twin.
  GlobalKnobReset knobs;
  const auto base =
      std::filesystem::temp_directory_path() / "photon_autotune_recovery";
  std::filesystem::remove_all(base);
  const FaultInjector injector(tail_plan());
  auto make = [&](const char* leaf) {
    knobs.reset();
    AggregatorConfig ac = base_config();
    ac.parallel_clients = false;
    ac.checkpoint_every = 1;
    ac.checkpoint_dir = base / leaf;
    auto agg = build_aggregator(ac);
    injector.install(*agg);
    return agg;
  };

  auto ref = make("ref");
  TunedSession ref_session(*ref, tuner_config());
  for (int r = 0; r < 6; ++r) ref_session.step();

  {
    auto crashed = make("crash");
    TunedSession session(*crashed, tuner_config());
    for (int r = 0; r < 3; ++r) session.step();
    // process dies here; the tuner state rides in checkpoint round 2
  }
  auto recovered = make("crash");
  TunedSession session(*recovered, tuner_config());
  ASSERT_TRUE(recovered->restore_latest_checkpoint());
  EXPECT_EQ(recovered->round(), 3u);
  session.resume();
  for (int r = 3; r < 6; ++r) session.step();

  expect_same_tuner(ref_session.tuner(), session.tuner());
  EXPECT_EQ(0, std::memcmp(ref->global_params().data(),
                           recovered->global_params().data(),
                           ref->global_params().size() * sizeof(float)));
  EXPECT_DOUBLE_EQ(ref->sim_now(), recovered->sim_now());
  std::filesystem::remove_all(base);
}

TEST(Autotune, DisabledTunerKeepsRoundPathByteIdentical) {
  // enabled=false still digests every round, but apply() is a no-op and
  // every decision echoes the initial configuration: params, sim clock,
  // per-round telemetry, and the spans a caller's tracer holds match an
  // aggregator with no tuner at all.  checkpoint_every = 1 also runs the
  // tuner's on_checkpoint read every round.
  GlobalKnobReset knobs;
  for (const int checkpoint_every : {0, 1}) {
    SCOPED_TRACE(checkpoint_every);
    AggregatorConfig ac = base_config();
    ac.parallel_clients = false;
    ac.checkpoint_every = checkpoint_every;

    knobs.reset();
    obs::Tracer plain_tracer;
    ac.tracer = &plain_tracer;
    auto plain = build_aggregator(ac);
    std::vector<RoundRecord> plain_records;
    for (int r = 0; r < 4; ++r) plain_records.push_back(plain->run_round());

    knobs.reset();
    obs::Tracer tuned_tracer;
    ac.tracer = &tuned_tracer;
    auto tuned = build_aggregator(ac);
    TunerConfig tc = tuner_config();
    tc.enabled = false;
    TunedSession session(*tuned, tc);
    std::vector<RoundRecord> tuned_records;
    for (int r = 0; r < 4; ++r) tuned_records.push_back(session.step());

    EXPECT_EQ(0, std::memcmp(plain->global_params().data(),
                             tuned->global_params().data(),
                             plain->global_params().size() * sizeof(float)));
    EXPECT_DOUBLE_EQ(plain->sim_now(), tuned->sim_now());
    for (std::size_t r = 0; r < plain_records.size(); ++r) {
      EXPECT_EQ(plain_records[r].participants, tuned_records[r].participants);
      EXPECT_EQ(plain_records[r].comm_bytes, tuned_records[r].comm_bytes);
      EXPECT_DOUBLE_EQ(plain_records[r].update_norm,
                       tuned_records[r].update_norm);
    }
    for (const TunerDecision& d : session.tuner().history()) {
      EXPECT_EQ(d.codec, session.tuner().history().front().codec);
      EXPECT_EQ(d.topology, session.tuner().history().front().topology);
      EXPECT_EQ(d.clients_per_round,
                session.tuner().history().front().clients_per_round);
    }
    EXPECT_EQ(obs::to_jsonl(plain_tracer.drain()),
              obs::to_jsonl(tuned_tracer.drain()));
  }
}

TEST(Autotune, CallerTracerKeepsEveryTunedRound) {
  // The tuner reads each round's events as a copy, so a caller's tracer
  // beside an enabled tuner still holds every round: checkpointed rounds
  // (read in on_checkpoint) and the rest (read at the round boundary).
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF";
  GlobalKnobReset knobs;
  constexpr int kRounds = 5;
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    knobs.reset();
    obs::Tracer tracer;
    AggregatorConfig ac = base_config();
    ac.checkpoint_every = 2;
    ac.async.enabled = async;
    ac.tracer = &tracer;
    auto agg = build_aggregator(ac);
    TunedSession session(*agg, tuner_config());
    for (int r = 0; r < kRounds; ++r) session.step();

    std::vector<int> round_spans(kRounds, 0);
    for (const obs::TraceEvent& e : tracer.drain()) {
      if (e.kind == obs::SpanKind::kRound) ++round_spans.at(e.round);
    }
    EXPECT_EQ(round_spans, std::vector<int>(kRounds, 1));
    EXPECT_EQ(tracer.dropped(), 0u);
    // And the tuner still saw every round's spans.
    ASSERT_EQ(session.tuner().digests().size(),
              static_cast<std::size_t>(kRounds));
    for (const TraceDigest& d : session.tuner().digests()) {
      EXPECT_GT(d.clients, 0) << "round " << d.round;
    }
  }
}

TEST(Autotune, AsyncKnobsDeterministicAcrossThreadCounts) {
  // Async mode with a deliberately tight admission cap: the tuner must see
  // defer pressure and raise max_in_flight identically in both twins.
  GlobalKnobReset knobs;
  auto run_twin = [&](bool parallel) {
    knobs.reset();
    AggregatorConfig ac = base_config();
    ac.parallel_clients = parallel;
    ac.async.enabled = true;
    ac.async.buffer_goal = 4;
    ac.async.max_in_flight = 4;
    auto agg = build_aggregator(ac);
    auto session = std::make_unique<TunedSession>(*agg, tuner_config());
    for (int r = 0; r < 5; ++r) session->step();
    return std::pair{std::move(agg), std::move(session)};
  };
  auto [agg_s, ses_s] = run_twin(false);
  auto [agg_p, ses_p] = run_twin(true);
  expect_same_tuner(ses_s->tuner(), ses_p->tuner());
  EXPECT_EQ(0, std::memcmp(agg_s->global_params().data(),
                           agg_p->global_params().data(),
                           agg_s->global_params().size() * sizeof(float)));
}

// ----------------------------------------------------- decision interface --

TEST(Autotune, KnobSettersValidateTheirArguments) {
  auto agg = build_aggregator(base_config());
  EXPECT_THROW(agg->set_clients_per_round(-1), std::invalid_argument);
  EXPECT_THROW(agg->set_clients_per_round(agg->population() + 1),
               std::invalid_argument);
  EXPECT_THROW(agg->set_wire_codec("zstd17"), std::invalid_argument);
  EXPECT_THROW(agg->set_async_limits(-1, 4), std::invalid_argument);
  EXPECT_THROW(agg->set_async_limits(4, -1), std::invalid_argument);
  agg->set_clients_per_round(3);
  EXPECT_EQ(agg->config().clients_per_round, 3);
  agg->set_topology(Topology::kRingAllReduce);
  EXPECT_EQ(agg->config().topology, Topology::kRingAllReduce);
  agg->set_wire_codec("q8");  // known codec: accepted
}

TEST(Autotune, TunerStateRejectsForeignBytes) {
  RoundAutotuner tuner(tuner_config());
  auto agg = build_aggregator(base_config());
  tuner.bind_initial(*agg);
  const auto good = tuner.capture_state();
  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xFF;  // break the magic
  EXPECT_THROW(tuner.restore_state(bad), std::runtime_error);
  TunerConfig other = tuner_config();
  other.seed ^= 1;
  RoundAutotuner reseeded(other);
  reseeded.bind_initial(*agg);
  EXPECT_THROW(reseeded.restore_state(good), std::runtime_error);

  // A decision count the bytes cannot back fails on a truncated read, not
  // on a huge allocation.  The count follows the magic and seed.
  const std::size_t count_at = 4 + 8;
  for (const std::uint64_t claim : {std::uint64_t{1} << 62,
                                    std::uint64_t{1} << 36}) {
    std::vector<std::uint8_t> huge = good;
    std::memcpy(huge.data() + count_at, &claim, sizeof(claim));
    EXPECT_THROW(tuner.restore_state(huge), std::runtime_error) << claim;
  }
  // The first decision's topology byte names no topology.  It follows the
  // decision's round, binding byte and codec string.
  const std::size_t codec_at = count_at + 8 + 4 + 1;
  std::uint64_t codec_len = 0;
  std::memcpy(&codec_len, good.data() + codec_at, sizeof(codec_len));
  std::vector<std::uint8_t> topology = good;
  topology[codec_at + 8 + codec_len] = 3;
  EXPECT_THROW(tuner.restore_state(topology), std::runtime_error);
  agg->set_state_extension(nullptr);
}

TEST(Autotune, ForeignTunerStateIsRefusedBeforeRestoringAnything) {
  // A checkpoint whose tuner section another tuner wrote (another seed) is
  // refused with the engine untouched: round, clock and params stay.
  GlobalKnobReset knobs;
  const auto base =
      std::filesystem::temp_directory_path() / "photon_autotune_foreign";
  std::filesystem::remove_all(base);
  AggregatorConfig ac = base_config();
  ac.parallel_clients = false;
  ac.checkpoint_every = 1;
  ac.checkpoint_dir = base;
  {
    auto agg = build_aggregator(ac);
    TunedSession session(*agg, tuner_config());
    for (int r = 0; r < 2; ++r) session.step();
  }
  knobs.reset();
  auto fresh = build_aggregator(ac);
  TunerConfig other = tuner_config();
  other.seed ^= 1;
  TunedSession session(*fresh, other);
  const std::vector<float> before(fresh->global_params().begin(),
                                  fresh->global_params().end());
  EXPECT_THROW(fresh->restore_latest_checkpoint(), std::runtime_error);
  EXPECT_EQ(fresh->round(), 0u);
  EXPECT_EQ(fresh->sim_now(), 0.0);
  EXPECT_EQ(0, std::memcmp(before.data(), fresh->global_params().data(),
                           before.size() * sizeof(float)));
  EXPECT_EQ(session.tuner().history().size(), 1u);
  std::filesystem::remove_all(base);
}

// ------------------------------------------------------ JSONL parse-back --

TEST(Autotune, JsonlParseBackOverFaultedAsyncChurnTraces) {
  // The tuner's offline input path: a faulted async federation with
  // membership churn produces a trace, the trace round-trips through JSONL,
  // and both the event stream and the digests computed from it survive
  // unchanged.  Fuzzed over several fault seeds.
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF";
  GlobalKnobReset knobs;
  for (std::uint64_t fuzz_seed : {0x11ULL, 0x22ULL, 0x33ULL}) {
    knobs.reset();
    FaultPlan plan = tail_plan();
    plan.seed = fuzz_seed;
    plan.crash_prob = 0.1;
    plan.link_drop_prob = 0.05;
    plan.membership.seed = fuzz_seed * 7;
    plan.membership.initial_population = 5;
    plan.membership.arrive_prob = 0.3;
    plan.membership.leave_prob = 0.1;
    const FaultInjector injector(plan);

    AggregatorConfig ac = base_config();
    ac.parallel_clients = true;
    ac.async.enabled = true;
    ac.async.buffer_goal = 3;
    ac.round_deadline_s = 5.0;
    obs::Tracer tracer;
    ac.tracer = &tracer;
    auto agg = build_aggregator(ac, 6);
    injector.install(*agg);
    std::vector<RoundRecord> records;
    for (int r = 0; r < 4; ++r) records.push_back(agg->run_round());

    const std::vector<obs::TraceEvent> events = tracer.drain();
    ASSERT_FALSE(events.empty());
    const std::string jsonl = obs::to_jsonl(events);
    const std::vector<obs::TraceEvent> parsed = obs::from_jsonl(jsonl);
    ASSERT_EQ(events.size(), parsed.size());
    // Byte-stable round trip: re-export of the parsed stream is identical.
    EXPECT_EQ(jsonl, obs::to_jsonl(parsed));
    // And the tuner sees the same digest through either stream.
    for (const RoundRecord& rec : records) {
      EXPECT_EQ(digest_round(rec, events).hash(),
                digest_round(rec, parsed).hash())
          << "round " << rec.round << " seed " << fuzz_seed;
    }
  }
}

}  // namespace
}  // namespace photon::tune
