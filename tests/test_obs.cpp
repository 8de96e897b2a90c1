// Observability layer tests (DESIGN.md §9): tracer ring semantics, nesting
// across ThreadPool workers, deterministic sim-time replay, exporter
// validity (parsed back with the in-tree JSON parser), metrics registry
// behavior, and the fault-injected integration round that ties trace spans
// and registry counters to the engine's own LinkStats telemetry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/model.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "tensor/kernels.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

using obs::SpanKind;
using obs::TraceEvent;
using obs::Tracer;

TraceEvent ev(SpanKind kind, std::uint32_t round, std::int32_t actor,
              double begin, double end, std::int32_t detail = -1) {
  return {kind, round, actor, detail, begin, end, 0};
}

// ------------------------------------------------------------------ tracer --

TEST(Tracer, DrainReturnsDeterministicallySortedEvents) {
  if (!Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  Tracer tracer;
  tracer.record(ev(SpanKind::kLocalTrain, 1, 2, 5.0, 6.0));
  tracer.record(ev(SpanKind::kRound, 0, obs::kAggregatorActor, 0.0, 4.0));
  tracer.record(ev(SpanKind::kBroadcast, 0, 1, 0.0, 1.0));
  tracer.record(ev(SpanKind::kBroadcast, 0, 0, 0.0, 1.0));
  const auto events = tracer.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, SpanKind::kRound);       // round 0, actor -1
  EXPECT_EQ(events[1].actor, 0);                     // then actor order
  EXPECT_EQ(events[2].actor, 1);
  EXPECT_EQ(events[3].round, 1u);                    // round-major
  EXPECT_TRUE(tracer.drain().empty());               // drain resets
}

TEST(Tracer, SpansNestCorrectlyAcrossThreadPoolWorkers) {
  if (!Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  Tracer tracer;
  constexpr int kActors = 8;
  constexpr int kSteps = 16;
  // One parent span per actor, children recorded from pool workers.  Sim
  // timestamps are pure functions of the actor/step identity, never of the
  // thread that runs them.
  global_pool().parallel_for(kActors, [&](std::size_t a) {
    const auto actor = static_cast<std::int32_t>(a);
    const double begin = 10.0 * static_cast<double>(a);
    tracer.record(ev(SpanKind::kLocalTrain, 0, actor, begin, begin + kSteps));
    for (int s = 0; s < kSteps; ++s) {
      tracer.record(ev(SpanKind::kLocalStep, 0, actor, begin + s,
                       begin + s + 1, s));
    }
  });
  const auto events = tracer.drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kActors * (kSteps + 1)));
  // Every step span must nest inside its actor's parent train span.
  std::map<std::int32_t, std::pair<double, double>> parent;
  for (const auto& e : events) {
    if (e.kind == SpanKind::kLocalTrain) {
      parent[e.actor] = {e.sim_begin, e.sim_end};
    }
  }
  ASSERT_EQ(parent.size(), static_cast<std::size_t>(kActors));
  for (const auto& e : events) {
    if (e.kind != SpanKind::kLocalStep) continue;
    const auto [pb, pe] = parent.at(e.actor);
    EXPECT_GE(e.sim_begin, pb);
    EXPECT_LE(e.sim_end, pe);
  }
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ParallelAndSerialRecordingDrainIdentically) {
  // The same logical events recorded from 8 workers vs from one thread
  // drain to the same ordered stream (real_ns aside, which stays 0 here).
  auto run = [](bool parallel) {
    Tracer tracer;
    constexpr int kActors = 6;
    auto emit = [&](std::size_t a) {
      const auto actor = static_cast<std::int32_t>(a);
      for (int s = 0; s < 32; ++s) {
        tracer.record(ev(SpanKind::kLocalStep, 0, actor, s, s + 1, s));
      }
    };
    if (parallel) {
      global_pool().parallel_for(kActors, emit);
    } else {
      for (std::size_t a = 0; a < kActors; ++a) emit(a);
    }
    return obs::to_jsonl(tracer.drain());
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  // A null tracer is the off switch and sampling thins rounds; both resolve
  // into the round's trace handle, which then records nothing and never
  // reads the clock.
  Tracer tracer;
  tracer.set_sample_every(2);
  const obs::RoundTrace off[] = {obs::RoundTrace(), obs::RoundTrace(nullptr, 2),
                                 obs::RoundTrace(&tracer, 1)};
  for (const obs::RoundTrace& trace : off) {
    EXPECT_FALSE(trace.on());
    EXPECT_EQ(trace.timer().ns(), 0u);
    trace.record(SpanKind::kRound, -1, 0, 0.0, 1.0);
  }
  EXPECT_TRUE(tracer.drain().empty());
  EXPECT_EQ(tracer.dropped(), 0u);

  const obs::RoundTrace sampled(&tracer, 2);
  EXPECT_EQ(sampled.on(), Tracer::compiled_in());
  EXPECT_EQ(sampled.round(), 2u);
  sampled.record(SpanKind::kRound, -1, 0, 0.0, 1.0);
  const std::vector<TraceEvent> events = tracer.drain();
  ASSERT_EQ(events.size(), Tracer::compiled_in() ? 1u : 0u);
  if (!events.empty()) {
    EXPECT_EQ(events[0].round, 2u);
  }
}

TEST(Tracer, RoundEventsLeaveTheRingsUntouched) {
  if (!Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  Tracer tracer;
  // Two rounds from four pool workers; every event is recorded twice with
  // a different real_ns, so the sort identity ties and only ring order
  // places the pair.
  constexpr int kActors = 4;
  global_pool().parallel_for(kActors, [&](std::size_t a) {
    const auto actor = static_cast<std::int32_t>(a);
    for (int s = 0; s < 8; ++s) {
      for (const std::uint32_t round : {3u, 4u}) {
        for (std::uint64_t copy = 0; copy < 2; ++copy) {
          TraceEvent e = ev(SpanKind::kLocalStep, round, actor, s, s + 1, s);
          e.real_ns = 1000 * a + 10 * static_cast<std::uint64_t>(s) + copy;
          tracer.record(e);
        }
      }
    }
  });
  const obs::JsonlOptions with_real{.include_real = true};
  const std::string r3 = obs::to_jsonl(tracer.round_events(3), with_real);
  const std::string r4 = obs::to_jsonl(tracer.round_events(4), with_real);
  EXPECT_EQ(tracer.round_events(3).size(), 2u * 8 * kActors);
  EXPECT_TRUE(tracer.round_events(5).empty());
  EXPECT_EQ(obs::to_jsonl(tracer.round_events(3), with_real), r3);

  const std::vector<TraceEvent> all = tracer.drain();
  ASSERT_EQ(all.size(), 2u * 2 * 8 * kActors);
  std::vector<TraceEvent> slice3;
  std::vector<TraceEvent> slice4;
  for (const TraceEvent& e : all) (e.round == 3 ? slice3 : slice4).push_back(e);
  EXPECT_EQ(obs::to_jsonl(slice3, with_real), r3);
  EXPECT_EQ(obs::to_jsonl(slice4, with_real), r4);
  EXPECT_TRUE(tracer.round_events(3).empty());  // drain() did take them
}

TEST(Tracer, SampleEveryKeepsOnlyMatchingRounds) {
  Tracer tracer;
  tracer.set_sample_every(4);
  EXPECT_TRUE(tracer.sampled(0) == Tracer::compiled_in());
  EXPECT_FALSE(tracer.sampled(1));
  EXPECT_FALSE(tracer.sampled(3));
  EXPECT_TRUE(tracer.sampled(8) == Tracer::compiled_in());
  EXPECT_THROW(tracer.set_sample_every(0), std::invalid_argument);
}

TEST(Tracer, RingOverflowCountsDropsInsteadOfSilentlyLosing) {
  Tracer tracer(/*ring_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    tracer.record(ev(SpanKind::kLocalStep, 0, 0, i, i + 1, i));
  }
  if (Tracer::compiled_in()) {
    EXPECT_EQ(tracer.drain().size(), 8u);
    EXPECT_EQ(tracer.dropped(), 12u);
  }
}

TEST(Tracer, SpanNamesRoundTrip) {
  for (int k = 0; k < obs::kNumSpanKinds; ++k) {
    const auto kind = static_cast<SpanKind>(k);
    EXPECT_EQ(obs::span_kind_from_name(obs::span_name(kind)), kind);
  }
  EXPECT_THROW(obs::span_kind_from_name("bogus"), std::invalid_argument);
}

// ----------------------------------------------------------------- metrics --

TEST(MetricsRegistry, CounterHandlesShareTheCellByName) {
  obs::MetricsRegistry reg;
  auto a = reg.counter("x.count");
  auto b = reg.counter("x.count");
  a.add(3);
  b.add(4);
  EXPECT_EQ(reg.counter_value("x.count"), 7u);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(reg.counter_value("unregistered"), 0u);
}

TEST(MetricsRegistry, NullHandlesNoOp) {
  obs::CounterHandle c;
  obs::GaugeHandle g;
  obs::HistogramHandle h;
  c.add();
  g.set(1.0);
  h.observe(2.0);
  EXPECT_FALSE(c);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsRegistry, GaugeStoresLastValue) {
  obs::MetricsRegistry reg;
  auto g = reg.gauge("tokens_per_s");
  g.set(12.5);
  g.set(99.0);
  EXPECT_EQ(reg.gauge_value("tokens_per_s"), 99.0);
}

TEST(MetricsRegistry, HistogramSnapshotSummarizes) {
  obs::MetricsRegistry reg;
  auto h = reg.histogram("lat");
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  const auto snap = reg.histogram_snapshot("lat");
  EXPECT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 4.0);
  EXPECT_NEAR(snap.mean(), 7.0 / 3.0, 1e-12);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandlesValid) {
  obs::MetricsRegistry reg;
  auto c = reg.counter("c");
  auto g = reg.gauge("g");
  auto h = reg.histogram("h");
  c.add(5);
  g.set(2.0);
  h.observe(8.0);
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_EQ(reg.gauge_value("g"), 0.0);
  EXPECT_EQ(reg.histogram_snapshot("h").total, 0u);
  c.add(1);  // handle still wired to the same cell
  h.observe(1.0);
  EXPECT_EQ(reg.counter_value("c"), 1u);
  EXPECT_EQ(reg.histogram_snapshot("h").total, 1u);
  EXPECT_EQ(reg.counter_names(), std::vector<std::string>{"c"});
}

TEST(HistogramData, BucketOfCoversZeroNegativeAndMagnitudes) {
  using obs::HistogramData;
  EXPECT_EQ(HistogramData::bucket_of(0.0), 0);
  EXPECT_EQ(HistogramData::bucket_of(-3.0), 1);
  // 1.0 has exponent 0; buckets 2.. map exponents kMinExp..kMaxExp.
  EXPECT_EQ(HistogramData::bucket_of(1.0),
            2 + (0 - HistogramData::kMinExp));
  EXPECT_EQ(HistogramData::bucket_of(2.0),
            2 + (1 - HistogramData::kMinExp));
  EXPECT_EQ(HistogramData::bucket_of(0.5),
            2 + (-1 - HistogramData::kMinExp));
  // Clamped extremes stay in range.
  EXPECT_EQ(HistogramData::bucket_of(1e300), 2 + (HistogramData::kMaxExp -
                                                  HistogramData::kMinExp));
  EXPECT_EQ(HistogramData::bucket_of(1e-300), 2);
}

// -------------------------------------------------------------------- json --

TEST(Json, ParsesNestedDocument) {
  const auto v = obs::json::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "hi\n\"there\""}, "d": true, "e": null})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].as_number(), -300.0);
  EXPECT_EQ(v.at("b").at("c").as_string(), "hi\n\"there\"");
  EXPECT_TRUE(v.at("d").as_bool());
  EXPECT_TRUE(v.at("e").is_null());
  EXPECT_FALSE(v.contains("zzz"));
}

TEST(Json, DecodesUnicodeEscapes) {
  // é (LATIN SMALL LETTER E WITH ACUTE) must decode to UTF-8 0xc3 0xa9.
  const auto v = obs::json::parse("[\"A\\u00e9A\"]");
  EXPECT_EQ(v.as_array()[0].as_string(), "A\xc3\xa9"
                                         "A");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(obs::json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("nul"), std::runtime_error);
  // Nesting is capped before the parser's recursion exhausts the stack.
  EXPECT_THROW(obs::json::parse(std::string(100000, '[')), std::runtime_error);
  EXPECT_EQ(obs::json::parse(std::string(512, '[') + std::string(512, ']'))
                .as_array()
                .size(),
            1u);
}

// --------------------------------------------------------------- exporters --

std::vector<TraceEvent> sample_events() {
  std::vector<TraceEvent> events;
  events.push_back(ev(SpanKind::kRound, 0, obs::kAggregatorActor, 0.0, 10.0));
  events.push_back(ev(SpanKind::kBroadcast, 0, 0, 0.0, 1.0, 0));
  events.push_back(ev(SpanKind::kLocalTrain, 0, 0, 1.0, 8.0, 0));
  events.push_back(ev(SpanKind::kRetryWait, 0, 1, 1.5, 2.0, 2));
  events.push_back(ev(SpanKind::kCrash, 0, 1, 2.0, 2.0));
  events.push_back(ev(SpanKind::kCollective, 0, obs::kAggregatorActor, 8.5,
                      10.0, 2));
  events[2].real_ns = 123456;
  return events;
}

TEST(Export, JsonlOmitsRealNsByDefaultAndIncludesOnRequest) {
  const auto events = sample_events();
  const std::string plain = obs::to_jsonl(events);
  EXPECT_EQ(plain.find("real_ns"), std::string::npos);
  obs::JsonlOptions opt;
  opt.include_real = true;
  const std::string with_real = obs::to_jsonl(events, opt);
  EXPECT_NE(with_real.find("\"real_ns\":123456"), std::string::npos);
  // One line per event, each a valid JSON object.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(plain.begin(), plain.end(), '\n')),
            events.size());
}

TEST(Export, ChromeTraceParsesBackAsValidJson) {
  const auto events = sample_events();
  const auto doc = obs::json::parse(obs::to_chrome_trace(events));
  const auto& trace_events = doc.at("traceEvents").as_array();
  ASSERT_EQ(trace_events.size(), events.size());
  std::set<std::string> phases;
  for (const auto& e : trace_events) {
    phases.insert(e.at("ph").as_string());
    EXPECT_TRUE(e.contains("ts"));
    EXPECT_TRUE(e.contains("name"));
    EXPECT_TRUE(e.contains("pid"));
    EXPECT_TRUE(e.contains("tid"));
  }
  EXPECT_TRUE(phases.count("X"));  // width spans
  EXPECT_TRUE(phases.count("i"));  // the crash instant
  // Sim seconds -> microseconds on the chrome ts axis.
  bool found_round = false;
  for (const auto& e : trace_events) {
    if (e.at("name").as_string() == "round") {
      found_round = true;
      EXPECT_EQ(e.at("ts").as_number(), 0.0);
      EXPECT_EQ(e.at("dur").as_number(), 10.0 * 1e6);
      EXPECT_EQ(e.at("tid").as_number(), 0.0);  // aggregator track
    }
  }
  EXPECT_TRUE(found_round);
}

TEST(Export, RoundTableAttributesPhases) {
  const std::string table = obs::render_round_table(sample_events());
  EXPECT_NE(table.find("round"), std::string::npos);
  EXPECT_NE(table.find("collective_s"), std::string::npos);
  EXPECT_NE(table.find("crashes"), std::string::npos);
}

// ------------------------------------------------------ kernel attribution --

TEST(KernelMetrics, FlopsCountersMatchAnalyticCounts) {
  obs::MetricsRegistry reg;
  kernels::set_kernel_metrics(&reg);
  constexpr int m = 8, k = 16, n = 4;
  std::vector<float> a(m * k, 1.0f), b(k * n, 2.0f), out(m * n);
  kernels::matmul(kernels::default_context(), out.data(), a.data(), b.data(), m,
                  k, n);
  EXPECT_EQ(reg.counter_value("kernels.flops.matmul"),
            2ull * m * k * n);
  constexpr int bt = 6, c = 8, oc = 10;
  std::vector<float> inp(bt * c, 0.5f), w(oc * c, 0.25f), bias(oc, 0.0f);
  std::vector<float> y(bt * oc);
  kernels::linear_forward(kernels::default_context(), y.data(), inp.data(),
                          w.data(), bias.data(), bt, c, oc);
  EXPECT_EQ(reg.counter_value("kernels.flops.linear_fwd"),
            2ull * bt * c * oc);
  std::vector<float> dinp(bt * c, 0.0f), dw(oc * c, 0.0f), db(oc, 0.0f);
  std::vector<float> dout(bt * oc, 1.0f);
  kernels::linear_backward(kernels::default_context(), dinp.data(), dw.data(),
                           db.data(), dout.data(), inp.data(), w.data(), bt, c,
                           oc);
  EXPECT_EQ(reg.counter_value("kernels.flops.linear_bwd"),
            2ull * 2ull * bt * c * oc + 1ull * bt * oc);
  kernels::set_kernel_metrics(nullptr);  // un-wire the process-wide hook
}

// ------------------------------------------------------- round integration --

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

std::unique_ptr<Aggregator> build_traced_aggregator(Tracer* tracer,
                                                    obs::MetricsRegistry* reg,
                                                    bool parallel) {
  ClientTrainConfig ctc;
  ctc.model = tiny_model();
  ctc.local_batch = 2;
  ctc.schedule.max_lr = 5e-3f;
  ctc.schedule.warmup_steps = 2;
  ctc.schedule.total_steps = 1000;
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc, tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
  }
  AggregatorConfig ac;
  ac.local_steps = 2;
  ac.parallel_clients = parallel;
  ac.seed = 33;
  ac.round_deadline_s = 8.0;
  ac.min_cohort_fraction = 0.25;
  ac.max_cohort_retries = 4;
  ac.retry.max_attempts = 4;
  ac.tracer = tracer;
  ac.metrics = reg;
  return std::make_unique<Aggregator>(tiny_model(), ac,
                                      make_server_opt("fedavg", 1.0f, 0.0f),
                                      std::move(clients), 55);
}

// The PR-3 chaos mix: link drops force retry_wait spans, stragglers exceed
// the 8 s deadline, plus occasional crashes and wire corruption.
FaultPlan chaos_plan() {
  FaultPlan plan;  // keeps the injector's default deterministic seed
  plan.link_drop_prob = 0.25;
  plan.corrupt_prob = 0.1;
  plan.crash_prob = 0.08;
  plan.straggle_prob = 0.3;
  plan.straggle_factor_min = 8.0;
  plan.straggle_factor_max = 16.0;
  return plan;
}

TEST(ObsIntegration, FaultedRoundsEmitRetryWaitAndStragglerCutSpans) {
  if (!Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  Tracer tracer;
  obs::MetricsRegistry reg;
  auto agg = build_traced_aggregator(&tracer, &reg, /*parallel=*/false);
  FaultInjector injector(chaos_plan());
  injector.install(*agg);
  for (int r = 0; r < 4; ++r) agg->run_round();
  const auto events = tracer.drain();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(tracer.dropped(), 0u);

  std::map<SpanKind, int> by_kind;
  for (const auto& e : events) ++by_kind[e.kind];
  EXPECT_EQ(by_kind[SpanKind::kRound], 4);
  EXPECT_GT(by_kind[SpanKind::kRetryWait], 0);
  EXPECT_GT(by_kind[SpanKind::kStragglerCut], 0);
  EXPECT_GT(by_kind[SpanKind::kBroadcast], 0);
  EXPECT_GT(by_kind[SpanKind::kLocalStep], 0);
  EXPECT_GT(by_kind[SpanKind::kCollective], 0);
  EXPECT_EQ(by_kind[SpanKind::kServerOpt], 4);

  // The engine's counters agree with the spans it emitted.
  EXPECT_EQ(reg.counter_value("round.straggler_cuts"),
            static_cast<std::uint64_t>(by_kind[SpanKind::kStragglerCut]));
  EXPECT_EQ(reg.counter_value("round.completed"), 4u);
}

TEST(ObsIntegration, RegistryCountersEqualSummedLinkStats) {
  Tracer tracer;
  obs::MetricsRegistry reg;
  auto agg = build_traced_aggregator(&tracer, &reg, /*parallel=*/false);
  FaultInjector injector(chaos_plan());
  injector.install(*agg);
  for (int r = 0; r < 3; ++r) agg->run_round();
  LinkStats sum;
  for (int id = 0; id < agg->population(); ++id) {
    const LinkStats& s = agg->link_stats(id);
    sum.messages += s.messages;
    sum.payload_bytes += s.payload_bytes;
    sum.wire_bytes += s.wire_bytes;
    sum.retries += s.retries;
    sum.send_failures += s.send_failures;
    sum.corrupt_chunks += s.corrupt_chunks;
    sum.aborted_messages += s.aborted_messages;
    sum.deadline_misses += s.deadline_misses;
  }
  EXPECT_EQ(reg.counter_value("link.messages"), sum.messages);
  EXPECT_EQ(reg.counter_value("link.payload_bytes"), sum.payload_bytes);
  EXPECT_EQ(reg.counter_value("link.wire_bytes"), sum.wire_bytes);
  EXPECT_EQ(reg.counter_value("link.retries"), sum.retries);
  EXPECT_EQ(reg.counter_value("link.send_failures"), sum.send_failures);
  EXPECT_EQ(reg.counter_value("link.corrupt_chunks"), sum.corrupt_chunks);
  EXPECT_EQ(reg.counter_value("link.aborted_messages"), sum.aborted_messages);
  EXPECT_EQ(reg.counter_value("link.retransmits"), sum.retries);
  EXPECT_EQ(reg.counter_value("link.deadline_misses"), sum.deadline_misses);
  EXPECT_GT(sum.retries, 0u);  // the plan actually exercised the retry path
}

TEST(ObsIntegration, TraceAttributesAtLeast95PercentOfRoundSimTime) {
  if (!Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  Tracer tracer;
  obs::MetricsRegistry reg;
  auto agg = build_traced_aggregator(&tracer, &reg, /*parallel=*/false);
  FaultInjector injector(chaos_plan());
  injector.install(*agg);
  for (int r = 0; r < 4; ++r) agg->run_round();
  const auto events = tracer.drain();

  for (std::uint32_t round = 0; round < 4; ++round) {
    double round_begin = 0.0, round_dur = -1.0, collective = 0.0;
    double slowest_end = 0.0;
    for (const auto& e : events) {
      if (e.round != round) continue;
      if (e.kind == SpanKind::kRound) {
        round_begin = e.sim_begin;
        round_dur = e.sim_end - e.sim_begin;
      } else if (e.kind == SpanKind::kCollective) {
        collective += e.sim_end - e.sim_begin;
      } else if (e.kind == SpanKind::kBroadcast ||
                 e.kind == SpanKind::kLocalTrain ||
                 e.kind == SpanKind::kUpdateReturn ||
                 e.kind == SpanKind::kStragglerCut) {
        slowest_end = std::max(slowest_end, e.sim_end);
      }
    }
    ASSERT_GT(round_dur, 0.0) << "round " << round;
    const double attributed = (slowest_end - round_begin) + collective;
    EXPECT_GE(attributed, 0.95 * round_dur) << "round " << round;
    EXPECT_LE(attributed, round_dur + 1e-9) << "round " << round;
  }
}

TEST(ObsIntegration, TraceIsByteIdenticalSerialVsParallelClients) {
  if (!Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  auto run = [](bool parallel) {
    Tracer tracer;
    obs::MetricsRegistry reg;
    auto agg = build_traced_aggregator(&tracer, &reg, parallel);
    FaultInjector injector(chaos_plan());
    injector.install(*agg);
    for (int r = 0; r < 3; ++r) agg->run_round();
    return obs::to_jsonl(tracer.drain());
  };
  const std::string serial = run(false);
  const std::string parallel = run(true);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ObsIntegration, ChromeTraceOfFaultedRunIsPerfettoLoadableJson) {
  if (!Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  Tracer tracer;
  obs::MetricsRegistry reg;
  auto agg = build_traced_aggregator(&tracer, &reg, /*parallel=*/false);
  FaultInjector injector(chaos_plan());
  injector.install(*agg);
  for (int r = 0; r < 2; ++r) agg->run_round();
  const auto events = tracer.drain();
  const auto doc = obs::json::parse(obs::to_chrome_trace(events));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& trace_events = doc.at("traceEvents").as_array();
  ASSERT_EQ(trace_events.size(), events.size());
  for (const auto& e : trace_events) {
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    const auto& args = e.at("args").as_object();
    EXPECT_TRUE(args.count("round"));
  }
}

TEST(ObsIntegration, SamplingThinsRoundsDeterministically) {
  if (!Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  Tracer tracer;
  tracer.set_sample_every(2);
  obs::MetricsRegistry reg;
  auto agg = build_traced_aggregator(&tracer, &reg, /*parallel=*/false);
  for (int r = 0; r < 4; ++r) agg->run_round();
  const auto events = tracer.drain();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_EQ(e.round % 2, 0u);  // only sampled rounds present
  }
}

TEST(ObsIntegration, TokensAndHistogramTrackTheEngine) {
  Tracer tracer;
  obs::MetricsRegistry reg;
  auto agg = build_traced_aggregator(&tracer, &reg, /*parallel=*/false);
  std::uint64_t tokens = 0;
  for (int r = 0; r < 2; ++r) tokens += agg->run_round().tokens_this_round;
  EXPECT_EQ(reg.counter_value("round.tokens"), tokens);
  EXPECT_GT(reg.gauge_value("round.tokens_per_sim_second"), 0.0);
  // Four clients per round, two rounds -> eight per-client observations.
  EXPECT_EQ(reg.histogram_snapshot("client.sim_round_seconds").total, 8u);
  EXPECT_GT(agg->sim_now(), 0.0);
}

}  // namespace
}  // namespace photon
