// Property-based tests (parameterized gtest): invariants that must hold
// across whole parameter ranges, not just single examples.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

#include "comm/collective.hpp"
#include "comm/compression.hpp"
#include "comm/secure_agg.hpp"
#include "core/sampler.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "nn/optimizer.hpp"
#include "nn/scheduler.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

// ------------------------------------------------ collective properties --
// Both fields are 8 bytes wide so the struct has no padding: gtest prints a
// parameter without a PrintTo as its raw bytes, and those bytes name the test.
struct CollectiveCase {
  std::size_t workers;
  std::size_t n;
};

class CollectiveProperties
    : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(CollectiveProperties, MeanIsPermutationInvariant) {
  const auto [k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(k * 1000 + n));
  std::vector<std::vector<float>> bufs(k, std::vector<float>(n));
  for (auto& b : bufs) {
    for (auto& x : b) x = rng.gaussian(0, 1);
  }
  auto run = [&](std::vector<std::vector<float>> order) {
    std::vector<std::span<float>> spans;
    for (auto& b : order) spans.emplace_back(b);
    collective_mean(Topology::kRingAllReduce, spans);
    return order.front();
  };
  auto forward = run(bufs);
  std::reverse(bufs.begin(), bufs.end());
  auto reversed = run(bufs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(forward[i], reversed[i], 1e-5f);
  }
}

TEST_P(CollectiveProperties, MeanOfIdenticalBuffersIsIdentity) {
  const auto [k, n] = GetParam();
  Rng rng(3);
  std::vector<float> base(n);
  for (auto& x : base) x = rng.gaussian(0, 1);
  std::vector<std::vector<float>> bufs(k, base);
  std::vector<std::span<float>> spans;
  for (auto& b : bufs) spans.emplace_back(b);
  collective_mean(Topology::kAllReduce, spans);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(bufs[0][i], base[i], 1e-5f);
  }
}

TEST_P(CollectiveProperties, RarTrafficIsBandwidthOptimal) {
  const auto [k, n] = GetParam();
  if (k < 2) GTEST_SKIP();
  const auto rar = collective_cost(Topology::kRingAllReduce, k,
                                   n * sizeof(float), 100.0);
  // 2*(k-1)/k * S is strictly under 2*S for any k.
  EXPECT_LT(rar.bottleneck_bytes, 2 * n * sizeof(float));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CollectiveProperties,
    ::testing::Values(CollectiveCase{2, 7}, CollectiveCase{3, 64},
                      CollectiveCase{5, 1000}, CollectiveCase{8, 33},
                      CollectiveCase{16, 257}));

// ----------------------------------------------------- codec properties --
// The name is a std::string, not a const char*: gtest prints a pointer with
// its address, which would make the test's name differ on every run.
class CodecProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CodecProperty, RoundTripOnStructuredPayloads) {
  const auto [name, kind] = GetParam();
  const Codec* codec = codec_by_name(name);
  ASSERT_NE(codec, nullptr);
  Rng rng(static_cast<std::uint64_t>(kind + 1));
  std::vector<std::uint8_t> input;
  switch (kind) {
    case 0:  // all zeros
      input.assign(4096, 0);
      break;
    case 1:  // float-like gradient bytes
      for (int i = 0; i < 1024; ++i) {
        const float f = rng.gaussian(0.0f, 1e-3f);
        const auto* p = reinterpret_cast<const std::uint8_t*>(&f);
        input.insert(input.end(), p, p + 4);
      }
      break;
    case 2:  // periodic
      for (int i = 0; i < 4096; ++i) input.push_back(static_cast<std::uint8_t>(i % 17));
      break;
    case 3:  // adversarial sizes around the flag-group boundary
      for (int i = 0; i < 257; ++i) input.push_back(static_cast<std::uint8_t>(rng.next_below(3)));
      break;
    default:
      for (int i = 0; i < 1 + kind * 31; ++i) {
        input.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      }
  }
  EXPECT_EQ(codec->decompress(codec->compress(input)), input);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllPayloads, CodecProperty,
    ::testing::Combine(::testing::Values("", "rle0"),
                       ::testing::Range(0, 8)));

// ----------------------------------------------- secure agg properties --
class SecureAggProperty : public ::testing::TestWithParam<int> {};

TEST_P(SecureAggProperty, SumPreservedForAnyCohortSize) {
  const int k = GetParam();
  const std::size_t n = 32;
  Rng rng(static_cast<std::uint64_t>(k));
  std::vector<std::vector<float>> updates(static_cast<std::size_t>(k),
                                          std::vector<float>(n));
  std::vector<double> plain(n, 0.0);
  for (auto& u : updates) {
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = rng.gaussian(0, 1);
      plain[i] += u[i];
    }
  }
  std::vector<int> cohort(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) cohort[static_cast<std::size_t>(c)] = c;
  const SecAggSession sec(
      cohort, SecAggConfig{32, 0.5, 0xABC + static_cast<std::uint64_t>(k)});
  // Every member masks into the one server accumulator (wrapping adds).
  std::vector<std::uint64_t> acc(n, 0);
  for (int c = 0; c < k; ++c) {
    sec.mask_update_into(c, updates[static_cast<std::size_t>(c)], acc,
                         kernels::default_context());
  }
  std::vector<float> mean(n, 0.0f);
  sec.decode_mean(acc, k, mean, kernels::default_context());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(mean[i] * static_cast<float>(k), plain[i], 1e-5f * k);
  }
}

INSTANTIATE_TEST_SUITE_P(CohortSizes, SecureAggProperty,
                         ::testing::Values(2, 3, 4, 7, 16));

// -------------------------------------------------- sampler properties --
class SamplerProperty : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(SamplerProperty, SamplesAreDistinctSortedAndInRange) {
  const auto [population, k] = GetParam();
  ClientSampler sampler(population, 99);
  const std::vector<MembershipState> active(
      static_cast<std::size_t>(population), MembershipState::kActive);
  for (std::uint32_t round = 0; round < 50; ++round) {
    const auto s = sampler.sample(active, k, round);
    EXPECT_EQ(s.size(), static_cast<std::size_t>(std::min(k, population)));
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_GE(s[i], 0);
      EXPECT_LT(s[i], population);
      if (i > 0) EXPECT_LT(s[i - 1], s[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SamplerProperty,
                         ::testing::Values(std::tuple{4, 2}, std::tuple{16, 4},
                                           std::tuple{16, 16},
                                           std::tuple{64, 8},
                                           std::tuple{3, 5}));

// ----------------------------------------------- server-opt properties --
TEST(ServerOptProperty, FedAvgIsLinearInThePseudoGradient) {
  FedAvgOpt opt(0.5f);
  Rng rng(4);
  std::vector<float> g1(16), g2(16);
  for (auto& x : g1) x = rng.gaussian(0, 1);
  for (auto& x : g2) x = rng.gaussian(0, 1);

  std::vector<float> p_sum(16, 1.0f);
  std::vector<float> combined(16);
  for (int i = 0; i < 16; ++i) combined[i] = g1[i] + g2[i];
  opt.apply(p_sum, combined);

  std::vector<float> p_seq(16, 1.0f);
  opt.apply(p_seq, g1);
  opt.apply(p_seq, g2);

  for (int i = 0; i < 16; ++i) EXPECT_NEAR(p_sum[i], p_seq[i], 1e-6f);
}

TEST(ServerOptProperty, ZeroPseudoGradientIsFixedPoint) {
  const std::vector<float> zeros(8, 0.0f);
  for (const char* name : {"fedavg", "fedmom", "nesterov"}) {
    auto opt = make_server_opt(name, 0.7f, 0.9f);
    std::vector<float> params{1, 2, 3, 4, 5, 6, 7, 8};
    const auto before = params;
    opt->apply(params, zeros);
    opt->apply(params, zeros);
    EXPECT_EQ(params, before) << name;
  }
}

// ------------------------------------------------ schedule properties --
class ScheduleProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleProperty, BoundedAndMonotoneAfterWarmup) {
  const int total = GetParam();
  CosineScheduleConfig cfg;
  cfg.max_lr = 1.0f;
  cfg.min_lr_factor = 0.1f;
  cfg.warmup_steps = total / 10;
  cfg.total_steps = total;
  CosineSchedule sched(cfg);
  for (int s = 0; s < total + 50; ++s) {
    const float lr = sched.lr_at(s);
    EXPECT_GT(lr, 0.0f);
    if (s >= cfg.warmup_steps) EXPECT_GE(lr, 0.1f * (1.0f - 1e-5f));
    EXPECT_LE(lr, 1.0f * (1.0f + 1e-5f));
    if (s > cfg.warmup_steps) {
      // fp32 cosine evaluation wobbles at the ~1e-6 level on long
      // schedules; monotone within that noise floor.
      EXPECT_LE(sched.lr_at(s), sched.lr_at(s - 1) + 5e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ScheduleProperty,
                         ::testing::Values(20, 100, 1000, 9999));

// ------------------------------------------------- corpus properties --
class BlendProperty : public ::testing::TestWithParam<double> {};

TEST_P(BlendProperty, CrossSourceDivergenceShrinksWithBlend) {
  const double blend = GetParam();
  CorpusConfig cc;
  const auto styles = pile_styles(blend);
  MarkovSource a(cc, styles[0]), b(cc, styles[1]);
  // L1 distance between transition rows, averaged over states.
  double dist = 0.0;
  for (int s = 4; s < 64; ++s) {
    const auto ra = a.transition_row(s);
    const auto rb = b.transition_row(s);
    for (std::size_t i = 0; i < ra.size(); ++i) dist += std::abs(ra[i] - rb[i]);
  }
  dist /= 60.0;
  if (blend >= 1.0) {
    EXPECT_NEAR(dist, 0.0, 1e-9);
  } else {
    EXPECT_GT(dist, 0.0);
    // Rough monotonicity envelope: lower blend -> at least as much drift.
    EXPECT_LT(dist, 2.1);  // L1 of two distributions is bounded by 2
  }
}

INSTANTIATE_TEST_SUITE_P(Blends, BlendProperty,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

// ------------------------------------------------- clipping properties --
TEST(ClipProperty, IdempotentAndDirectionPreserving) {
  Rng rng(5);
  std::vector<float> g(64);
  for (auto& x : g) x = rng.gaussian(0, 3);
  auto copy = g;
  clip_grad_norm(kernels::default_context(), copy, 1.0);
  double first_norm = 0.0;
  for (float x : copy) first_norm += static_cast<double>(x) * x;
  first_norm = std::sqrt(first_norm);
  auto twice = copy;
  clip_grad_norm(kernels::default_context(), twice, 1.0);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(copy[i], twice[i], 1e-7f);  // idempotent
    if (std::abs(g[i]) > 1e-6f) {
      EXPECT_GT(copy[i] * g[i], 0.0f);  // sign preserved
    }
  }
  EXPECT_NEAR(first_norm, 1.0, 1e-5);
}

// --------------------------------------------- observability properties --
obs::HistogramData random_histogram(std::uint64_t seed, int n) {
  Rng rng(seed);
  obs::HistogramData h;
  for (int i = 0; i < n; ++i) {
    // Mix magnitudes across many buckets, plus zeros and negatives.
    const double mag = std::exp(rng.gaussian(0.0, 8.0));
    const double pick = rng.next_double();
    h.observe(pick < 0.1 ? 0.0 : pick < 0.3 ? -mag : mag);
  }
  return h;
}

class HistogramMergeProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramMergeProperty, MergeIsAssociative) {
  const std::uint64_t seed = GetParam();
  const auto a = random_histogram(seed * 3 + 1, 200);
  const auto b = random_histogram(seed * 3 + 2, 150);
  const auto c = random_histogram(seed * 3 + 3, 50);
  auto left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  auto bc = b;     // a + (b + c)
  bc.merge(c);
  auto right = a;
  right.merge(bc);
  EXPECT_EQ(left.counts, right.counts);
  EXPECT_EQ(left.total, right.total);
  EXPECT_EQ(left.min, right.min);
  EXPECT_EQ(left.max, right.max);
  // `sum` may differ by one float rounding per merge order.
  EXPECT_NEAR(left.sum, right.sum,
              1e-12 * std::max(1.0, std::abs(left.sum)));
}

TEST_P(HistogramMergeProperty, MergeIsCommutativeBitExact) {
  const std::uint64_t seed = GetParam();
  const auto a = random_histogram(seed * 5 + 1, 120);
  const auto b = random_histogram(seed * 5 + 2, 180);
  auto ab = a;
  ab.merge(b);
  auto ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba);  // counts, total, min, max, AND sum (x+y == y+x)
}

TEST_P(HistogramMergeProperty, MergeEqualsSerialObservationStream) {
  // N per-thread histograms merged in any order must summarize the same
  // stream as one serial histogram (the per-thread-ring contract).
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  std::vector<double> values(400);
  for (auto& v : values) v = rng.gaussian(0.0, 100.0);
  obs::HistogramData serial;
  for (double v : values) serial.observe(v);
  std::array<obs::HistogramData, 4> shards;
  for (std::size_t i = 0; i < values.size(); ++i) {
    shards[i % shards.size()].observe(values[i]);
  }
  obs::HistogramData merged = shards[3];  // deliberately out of order
  merged.merge(shards[1]);
  merged.merge(shards[0]);
  merged.merge(shards[2]);
  EXPECT_EQ(merged.counts, serial.counts);
  EXPECT_EQ(merged.total, serial.total);
  EXPECT_EQ(merged.min, serial.min);
  EXPECT_EQ(merged.max, serial.max);
  EXPECT_NEAR(merged.sum, serial.sum,
              1e-9 * std::max(1.0, std::abs(serial.sum)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramMergeProperty,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

class CounterConcurrencyProperty : public ::testing::TestWithParam<int> {};

TEST_P(CounterConcurrencyProperty, ThreadedTotalEqualsSerialSum) {
  const int workers = GetParam();
  obs::MetricsRegistry reg;
  auto counter = reg.counter("prop.count");
  auto hist = reg.histogram("prop.hist");
  std::uint64_t expected = 0;
  for (int w = 0; w < workers; ++w) {
    expected += static_cast<std::uint64_t>(w + 1) * 100;
  }
  global_pool().parallel_for(static_cast<std::size_t>(workers),
                             [&](std::size_t w) {
                               for (int i = 0; i < 100; ++i) {
                                 counter.add(w + 1);
                                 hist.observe(static_cast<double>(w + 1));
                               }
                             });
  EXPECT_EQ(reg.counter_value("prop.count"), expected);
  const auto snap = reg.histogram_snapshot("prop.hist");
  EXPECT_EQ(snap.total, static_cast<std::uint64_t>(workers) * 100);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, static_cast<double>(workers));
}

INSTANTIATE_TEST_SUITE_P(Workers, CounterConcurrencyProperty,
                         ::testing::Values(1, 2, 4, 8));

class JsonlRoundTripProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonlRoundTripProperty, EveryFieldSurvivesExportImport) {
  Rng rng(GetParam());
  std::vector<obs::TraceEvent> events(64);
  for (auto& e : events) {
    e.kind = static_cast<obs::SpanKind>(rng.next_below(obs::kNumSpanKinds));
    e.round = static_cast<std::uint32_t>(rng.next_below(1000));
    e.actor = static_cast<std::int32_t>(rng.next_below(64)) - 1;  // incl. -1
    e.detail = static_cast<std::int32_t>(rng.next_below(100)) - 1;
    e.sim_begin = rng.next_double() * 1e4;
    e.sim_end = e.sim_begin + rng.next_double() * 100.0;
    e.real_ns = rng.next_u64() >> 12;
  }
  obs::JsonlOptions opt;
  opt.include_real = true;
  const auto parsed = obs::from_jsonl(obs::to_jsonl(events, opt));
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, events[i].kind);
    EXPECT_EQ(parsed[i].round, events[i].round);
    EXPECT_EQ(parsed[i].actor, events[i].actor);
    EXPECT_EQ(parsed[i].detail, events[i].detail);
    EXPECT_EQ(parsed[i].sim_begin, events[i].sim_begin);  // bit-exact
    EXPECT_EQ(parsed[i].sim_end, events[i].sim_end);
    EXPECT_EQ(parsed[i].real_ns, events[i].real_ns);
  }
  // The deterministic export drops real_ns (defaults to 0 on import).
  const auto lean = obs::from_jsonl(obs::to_jsonl(events));
  ASSERT_EQ(lean.size(), events.size());
  for (const auto& e : lean) EXPECT_EQ(e.real_ns, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonlRoundTripProperty,
                         ::testing::Values(11ULL, 12ULL, 13ULL));

}  // namespace
}  // namespace photon
