// Observability overhead guard (DESIGN.md §9).
//
// Measures the wall time of the federated round path in three runtime
// configurations of the SAME binary:
//
//   disabled — tracer = nullptr, metrics = nullptr: every instrumentation
//              site costs one null-pointer branch.  This is the number the
//              CI gate compares across builds: a PHOTON_TRACE=ON build's
//              disabled time must stay within the gate threshold of a
//              PHOTON_TRACE=OFF build's time (tools/ci.sh builds both and
//              compares the two JSON reports).
//   enabled  — a live Tracer + MetricsRegistry, drained every round: the
//              full cost of producing spans and counters.
//   sampled  — tracer sampling 1-in-8 rounds: the recommended soak setup.
//
// Timing: each configuration runs `--rounds` rounds on a fresh, identically
// seeded micro federation, repeated `--samples` times; the median loop time
// is reported.  The federation is deterministic, so sample k does identical
// work in every configuration and build.
//
//   bench_obs_overhead [--smoke] [--rounds=N] [--samples=N] [--json=PATH]
//
// --smoke       2 rounds x 1 sample + a trace-sanity check (CI smoke)
// --json=PATH   JSON report path (default: BENCH_obs.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/config.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace photon;

constexpr int kPopulation = 8;
constexpr int kCohort = 4;
constexpr int kLocalSteps = 2;

std::unique_ptr<Aggregator> build_federation(obs::Tracer* tracer,
                                             obs::MetricsRegistry* metrics) {
  ClientTrainConfig ctc;
  ctc.model = ModelConfig::micro();
  ctc.local_batch = 2;
  ctc.schedule.max_lr = 5e-3f;
  ctc.schedule.warmup_steps = 2;
  ctc.schedule.total_steps = 4000;

  CorpusConfig cc;
  cc.vocab_size = ctc.model.vocab_size;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());

  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < kPopulation; ++i) {
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc, std::make_unique<CorpusStreamSource>(corpus, 100 + i), 7));
  }

  AggregatorConfig ac;
  ac.clients_per_round = kCohort;
  ac.local_steps = kLocalSteps;
  ac.topology = Topology::kRingAllReduce;
  ac.parallel_clients = true;
  ac.checkpoint_every = 0;
  ac.tracer = tracer;
  ac.metrics = metrics;
  return std::make_unique<Aggregator>(ctc.model, ac,
                                      std::make_unique<FedAvgOpt>(),
                                      std::move(clients), 42);
}

/// Median wall seconds of one `rounds`-round loop over `samples` fresh,
/// identically seeded federations.  `drain` empties the tracer between
/// rounds the way a soak harness would.
double median_loop_seconds(int rounds, int samples, obs::Tracer* tracer,
                           obs::MetricsRegistry* metrics) {
  using clock = std::chrono::steady_clock;
  std::vector<double> times;
  for (int s = 0; s < samples; ++s) {
    auto agg = build_federation(tracer, metrics);
    if (metrics != nullptr) metrics->reset();
    const auto t0 = clock::now();
    for (int r = 0; r < rounds; ++r) {
      agg->run_round();
      if (tracer != nullptr) (void)tracer->drain();
    }
    times.push_back(std::chrono::duration<double>(clock::now() - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "bench_obs_overhead: FAILED: %s\n", what);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  photon::bench::BenchArgs args = photon::bench::parse_bench_args(argc, argv);
  args.reject_extra("bench_obs_overhead");
  const bool smoke = args.smoke;
  const int rounds = args.rounds_or(smoke ? 2 : 12);
  const int samples = args.samples_or(smoke ? 1 : 3);
  const std::string json_path = args.json_or("BENCH_obs.json");

  const double disabled_s =
      median_loop_seconds(rounds, samples, nullptr, nullptr);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const double enabled_s =
      median_loop_seconds(rounds, samples, &tracer, &metrics);

  obs::Tracer sampled_tracer;
  sampled_tracer.set_sample_every(8);
  obs::MetricsRegistry sampled_metrics;
  const double sampled_s =
      median_loop_seconds(rounds, samples, &sampled_tracer, &sampled_metrics);

  // Sanity: with tracing compiled in and enabled, the rounds must actually
  // produce spans and counters (guards against silently un-wired hooks).
  if (obs::Tracer::compiled_in()) {
    obs::Tracer check;
    obs::MetricsRegistry check_metrics;
    auto agg = build_federation(&check, &check_metrics);
    agg->run_round();
    const auto events = check.drain();
    if (events.empty()) fail("enabled tracer produced no spans");
    if (check_metrics.counter_value("round.completed") != 1) {
      fail("metrics registry missed the round");
    }
    if (smoke) {
      // The Chrome export must parse back as valid JSON.
      (void)obs::json::parse(obs::to_chrome_trace(events));
    }
  }

  const double enabled_over = enabled_s / disabled_s;
  const double sampled_over = sampled_s / disabled_s;
  std::printf(
      "bench_obs_overhead: %s | %d rounds x %d samples | disabled %.4fs "
      "enabled %.4fs (%.3fx) sampled-1/8 %.4fs (%.3fx)\n",
      obs::Tracer::compiled_in() ? "PHOTON_TRACE=ON" : "PHOTON_TRACE=OFF",
      rounds, samples, disabled_s, enabled_s, enabled_over, sampled_s,
      sampled_over);

  photon::bench::write_report(json_path, [&](std::FILE* f) {
    std::fprintf(f,
                 "{\n  \"trace_compiled_in\": %s,\n  \"rounds\": %d,\n"
                 "  \"samples\": %d,\n  \"disabled_round_s\": %.9f,\n"
                 "  \"enabled_round_s\": %.9f,\n"
                 "  \"sampled_round_s\": %.9f,\n"
                 "  \"enabled_over_disabled\": %.6f\n}\n",
                 obs::Tracer::compiled_in() ? "true" : "false", rounds,
                 samples, disabled_s / rounds, enabled_s / rounds,
                 sampled_s / rounds, enabled_over);
  });
  return 0;
}
