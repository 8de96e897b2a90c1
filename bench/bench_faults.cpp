// Chaos soak for the fault-tolerant round engine.
//
// Drives a small federation for many rounds under a randomized (but
// seeded, hence fully deterministic) mix of client crashes, stragglers,
// transient link drops, and wire corruption, and checks the engine's
// contracts on every round:
//
//   * the run never crashes or hangs, and quorum is never silently
//     violated (survivors >= quorum on every aggregated round);
//   * the same seed + FaultPlan replays bit-identically — final parameters
//     AND per-round failure telemetry — across serial and parallel client
//     fan-outs;
//   * retry-absorbable faults (drops and CRC-detected corruption that
//     retransmission recovers) leave the learned parameters bit-identical
//     to a fault-free run, with the faults visible only in LinkStats;
//   * a zero FaultPlan is exactly the fault-free path.
//
//   bench_faults [--smoke] [--rounds=N] [--json=PATH] [--churn]
//                (shared flags: bench_common.hpp BenchArgs)
//
// --smoke       short soak for tier-1 ctest
// --rounds=N    soak length (default 50)
// --json=PATH   JSON report path (default: BENCH_faults.json)
// --churn       elastic async soak instead: a 10k-simulated-client
//               federation under join/leave churn, admission control,
//               and the transient fault mix, with a hard peak-RSS bound
//               and a serial-vs-parallel twin check

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/config.hpp"
#include "sim/faults.hpp"

namespace {

using namespace photon;

struct SoakTotals {
  int rounds = 0;
  int crashed = 0;
  int link_failed = 0;
  int straggler_drops = 0;
  int dropped = 0;
  std::uint64_t cohort_retries = 0;
  std::uint64_t link_retries = 0;
  std::uint64_t corrupt_chunks = 0;
  std::uint64_t topology_fallbacks = 0;
  double backoff_seconds = 0.0;
};

constexpr int kPopulation = 8;
constexpr int kCohort = 4;
constexpr int kLocalSteps = 2;
constexpr int kLocalBatch = 2;

std::unique_ptr<Aggregator> build_federation(const AggregatorConfig& ac) {
  ClientTrainConfig ctc;
  ctc.model = ModelConfig::micro();
  ctc.local_batch = kLocalBatch;
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
  return std::make_unique<Aggregator>(ctc.model, ac,
                                      std::make_unique<FedAvgOpt>(),
                                      std::move(clients), 42);
}

AggregatorConfig chaos_config(bool parallel) {
  AggregatorConfig ac;
  // Det counters feed the perf-gate baseline: a PHOTON_SECAGG override in
  // the environment must not skew them.
  ac.privacy.ignore_env = true;
  ac.clients_per_round = kCohort;
  ac.local_steps = kLocalSteps;
  ac.topology = Topology::kRingAllReduce;
  ac.parallel_clients = parallel;
  ac.checkpoint_every = 0;
  // Plain clients take local_steps / throughput = 2.0 sim seconds to
  // train; any straggler (factor >= 2) blows the 3 s budget and is cut.
  ac.round_deadline_s = 3.0;
  ac.min_cohort_fraction = 0.5;
  ac.max_cohort_retries = 4;
  ac.retry.max_attempts = 4;
  return ac;
}

FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.seed = 0xC4A05ULL;
  plan.crash_prob = 0.08;
  plan.straggle_prob = 0.15;
  plan.straggle_factor_min = 2.0;
  plan.straggle_factor_max = 10.0;
  plan.link_drop_prob = 0.05;
  plan.corrupt_prob = 0.05;
  return plan;
}

[[noreturn]] void fail(const char* what, int round) {
  std::fprintf(stderr, "bench_faults: FAILED: %s (round %d)\n", what, round);
  std::exit(1);
}

/// Run `rounds` rounds under `plan`, checking per-round invariants.
SoakTotals soak(Aggregator& agg, const FaultInjector& injector, int rounds) {
  injector.install(agg);
  SoakTotals totals;
  for (int r = 0; r < rounds; ++r) {
    const RoundRecord rec = agg.run_round();
    const auto cohort_size = rec.participants.size();
    const auto quorum = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               0.5 * static_cast<double>(cohort_size))));
    if (static_cast<std::size_t>(rec.survivors) < quorum) {
      fail("quorum silently violated", r);
    }
    if (static_cast<std::size_t>(rec.survivors) +
            rec.dropped_clients.size() != cohort_size) {
      fail("survivors + dropped != cohort", r);
    }
    // Failure counters accumulate over cohort attempts, so they bound the
    // final cohort's drop count from above.
    if (rec.crashed_clients + rec.link_failed_clients +
            rec.straggler_drops <
        static_cast<int>(rec.dropped_clients.size())) {
      fail("failure counters below dropped count", r);
    }
    const std::uint64_t expect_tokens =
        static_cast<std::uint64_t>(rec.survivors) * kLocalSteps *
        kLocalBatch * ModelConfig::micro().seq_len;
    if (rec.tokens_this_round != expect_tokens) {
      fail("tokens not reweighted to survivors", r);
    }
    if (rec.topology_fallback && rec.dropped_clients.empty()) {
      fail("topology fallback without drops", r);
    }
    totals.rounds += 1;
    totals.crashed += rec.crashed_clients;
    totals.link_failed += rec.link_failed_clients;
    totals.straggler_drops += rec.straggler_drops;
    totals.dropped += static_cast<int>(rec.dropped_clients.size());
    totals.cohort_retries += rec.cohort_retries;
    totals.link_retries += rec.link_retries;
    totals.corrupt_chunks += rec.corrupt_chunks;
    totals.topology_fallbacks += rec.topology_fallback ? 1 : 0;
    totals.backoff_seconds += rec.backoff_seconds;
  }
  return totals;
}

/// Telemetry that must replay identically across thread counts.
bool records_match(const RoundRecord& a, const RoundRecord& b) {
  return a.participants == b.participants &&
         a.dropped_clients == b.dropped_clients &&
         a.survivors == b.survivors &&
         a.crashed_clients == b.crashed_clients &&
         a.link_failed_clients == b.link_failed_clients &&
         a.straggler_drops == b.straggler_drops &&
         a.cohort_retries == b.cohort_retries &&
         a.link_retries == b.link_retries &&
         a.corrupt_chunks == b.corrupt_chunks &&
         a.topology_fallback == b.topology_fallback &&
         a.tokens_this_round == b.tokens_this_round;
}

bool params_equal(const Aggregator& a, const Aggregator& b) {
  const auto pa = a.global_params();
  const auto pb = b.global_params();
  return pa.size() == pb.size() &&
         std::memcmp(pa.data(), pb.data(), pa.size_bytes()) == 0;
}

// --- elastic async churn soak (DESIGN.md §12) ------------------------------

/// Peak resident set (VmHWM) in KiB from /proc/self/status; 0 off-Linux.
std::size_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kb;
}

constexpr int kChurnPopulation = 10000;
constexpr int kChurnBufferGoal = 16;
constexpr int kChurnMaxInFlight = 32;

std::unique_ptr<Aggregator> build_churn_federation(bool parallel) {
  ClientTrainConfig ctc;
  ctc.model = ModelConfig::micro();
  ctc.local_batch = 1;
  ctc.schedule.max_lr = 5e-3f;
  ctc.schedule.warmup_steps = 2;
  ctc.schedule.total_steps = 4000;
  // Every client trains on its thread's replica shell, so an idle client
  // costs only its data stream.  The wire codec is pinned (q8, no error
  // feedback) so the streamed dequant-accumulate path is exercised and no
  // per-client residual buffer accumulates — with EF on, 10k residuals
  // would be params-sized each and unbounded again.
  ctc.stateless_optimizer = true;
  ctc.link_codec = "q8";
  ctc.quant_error_feedback = false;

  CorpusConfig cc;
  cc.vocab_size = ctc.model.vocab_size;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());

  std::vector<std::unique_ptr<LLMClient>> clients;
  clients.reserve(kChurnPopulation);
  for (int i = 0; i < kChurnPopulation; ++i) {
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc, std::make_unique<CorpusStreamSource>(corpus, 100 + i), 7));
  }

  AggregatorConfig ac;
  ac.privacy.ignore_env = true;  // det churn counters feed the baseline
  ac.local_steps = 1;
  ac.parallel_clients = parallel;
  ac.checkpoint_every = 0;
  ac.async.enabled = true;
  ac.async.buffer_goal = kChurnBufferGoal;
  ac.async.max_in_flight = kChurnMaxInFlight;
  // WAN profile: the paper's cross-silo setting, not a datacenter fabric.
  ac.bandwidth_mbps = 12.5;  // 100 Mbps
  return std::make_unique<Aggregator>(ctc.model, ac,
                                      std::make_unique<FedAvgOpt>(),
                                      std::move(clients), 42);
}

FaultPlan churn_plan() {
  FaultPlan plan;
  plan.seed = 0xC4A05ULL;
  plan.crash_prob = 0.05;
  plan.straggle_prob = 0.15;
  plan.straggle_factor_min = 2.0;
  plan.straggle_factor_max = 10.0;
  plan.link_drop_prob = 0.03;
  plan.corrupt_prob = 0.03;
  plan.membership.initial_population = kChurnPopulation - 1000;
  plan.membership.arrive_prob = 0.001;
  plan.membership.leave_prob = 0.0002;
  return plan;
}

int churn_soak(int drains, const std::string& json_path) {
  const FaultInjector injector(churn_plan());
  auto serial = build_churn_federation(/*parallel=*/false);
  auto parallel = build_churn_federation(/*parallel=*/true);
  injector.install(*serial);
  injector.install(*parallel);

  std::uint64_t deferred = 0, discarded = 0, arrivals = 0, departures = 0;
  std::uint32_t max_staleness = 0;
  double staleness_sum = 0.0;
  double last_loss = 0.0;
  for (int r = 0; r < drains; ++r) {
    const RoundRecord rs = serial->run_round();
    const RoundRecord rp = parallel->run_round();
    if (rs.survivors != kChurnBufferGoal) fail("drain under-filled", r);
    if (rs.participants != rp.participants ||
        rs.admission_deferred != rp.admission_deferred ||
        rs.discarded_updates != rp.discarded_updates ||
        rs.arrivals != rp.arrivals || rs.departures != rp.departures) {
      fail("serial vs parallel async telemetry diverged", r);
    }
    if (rs.max_staleness < rs.mean_staleness) {
      fail("staleness mean above max", r);
    }
    if (serial->async_in_flight() > kChurnMaxInFlight) {
      fail("in-flight cap violated", r);
    }
    deferred += rs.admission_deferred;
    discarded += rs.discarded_updates;
    arrivals += rs.arrivals;
    departures += rs.departures;
    max_staleness = std::max(max_staleness, rs.max_staleness);
    staleness_sum += rs.mean_staleness;
    last_loss = rs.mean_train_loss;
  }
  if (!params_equal(*serial, *parallel)) {
    fail("serial vs parallel async params diverged", drains);
  }
  if (deferred == 0) fail("admission control never engaged", drains);

  // Bounded peak memory is the soak's core contract: a regression that
  // materializes per-client replicas (or full fp32 updates in the accept
  // path) blows through this immediately at 10k clients.
  const std::size_t hwm_kb = vm_hwm_kb();
  const double hwm_mb = static_cast<double>(hwm_kb) / 1024.0;
  if (hwm_kb != 0 && hwm_mb > 2048.0) {
    std::fprintf(stderr, "bench_faults: FAILED: peak RSS %.0f MB > 2 GB\n",
                 hwm_mb);
    return 1;
  }

  std::printf(
      "bench_faults --churn: OK — %d clients, %d drains | deferred %llu "
      "discarded %llu arrivals %llu departures %llu | staleness mean %.2f "
      "max %u | active %d | loss %.4f | peak RSS %.0f MB | twins bit-"
      "identical\n",
      kChurnPopulation, drains, static_cast<unsigned long long>(deferred),
      static_cast<unsigned long long>(discarded),
      static_cast<unsigned long long>(arrivals),
      static_cast<unsigned long long>(departures),
      staleness_sum / std::max(1, drains), max_staleness,
      serial->active_population(), last_loss, hwm_mb);

  bench::write_report(json_path, [&](std::FILE* f) {
    std::fprintf(
        f,
        "{\n  \"population\": %d,\n  \"drains\": %d,\n"
        "  \"buffer_goal\": %d,\n  \"max_in_flight\": %d,\n"
        "  \"admission_deferred\": %llu,\n  \"discarded_updates\": %llu,\n"
        "  \"arrivals\": %llu,\n  \"departures\": %llu,\n"
        "  \"mean_staleness\": %.4f,\n  \"max_staleness\": %u,\n"
        "  \"active_population\": %d,\n  \"final_train_loss\": %.6f,\n"
        "  \"peak_rss_mb\": %.1f,\n"
        "  \"serial_parallel_bit_identical\": true\n}\n",
        kChurnPopulation, drains, kChurnBufferGoal, kChurnMaxInFlight,
        static_cast<unsigned long long>(deferred),
        static_cast<unsigned long long>(discarded),
        static_cast<unsigned long long>(arrivals),
        static_cast<unsigned long long>(departures),
        staleness_sum / std::max(1, drains), max_staleness,
        serial->active_population(), last_loss, hwm_mb);
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  photon::bench::BenchArgs args = photon::bench::parse_bench_args(argc, argv);
  const bool churn = args.take_flag("--churn");
  args.reject_extra("bench_faults", "[--churn]");
  const bool smoke = args.smoke;
  const int rounds = args.rounds_or(smoke ? 8 : 50);
  const std::string json_path = args.json_or("BENCH_faults.json");
  if (churn) {
    return churn_soak(smoke ? 5 : std::min(rounds, 30), json_path);
  }

  // 1. Chaos soak, serial and parallel fan-out: same seed + plan must give
  //    bit-identical parameters and identical telemetry.
  const FaultInjector injector(chaos_plan());
  auto serial = build_federation(chaos_config(/*parallel=*/false));
  auto parallel = build_federation(chaos_config(/*parallel=*/true));
  const SoakTotals totals = soak(*serial, injector, rounds);
  (void)soak(*parallel, injector, rounds);
  if (!params_equal(*serial, *parallel)) {
    fail("serial vs parallel params diverged under faults", rounds);
  }
  for (int r = 0; r < rounds; ++r) {
    if (!records_match(serial->history().records()[r],
                       parallel->history().records()[r])) {
      fail("serial vs parallel telemetry diverged", r);
    }
  }

  // 2. Fault-free baseline, and a zero FaultPlan on top of it: installing
  //    an injector that injects nothing must not change a single bit.
  AggregatorConfig plain;
  plain.privacy.ignore_env = true;
  plain.clients_per_round = kCohort;
  plain.local_steps = kLocalSteps;
  plain.topology = Topology::kRingAllReduce;
  plain.parallel_clients = true;
  plain.checkpoint_every = 0;
  auto baseline = build_federation(plain);
  auto zero_plan = build_federation(plain);
  const FaultInjector zero{FaultPlan{}};
  zero.install(*zero_plan);
  for (int r = 0; r < rounds; ++r) {
    baseline->run_round();
    zero_plan->run_round();
  }
  if (!params_equal(*baseline, *zero_plan)) {
    fail("zero FaultPlan changed the fault-free run", rounds);
  }

  // 3. Retry-absorbable faults only (drops + corruption, generous retry
  //    budget): every round should keep the full cohort, the parameters
  //    must match the fault-free run bit-exactly, and the faults must be
  //    visible in the telemetry (detected, retried, recovered).
  auto link_cfg = plain;
  link_cfg.retry.max_attempts = 6;
  auto link_only = build_federation(link_cfg);
  FaultPlan link_plan;
  link_plan.seed = 0x11A7ULL;
  link_plan.link_drop_prob = 0.04;
  link_plan.corrupt_prob = 0.04;
  const FaultInjector link_injector(link_plan);
  link_injector.install(*link_only);
  std::uint64_t link_retries = 0;
  std::uint64_t link_corrupt = 0;
  bool full_cohorts = true;
  for (int r = 0; r < rounds; ++r) {
    const RoundRecord rec = link_only->run_round();
    full_cohorts = full_cohorts && rec.dropped_clients.empty();
    link_retries += rec.link_retries;
    link_corrupt += rec.corrupt_chunks;
  }
  if (!full_cohorts) {
    fail("link-only plan exhausted its retry budget", rounds);
  }
  if (!params_equal(*baseline, *link_only)) {
    fail("recovered link faults changed the learned parameters", rounds);
  }
  if (rounds >= 8 && (link_retries == 0 || link_corrupt == 0)) {
    fail("link-only plan injected no observable faults", rounds);
  }

  std::printf(
      "bench_faults: OK — %d rounds | crashed %d link-failed %d "
      "straggler-drops %d dropped %d | cohort-retries %llu "
      "link-retries %llu corrupt-chunks %llu fallbacks %llu "
      "backoff %.3fs | link-only: retries %llu corrupt %llu, params bit-"
      "identical to fault-free\n",
      totals.rounds, totals.crashed, totals.link_failed,
      totals.straggler_drops, totals.dropped,
      static_cast<unsigned long long>(totals.cohort_retries),
      static_cast<unsigned long long>(totals.link_retries),
      static_cast<unsigned long long>(totals.corrupt_chunks),
      static_cast<unsigned long long>(totals.topology_fallbacks),
      totals.backoff_seconds, static_cast<unsigned long long>(link_retries),
      static_cast<unsigned long long>(link_corrupt));

  photon::bench::write_report(json_path, [&](std::FILE* f) {
    std::fprintf(
        f,
        "{\n  \"rounds\": %d,\n  \"crashed\": %d,\n  \"link_failed\": %d,\n"
        "  \"straggler_drops\": %d,\n  \"dropped\": %d,\n"
        "  \"cohort_retries\": %llu,\n  \"link_retries\": %llu,\n"
        "  \"corrupt_chunks\": %llu,\n  \"topology_fallbacks\": %llu,\n"
        "  \"backoff_seconds\": %.6f,\n"
        "  \"serial_parallel_bit_identical\": true,\n"
        "  \"link_faults_bit_identical_to_fault_free\": true\n}\n",
        totals.rounds, totals.crashed, totals.link_failed,
        totals.straggler_drops, totals.dropped,
        static_cast<unsigned long long>(totals.cohort_retries),
        static_cast<unsigned long long>(totals.link_retries),
        static_cast<unsigned long long>(totals.corrupt_chunks),
        static_cast<unsigned long long>(totals.topology_fallbacks),
        totals.backoff_seconds);
  });
  return 0;
}
