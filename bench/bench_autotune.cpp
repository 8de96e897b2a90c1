// Headline autotuner benchmark (DESIGN.md §13): tuned arm vs static arms
// across a {LAN, WAN} x {uniform, heterogeneous-stragglers} grid.
//
// Every arm runs the same micro federation (population 12, K = 8, same
// seeds, same data streams).  Static arms fix one (codec, topology) pair
// for the whole run; the tuned arm starts from the deliberately naive
// fp32 + parameter-server configuration and lets the RoundAutotuner close
// the loop from the trace digests.  The metric is **simulated seconds per
// million aggregated tokens** over a measurement window that starts after
// a warmup of kWarmupRounds rounds (giving the tuner time to converge) —
// a pure function of (seed, config), bit-identical at any thread count,
// which is what lets tools/ci.sh --perf-gate diff it across commits.
//
// Claims asserted (exit 1 on violation):
//   * the tuner's decisions stop changing within the warmup window,
//   * on every grid cell the tuned arm is never > 5% slower than the best
//     static arm,
//   * on the heterogeneous-WAN cell the tuned arm beats the *worst* static
//     arm by >= 1.3x (the cost of shipping a bad static config is what an
//     autotuner exists to remove),
//   * one async cell: tuned admission limits stay within 5% of the static
//     async configuration (and the decision timeline is deterministic).
//
// The tuner also turns the wire chunk size, which each arm's aggregator
// owns, so every arm starts from the default.  Its decisions do not land in
// the JSON; they reach the metric only through the framing bytes each chunk
// adds to an image (DESIGN.md §13).
//
//   bench_autotune [--smoke] [--rounds=N] [--json=PATH]
//                  (shared flags: bench_common.hpp BenchArgs)
//
// --smoke runs a 3-round autotuned federation on one cell — the tier-1
// ctest liveness gate for the observe -> decide -> apply loop.

#include <algorithm>
#include <cstdio>
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
#include "tune/session.hpp"

namespace {

using namespace photon;

constexpr int kPopulation = 12;
constexpr int kCohort = 8;
constexpr int kLocalSteps = 2;
constexpr int kWarmupRounds = 6;

struct Cell {
  std::string name;
  double bandwidth_mbps;    // collective fabric (Appendix B.1's B)
  double link_gbps;         // per-client Agg<->LLM-C link
  bool heterogeneous;       // 25% straggler mix, 3-9x slowdown
};

std::vector<Cell> grid() {
  // LAN: 10 Gbps everywhere — wire is negligible, compute binds.
  // WAN: 10 Mbps fabric, 10 Mbps client links — fp32 wire costs as much as
  // local compute, so codec + topology choices dominate the round.
  return {
      {"lan_uniform", 1250.0, 10.0, false},
      {"lan_het", 1250.0, 10.0, true},
      {"wan_uniform", 1.25, 0.01, false},
      {"wan_het", 1.25, 0.01, true},
  };
}

struct Arm {
  std::string name;
  std::string codec;
  Topology topology;
};

std::vector<Arm> static_arms() {
  return {
      {"fp32_ps", "", Topology::kParameterServer},
      {"fp32_rar", "", Topology::kRingAllReduce},
      {"q8_ps", "q8", Topology::kParameterServer},
      {"q8_rar", "q8", Topology::kRingAllReduce},
  };
}

FaultPlan straggler_plan() {
  FaultPlan plan;
  plan.seed = 0xBE7A7ULL;
  plan.straggle_prob = 0.25;
  plan.straggle_factor_min = 3.0;
  plan.straggle_factor_max = 9.0;
  return plan;
}

std::unique_ptr<Aggregator> build_federation(const Cell& cell,
                                             const std::string& codec,
                                             Topology topology,
                                             bool async_mode = false) {
  ClientTrainConfig ctc;
  ctc.model = ModelConfig::micro();
  ctc.local_batch = 2;
  ctc.schedule.max_lr = 5e-3f;
  ctc.schedule.warmup_steps = 2;
  ctc.schedule.total_steps = 4000;
  ctc.link_codec = codec;

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
  ac.topology = topology;
  ac.bandwidth_mbps = cell.bandwidth_mbps;
  ac.link_bandwidth_gbps = cell.link_gbps;
  ac.parallel_clients = true;
  ac.checkpoint_every = 0;
  // Fast simulated compute (10 batches/s): a local round is 0.2 sim-s, so
  // WAN wire time is a first-order cost instead of rounding noise.
  ac.sim_throughput_bps = 10.0;
  if (async_mode) {
    ac.async.enabled = true;
    ac.async.buffer_goal = 6;
    ac.async.max_in_flight = 8;
  }
  return std::make_unique<Aggregator>(ctc.model, ac,
                                      std::make_unique<FedAvgOpt>(),
                                      std::move(clients), 42);
}

struct ArmResult {
  double s_per_mtok = 0.0;
  double sim_s = 0.0;
  std::uint64_t tokens = 0;
  std::uint32_t converged_round = 0;  // tuned arms only
  tune::TunerDecision final_decision; // tuned arms only
};

/// Run warmup + measured rounds; the metric covers only the measured
/// window so every arm (tuned or static) is scored on its steady state.
template <typename StepFn>
ArmResult run_arm(Aggregator& agg, int measured_rounds, StepFn step) {
  for (int r = 0; r < kWarmupRounds; ++r) (void)step(agg);
  const double sim_start = agg.sim_now();
  std::uint64_t tokens = 0;
  for (int r = 0; r < measured_rounds; ++r) {
    const RoundRecord record = step(agg);
    tokens += record.tokens_this_round;
  }
  ArmResult res;
  res.sim_s = agg.sim_now() - sim_start;
  res.tokens = tokens;
  res.s_per_mtok = tokens > 0 ? res.sim_s / (static_cast<double>(tokens) / 1e6)
                              : 0.0;
  return res;
}

ArmResult run_static(const Cell& cell, const Arm& arm, int measured_rounds,
                     const FaultInjector* injector) {
  auto agg = build_federation(cell, arm.codec, arm.topology);
  if (injector != nullptr) injector->install(*agg);
  return run_arm(*agg, measured_rounds,
                 [](Aggregator& a) { return a.run_round(); });
}

tune::TunerConfig tuned_config() {
  tune::TunerConfig tc;
  tc.threads = 8;  // explicit: decisions must not depend on the host
  tc.min_cohort = kCohort;  // never drop below the static arms' K
  tc.max_cohort = kPopulation;
  return tc;
}

ArmResult run_tuned(const Cell& cell, int measured_rounds,
                    const FaultInjector* injector, bool async_mode = false) {
  // Deliberately naive start: fp32 over a parameter-server collective.
  auto agg =
      build_federation(cell, "", Topology::kParameterServer, async_mode);
  if (injector != nullptr) injector->install(*agg);
  tune::TunedSession session(*agg, tuned_config());
  ArmResult res = run_arm(*agg, measured_rounds,
                          [&](Aggregator&) { return session.step(); });
  res.converged_round = session.tuner().last_decision_change();
  res.final_decision = session.tuner().current();
  return res;
}

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "bench_autotune: FAILED: %s\n", what.c_str());
  std::exit(1);
}

struct JsonCase {
  std::string name;
  double value;
  std::string unit;
  double floor = 0.0;  // 0 = no floor
};

void write_json(const std::string& path, const std::vector<JsonCase>& cases) {
  // Native BENCH_all fragment: { suite: { case: {value, unit, floor?} } }.
  bench::write_report(path, [&](std::FILE* f) {
    std::fprintf(f, "{\n  \"autotune\": {\n");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const JsonCase& c = cases[i];
      std::fprintf(f, "    \"%s\": {\"value\": %.9g, \"unit\": \"%s\"",
                   c.name.c_str(), c.value, c.unit.c_str());
      if (c.floor > 0.0) std::fprintf(f, ", \"floor\": %.6g", c.floor);
      std::fprintf(f, "}%s\n", i + 1 < cases.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
  });
}

int run_smoke() {
  // 3-round autotuned federation: the loop must run, produce decisions,
  // and leave the aggregator consistent.  Tier-1 ctest wraps this in a
  // hard TIMEOUT so a tuner-induced hang fails instead of wedging CI.
  const Cell cell = grid()[0];
  auto agg = build_federation(cell, "", Topology::kParameterServer);
  tune::TunedSession session(*agg, tuned_config());
  for (int r = 0; r < 3; ++r) (void)session.step();
  const auto& tuner = session.tuner();
  if (tuner.history().size() != 4) fail("expected 1 + 3 decisions");
  if (tuner.digests().size() != 3) fail("expected 3 digests");
  if (obs::Tracer::compiled_in() && tuner.digests().back().clients == 0) {
    fail("digests saw no client spans with tracing compiled in");
  }
  std::printf("bench_autotune --smoke: OK — 3 tuned rounds, final codec '%s' "
              "topology %s binding %s\n",
              tuner.current().codec.c_str(),
              topology_name(tuner.current().topology),
              tune::binding_resource_name(tuner.current().binding));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  photon::bench::BenchArgs args = photon::bench::parse_bench_args(argc, argv);
  args.reject_extra("bench_autotune");
  if (args.smoke) return run_smoke();
  const int measured = args.rounds_or(12);
  const std::string json_path = args.json_or("BENCH_autotune.json");

  std::vector<JsonCase> cases;
  bool ok = true;
  const FaultInjector injector(straggler_plan());

  for (const Cell& cell : grid()) {
    const FaultInjector* inj = cell.heterogeneous ? &injector : nullptr;
    double best = 0.0, worst = 0.0;
    std::string best_name, worst_name;
    for (const Arm& arm : static_arms()) {
      const ArmResult r = run_static(cell, arm, measured, inj);
      std::printf("%-12s %-9s s/Mtok %10.3f (sim %7.2fs, %llu tok)\n",
                  cell.name.c_str(), arm.name.c_str(), r.s_per_mtok, r.sim_s,
                  static_cast<unsigned long long>(r.tokens));
      if (best == 0.0 || r.s_per_mtok < best) { best = r.s_per_mtok; best_name = arm.name; }
      if (r.s_per_mtok > worst) { worst = r.s_per_mtok; worst_name = arm.name; }
    }
    const ArmResult t = run_tuned(cell, measured, inj);
    std::printf(
        "%-12s %-9s s/Mtok %10.3f (sim %7.2fs, %llu tok) | converged r%u, "
        "codec '%s', %s, K=%d | best %s, worst %s\n",
        cell.name.c_str(), "tuned", t.s_per_mtok, t.sim_s,
        static_cast<unsigned long long>(t.tokens), t.converged_round,
        t.final_decision.codec.c_str(),
        topology_name(t.final_decision.topology),
        t.final_decision.clients_per_round, best_name.c_str(),
        worst_name.c_str());

    if (t.converged_round > kWarmupRounds) {
      std::fprintf(stderr,
                   "FAIL: %s tuner still changing decisions at round %u "
                   "(warmup %d)\n",
                   cell.name.c_str(), t.converged_round, kWarmupRounds);
      ok = false;
    }
    if (t.s_per_mtok > 1.05 * best) {
      std::fprintf(stderr,
                   "FAIL: %s tuned %.3f s/Mtok is > 5%% worse than best "
                   "static %.3f (%s)\n",
                   cell.name.c_str(), t.s_per_mtok, best, best_name.c_str());
      ok = false;
    }
    cases.push_back({cell.name + "_tuned_s_per_mtok", t.s_per_mtok, "s/Mtok"});
    cases.push_back({cell.name + "_best_static_s_per_mtok", best, "s/Mtok"});
    cases.push_back(
        {cell.name + "_best_over_tuned",
         t.s_per_mtok > 0.0 ? best / t.s_per_mtok : 0.0, "x", 0.95});
    if (cell.name == "wan_het") {
      const double speedup = t.s_per_mtok > 0.0 ? worst / t.s_per_mtok : 0.0;
      if (speedup < 1.3) {
        std::fprintf(stderr,
                     "FAIL: het-WAN tuned speedup vs worst static (%s) is "
                     "%.2fx < 1.3x\n",
                     worst_name.c_str(), speedup);
        ok = false;
      }
      cases.push_back({"wan_het_tuned_over_worst_static", speedup, "x", 1.3});
    }
  }

  // Async cell: same het-WAN fabric through the FedBuff engine; the tuner's
  // admission knob must not lose to the static limits.
  {
    const Cell cell{"wan_het_async", 12.5, 0.1, true};
    auto static_agg = build_federation(cell, "q8", Topology::kParameterServer,
                                       /*async_mode=*/true);
    injector.install(*static_agg);
    const ArmResult s = run_arm(*static_agg, measured,
                                [](Aggregator& a) { return a.run_round(); });
    const ArmResult t = run_tuned(cell, measured, &injector,
                                  /*async_mode=*/true);
    std::printf(
        "%-12s static s/Mtok %.3f | tuned s/Mtok %.3f (max_in_flight %d)\n",
        cell.name.c_str(), s.s_per_mtok, t.s_per_mtok,
        t.final_decision.max_in_flight);
    if (t.s_per_mtok > 1.05 * s.s_per_mtok) {
      std::fprintf(stderr,
                   "FAIL: async tuned %.3f s/Mtok is > 5%% worse than "
                   "static %.3f\n",
                   t.s_per_mtok, s.s_per_mtok);
      ok = false;
    }
    cases.push_back({"wan_het_async_tuned_s_per_mtok", t.s_per_mtok,
                     "s/Mtok"});
    cases.push_back({"wan_het_async_static_s_per_mtok", s.s_per_mtok,
                     "s/Mtok"});
  }

  write_json(json_path, cases);
  return ok ? 0 : 1;
}
