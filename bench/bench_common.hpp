#pragma once
// Shared scaffolding for the paper-reproduction bench binaries.
//
// Each bench regenerates one table or figure from the paper.  Where the
// paper trains 125M-7B models on H100 fleets, the benches train *stand-in*
// models (tens of kB of parameters) whose optimization dynamics mirror the
// paper's, and translate round counts into wall-clock time through the
// identical Appendix-B.1 analytic model with the paper's measured
// throughputs.  Headline shape — who wins, by what factor, where the
// crossovers sit — is the reproduction target, not absolute numbers.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "core/runner.hpp"
#include "nn/config.hpp"
#include "sim/mfu.hpp"
#include "util/stats.hpp"

namespace photon::bench {

/// Median wall seconds per call of each arm.  Each arm runs once to warm
/// up, then its reps are calibrated until one sample takes at least 20 ms.
/// Nine samples follow, the arms alternating order from sample to sample,
/// so arms compared with each other see the same host conditions.  Wall
/// time, not CPU time: the real-time floors the benches assert were set on
/// the wall clock with the thread pool running.
inline std::vector<double> median_seconds_per_call(
    const std::vector<std::function<void()>>& arms) {
  using clock = std::chrono::steady_clock;
  constexpr double kMinSampleSeconds = 0.02;
  constexpr int kSamples = 9;
  constexpr int kMaxReps = 1 << 20;
  const auto time_reps = [](const std::function<void()>& fn, int reps) {
    const auto t0 = clock::now();
    for (int r = 0; r < reps; ++r) fn();
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  for (const auto& fn : arms) fn();
  std::vector<int> reps(arms.size(), 1);
  for (std::size_t a = 0; a < arms.size(); ++a) {
    while (reps[a] < kMaxReps &&
           time_reps(arms[a], reps[a]) < kMinSampleSeconds) {
      reps[a] *= 2;
    }
  }
  std::vector<std::vector<double>> samples(arms.size());
  for (int s = 0; s < kSamples; ++s) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const std::size_t a = s % 2 == 0 ? i : arms.size() - 1 - i;
      samples[a].push_back(time_reps(arms[a], reps[a]) / reps[a]);
    }
  }
  std::vector<double> medians;
  for (auto& xs : samples) medians.push_back(quantile(std::move(xs), 0.5));
  return medians;
}

/// Writes a bench report to `path` through `emit`.  A report that cannot
/// be opened, written or closed exits the bench with status 1, so no
/// harness folds a stale file in its place.
inline void write_report(const std::string& path,
                         const std::function<void(std::FILE*)>& emit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    emit(f);
    ok = std::ferror(f) == 0;
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

/// Shared command-line contract for every bench binary (tools/bench.sh
/// depends on it): --smoke, --rounds=N, --samples=N, --json=PATH.  Flags
/// a bench doesn't use are simply ignored by it; flags the parser doesn't
/// know land in `extra` for bench-specific handling (e.g. bench_faults
/// --churn).
struct BenchArgs {
  bool smoke = false;
  int rounds = 0;    ///< 0 = bench default
  int samples = 0;   ///< 0 = bench default
  std::string json_path;   ///< empty = bench default
  std::vector<std::string> extra;

  int rounds_or(int def) const { return rounds > 0 ? rounds : def; }
  int samples_or(int def) const { return samples > 0 ? samples : def; }
  const std::string& json_or(const std::string& def) {
    if (json_path.empty()) json_path = def;
    return json_path;
  }

  /// True when `flag` (e.g. "--churn") was passed; removes it from extra.
  bool take_flag(const std::string& flag) {
    for (auto it = extra.begin(); it != extra.end(); ++it) {
      if (*it == flag) {
        extra.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Exit 2 with a usage line if unconsumed bench-specific args remain.
  void reject_extra(const char* prog, const char* extra_usage = "") const {
    if (extra.empty()) return;
    std::fprintf(stderr,
                 "%s: unknown argument '%s'\nusage: %s [--smoke] "
                 "[--rounds=N] [--samples=N] [--json=PATH]%s%s\n",
                 prog, extra.front().c_str(), prog,
                 extra_usage[0] != '\0' ? " " : "", extra_usage);
    std::exit(2);
  }
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg.rfind("--rounds=", 0) == 0) {
      a.rounds = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--samples=", 0) == 0) {
      a.samples = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      a.json_path = arg.substr(7);
    } else {
      a.extra.push_back(arg);
    }
  }
  return a;
}

/// Stand-in architectures used by the trained benches (vocab/seq sized for
/// CPU-speed federated sweeps).
inline ModelConfig standin_sweep() {
  // ~17k params, ~2 ms/step: used for the N x tau sweeps.
  return ModelConfig{2, 24, 2, 64, 24, 4};
}

inline ModelConfig standin_125m() {
  // nano: stand-in for the 125M model in head-to-head comparisons.
  return ModelConfig::nano();
}

inline ModelConfig standin_3b() {
  // stand-in for billion-scale "3B" in convergence curves.
  return ModelConfig{3, 40, 2, 128, 32, 4};
}

inline ModelConfig standin_7b() {
  // larger stand-in for "7B" curves.
  return ModelConfig{4, 56, 4, 128, 32, 4};
}

/// Default sweep runner config shared by the figure benches: small batch,
/// high LR (the Photon recipe), quick eval.
inline RunnerConfig sweep_config(ModelConfig model, std::uint64_t seed = 21) {
  RunnerConfig rc;
  rc.model = model;
  rc.local_batch = 4;
  rc.max_lr = 1e-2f;
  rc.warmup_steps = 16;
  rc.max_grad_norm = 1.0f;
  rc.eval_every = 1;
  rc.eval_batches = 3;
  rc.eval_batch_size = 6;
  rc.eval_tokens = 1 << 13;
  rc.seed = seed;
  return rc;
}

/// Map "local steps per round" stand-ins: the paper sweeps {64, 128, 512};
/// CPU stand-ins use {8, 16, 64} (same 1:2:8 ratios).
struct TauMapping {
  int standin;
  int paper;
};

inline std::vector<TauMapping> tau_mappings() {
  return {{8, 64}, {16, 128}, {64, 512}};
}

/// Translate a stand-in run into paper-scale wall seconds: R rounds of the
/// *paper's* tau at the paper's throughput nu, plus per-round aggregation
/// cost for the paper's 125M model at 10 Gbps (Appendix B.1).
inline double paper_scale_seconds(int rounds, int paper_tau, int clients,
                                  Topology topology,
                                  double nu_bps = 2.0 /* 125M, App. B.1 */) {
  const WallTimeModel model(1250.0);  // 10 Gbps
  // 125M parameters in BF16 on the wire.
  const double s_mb =
      model_size_mb(ModelConfig::paper_125m().num_params(), 2.0);
  return model.total_time(topology, clients, s_mb,
                          static_cast<double>(paper_tau), nu_bps, rounds);
}

/// Simple fixed-width section header for bench output.
inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace photon::bench
