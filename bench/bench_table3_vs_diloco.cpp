// Reproduces paper Table 3: Photon vs DiLoCo (eta_s = 0.1) wall time to two
// target perplexities, for N in {2, 4, 8} clients per round.
//
// Claim reproduced: Photon (FedAvg, eta_s=1, stateless AdamW, small batch +
// high LR) reaches each target in roughly HALF DiLoCo's wall time (paper
// ratios: 0.47x-0.54x), consistently across client counts.

#include <cstdio>

#include "baselines/diloco.hpp"
#include "bench_common.hpp"
#include "core/runner.hpp"
#include "util/table.hpp"

using namespace photon;

namespace {

constexpr double kTargetHi = 16.0;  // paper PPL 42 analog
constexpr double kTargetLo = 13.2;  // paper PPL 35 analog
constexpr int kTauStandin = 16;     // paper tau 128 analog
constexpr int kTauPaper = 128;

struct MethodResult {
  double wall_hi = -1.0;
  double wall_lo = -1.0;
};

MethodResult run(const RunnerConfig& rc_in, int clients) {
  RunnerConfig rc = rc_in;
  rc.population = clients;
  rc.local_steps = kTauStandin;
  rc.rounds = 110;
  rc.target_perplexity = kTargetLo;
  PhotonRunner runner(rc);
  const TrainingHistory& h = runner.run();
  MethodResult r;
  const int hi = h.first_round_reaching(kTargetHi);
  const int lo = h.first_round_reaching(kTargetLo);
  if (hi >= 0) {
    r.wall_hi = bench::paper_scale_seconds(hi + 1, kTauPaper, clients,
                                           Topology::kRingAllReduce);
  }
  if (lo >= 0) {
    r.wall_lo = bench::paper_scale_seconds(lo + 1, kTauPaper, clients,
                                           Topology::kRingAllReduce);
  }
  return r;
}

std::string fmt_or_na(double v) {
  return v < 0 ? std::string("n/a") : TablePrinter::fmt(v, 0);
}

}  // namespace

int main() {
  bench::print_header(
      "Table 3: wall time [s] to target perplexity, Photon vs DiLoCo");

  TablePrinter t({"N", "Method", "wall@PPLhi", "wall@PPLlo", "ratio@hi",
                  "ratio@lo", "paper ratio"});
  int photon_wins = 0, comparisons = 0;
  for (const int n : {2, 4, 8}) {
    const RunnerConfig base = bench::sweep_config(bench::standin_sweep());
    const MethodResult diloco = run(diloco_config(base, {0.1f, 0.9f}), n);
    const MethodResult photon = run(base, n);

    auto ratio = [](double a, double b) -> std::string {
      if (a < 0 || b < 0) return "n/a";
      return TablePrinter::fmt_ratio(a / b, 2);
    };
    t.add_row({std::to_string(n), "DiLoCo (lr=0.1)", fmt_or_na(diloco.wall_hi),
               fmt_or_na(diloco.wall_lo), "1.00x", "1.00x", "1.00x"});
    t.add_row({std::to_string(n), "Photon", fmt_or_na(photon.wall_hi),
               fmt_or_na(photon.wall_lo), ratio(photon.wall_hi, diloco.wall_hi),
               ratio(photon.wall_lo, diloco.wall_lo), "0.47x-0.54x"});
    for (const auto& [p, d] : {std::pair{photon.wall_hi, diloco.wall_hi},
                               std::pair{photon.wall_lo, diloco.wall_lo}}) {
      if (p > 0 && d > 0) {
        ++comparisons;
        if (p < d) ++photon_wins;
      }
    }
  }
  t.print();
  std::printf("\nClaim check: Photon faster than DiLoCo in %d/%d comparisons\n",
              photon_wins, comparisons);
  return 0;
}
