#include "topology_walltime.hpp"

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "comm/cost_model.hpp"
#include "core/runner.hpp"
#include "util/table.hpp"

namespace photon::bench {
namespace {

constexpr double kTargetLo = 13.2;  // paper PPL 35 analog

int rounds_to_target(int clients, int tau_standin) {
  RunnerConfig rc = sweep_config(standin_sweep());
  rc.population = clients;
  rc.local_steps = tau_standin;
  rc.local_batch = 4;
  rc.rounds = std::max(6, 2400 / tau_standin);
  rc.target_perplexity = kTargetLo;
  PhotonRunner runner(rc);
  const TrainingHistory& h = runner.run();
  return h.first_round_reaching(kTargetLo);
}

}  // namespace

TopologyClaims emit_topology_walltime_figure(int tau_standin, int tau_paper,
                                             const char* figure) {
  print_header(std::string(figure) +
               ": wall time split LC vs comm by topology (tau=" +
               std::to_string(tau_paper) + ", 125M, 10 Gbps)");

  const WallTimeModel model(1250.0);
  const double s_mb =
      model_size_mb(ModelConfig::paper_125m().num_params(), 2.0);
  constexpr double kNu = 2.0;  // batches/s, Appendix B.1 for 125M

  TablePrinter t({"N", "rounds", "LC [s]", "PS comm [s]", "PS %",
                  "AR comm [s]", "AR %", "RAR comm [s]", "RAR %"});
  double prev_total_rar = -1.0;
  TopologyClaims claims;
  double prev_ps_per_round = -1.0;
  for (const int n : {2, 4, 8, 16}) {
    const int r = rounds_to_target(n, tau_standin);
    if (r < 0) {
      t.add_row({std::to_string(n), "n/a", "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    const double rounds = r + 1;
    const double lc = rounds * model.local_time(tau_paper, kNu);
    const double ps_per_round =
        model.comm_time(Topology::kParameterServer, n, s_mb);
    const double ps = rounds * ps_per_round;
    const double ar = rounds * model.comm_time(Topology::kAllReduce, n, s_mb);
    const double rar =
        rounds * model.comm_time(Topology::kRingAllReduce, n, s_mb);
    auto pct = [&](double comm) {
      return TablePrinter::fmt(100.0 * comm / (lc + comm), 1) + "%";
    };
    t.add_row({std::to_string(n), TablePrinter::fmt(rounds, 0),
               TablePrinter::fmt(lc, 0), TablePrinter::fmt(ps, 1), pct(ps),
               TablePrinter::fmt(ar, 1), pct(ar), TablePrinter::fmt(rar, 1),
               pct(rar)});
    const double total_rar = lc + rar;
    if (prev_total_rar > 0.0 && total_rar > prev_total_rar * 1.02) {
      claims.rar_preserves_scaling = false;
    }
    prev_total_rar = total_rar;
    if (prev_ps_per_round > 0.0 && ps_per_round <= prev_ps_per_round) {
      claims.comm_grows_with_n = false;
    }
    prev_ps_per_round = ps_per_round;
  }
  t.print();
  std::printf("Claim check: per-round comm grows with N: %s; "
              "RAR preserves the wall-time benefit of scaling N: %s\n",
              claims.comm_grows_with_n ? "YES" : "NO",
              claims.rar_preserves_scaling ? "YES" : "NO");
  return claims;
}

bool claims_hold(const TopologyClaims& claims, const char* figure) {
  if (!claims.comm_grows_with_n) {
    std::printf("Claim check FAILED: %s per-round comm does not grow with N.\n",
                figure);
  }
  if (!claims.rar_preserves_scaling) {
    std::printf("Claim check FAILED: %s RAR total wall time grows with N.\n",
                figure);
  }
  return claims.comm_grows_with_n && claims.rar_preserves_scaling;
}

}  // namespace photon::bench
