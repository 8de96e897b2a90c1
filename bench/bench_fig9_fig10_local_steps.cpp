// Reproduces paper Figs. 9 and 10 (Appendix D.2): the Fig.-6 wall-time
// split repeated at 64 and 128 local steps per round.
//
// Claim reproduced: halving communication frequency (128 vs 64 local
// steps) markedly lowers the communication share, especially for PS and at
// larger client counts, at a small cost in total compute.

#include "topology_walltime.hpp"

int main() {
  namespace b = photon::bench;
  const b::TopologyClaims fig9 = b::emit_topology_walltime_figure(
      /*tau_standin=*/8, /*tau_paper=*/64, "Fig. 9");
  const b::TopologyClaims fig10 = b::emit_topology_walltime_figure(
      /*tau_standin=*/16, /*tau_paper=*/128, "Fig. 10");
  // Both figures print before either verdict can fail the run.
  const bool ok9 = b::claims_hold(fig9, "Fig. 9");
  const bool ok10 = b::claims_hold(fig10, "Fig. 10");
  return ok9 && ok10 ? 0 : 1;
}
