// Reproduces paper Fig. 6: total wall time split into local compute (LC)
// and communication for the three aggregation topologies (PS / AR / RAR),
// varying clients per round N in {2, 4, 8, 16}, at tau = 512 local steps
// (the most communication-efficient setting), 125M model, target PPL 35.
//
// Claims reproduced: (1) communication cost grows with N, worst for PS;
// (2) more clients still cut TOTAL wall time because they converge in
// fewer rounds; (3) RAR keeps the communication share small throughout.

#include "topology_walltime.hpp"

int main() {
  namespace b = photon::bench;
  const b::TopologyClaims fig6 = b::emit_topology_walltime_figure(
      /*tau_standin=*/64, /*tau_paper=*/512, "Fig. 6");
  return b::claims_hold(fig6, "Fig. 6") ? 0 : 1;
}
