#pragma once
// Shared driver for the Fig. 6 / Fig. 9 / Fig. 10 family: wall time split
// into local compute and communication per topology, for a given number of
// local steps per round.

namespace photon::bench {

/// The figure's two claims, as its "Claim check" line prints them.
struct TopologyClaims {
  bool comm_grows_with_n = true;      // per-round comm grows with N
  bool rar_preserves_scaling = true;  // RAR keeps larger N from costing time
};

/// Train the stand-in federation to the harder perplexity target for each
/// N in {2,4,8,16} at `tau_standin` local steps, then print the paper-scale
/// wall-time split (LC vs PS/AR/RAR communication) at `tau_paper`.
TopologyClaims emit_topology_walltime_figure(int tau_standin, int tau_paper,
                                             const char* figure);

/// Prints "Claim check FAILED: ..." naming each claim of `figure` that does
/// not hold; returns true when both hold.
bool claims_hold(const TopologyClaims& claims, const char* figure);

}  // namespace photon::bench
