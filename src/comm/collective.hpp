#pragma once
// Aggregation collectives: the three topologies of paper §4.
//
// collective_mean() performs a *real* element-wise mean across worker
// buffers (the reduction Photon applies to pseudo-gradients);
// collective_cost() prices the same collective on the wire from
// Appendix B.1's traffic ratios (comm/cost_model.hpp).
//
//   PS  — parameter server: server receives K updates, K*S down + S*K up.
//   AR  — naive AllReduce: every worker sends its buffer to all peers.
//   RAR — Ring-AllReduce: chunked reduce-scatter + all-gather, the
//         bandwidth-optimal 2*S*(K-1)/K per worker.
// PS and AR compute one fp64 per-element mean; RAR runs the chunked ring
// in float, so its mean may differ from theirs by float rounding
// (property-tested to 1e-4).

#include <cstdint>
#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "tensor/kernel_context.hpp"

namespace photon {

struct CollectiveReport {
  /// Bytes crossing the bottleneck participant (server for PS, any worker
  /// for AR/RAR).
  std::uint64_t bottleneck_bytes = 0;
  /// Total bytes moved across the whole fabric.
  std::uint64_t total_bytes = 0;
  /// Simulated wall time at `bandwidth_mbps`.
  double seconds = 0.0;
};

/// Traffic and simulated time of one `topology` collective over `workers`
/// buffers of `bytes` each at `bandwidth_mbps` (Eqs. 2-4): the bottleneck
/// is `bytes * num / den` of traffic_ratio(); the total is 2*K*S for PS
/// (K up, K down) and K times the bottleneck for AR and RAR.  Callers pass
/// what one buffer is on the wire: fp32 bytes, or quantized chunk bytes for
/// the streamed fan-in.  Throws std::invalid_argument when `workers` < 1.
CollectiveReport collective_cost(Topology topology, int workers,
                                 std::uint64_t bytes, double bandwidth_mbps);

/// In-place element-wise mean over `buffers` through `topology`: every
/// buffer ends holding the mean.  Buffers must be equal length and
/// non-empty.  The reduction shards element ranges over `ctx` with the same
/// deterministic-sharding contract as the tensor kernels: results are
/// bit-identical between serial and parallel execution at any thread count
/// (the reduction order per element never depends on sharding).
void collective_mean(
    Topology topology, std::vector<std::span<float>> buffers,
    const kernels::KernelContext& ctx = kernels::default_context());

}  // namespace photon
