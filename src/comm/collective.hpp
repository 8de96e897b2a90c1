#pragma once
// Aggregation collectives: the three topologies of paper §4.
//
// Each collective performs a *real* element-wise mean across worker buffers
// (the reduction Photon applies to pseudo-gradients) and returns the byte /
// time accounting implied by that topology, so benches can report both the
// numerics and the communication costs together.
//
//   PS  — parameter server: server receives K updates, K*S down + S*K up.
//   AR  — naive AllReduce: every worker sends its buffer to all peers.
//   RAR — Ring-AllReduce: chunked reduce-scatter + all-gather, the
//         bandwidth-optimal 2*S*(K-1)/K per worker.
// All three produce bit-identical means (property-tested) but different
// costs; RAR is additionally implemented chunk-by-chunk for fidelity.

#include <cstdint>
#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "tensor/kernel_context.hpp"

namespace photon {

struct CollectiveReport {
  Topology topology = Topology::kParameterServer;
  int workers = 0;
  /// Bytes crossing the bottleneck participant (server for PS, any worker
  /// for AR/RAR).
  std::uint64_t bottleneck_bytes = 0;
  /// Total bytes moved across the whole fabric.
  std::uint64_t total_bytes = 0;
  /// Simulated wall time at `bandwidth_mbps`.
  double seconds = 0.0;
};

/// Traffic and simulated time of one `topology` collective over `workers`
/// buffers of `bytes` each at `bandwidth_mbps` — the paper's Eqs. 2-4, and
/// the only place the PS/AR/RAR byte formulas live:
///   PS  bottleneck K*S (server inbound), total 2*K*S;
///   AR  bottleneck (K-1)*S per worker,   total K*(K-1)*S;
///   RAR bottleneck 2*S*(K-1)/K,          total K times that.
/// Callers pass whatever a buffer is on the wire: fp32 bytes for the mean
/// collectives, quantized chunk bytes for the streamed fan-in.
CollectiveReport collective_cost(Topology topology, int workers,
                                 std::uint64_t bytes, double bandwidth_mbps);

/// In-place mean over `buffers` via a parameter server.  All buffers end
/// holding the mean.  Buffers must be equal length and non-empty.
///
/// All collectives shard element ranges over `ctx` with the same
/// deterministic-sharding contract as the tensor kernels: results are
/// bit-identical between serial and parallel execution at any thread count
/// (the reduction order per element never depends on sharding).
CollectiveReport ps_all_reduce_mean(
    std::vector<std::span<float>> buffers, double bandwidth_mbps,
    const kernels::KernelContext& ctx = kernels::default_context());

/// In-place mean via naive AllReduce (every pair exchanges buffers).
CollectiveReport all_reduce_mean(
    std::vector<std::span<float>> buffers, double bandwidth_mbps,
    const kernels::KernelContext& ctx = kernels::default_context());

/// In-place mean via Ring-AllReduce: reduce-scatter then all-gather with
/// K chunks.  Exercises the actual chunked dataflow.
CollectiveReport ring_all_reduce_mean(
    std::vector<std::span<float>> buffers, double bandwidth_mbps,
    const kernels::KernelContext& ctx = kernels::default_context());

CollectiveReport collective_mean(
    Topology topology, std::vector<std::span<float>> buffers,
    double bandwidth_mbps,
    const kernels::KernelContext& ctx = kernels::default_context());

}  // namespace photon
