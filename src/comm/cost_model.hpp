#pragma once
// Analytic wall-time model from the paper, Appendix B.1 (Eqs. 1-6).
//
// The paper's reported wall times (Table 2, Table 3, Figs. 5/6/9/10) are
// produced by this model using empirically measured local throughputs nu —
// we implement the identical equations so those tables regenerate exactly.
//
// Units follow the paper: model size S in megabytes, bandwidth B in MB/s,
// throughput nu in batches/second, times in seconds.

#include <cstdint>
#include <stdexcept>

namespace photon {

enum class Topology { kParameterServer, kAllReduce, kRingAllReduce };

const char* topology_name(Topology t);

/// Per-worker traffic of one collective as an exact fraction num/den of the
/// buffer size S — Appendix B.1's Eqs. 2-4 and the only place they live:
///   PS  K*S          {K, 1}       (the server's inbound, Eq. 2)
///   AR  (K-1)*S      {K-1, 1}     (Eq. 3)
///   RAR 2*(K-1)*S/K  {2(K-1), K}  (Eq. 4)
/// Each caller keeps its own units: collective_cost() in u64 bytes,
/// WallTimeModel in MB and seconds, ddp_bytes_per_step_mb() in MB, the
/// round autotuner as a ranking key.
struct TrafficRatio {
  std::uint64_t num = 0;
  std::uint64_t den = 1;

  double value() const {
    return static_cast<double>(num) / static_cast<double>(den);
  }
};

/// Throws std::invalid_argument when `workers` < 1.
TrafficRatio traffic_ratio(Topology topology, int workers);

/// theta of Eq. 2: a parameter server beyond this many channels sees its
/// bandwidth scaled down by theta / K (congestion).
inline constexpr int kCongestionThreshold = 100;

class WallTimeModel {
 public:
  /// `bandwidth_mbps` is B, the bottleneck link in MB/s.
  explicit WallTimeModel(double bandwidth_mbps);

  /// Eq. 1: T_L = tau / nu.
  double local_time(double local_steps, double throughput_bps) const;

  /// Eqs. 2-4: T_C = S * num / (den * B) for the topology's traffic ratio;
  /// PS beyond kCongestionThreshold clients runs at B * theta / K.
  /// Single-client rounds have no communication (paper: "excluding N=1").
  double comm_time(Topology topology, int clients, double model_mb) const;

  /// Eq. 5: one round = local compute + communication.
  double round_time(Topology topology, int clients, double model_mb,
                    double local_steps, double throughput_bps) const;

  /// Eq. 6: T = R * T_r.
  double total_time(Topology topology, int clients, double model_mb,
                    double local_steps, double throughput_bps,
                    std::int64_t rounds) const;

 private:
  double bandwidth_mbps_;
};

/// Model size S in MB for `num_params` parameters of `bytes_per_param`
/// bytes each on the wire (4 = fp32, what Photon ships; 2 = BF16, the
/// paper's Table 2 accounting).
double model_size_mb(std::int64_t num_params, double bytes_per_param);

/// DDP per-step gradient traffic (Ring-AllReduce over gradients each batch):
/// S * 2(K-1)/K per worker and step.  Used for the 64x-512x comparison.
double ddp_bytes_per_step_mb(int workers, double model_mb);

}  // namespace photon
