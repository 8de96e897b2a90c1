#include "comm/cost_model.hpp"

namespace photon {

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::kParameterServer: return "PS";
    case Topology::kAllReduce: return "AR";
    case Topology::kRingAllReduce: return "RAR";
  }
  return "?";
}

TrafficRatio traffic_ratio(Topology topology, int workers) {
  if (workers < 1) throw std::invalid_argument("traffic_ratio: no workers");
  const auto k = static_cast<std::uint64_t>(workers);
  switch (topology) {
    case Topology::kParameterServer: return {k, 1};
    case Topology::kAllReduce: return {k - 1, 1};
    case Topology::kRingAllReduce: return {2 * (k - 1), k};
  }
  throw std::invalid_argument("traffic_ratio: bad topology");
}

WallTimeModel::WallTimeModel(double bandwidth_mbps)
    : bandwidth_mbps_(bandwidth_mbps) {
  if (bandwidth_mbps_ <= 0.0) {
    throw std::invalid_argument("WallTimeModel: bandwidth must be > 0");
  }
}

double WallTimeModel::local_time(double local_steps,
                                 double throughput_bps) const {
  if (throughput_bps <= 0.0) {
    throw std::invalid_argument("local_time: throughput must be > 0");
  }
  return local_steps / throughput_bps;
}

double WallTimeModel::comm_time(Topology topology, int clients,
                                double model_mb) const {
  if (clients <= 1) return 0.0;
  // Eq. 2's case split scales a parameter server's bandwidth beyond theta
  // channels; cross-silo cohorts (<= 16) never reach it.
  double bandwidth = bandwidth_mbps_;
  if (topology == Topology::kParameterServer &&
      clients > kCongestionThreshold) {
    bandwidth *= static_cast<double>(kCongestionThreshold) / clients;
  }
  const TrafficRatio r = traffic_ratio(topology, clients);
  return model_mb * static_cast<double>(r.num) /
         (static_cast<double>(r.den) * bandwidth);
}

double WallTimeModel::round_time(Topology topology, int clients,
                                 double model_mb, double local_steps,
                                 double throughput_bps) const {
  return local_time(local_steps, throughput_bps) +
         comm_time(topology, clients, model_mb);
}

double WallTimeModel::total_time(Topology topology, int clients,
                                 double model_mb, double local_steps,
                                 double throughput_bps,
                                 std::int64_t rounds) const {
  return static_cast<double>(rounds) *
         round_time(topology, clients, model_mb, local_steps, throughput_bps);
}

double model_size_mb(std::int64_t num_params, double bytes_per_param) {
  return static_cast<double>(num_params) * bytes_per_param /
         (1024.0 * 1024.0);
}

double ddp_bytes_per_step_mb(int workers, double model_mb) {
  if (workers <= 1) return 0.0;
  const TrafficRatio r = traffic_ratio(Topology::kRingAllReduce, workers);
  return model_mb * static_cast<double>(r.num) / static_cast<double>(r.den);
}

}  // namespace photon
