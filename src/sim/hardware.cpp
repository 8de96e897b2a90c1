#include "sim/hardware.hpp"

namespace photon {

GpuSpec GpuSpec::h100() { return {"H100-SXM", 80.0, 989.0, 900.0 * 8.0 / 1.0}; }
GpuSpec GpuSpec::a100() { return {"A100-SXM", 80.0, 312.0, 600.0 * 8.0 / 1.0}; }
GpuSpec GpuSpec::rtx4090() { return {"RTX4090", 24.0, 165.0, 0.0}; }

int ClientSpec::total_gpus() const {
  int n = 0;
  for (const auto& node : nodes) n += node.num_gpus;
  return n;
}

}  // namespace photon
