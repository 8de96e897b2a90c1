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

double ClientSpec::total_vram_gb() const {
  double v = 0.0;
  for (const auto& node : nodes) v += node.gpu.vram_gb * node.num_gpus;
  return v;
}

double training_memory_gb(std::int64_t num_params, int batch, int seq,
                          int d_model, int n_layers) {
  const double params = static_cast<double>(num_params);
  // bf16 weights + bf16 grads + fp32 master copy + fp32 Adam m and v.
  const double state_bytes = params * (2.0 + 2.0 + 4.0 + 4.0 + 4.0);
  // Activation memory ~ 34 * B*T*d per layer for a standard transformer
  // block in bf16 without activation checkpointing (Korthikanti et al.).
  const double act_bytes = 34.0 * static_cast<double>(batch) * seq * d_model *
                           n_layers * 2.0;
  return (state_bytes + act_bytes) / (1024.0 * 1024.0 * 1024.0);
}

}  // namespace photon
