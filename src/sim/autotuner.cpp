#include "sim/autotuner.hpp"

#include <algorithm>

namespace photon {

BatchSizeAutotuner::BatchSizeAutotuner(AutotunerConfig config)
    : config_(config) {}

double BatchSizeAutotuner::footprint_gb(const ModelConfig& model,
                                        int micro_batch,
                                        double state_shards) const {
  const double params = static_cast<double>(model.num_params());
  // Weights/grads/optimizer state divide across `state_shards` under FSDP.
  const double state_bytes = params * 16.0 / state_shards;
  const double act_bytes = 34.0 * micro_batch *
                           static_cast<double>(model.seq_len) * model.d_model *
                           model.n_layers * 2.0;
  return (state_bytes + act_bytes) / (1024.0 * 1024.0 * 1024.0);
}

AutotuneResult BatchSizeAutotuner::search(const ModelConfig& model,
                                          double budget_gb,
                                          double state_shards) const {
  AutotuneResult r;
  int best = 0;
  for (int mb = 1; mb <= config_.max_micro_batch; mb *= 2) {
    if (footprint_gb(model, mb, state_shards) <= budget_gb) {
      best = mb;
    } else {
      break;
    }
  }
  r.micro_batch_per_gpu = best;
  r.fits = best > 0;
  r.memory_gb = footprint_gb(model, std::max(best, 1), state_shards);
  return r;
}

AutotuneResult BatchSizeAutotuner::tune_gpu(const ModelConfig& model,
                                            const GpuSpec& gpu) const {
  AutotuneResult r =
      search(model, gpu.vram_gb * config_.vram_safety_fraction, 1.0);
  r.device_batch = r.micro_batch_per_gpu;
  return r;
}

AutotuneResult BatchSizeAutotuner::tune_client(const ModelConfig& model,
                                               const ClientSpec& client,
                                               bool fsdp_sharding) const {
  const int gpus = client.total_gpus();
  if (gpus == 0) return {};
  // All GPUs in a client are identical (Table 1); budget per GPU.
  const GpuSpec& gpu = client.nodes.front().gpu;
  AutotuneResult r =
      search(model, gpu.vram_gb * config_.vram_safety_fraction,
             fsdp_sharding ? static_cast<double>(gpus) : 1.0);
  r.device_batch = r.micro_batch_per_gpu * gpus;
  return r;
}

}  // namespace photon
