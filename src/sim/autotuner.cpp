#include "sim/autotuner.hpp"

#include <algorithm>

namespace photon {

namespace {

/// Share of a GPU's VRAM the batch may fill; 15% is held back for
/// fragmentation and checkpoints.
constexpr double kVramSafetyFraction = 0.85;
constexpr int kMaxMicroBatch = 512;

double footprint_gb(const ModelConfig& model, int micro_batch,
                    double state_shards) {
  const double params = static_cast<double>(model.num_params());
  // Weights/grads/optimizer state divide across `state_shards` under FSDP.
  const double state_bytes = params * 16.0 / state_shards;
  const double act_bytes = 34.0 * micro_batch *
                           static_cast<double>(model.seq_len) * model.d_model *
                           model.n_layers * 2.0;
  return (state_bytes + act_bytes) / (1024.0 * 1024.0 * 1024.0);
}

/// Largest power-of-two micro-batch whose footprint at `state_shards` fits
/// the safe share of `gpu`'s VRAM; device_batch is left to the caller.
AutotuneResult search(const ModelConfig& model, const GpuSpec& gpu,
                      double state_shards) {
  const double budget_gb = gpu.vram_gb * kVramSafetyFraction;
  AutotuneResult r;
  int best = 0;
  for (int mb = 1; mb <= kMaxMicroBatch; mb *= 2) {
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

}  // namespace

AutotuneResult tune_gpu(const ModelConfig& model, const GpuSpec& gpu) {
  AutotuneResult r = search(model, gpu, 1.0);
  r.device_batch = r.micro_batch_per_gpu;
  return r;
}

AutotuneResult tune_client(const ModelConfig& model, const ClientSpec& client,
                           bool fsdp_sharding) {
  const int gpus = client.total_gpus();
  if (gpus == 0) return {};
  // All GPUs in a client are identical (Table 1); budget per GPU.
  AutotuneResult r = search(model, client.nodes.front().gpu,
                            fsdp_sharding ? static_cast<double>(gpus) : 1.0);
  r.device_batch = r.micro_batch_per_gpu * gpus;
  return r;
}

}  // namespace photon
