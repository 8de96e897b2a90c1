#pragma once
// DeepSpeed-AutoTuner-style batch-size heuristic (paper §5.1: "The client's
// local batch size is determined by its VRAM, model size, and optimal
// throughput, leveraging heuristics similar to those proposed by the
// Microsoft DeepSpeed AutoTuner").
//
// CalcBatchSize (Alg. 1, L17/L21): find the largest power-of-two per-GPU
// micro-batch whose activation+state footprint fits in VRAM with a safety
// margin, without gradient accumulation (§2.2: "full batch steps matching
// their resources without any gradient accumulation").

#include <cstdint>

#include "nn/config.hpp"
#include "sim/hardware.hpp"

namespace photon {

struct AutotuneResult {
  int micro_batch_per_gpu = 0;  // 0 = model does not fit at batch 1
  int device_batch = 0;         // micro_batch * num_gpus on this client
  double memory_gb = 0.0;       // footprint at the chosen micro batch
  bool fits = false;
};

struct AutotunerConfig {
  double vram_safety_fraction = 0.85;  // reserve 15% for fragmentation/ckpt
  int max_micro_batch = 512;
};

class BatchSizeAutotuner {
 public:
  explicit BatchSizeAutotuner(AutotunerConfig config = {});

  /// Largest power-of-two micro-batch that fits a single GPU.
  AutotuneResult tune_gpu(const ModelConfig& model, const GpuSpec& gpu) const;

  /// Client-level batch: micro-batch per GPU x total GPUs (data parallel).
  /// Under FSDP the parameter state is sharded, admitting larger models.
  AutotuneResult tune_client(const ModelConfig& model,
                             const ClientSpec& client,
                             bool fsdp_sharding) const;

 private:
  double footprint_gb(const ModelConfig& model, int micro_batch,
                      double state_shards) const;
  /// Largest power-of-two micro-batch whose footprint at `state_shards`
  /// fits `budget_gb` per GPU; device_batch is left to the caller.
  AutotuneResult search(const ModelConfig& model, double budget_gb,
                        double state_shards) const;

  AutotunerConfig config_;
};

}  // namespace photon
