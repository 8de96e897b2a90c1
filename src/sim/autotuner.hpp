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

/// Largest power-of-two micro-batch (up to 512) that fits a single GPU
/// with 15% of its VRAM held back for fragmentation and checkpoints.
AutotuneResult tune_gpu(const ModelConfig& model, const GpuSpec& gpu);

/// Client-level batch: micro-batch per GPU x total GPUs (data parallel).
/// Under FSDP the parameter state is sharded, admitting larger models.
AutotuneResult tune_client(const ModelConfig& model, const ClientSpec& client,
                           bool fsdp_sharding);

}  // namespace photon
