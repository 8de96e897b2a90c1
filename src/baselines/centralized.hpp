#pragma once
// Centralized pre-training baseline: one model, one large batch B, AdamW,
// cosine schedule — the "Cent" rows/curves of Figs. 3-4 and Table 2.
//
// Also used by the Appendix C.1 reproduction: with small batches and high
// learning rates, centralized training diverges unless the max LR is scaled
// down, while federated averaging tolerates the same recipe.

#include <cstdint>
#include <memory>

#include "core/metrics.hpp"
#include "data/dataset.hpp"
#include "data/stream.hpp"
#include "nn/config.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/scheduler.hpp"

namespace photon {

/// The schedule decays to kMinLrFactor * max_lr over `steps`; data and eval
/// come from one C4-style stream of harness_corpus_config()'s corpus; sim
/// time counts one step per simulated second.
struct CentralizedConfig {
  ModelConfig model = ModelConfig::nano();
  int batch = 16;   // B (centralized batch, typically N * B_l)
  int steps = 800;  // T_cent
  float max_lr = 1e-2f;
  int warmup_steps = 20;
  float max_grad_norm = 1.0f;

  int eval_every = 16;  // steps between evals
  int eval_batches = 4;
  int eval_batch_size = 8;
  /// Mean loss above this (after warmup) marks the run diverged.  Note the
  /// fused cross-entropy clamps probabilities at 1e-12, so per-token loss
  /// saturates near 27.6; the default sits well below that ceiling.
  double divergence_loss = 20.0;
  std::size_t eval_tokens = 1 << 14;

  std::uint64_t seed = 42;
};

struct CentralizedResult {
  TrainingHistory history;  // one record per eval interval
  bool diverged = false;
  int steps_run = 0;
};

class CentralizedTrainer {
 public:
  /// Throws std::invalid_argument unless batch, steps and eval_every are
  /// positive.
  explicit CentralizedTrainer(CentralizedConfig config);
  ~CentralizedTrainer();

  CentralizedResult run();

  GptModel& model() { return *model_; }
  const TokenDataset& eval_set() const { return eval_set_; }

 private:
  CentralizedConfig config_;
  std::unique_ptr<GptModel> model_;
  std::unique_ptr<AdamW> opt_;
  std::unique_ptr<CosineSchedule> schedule_;
  std::unique_ptr<DataSource> data_;
  TokenDataset eval_set_;
};

}  // namespace photon
