#pragma once
// PhotonRunner: end-to-end experiment harness.
//
// Wires corpora -> data sources -> LLM clients -> Aggregator for one
// federated pre-training run, evaluates the global model on a held-out
// validation set each eval interval, and stops at a round budget or target
// perplexity.  Every bench reproducing a paper figure drives this class.
//
// Tracing: with the PHOTON_TRACE environment variable set, the aggregator
// records into the process-wide env tracer and run() writes
// photon_trace.json plus a per-round table at the end.  A tracer attached
// with aggregator().set_tracer() replaces it and sees every span, the eval
// span included; run() then exports nothing.

#include <cstdint>
#include <memory>
#include <string>

#include "core/aggregator.hpp"
#include "core/metrics.hpp"
#include "data/corpus.hpp"
#include "data/dataset.hpp"
#include "nn/config.hpp"

namespace photon {

struct RunnerConfig {
  ModelConfig model = ModelConfig::nano();

  // Federation shape (paper Table 6: P, K, tau).
  int population = 4;
  int clients_per_round = 0;  // 0 = full participation
  int local_steps = 16;       // tau
  int local_batch = 4;        // B_l
  int sub_nodes = 1;          // nested sub-federation width per client

  // Optimization recipe.  The cosine period is the whole run, rounds *
  // local_steps, and decays to kMinLrFactor * max_lr.
  std::string server_opt = "fedavg";
  float server_lr = 1.0f;       // eta_s (Photon default 1.0)
  float server_momentum = 0.0f; // mu_s (Photon default 0.0)
  bool stateless_optimizer = true;
  float max_lr = 1e-2f;         // eta_max: small batch + HIGH learning rate
  int warmup_steps = 20;
  float max_grad_norm = 1.0f;

  // Communication: AggregatorConfig's defaults (ring all-reduce, 10 Gbps).
  bool secure_aggregation = false;
  std::string link_codec;

  // Data: blend 1.0 = IID C4-style; < 1.0 = Pile-style heterogeneous
  // sources dealt round-robin across clients.
  double heterogeneity_blend = 1.0;

  // Run control.
  int rounds = 50;
  int eval_every = 1;
  int eval_batches = 4;
  int eval_batch_size = 8;
  std::size_t eval_tokens = 1 << 14;
  double target_perplexity = -1.0;  // early stop when reached (< 0 = off)

  std::uint64_t seed = 42;
};

/// The corpus both experiment harnesses (PhotonRunner and
/// CentralizedTrainer) train and evaluate on: CorpusConfig's branching, a
/// mean document length of 96 and a base seed derived from the run seed.
CorpusConfig harness_corpus_config(int vocab_size, std::uint64_t seed);

class PhotonRunner {
 public:
  /// Throws std::invalid_argument unless population, rounds and
  /// eval_every are positive.
  explicit PhotonRunner(RunnerConfig config);
  ~PhotonRunner();

  PhotonRunner(const PhotonRunner&) = delete;
  PhotonRunner& operator=(const PhotonRunner&) = delete;

  /// Run to the round budget or target perplexity; returns the history.
  const TrainingHistory& run();

  /// Evaluate the current global model on the validation set.
  double evaluate_now();

  Aggregator& aggregator() { return *aggregator_; }
  const RunnerConfig& config() const { return config_; }
  const TokenDataset& eval_set() const { return eval_set_; }

 private:
  RunnerConfig config_;
  std::unique_ptr<Aggregator> aggregator_;
  std::unique_ptr<GptModel> eval_model_;
  TokenDataset eval_set_;
};

}  // namespace photon
