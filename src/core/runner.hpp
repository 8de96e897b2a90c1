#pragma once
// PhotonRunner: end-to-end experiment harness.
//
// Wires corpora -> data sources -> LLM clients -> Aggregator for one
// federated pre-training run, evaluates the global model on a held-out
// validation set each eval interval, and stops at a round budget or target
// perplexity.  Every bench reproducing a paper figure drives this class.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "comm/cost_model.hpp"
#include "core/aggregator.hpp"
#include "core/metrics.hpp"
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

  // Optimization recipe.
  std::string server_opt = "fedavg";
  float server_lr = 1.0f;       // eta_s (Photon default 1.0)
  float server_momentum = 0.0f; // mu_s (Photon default 0.0)
  bool stateless_optimizer = true;
  float max_lr = 1e-2f;         // eta_max: small batch + HIGH learning rate
  float min_lr_factor = 0.1f;   // alpha (Table 5)
  int warmup_steps = 20;
  int schedule_total_steps = 0; // 0 = rounds * local_steps
  float max_grad_norm = 1.0f;

  // Communication.
  Topology topology = Topology::kRingAllReduce;
  double bandwidth_mbps = 1250.0;  // 10 Gbps
  /// Per-client Agg<->LLM-C link speed (Gbps); scales with bandwidth_mbps
  /// when modeling LAN vs WAN deployments.
  double link_bandwidth_gbps = 10.0;
  bool secure_aggregation = false;
  std::string link_codec;

  // Fault tolerance (forwarded to AggregatorConfig).
  double round_deadline_s = 0.0;
  std::filesystem::path checkpoint_dir;  // empty = memory-only checkpoints
  int checkpoint_every = 1;

  // Elastic async federation (DESIGN.md §12).  Forwarded verbatim to
  // AggregatorConfig; the round loop is unchanged — each run_round() is one
  // buffer drain in async mode.
  AggregatorConfig::AsyncAggregation async;
  bool skip_on_quorum_loss = false;
  double min_cohort_fraction = 0.0;
  int max_cohort_retries = 2;
  bool ephemeral_clients = false;  // no per-client local checkpoint copy
  MembershipPlan membership;       // join/leave churn; disabled by default

  // Data: blend 1.0 = IID C4-style; < 1.0 = Pile-style heterogeneous
  // sources dealt round-robin across clients.
  double heterogeneity_blend = 1.0;
  int corpus_branching = 12;
  int corpus_mean_doc_len = 96;

  // Run control.
  int rounds = 50;
  int eval_every = 1;
  int eval_batches = 4;
  int eval_batch_size = 8;
  std::size_t eval_tokens = 1 << 14;
  double target_perplexity = -1.0;  // early stop when reached (< 0 = off)

  // Simulation accounting.
  double sim_throughput_bps = 1.0;  // nu for wall-time records

  std::uint64_t seed = 42;

  // Observability (not owned; may be null).  When both are null and the
  // PHOTON_TRACE environment variable is set, the runner falls back to the
  // process-wide env tracer and writes photon_trace.json plus a per-round
  // table at the end of run().
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class PhotonRunner {
 public:
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
  /// True when the tracer came from PHOTON_TRACE rather than the config;
  /// run() then exports photon_trace.json + a round table on completion.
  bool env_traced_ = false;
};

}  // namespace photon
