#pragma once
// LLM Client (LLM-C): the local training pipeline of paper Alg. 1, L13-28.
//
// Each client owns a bound DataSource stream, its post-processing stages,
// its error-feedback residual and, only when it keeps optimizer state
// across rounds (DiLoCo), its own AdamW.  The model replica is per-thread
// scratch: every round starts from the broadcast global model, so a
// replica's own init is never used, and a client borrows the calling
// thread's shape-only model (plus a stateless AdamW) for the round.  Per
// round it: receives global parameters, trains `local_steps` with its
// hardware batch size under the stretched cosine schedule, optionally runs
// a nested sub-federation across its nodes (L19-25), post-processes the
// update (L28), and returns the pseudo-gradient contribution
//   delta_k = theta_global - theta_k
// written over the received parameters in place.  It keeps no local
// checkpoint (L27): no client restarts in this reproduction, a crashed
// client drops out of its round (DESIGN.md §2, §8).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/postprocess.hpp"
#include "data/stream.hpp"
#include "nn/config.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/scheduler.hpp"
#include "obs/trace.hpp"

namespace photon {

/// Sim-time coordinates for the local_step spans a client emits while
/// training.  The round engine installs it immediately before run_round:
/// `sim_begin` is the absolute sim timestamp local training starts at and
/// `sim_per_step` the deterministic simulated duration of one local step,
/// so step k spans [begin + k*per_step, begin + (k+1)*per_step] regardless
/// of which worker thread runs the client.
struct ClientTraceContext {
  obs::RoundTrace trace;  // off by default
  double sim_begin = 0.0;
  double sim_per_step = 0.0;
};

struct ClientTrainConfig {
  ModelConfig model;
  int local_batch = 4;  // B_l: hardware-determined per-client batch size
  CosineScheduleConfig schedule;
  float max_grad_norm = 1.0f;
  /// Photon default: reset optimizer state each round (Appendix A,
  /// "stateless local optimization procedure").  DiLoCo keeps state.
  bool stateless_optimizer = true;
  /// > 1 enables the nested sub-federation path (Alg. 1 L19-25): the round
  /// is trained as `sub_nodes` independent replicas, one after another, each
  /// on the next batches of the client's one stream, then locally averaged
  /// before returning.
  int sub_nodes = 1;
  /// Post-processing (Alg. 1 L28).
  double clip_update_norm = 0.0;     // 0 = no update clipping
  double dp_noise_multiplier = 0.0;  // 0 = no DP noise
  /// Wire codec for the update return: "" / "rle0" (lossless), "q8" / "q4"
  /// (lossy blockwise quantization).  When empty,
  /// the PHOTON_WIRE_CODEC environment variable (read at construction)
  /// overrides it — used by tools/ci.sh to rerun tier-1 over the quantized
  /// wire path.
  std::string link_codec;
  /// Error feedback for lossy wire codecs: carry the quantization residual
  /// delta - dequant(quant(delta)) into the next round's pseudo-gradient so
  /// the wire loss stays transient instead of accumulating (the ablation in
  /// bench_round_path shows q8 without this visibly diverges).  No effect
  /// under lossless codecs.
  bool quant_error_feedback = true;
  /// Has no effect.  No client keeps a local checkpoint (Alg. 1 L27), so
  /// between rounds every client holds only its data stream, its EF
  /// residual and, when stateful, its AdamW moments.  bench_e2e still sets
  /// the field, so it stays until the benchmark itself next changes.
  bool ephemeral = false;
};

/// What a round reports besides its delta, which run_round writes over the
/// received parameters.
struct ClientUpdate {
  std::uint64_t tokens = 0;
  double mean_train_loss = 0.0;
  MetricDict metrics;
};

class LLMClient {
 public:
  LLMClient(int id, ClientTrainConfig config,
            std::unique_ptr<DataSource> data, std::uint64_t seed);

  int id() const { return id_; }
  const ClientTrainConfig& config() const { return config_; }
  DataSource& data_source() { return *data_; }

  /// Execute one federated round (Alg. 1 L13-28): train from `received`,
  /// the global parameters as received, then overwrite it in place with
  /// the post-processed delta theta_global - theta_k; tokens, loss and
  /// metrics go to `out`.  `schedule_step_base` is the cumulative
  /// sequential local-step count, synchronizing the cosine schedule across
  /// rounds (Table 5: "S_C synchronized across sequential steps").  `out`'s
  /// metric storage is recycled across rounds (the Aggregator keeps one
  /// ClientUpdate per dispatch slot alive for the whole run).
  void run_round(std::span<float> received, std::uint32_t round,
                 int local_steps, std::int64_t schedule_step_base,
                 ClientUpdate& out);

  /// Crash recovery: advance the data stream past `rounds` already-trained
  /// rounds of `local_steps` each, drawing tokens in exactly the pattern
  /// local training would have, so a freshly constructed client in a
  /// recovered process sees the same next batches as its uninterrupted
  /// twin.  Model and optimizer state are untouched (the global broadcast
  /// overwrites params; the stateless default resets the optimizer).
  void fast_forward(std::uint32_t rounds, int local_steps);

  /// Install the tracing context for the next run_round (copy; cheap).
  void set_trace(const ClientTraceContext& ctx) { trace_ = ctx; }

  /// Runtime wire-codec knob (the autotuner's decision interface): retarget
  /// config().link_codec for subsequent rounds.  The error-feedback
  /// residual is deliberately kept across switches — it folds into the next
  /// lossy round deterministically in both the live and any crash-restored
  /// timeline.  Throws on an unknown codec name.
  void set_link_codec(const std::string& codec);

  /// Error-feedback residual carried from the last quantized-codec round
  /// (empty until one ran).  The Aggregator checkpoints and restores it so
  /// crash recovery reproduces the exact wire stream bit for bit.
  const std::vector<float>& ef_residual() const { return ef_residual_; }
  void set_ef_residual(std::vector<float> residual) {
    ef_residual_ = std::move(residual);
  }

 private:
  /// Train `model` for `local_steps` from its current params with `opt`.
  /// Returns (mean loss, tokens).
  std::pair<double, std::uint64_t> train_replica(GptModel& model, AdamW& opt,
                                                 int local_steps,
                                                 std::int64_t step_base);

  int id_;
  ClientTrainConfig config_;
  std::unique_ptr<DataSource> data_;
  std::optional<AdamW> opt_;  // set only when !stateless_optimizer
  CosineSchedule schedule_;
  std::optional<ClipStage> clip_;      // set when clip_update_norm > 0
  std::optional<DpNoiseStage> noise_;  // set when dp_noise_multiplier > 0
  std::vector<float> ef_residual_;
  double last_grad_norm_ = 0.0;
  ClientTraceContext trace_;
};

}  // namespace photon
