#pragma once
// LLM Client (LLM-C): the local training pipeline of paper Alg. 1, L13-28.
//
// Each client owns a bound DataSource stream, its post-processing stages,
// its error-feedback residual and, only when it keeps optimizer state
// across rounds (DiLoCo), its own AdamW.  The model replica is per-thread
// scratch: every round starts from the broadcast global model, so a
// replica's own init is never used, and a round runs on the calling
// thread's shell, a shape-only model plus a stateless AdamW, leased before
// the broadcast is received so that the receive decodes straight into the
// shell's params.  Per round the client trains `local_steps` with its
// hardware batch size under the stretched cosine schedule, optionally runs
// a nested sub-federation across its nodes (L19-25), post-processes the
// update (L28), and forms and encodes its update message: the
// pseudo-gradient
//   delta_k = theta_global - theta_k
// written over the trained parameters in place, theta_global read from the
// broadcast image, plus its metrics.  The server learns nothing about the
// round except through that message (L7, L10).  It keeps no local
// checkpoint (L27): no client restarts in this reproduction, a crashed
// client drops out of its round (DESIGN.md §2, §8).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "core/postprocess.hpp"
#include "data/stream.hpp"
#include "nn/config.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/scheduler.hpp"
#include "obs/trace.hpp"

namespace photon {

/// Sim-time coordinates for the spans a client emits in a round.  The
/// round engine installs it immediately before run_round: `sim_begin` is
/// the absolute sim timestamp local training starts at and `sim_per_step`
/// the deterministic simulated duration of one local step, so step k spans
/// [begin + k*per_step, begin + (k+1)*per_step] regardless of which worker
/// thread runs the client; `sim_end`, where local training ends, is where
/// the update's encode instant lands.
struct ClientTraceContext {
  obs::RoundTrace trace;  // off by default
  double sim_begin = 0.0;
  double sim_per_step = 0.0;
  double sim_end = 0.0;
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

/// A thread's training scratch: a shape-only model replica and a stateless
/// AdamW, built for one model config.  Every client round receives the
/// broadcast into the params and resets the optimizer, the step zeroes the
/// grads and the forward pass overwrites the activation tape, so nothing a
/// round leaves behind reaches the next one.  The AdamW holds moment
/// buffers only once a step stores them: a round's last step stores none,
/// so with one local step per round it never allocates them.
struct ClientShell {
  explicit ClientShell(const ModelConfig& model_config)
      : model(model_config), opt(model.num_params()) {}
  GptModel model;
  AdamW opt;
};

/// Borrows the calling thread's shell for one client round and returns it
/// on every exit path.  One shell per thread that runs clients, freed at
/// thread exit.  A shell built for another model is replaced.  A nested
/// lease on the same thread finds the slot empty and builds its own shell,
/// so two leases never share one.
class ShellLease {
 public:
  explicit ShellLease(const ModelConfig& model);
  ~ShellLease();
  ShellLease(const ShellLease&) = delete;
  ShellLease& operator=(const ShellLease&) = delete;

  ClientShell* operator->() const { return shell_.get(); }
  /// The params: where the broadcast is received, trained, and overwritten
  /// with the update.
  std::span<float> params() const { return shell_->model.params(); }

 private:
  std::unique_ptr<ClientShell> shell_;
};

class LLMClient {
 public:
  LLMClient(int id, ClientTrainConfig config,
            std::unique_ptr<DataSource> data, std::uint64_t seed);

  int id() const { return id_; }
  const ClientTrainConfig& config() const { return config_; }
  DataSource& data_source() { return *data_; }

  /// Execute one federated round (Alg. 1 L13-28) on `shell`, a lease of
  /// the calling thread's shell for this client's model, whose params hold
  /// the global parameters as received.  `global` holds the same
  /// parameters as the broadcast image carries them (WireScratch::chunks
  /// of the identity-coded image): raw little-endian floats at any
  /// alignment, only read, and unchanged until the call returns.  The
  /// round trains the params, then overwrites them in place with the
  /// post-processed delta theta_global - theta_k as it is sent, forms the
  /// update message in `update` (Alg. 1 L7): type, round, sender, this
  /// client's wire codec, a payload that borrows the shell's params, and
  /// the round's metrics as metadata, "tokens" and "train_loss" among
  /// them, and encodes it into `image`, the sender's buffer, at
  /// `chunk_bytes` raw bytes per chunk (encode_for_transmit).  The payload
  /// view is good until the lease ends.  Under a q8/q4 codec one walk
  /// forms, error-feeds and encodes the update (wire_quant::UpdateWalk)
  /// over the same chunks.  `schedule_step_base` is the
  /// cumulative sequential local-step count, synchronizing the cosine
  /// schedule across rounds (Table 5: "S_C synchronized across sequential
  /// steps").  `update`'s metadata storage and `image` are recycled across
  /// rounds (the Aggregator keeps one of each per dispatch slot alive for
  /// the whole run).
  void run_round(const ShellLease& shell, std::span<const std::uint8_t> global,
                 std::uint32_t round, int local_steps,
                 std::int64_t schedule_step_base, std::size_t chunk_bytes,
                 Message& update, WireScratch& image);

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
