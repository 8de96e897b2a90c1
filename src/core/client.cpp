#include "core/client.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "comm/compression.hpp"
#include "comm/quantization.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace photon {

namespace {

/// A thread's training scratch: a shape-only model replica and a stateless
/// AdamW, keyed by the model config they were built for.  Every client round
/// loads the broadcast into the params and resets the optimizer, the step
/// zeroes the grads and the forward pass overwrites the activation tape, so
/// nothing a round leaves behind reaches the next one.
struct Shell {
  explicit Shell(const ModelConfig& model_config)
      : model(model_config), opt(model.num_params()) {}
  GptModel model;
  AdamW opt;
};

// One shell per thread that runs clients, freed at thread exit.
thread_local std::unique_ptr<Shell> t_shell;

/// Borrows the calling thread's shell for one round and returns it on every
/// exit path.  A shell built for another model is replaced.  A nested borrow
/// on the same thread finds the slot empty and builds its own shell, so two
/// borrowers never share one.
class ShellLease {
 public:
  explicit ShellLease(const ModelConfig& model)
      : shell_(std::move(t_shell)) {
    if (shell_ == nullptr || shell_->model.config() != model) {
      shell_.reset();  // free the old shell before building its successor
      shell_ = std::make_unique<Shell>(model);
    }
  }
  ~ShellLease() { t_shell = std::move(shell_); }
  ShellLease(const ShellLease&) = delete;
  ShellLease& operator=(const ShellLease&) = delete;

  Shell* operator->() const { return shell_.get(); }

 private:
  std::unique_ptr<Shell> shell_;
};

}  // namespace

LLMClient::LLMClient(int id, ClientTrainConfig config,
                     std::unique_ptr<DataSource> data, std::uint64_t seed)
    : id_(id),
      config_(std::move(config)),
      data_(std::move(data)),
      schedule_(config_.schedule) {
  if (data_ == nullptr) {
    throw std::invalid_argument("LLMClient: null data source");
  }
  if (config_.local_batch <= 0) {
    throw std::invalid_argument("LLMClient: local_batch must be > 0");
  }
  if (config_.sub_nodes < 1) {
    throw std::invalid_argument("LLMClient: sub_nodes must be >= 1");
  }
  if (config_.link_codec.empty()) {
    // tools/ci.sh reruns tier-1 with PHOTON_WIRE_CODEC=q8 to sweep the
    // quantized wire path through every federation test; an explicit codec
    // in the config always wins.
    if (const char* env = std::getenv("PHOTON_WIRE_CODEC")) {
      config_.link_codec = env;
    }
  }
  if (codec_by_name(config_.link_codec) == nullptr) {
    throw std::invalid_argument("LLMClient: unknown link codec " +
                                config_.link_codec);
  }
  if (!config_.stateless_optimizer) {
    opt_.emplace(static_cast<std::size_t>(config_.model.num_params()));
  }
  if (config_.clip_update_norm > 0.0) {
    clip_.emplace(config_.clip_update_norm);
  }
  if (config_.dp_noise_multiplier > 0.0) {
    const double clip = config_.clip_update_norm > 0.0
                            ? config_.clip_update_norm
                            : 1.0;
    noise_.emplace(config_.dp_noise_multiplier, clip,
                   hash_combine(seed, 0xD9ULL + static_cast<std::uint64_t>(id)));
  }
}

void LLMClient::set_link_codec(const std::string& codec) {
  if (codec_by_name(codec) == nullptr) {
    throw std::invalid_argument("LLMClient::set_link_codec: unknown codec " +
                                codec);
  }
  config_.link_codec = codec;
}

std::pair<double, std::uint64_t> LLMClient::train_replica(
    GptModel& model, AdamW& opt, int local_steps, std::int64_t step_base) {
  const int batch = config_.local_batch;
  const int seq = config_.model.seq_len;
  double loss_sum = 0.0;
  std::uint64_t tokens = 0;
  double grad_norm_sum = 0.0;
  for (int step = 0; step < local_steps; ++step) {
    const obs::RealTimer step_timer = trace_.trace.timer();
    const Batch b = data_->next_batch(batch, seq);
    model.zero_grad();
    const float loss = model.train_step_fb(b.tokens, b.targets, batch, seq);
    // Fused clip + AdamW: the clip folds into the per-element grad read —
    // one pass over the grads.  Grads are left unscaled, which is fine —
    // zero_grad() clears them before the next step reads them.
    const double norm = opt.step_clipped(
        kernels::default_context(), model.params(), model.grads(),
        schedule_.lr_at(step_base + step), config_.max_grad_norm);
    loss_sum += loss;
    grad_norm_sum += norm;
    tokens += static_cast<std::uint64_t>(batch) * seq;
    trace_.trace.record(obs::SpanKind::kLocalStep, id_, step,
                        trace_.sim_begin + step * trace_.sim_per_step,
                        trace_.sim_begin + (step + 1) * trace_.sim_per_step,
                        step_timer.ns());
  }
  last_grad_norm_ = local_steps > 0 ? grad_norm_sum / local_steps : 0.0;
  return {local_steps > 0 ? loss_sum / local_steps : 0.0, tokens};
}

void LLMClient::fast_forward(std::uint32_t rounds, int local_steps) {
  if (rounds == 0) return;
  if (local_steps <= 0) {
    throw std::invalid_argument("LLMClient::fast_forward: local_steps <= 0");
  }
  // Each local step draws `local_batch` rows of seq_len + 1 tokens (see
  // DataSource::next_batch); sub-federated clients draw that per node.
  const std::size_t row = static_cast<std::size_t>(config_.model.seq_len) + 1;
  const std::uint64_t row_draws = static_cast<std::uint64_t>(rounds) *
                                  static_cast<std::uint64_t>(local_steps) *
                                  static_cast<std::uint64_t>(config_.sub_nodes) *
                                  static_cast<std::uint64_t>(config_.local_batch);
  std::vector<int> window;
  for (std::uint64_t i = 0; i < row_draws; ++i) {
    window.clear();
    data_->next_tokens(row, window);
  }
}

void LLMClient::run_round(std::span<float> received, std::uint32_t round,
                          int local_steps, std::int64_t schedule_step_base,
                          ClientUpdate& update) {
  const auto n = static_cast<std::size_t>(config_.model.num_params());
  if (received.size() != n) {
    throw std::invalid_argument("LLMClient::run_round: param size mismatch");
  }
  if (local_steps <= 0) {
    throw std::invalid_argument("LLMClient::run_round: local_steps <= 0");
  }

  update.tokens = 0;
  update.mean_train_loss = 0.0;
  update.metrics.clear();

  const ShellLease shell(config_.model);
  GptModel& model = shell->model;
  AdamW& opt = opt_ ? *opt_ : shell->opt;

  double mean_loss = 0.0;
  std::uint64_t tokens = 0;

  if (config_.sub_nodes == 1) {
    // Fast interconnect path (Alg. 1 L16-18): one logical replica at the
    // autotuned device batch.
    model.load_params(received);
    if (config_.stateless_optimizer) opt.reset();
    auto [loss, toks] = train_replica(model, opt, local_steps,
                                      schedule_step_base);
    mean_loss = loss;
    tokens = toks;
  } else {
    // Nested sub-federation (Alg. 1 L19-25): train `sub_nodes` replicas in
    // turn, each on the next batches of this client's stream, and average
    // their parameters.  Every node loads `received` before the delta
    // below overwrites it.
    std::vector<double> param_sum(n, 0.0);
    for (int node = 0; node < config_.sub_nodes; ++node) {
      model.load_params(received);
      opt.reset();  // each node replica starts fresh
      auto [loss, toks] = train_replica(model, opt, local_steps,
                                        schedule_step_base);
      mean_loss += loss / config_.sub_nodes;
      tokens += toks;
      const auto params = model.params();
      for (std::size_t i = 0; i < n; ++i) param_sum[i] += params[i];
    }
    auto params = model.params();
    for (std::size_t i = 0; i < n; ++i) {
      params[i] = static_cast<float>(param_sum[i] / config_.sub_nodes);
    }
  }

  // delta_k = theta_global - theta_k (Alg. 1 L7), in one vectorized pass
  // over the received parameters, which nothing reads again.
  kernels::sub(kernels::default_context(), received.data(), received.data(),
               model.params().data(), n);

  // Post-processing (Alg. 1 L28): clip, then DP noise; the wire codec is
  // applied when the update is encoded.  The (round, client) context keys
  // the stateless DP noise stream.
  PostProcessReport report;
  if (clip_) clip_->apply(received, report);
  if (noise_) noise_->apply(received, report, {round, id_});

  // Error feedback for lossy wire codecs (DESIGN.md §11): fold the previous
  // round's quantization residual into this update before it hits the wire,
  // then record the residual the codec will leave this round.  The fused
  // quant_i8_ef kernel replicates the codec's chunk/block scales exactly, so
  // residual_of computes precisely delta_sent - dequant(quant(delta_sent)).
  const int qbits = codec_by_name(config_.link_codec)->quant_bits();
  if (qbits != 0 && config_.quant_error_feedback) {
    if (ef_residual_.size() != n) ef_residual_.assign(n, 0.0f);
    simd::ops().acc(received.data(), ef_residual_.data(), n);
    wire_quant::residual_of(received.data(), ef_residual_.data(), n, qbits);
    update.metrics["ef_residual_norm"] =
        kernels::l2_norm(kernels::default_context(), ef_residual_.data(), n);
  }

  update.tokens = tokens;
  update.mean_train_loss = mean_loss;
  update.metrics["train_loss"] = mean_loss;
  update.metrics["grad_norm"] = last_grad_norm_;
  update.metrics["tokens"] = static_cast<double>(tokens);
  update.metrics["local_steps"] = static_cast<double>(local_steps);
  PHOTON_LOG_DEBUG("llm-client", "client %d round %u loss %.4f", id_, round,
                   mean_loss);
}

}  // namespace photon
