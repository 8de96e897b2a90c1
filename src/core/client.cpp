#include "core/client.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "comm/compression.hpp"
#include "comm/link.hpp"
#include "comm/quantization.hpp"
#include "tensor/kernels.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace photon {

namespace {

// One shell per thread that runs clients, freed at thread exit.
thread_local std::unique_ptr<ClientShell> t_shell;

}  // namespace

ShellLease::ShellLease(const ModelConfig& model) : shell_(std::move(t_shell)) {
  if (shell_ == nullptr || shell_->model.config() != model) {
    shell_.reset();  // free the old shell before building its successor
    shell_ = std::make_unique<ClientShell>(model);
  }
}

ShellLease::~ShellLease() { t_shell = std::move(shell_); }

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
  // The next call on `opt` after this replica is reset() wherever the
  // optimizer is stateless or each sub-federation node restarts it, so the
  // last step's moments are never read: it stores only the params.
  const bool reset_next = config_.stateless_optimizer || config_.sub_nodes > 1;
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
        schedule_.lr_at(step_base + step), config_.max_grad_norm,
        /*last_step=*/reset_next && step + 1 == local_steps);
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

void LLMClient::run_round(const ShellLease& shell,
                          std::span<const std::uint8_t> global,
                          std::uint32_t round, int local_steps,
                          std::int64_t schedule_step_base,
                          std::size_t chunk_bytes, Message& update,
                          WireScratch& image) {
  const auto n = static_cast<std::size_t>(config_.model.num_params());
  if (global.size() != n * sizeof(float) ||
      shell->model.config() != config_.model) {
    throw std::invalid_argument(
        "LLMClient::run_round: shell or global model of another size");
  }
  if (local_steps <= 0) {
    throw std::invalid_argument("LLMClient::run_round: local_steps <= 0");
  }

  update.metadata.clear();

  GptModel& model = shell->model;
  AdamW& opt = opt_ ? *opt_ : shell->opt;
  const std::span<float> params = model.params();

  double mean_loss = 0.0;
  std::uint64_t tokens = 0;

  if (config_.sub_nodes == 1) {
    // Fast interconnect path (Alg. 1 L16-18): one logical replica at the
    // autotuned device batch, trained from the params as received.
    if (config_.stateless_optimizer) opt.reset();
    auto [loss, toks] = train_replica(model, opt, local_steps,
                                      schedule_step_base);
    mean_loss = loss;
    tokens = toks;
  } else {
    // Nested sub-federation (Alg. 1 L19-25): train `sub_nodes` replicas in
    // turn, each on the next batches of this client's stream, and average
    // their parameters.  The first node trains from the params as
    // received; each later one reloads the global model from `global`.
    std::vector<double> param_sum(n, 0.0);
    for (int node = 0; node < config_.sub_nodes; ++node) {
      if (node > 0) std::memcpy(params.data(), global.data(), global.size());
      opt.reset();  // each node replica starts fresh
      auto [loss, toks] = train_replica(model, opt, local_steps,
                                        schedule_step_base);
      mean_loss += loss / config_.sub_nodes;
      tokens += toks;
      for (std::size_t i = 0; i < n; ++i) param_sum[i] += params[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      params[i] = static_cast<float>(param_sum[i] / config_.sub_nodes);
    }
  }

  // The update as it goes on the wire (Alg. 1 L7).  "tokens" is a double,
  // exact below 2^53.
  update.type = MessageType::kClientUpdate;
  update.round = round;
  update.sender = static_cast<std::uint32_t>(id_);
  update.codec = config_.link_codec;
  update.payload_view = params;
  update.metadata["train_loss"] = mean_loss;
  update.metadata["grad_norm"] = last_grad_norm_;
  update.metadata["tokens"] = static_cast<double>(tokens);
  update.metadata["local_steps"] = static_cast<double>(local_steps);

  // delta_k = theta_global - theta_k (Alg. 1 L7), written over the trained
  // parameters, which nothing reads again, with theta_global read from the
  // broadcast image.  Post-processing (Alg. 1 L28) is clip, then DP noise,
  // then the wire codec; the (round, client) context keys the stateless DP
  // noise stream.  Without clip or noise a q8/q4 codec's walk forms the
  // delta itself, block by block, as it encodes it.
  const int qbits = codec_by_name(config_.link_codec)->quant_bits();
  const std::uint8_t* walk_global = global.data();
  if (qbits == 0 || clip_ || noise_) {
    wire_quant::form_delta(params.data(), walk_global, n);
    walk_global = nullptr;
    PostProcessReport report;
    if (clip_) clip_->apply(params, report);
    if (noise_) noise_->apply(params, report, {round, id_});
  }
  const LinkTraceContext encode_trace{trace_.trace, id_, trace_.sim_end};
  if (qbits == 0) {
    encode_for_transmit(update, image, encode_trace, chunk_bytes,
                        &global_pool());
  } else {
    // Error feedback for lossy wire codecs (DESIGN.md §11): the walk folds
    // the previous round's quantization residual into the update before it
    // hits the wire and leaves the residual this round's codes lose, bit
    // for bit what the server will decode.
    const bool ef = config_.quant_error_feedback;
    if (ef) {
      if (ef_residual_.size() != n) ef_residual_.assign(n, 0.0f);
      // A placeholder of the same size: the value is known once the walk
      // has written the last residual block.
      update.metadata["ef_residual_norm"] = 0.0;
    }
    wire_quant::UpdateWalk walk(params.data(), walk_global,
                                ef ? ef_residual_.data() : nullptr, n, qbits,
                                chunk_bytes);
    encode_for_transmit(update, image, encode_trace, chunk_bytes,
                        &global_pool(),
                        [&walk](std::size_t c, std::vector<std::uint8_t>& out) {
                          walk.write_chunk(c, out);
                        });
    if (ef) {
      update.metadata["ef_residual_norm"] = walk.residual_norm();
      Message::set_metadata(image.wire, "ef_residual_norm",
                            walk.residual_norm());
    }
  }
  PHOTON_LOG_DEBUG("llm-client", "client %d round %u loss %.4f", id_, round,
                   mean_loss);
}

}  // namespace photon
