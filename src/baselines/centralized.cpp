#include "baselines/centralized.hpp"

#include <cmath>

#include "data/corpus.hpp"
#include "eval/perplexity.hpp"
#include "util/rng.hpp"

namespace photon {

namespace {

std::unique_ptr<DataSource> build_stream(const CentralizedConfig& config,
                                         std::uint64_t salt) {
  CorpusConfig cc;
  cc.vocab_size = config.model.vocab_size;
  cc.branching = config.corpus_branching;
  cc.mean_doc_len = config.corpus_mean_doc_len;
  cc.base_seed = hash_combine(config.seed, 0xDA7AULL);

  std::vector<CorpusStyle> styles =
      config.heterogeneity_blend >= 1.0
          ? std::vector<CorpusStyle>{c4_style()}
          : pile_styles(config.heterogeneity_blend);
  std::vector<std::unique_ptr<DataSource>> streams;
  std::vector<double> weights;
  for (const auto& style : styles) {
    auto corpus = std::make_shared<MarkovSource>(cc, style);
    streams.push_back(std::make_unique<CorpusStreamSource>(
        corpus, hash_combine(config.seed, salt ^ style.style_seed)));
    weights.push_back(1.0);
  }
  if (streams.size() == 1) return std::move(streams.front());
  return std::make_unique<StreamMixer>(std::move(streams), std::move(weights),
                                       hash_combine(config.seed, salt));
}

}  // namespace

CentralizedTrainer::CentralizedTrainer(CentralizedConfig config)
    : config_(std::move(config)) {
  model_ = std::make_unique<GptModel>(config_.model,
                                      hash_combine(config_.seed, 0x1217ULL));
  opt_ = std::make_unique<AdamW>(model_->num_params(), config_.adamw);
  CosineScheduleConfig sc;
  sc.max_lr = config_.max_lr;
  sc.min_lr_factor = config_.min_lr_factor;
  sc.warmup_steps = config_.warmup_steps;
  sc.total_steps = config_.schedule_total_steps > 0
                       ? config_.schedule_total_steps
                       : config_.steps;
  schedule_ = std::make_unique<CosineSchedule>(sc);
  data_ = build_stream(config_, 0x517EA4ULL);
  auto eval_stream = build_stream(config_, 0xE7A1ULL);
  eval_set_ = materialize(*eval_stream, config_.eval_tokens);
}

CentralizedTrainer::~CentralizedTrainer() = default;

CentralizedResult CentralizedTrainer::run() {
  CentralizedResult result;
  const int seq = config_.model.seq_len;
  double window_loss = 0.0;
  int window_count = 0;
  std::uint64_t tokens_seen = 0;

  for (int step = 0; step < config_.steps; ++step) {
    const Batch b = data_->next_batch(config_.batch, seq);
    model_->zero_grad();
    const float loss =
        model_->train_step_fb(b.tokens, b.targets, config_.batch, seq);
    opt_->step_clipped(kernels::default_context(), model_->params(),
                       model_->grads(), schedule_->lr_at(step),
                       config_.max_grad_norm);
    window_loss += loss;
    ++window_count;
    tokens_seen += static_cast<std::uint64_t>(config_.batch) * seq;
    result.steps_run = step + 1;

    // Divergence detection (Appendix C.1): NaN or runaway loss.
    if (!std::isfinite(loss) ||
        (step > config_.warmup_steps && loss > config_.divergence_loss)) {
      result.diverged = true;
      break;
    }

    const bool eval_now = (step + 1) % config_.eval_every == 0 ||
                          step + 1 == config_.steps;
    if (eval_now) {
      const EvalResult er =
          evaluate_perplexity(*model_, eval_set_, config_.eval_batches,
                              config_.eval_batch_size);
      RoundRecord rec;
      rec.round = static_cast<std::uint32_t>(step);
      rec.mean_train_loss = window_loss / std::max(1, window_count);
      rec.tokens_this_round = tokens_seen;
      rec.eval_perplexity = er.perplexity;
      rec.sim_local_seconds =
          static_cast<double>(window_count) / config_.sim_throughput_bps;
      result.history.add(rec);
      tokens_seen = 0;
      window_loss = 0.0;
      window_count = 0;
      if (config_.target_perplexity > 0.0 &&
          er.perplexity <= config_.target_perplexity) {
        break;
      }
      if (!std::isfinite(er.perplexity)) {
        result.diverged = true;
        break;
      }
    }
  }
  return result;
}

}  // namespace photon
