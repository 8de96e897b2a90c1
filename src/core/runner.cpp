#include "core/runner.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/server_opt.hpp"
#include "data/stream.hpp"
#include "eval/perplexity.hpp"
#include "nn/scheduler.hpp"
#include "obs/export.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace photon {

namespace {

/// The corpus styles clients draw from: one shared style for IID, the four
/// Pile-style categories for heterogeneous runs.
std::vector<CorpusStyle> styles_for(const RunnerConfig& config) {
  if (config.heterogeneity_blend >= 1.0) return {c4_style()};
  return pile_styles(config.heterogeneity_blend);
}

/// Mean document length of the harness corpora, shorter than
/// CorpusConfig's default.
constexpr int kHarnessMeanDocLen = 96;

}  // namespace

CorpusConfig harness_corpus_config(int vocab_size, std::uint64_t seed) {
  CorpusConfig cc;
  cc.vocab_size = vocab_size;
  cc.mean_doc_len = kHarnessMeanDocLen;
  cc.base_seed = hash_combine(seed, 0xDA7AULL);
  return cc;
}

PhotonRunner::PhotonRunner(RunnerConfig config) : config_(std::move(config)) {
  if (config_.population <= 0) {
    throw std::invalid_argument("PhotonRunner: population must be > 0");
  }
  if (config_.rounds <= 0) {
    throw std::invalid_argument("PhotonRunner: rounds must be > 0");
  }
  if (config_.eval_every <= 0) {
    throw std::invalid_argument("PhotonRunner: eval_every must be > 0");
  }

  const CorpusConfig cc =
      harness_corpus_config(config_.model.vocab_size, config_.seed);
  const auto styles = styles_for(config_);

  // Corpora are shared immutable objects; streams are per-client.
  std::vector<std::shared_ptr<const MarkovSource>> corpora;
  corpora.reserve(styles.size());
  for (const auto& style : styles) {
    corpora.push_back(std::make_shared<MarkovSource>(cc, style));
  }

  // Client schedule: the cosine period is the run's local steps, so the
  // small local batch stretches it (Appendix C.1).
  CosineScheduleConfig sched;
  sched.max_lr = config_.max_lr;
  sched.warmup_steps = config_.warmup_steps;
  sched.total_steps =
      static_cast<std::int64_t>(config_.rounds) * config_.local_steps;

  ClientTrainConfig ctc;
  ctc.model = config_.model;
  ctc.local_batch = config_.local_batch;
  ctc.schedule = sched;
  ctc.max_grad_norm = config_.max_grad_norm;
  ctc.stateless_optimizer = config_.stateless_optimizer;
  ctc.sub_nodes = config_.sub_nodes;
  ctc.link_codec = config_.link_codec;

  std::vector<std::unique_ptr<LLMClient>> clients;
  clients.reserve(static_cast<std::size_t>(config_.population));
  for (int i = 0; i < config_.population; ++i) {
    // Heterogeneous sources are dealt round-robin: with 4 styles and 8
    // clients, each style serves two clients (paper §5.1 configuration).
    const auto& corpus = corpora[static_cast<std::size_t>(i) % corpora.size()];
    auto source = std::make_unique<CorpusStreamSource>(
        corpus, hash_combine(config_.seed, 0x517EA4 + static_cast<std::uint64_t>(i)));
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc, std::move(source), hash_combine(config_.seed, 0xC11E47ULL)));
  }

  AggregatorConfig ac;
  ac.clients_per_round = config_.clients_per_round;
  ac.local_steps = config_.local_steps;
  ac.secure_aggregation = config_.secure_aggregation;
  ac.seed = hash_combine(config_.seed, 0x5A3FULL);
  // PHOTON_TRACE=1 opts a run into tracing with zero code changes.
  ac.tracer = obs::env_tracer();

  aggregator_ = std::make_unique<Aggregator>(
      config_.model, ac,
      make_server_opt(config_.server_opt, config_.server_lr,
                      config_.server_momentum),
      std::move(clients), hash_combine(config_.seed, 0x1217ULL));

  // Validation set: equal-weight mixture over every style (the paper
  // evaluates all settings on the C4 validation set; for heterogeneous
  // federations the mixture plays that common-reference role).
  std::vector<std::unique_ptr<DataSource>> eval_streams;
  std::vector<double> eval_weights;
  for (const auto& corpus : corpora) {
    eval_streams.push_back(std::make_unique<CorpusStreamSource>(
        corpus, hash_combine(config_.seed, 0xE7A1ULL)));
    eval_weights.push_back(1.0);
  }
  StreamMixer eval_mixer(std::move(eval_streams), std::move(eval_weights),
                         hash_combine(config_.seed, 0xE7A2ULL));
  eval_set_ = materialize(eval_mixer, config_.eval_tokens);

  // Shape-only: evaluate_now() loads the global params before every use.
  eval_model_ = std::make_unique<GptModel>(config_.model);
}

PhotonRunner::~PhotonRunner() = default;

double PhotonRunner::evaluate_now() {
  eval_model_->load_params(aggregator_->global_params());
  const EvalResult r = evaluate_perplexity(
      *eval_model_, eval_set_, config_.eval_batches, config_.eval_batch_size);
  return r.perplexity;
}

const TrainingHistory& PhotonRunner::run() {
  for (int r = 0; r < config_.rounds; ++r) {
    const RoundRecord record = aggregator_->run_round();
    const bool eval_round =
        (r + 1) % config_.eval_every == 0 || r + 1 == config_.rounds;
    if (eval_round) {
      const obs::RoundTrace trace(aggregator_->tracer(), record.round);
      const obs::RealTimer eval_timer = trace.timer();
      const double ppl = evaluate_now();
      // Server-side eval is not simulated: a sim-zero-width mark at the
      // round boundary carrying the measured real duration.
      trace.record(obs::SpanKind::kEval, obs::kAggregatorActor, -1,
                   aggregator_->sim_now(), aggregator_->sim_now(),
                   eval_timer.ns());
      aggregator_->record_eval(ppl);
      PHOTON_LOG_INFO("runner", "round %d eval ppl %.3f", r, ppl);
      if (config_.target_perplexity > 0.0 &&
          ppl <= config_.target_perplexity) {
        break;
      }
    }
  }
  // Env-opted tracing (PHOTON_TRACE=1): export everything the run recorded
  // as a Perfetto-loadable Chrome trace plus a human-readable round table.
  obs::Tracer* tracer = aggregator_->tracer();
  if (tracer != nullptr && tracer == obs::env_tracer()) {
    const std::vector<obs::TraceEvent> events = tracer->drain();
    std::ofstream out("photon_trace.json");
    out << obs::to_chrome_trace(events);
    std::fputs(obs::render_round_table(events).c_str(), stderr);
    PHOTON_LOG_INFO("runner", "wrote %zu trace events to photon_trace.json",
                    events.size());
  }
  return aggregator_->history();
}

}  // namespace photon
