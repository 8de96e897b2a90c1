#include "fed_vs_cent.hpp"

#include <memory>

#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "eval/perplexity.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/scheduler.hpp"
#include "util/rng.hpp"

namespace photon::bench {

FedVsCentResult run_fed_vs_cent(const FedVsCentConfig& config) {
  const ModelConfig& mc = config.model;
  CorpusConfig cc;
  cc.vocab_size = mc.vocab_size;
  cc.base_seed = hash_combine(config.seed, 0xDA7AULL);
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());

  // Finite training pool (the "dataset"), sharded across clients; held-out
  // validation drawn fresh from the same language.
  CorpusStreamSource pool_stream(corpus, hash_combine(config.seed, 0x900DULL));
  const TokenDataset pool = materialize(pool_stream, config.pool_tokens);
  const auto shards = pool.shard(static_cast<std::size_t>(config.clients));
  CorpusStreamSource eval_stream(corpus, hash_combine(config.seed, 0xE7A1ULL));
  const TokenDataset eval_set = materialize(eval_stream, 1 << 13);

  GptModel eval_model(mc, 0);
  const auto eval_ppl = [&](std::span<const float> params) {
    eval_model.load_params(params);
    return evaluate_perplexity(eval_model, eval_set, 4, 8).perplexity;
  };

  FedVsCentResult result;
  const int seq = mc.seq_len;
  const std::int64_t total_steps =
      static_cast<std::int64_t>(config.rounds) * config.tau;

  // ---- Federated (Photon recipe): small batch, high LR, FedAvg. ----
  {
    ClientTrainConfig ctc;
    ctc.model = mc;
    ctc.local_batch = config.local_batch;
    ctc.schedule.max_lr = config.fed_lr;
    ctc.schedule.warmup_steps = 16;
    ctc.schedule.total_steps = total_steps;
    std::vector<std::unique_ptr<LLMClient>> clients;
    for (int i = 0; i < config.clients; ++i) {
      clients.push_back(std::make_unique<LLMClient>(
          i, ctc,
          std::make_unique<ShardSource>(
              "shard" + std::to_string(i), shards[static_cast<std::size_t>(i)],
              hash_combine(config.seed, 0x50 + static_cast<std::uint64_t>(i))),
          hash_combine(config.seed, 7)));
    }
    AggregatorConfig ac;
    ac.local_steps = config.tau;
    ac.parallel_clients = false;
    Aggregator agg(mc, ac, make_server_opt("fedavg", 1.0f, 0.0f),
                   std::move(clients), hash_combine(config.seed, 55));
    std::uint64_t tokens = 0;
    for (int r = 0; r < config.rounds; ++r) {
      const RoundRecord rec = agg.run_round();
      tokens += rec.tokens_this_round;
      if ((r + 1) % config.eval_every_rounds == 0 || r + 1 == config.rounds) {
        result.fed_curve.push_back({tokens, eval_ppl(agg.global_params())});
      }
    }
    result.fed_final = result.fed_curve.back().ppl;
  }

  // ---- Centralized: pooled shards, batch N*B_l, best stable LR. ----
  {
    GptModel model(mc, hash_combine(config.seed, 55));
    AdamW opt(model.num_params());
    CosineSchedule sched({config.cent_lr, 16, total_steps});
    ShardSource src("pool", pool, hash_combine(config.seed, 0x51ULL));
    const int batch = config.clients * config.local_batch;
    std::uint64_t tokens = 0;
    const std::int64_t eval_every_steps =
        static_cast<std::int64_t>(config.eval_every_rounds) * config.tau;
    for (std::int64_t s = 0; s < total_steps; ++s) {
      const Batch b = src.next_batch(batch, seq);
      model.zero_grad();
      model.train_step_fb(b.tokens, b.targets, batch, seq);
      clip_grad_norm(kernels::default_context(), model.grads(), 1.0);
      opt.step(kernels::default_context(), model.params(), model.grads(),
               sched.lr_at(s));
      tokens += static_cast<std::uint64_t>(batch) * seq;
      if ((s + 1) % eval_every_steps == 0 || s + 1 == total_steps) {
        result.cent_curve.push_back({tokens, eval_ppl(model.params())});
      }
    }
    result.cent_final = result.cent_curve.back().ppl;
  }
  return result;
}

}  // namespace photon::bench
