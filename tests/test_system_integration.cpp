// Cross-module integration: sub-federation through the runner, text ->
// model round trips, DS cache + mixer + client pipelines, wall-time model
// against the Table-2 reconstruction, and quantized-update aggregation end
// to end.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>

#include "comm/cost_model.hpp"
#include "comm/message.hpp"
#include "core/runner.hpp"
#include "data/corpus.hpp"
#include "data/dataset.hpp"
#include "data/stream.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "sim/mfu.hpp"
#include "util/rng.hpp"

namespace photon {
namespace {

TEST(RunnerIntegration, SubFederationPathTrains) {
  RunnerConfig rc;
  rc.model = ModelConfig::nano();
  rc.population = 2;
  rc.local_steps = 4;
  rc.local_batch = 2;
  rc.sub_nodes = 2;  // Alg. 1 L19-25 nested path
  rc.rounds = 6;
  rc.eval_every = 6;
  rc.eval_batches = 2;
  rc.eval_batch_size = 4;
  rc.max_lr = 8e-3f;
  rc.warmup_steps = 4;
  rc.seed = 3;
  PhotonRunner runner(rc);
  const double before = runner.evaluate_now();
  const TrainingHistory& h = runner.run();
  EXPECT_LT(h.final_perplexity(), before);
  // Tokens double relative to sub_nodes=1: each round trains 2 replicas.
  EXPECT_EQ(h.records().front().tokens_this_round,
            2ull * 2ull * 4ull * 2ull *
                static_cast<std::uint64_t>(rc.model.seq_len));
}

TEST(RunnerIntegration, SecureAggregationRunsEndToEnd) {
  RunnerConfig rc;
  rc.model = ModelConfig::nano();
  rc.population = 3;
  rc.local_steps = 4;
  rc.local_batch = 2;
  rc.rounds = 4;
  rc.eval_every = 4;
  rc.eval_batches = 2;
  rc.eval_batch_size = 4;
  rc.secure_aggregation = true;
  rc.warmup_steps = 4;
  rc.seed = 5;
  PhotonRunner runner(rc);
  const double before = runner.evaluate_now();
  EXPECT_LT(runner.run().final_perplexity(), before);
}

TEST(RunnerIntegration, LinkCodecExercisedThroughTheStack) {
  RunnerConfig rc;
  rc.model = ModelConfig::nano();
  rc.population = 2;
  rc.local_steps = 2;
  rc.local_batch = 2;
  rc.rounds = 2;
  rc.eval_every = 2;
  rc.eval_batches = 1;
  rc.eval_batch_size = 2;
  rc.link_codec = "rle0";
  rc.warmup_steps = 2;
  rc.seed = 9;
  PhotonRunner runner(rc);
  const TrainingHistory& h = runner.run();
  EXPECT_EQ(h.records().size(), 2u);
  EXPECT_GT(h.records().front().comm_bytes, 0u);
}

/// `batch` rows of `seq` tokens (plus shifted targets) at uniform random
/// offsets into `tokens`.
Batch random_batch(std::span<const int> tokens, Rng& rng, int batch,
                   int seq) {
  const std::size_t need = static_cast<std::size_t>(seq) + 1;
  Batch out;
  out.batch = batch;
  out.seq = seq;
  out.tokens.resize(static_cast<std::size_t>(batch) * seq);
  out.targets.resize(static_cast<std::size_t>(batch) * seq);
  const std::size_t max_start = tokens.size() - need;
  for (int b = 0; b < batch; ++b) {
    const std::size_t start =
        static_cast<std::size_t>(rng.next_below(max_start + 1));
    fill_row(tokens.subspan(start, need), seq, b, out);
  }
  return out;
}

TEST(TextPipeline, ByteTokenizedTextTrainsTheModel) {
  // Real strings, one token per byte, into the transformer: a repetitive
  // text should be learnable to low loss quickly.
  const int vocab = 128;
  std::string text;
  for (int i = 0; i < 100; ++i) text += "the photon system trains llms. ";
  std::vector<int> ids;
  for (const unsigned char ch : text) {
    ids.push_back(SpecialTokens::kFirstContent +
                  ch % (vocab - SpecialTokens::kFirstContent));
  }
  TokenDataset ds(ids);

  ModelConfig mc = ModelConfig::nano();
  ASSERT_EQ(mc.vocab_size, vocab);
  mc.seq_len = 24;
  GptModel model(mc, 1);
  AdamW opt(model.num_params());
  Rng rng(2);
  float last = 0.0f, first = 0.0f;
  for (int step = 0; step < 60; ++step) {
    const Batch b = random_batch(ds.tokens(), rng, 4, mc.seq_len);
    model.zero_grad();
    const float loss = model.train_step_fb(b.tokens, b.targets, 4, mc.seq_len);
    clip_grad_norm(kernels::default_context(), model.grads(), 1.0);
    opt.step(kernels::default_context(), model.params(), model.grads(), 5e-3f);
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.6f);
}

TEST(DataPipeline, CachedMixedShardedStackFeedsClients) {
  CorpusConfig cc;
  cc.vocab_size = 128;
  auto web = std::make_shared<MarkovSource>(cc, pile_styles(0.5)[0]);
  auto prose = std::make_shared<MarkovSource>(cc, pile_styles(0.5)[2]);

  std::vector<std::unique_ptr<DataSource>> parts;
  parts.push_back(std::make_unique<CachedSource>(
      std::make_unique<CorpusStreamSource>(web, 1), 512));
  parts.push_back(std::make_unique<CorpusStreamSource>(prose, 2));
  auto mixer =
      std::make_unique<StreamMixer>(std::move(parts), std::vector<double>{2, 1}, 3);

  const Batch b = mixer->next_batch(4, 32);
  EXPECT_EQ(b.tokens.size(), 128u);
  for (int t : b.tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 128);
  }
  // Mixing ratio visible in the token accounting after a longer pull.
  std::vector<int> sink;
  mixer->next_tokens(6000, sink);
  const auto& drawn = mixer->tokens_per_source();
  EXPECT_GT(drawn[0], drawn[1]);
}

TEST(WallTime, Table2ReconstructionFed7B) {
  // The reconstruction logic used by bench_table2: fed-7B comm time from
  // paper inputs must land at ~0.1 h as the paper reports.
  WallTimeModel model(1250.0);
  const double s_mb = model_size_mb(ModelConfig::paper_7b().num_params(), 2.0);
  const double fed_steps = 95.5 * 3600.0 * paper_throughput_7b().federated_bps;
  const double rounds = fed_steps / 500.0;
  const double comm_h =
      model.comm_time(Topology::kRingAllReduce, 4, s_mb) * rounds / 3600.0;
  EXPECT_NEAR(comm_h, 0.1, 0.03);
}

TEST(QuantizedAggregation, FederatedMeanSurvivesInt8) {
  // Send per-client updates as q8 (int8 blockwise) wire messages, average
  // what the server decodes, compare with the exact mean: the end-to-end
  // error stays tiny relative to the update magnitude.
  Rng rng(11);
  constexpr int kClients = 8;
  constexpr std::size_t kN = 4096;
  std::vector<double> exact(kN, 0.0), approx(kN, 0.0);
  for (int c = 0; c < kClients; ++c) {
    Message m;
    m.type = MessageType::kClientUpdate;
    m.sender = static_cast<std::uint32_t>(c);
    m.codec = "q8";
    m.payload.resize(kN);
    for (auto& x : m.payload) x = rng.gaussian(0.0f, 0.02f);
    const Message back = Message::decode(m.encode());
    ASSERT_EQ(back.payload.size(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
      exact[i] += m.payload[i] / kClients;
      approx[i] += back.payload[i] / kClients;
    }
  }
  double err = 0.0, mag = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    err += std::abs(approx[i] - exact[i]);
    mag += std::abs(exact[i]);
  }
  EXPECT_GT(err, 0.0);        // q8 is lossy...
  EXPECT_LT(err / mag, 0.05);  // ...but < 5% relative L1 error on the mean
}

TEST(Corpus, SeparateStyleStreamsYieldDifferentPerplexityUnderOneModel) {
  // A model trained on one style should evaluate better on its own style
  // than on a divergent one — the signal behind Fig. 7.
  CorpusConfig cc;
  cc.vocab_size = 128;
  const auto styles = pile_styles(0.0);
  auto own = std::make_shared<MarkovSource>(cc, styles[0]);
  auto other = std::make_shared<MarkovSource>(cc, styles[1]);

  ModelConfig mc = ModelConfig::nano();
  mc.seq_len = 24;
  GptModel model(mc, 5);
  AdamW opt(model.num_params());
  CorpusStreamSource stream(own, 3);
  for (int step = 0; step < 150; ++step) {
    const Batch b = stream.next_batch(4, mc.seq_len);
    model.zero_grad();
    model.train_step_fb(b.tokens, b.targets, 4, mc.seq_len);
    clip_grad_norm(kernels::default_context(), model.grads(), 1.0);
    opt.step(kernels::default_context(), model.params(), model.grads(), 5e-3f);
  }
  CorpusStreamSource own_eval(own, 99), other_eval(other, 99);
  const Batch b_own = own_eval.next_batch(8, mc.seq_len);
  const Batch b_other = other_eval.next_batch(8, mc.seq_len);
  const float own_loss = model.eval_loss(b_own.tokens, b_own.targets, 8, mc.seq_len);
  const float other_loss =
      model.eval_loss(b_other.tokens, b_other.targets, 8, mc.seq_len);
  EXPECT_LT(own_loss + 0.2f, other_loss);
}

}  // namespace
}  // namespace photon
