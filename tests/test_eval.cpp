// eval/: perplexity math and the downstream probe suite.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "eval/perplexity.hpp"
#include "eval/probes.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace photon {
namespace {

ModelConfig probe_model_config() {
  ModelConfig c = ModelConfig::nano();
  c.seq_len = 32;
  return c;
}

std::shared_ptr<const MarkovSource> probe_corpus() {
  CorpusConfig cc;
  cc.vocab_size = 128;
  cc.branching = 6;  // low entropy: learnable quickly
  return std::make_shared<MarkovSource>(cc, c4_style());
}

TEST(Perplexity, UntrainedModelNearUniform) {
  const ModelConfig c = probe_model_config();
  GptModel model(c, 1);
  CorpusStreamSource stream(probe_corpus(), 3);
  const TokenDataset ds = materialize(stream, 4096);
  const EvalResult r = evaluate_perplexity(model, ds, 4, 4);
  EXPECT_NEAR(r.perplexity, c.vocab_size, 0.4 * c.vocab_size);
  EXPECT_NEAR(std::exp(r.mean_loss), r.perplexity, 1e-6);
  EXPECT_EQ(r.tokens, 4ull * 4ull * static_cast<std::uint64_t>(c.seq_len));
}

TEST(Perplexity, DeterministicAcrossCalls) {
  GptModel model(probe_model_config(), 1);
  CorpusStreamSource stream(probe_corpus(), 3);
  const TokenDataset ds = materialize(stream, 4096);
  const EvalResult a = evaluate_perplexity(model, ds, 3, 4);
  const EvalResult b = evaluate_perplexity(model, ds, 3, 4);
  EXPECT_DOUBLE_EQ(a.perplexity, b.perplexity);
}

TEST(Perplexity, ValidatesArguments) {
  GptModel model(probe_model_config(), 1);
  TokenDataset ds(std::vector<int>(4096, 5));
  EXPECT_THROW(evaluate_perplexity(model, ds, 0, 4), std::invalid_argument);
}

class TrainedModelProbes : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::shared_ptr<const MarkovSource>(probe_corpus());
    model_ = new GptModel(probe_model_config(), 77);
    // Train enough to be clearly better than random on the probes.
    AdamW opt(model_->num_params());
    CorpusStreamSource stream(*corpus_, 5);
    for (int step = 0; step < 250; ++step) {
      const Batch b = stream.next_batch(4, probe_model_config().seq_len);
      model_->zero_grad();
      model_->train_step_fb(b.tokens, b.targets, 4,
                            probe_model_config().seq_len);
      clip_grad_norm(kernels::default_context(), model_->grads(), 1.0);
      opt.step(kernels::default_context(), model_->params(), model_->grads(),
               5e-3f);
    }
  }
  static void TearDownTestSuite() {
    delete model_;
    delete corpus_;
    model_ = nullptr;
    corpus_ = nullptr;
  }

  static GptModel* model_;
  static std::shared_ptr<const MarkovSource>* corpus_;
};

GptModel* TrainedModelProbes::model_ = nullptr;
std::shared_ptr<const MarkovSource>* TrainedModelProbes::corpus_ = nullptr;

TEST_F(TrainedModelProbes, OptionLogLikelihoodPrefersLikelyTokens) {
  Rng rng(9);
  std::vector<int> context;
  (*corpus_)->generate(rng, 30, context);
  const auto row = (*corpus_)->transition_row(context.back());
  const int likely = static_cast<int>(
      std::max_element(row.begin(), row.end()) - row.begin());
  int unlikely = 4;
  while (row[static_cast<std::size_t>(unlikely)] != 0.0) ++unlikely;
  EXPECT_GT(option_log_likelihood(*model_, context, {likely}),
            option_log_likelihood(*model_, context, {unlikely}));
}

TEST_F(TrainedModelProbes, BigramClozeBeatsRandom) {
  ProbeConfig pc;
  pc.num_cases = 48;
  const ProbeResult r = run_bigram_cloze(*model_, **corpus_, pc);
  EXPECT_EQ(r.cases, 48);
  EXPECT_DOUBLE_EQ(r.random_baseline, 0.25);
  EXPECT_GT(r.accuracy, 0.5);  // should be far above the 0.25 baseline
}

TEST_F(TrainedModelProbes, ContinuationBeatsRandom) {
  ProbeConfig pc;
  pc.num_cases = 32;
  const ProbeResult r = run_continuation(*model_, **corpus_, pc);
  EXPECT_GT(r.accuracy, 0.4);
}

TEST_F(TrainedModelProbes, RunAllProducesThreeTasks) {
  ProbeConfig pc;
  pc.num_cases = 8;
  const auto all = run_all_probes(*model_, **corpus_, pc);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].task, "bigram-cloze");
  EXPECT_EQ(all[1].task, "induction-copy");
  EXPECT_EQ(all[2].task, "continuation");
}

TEST(Probes, UntrainedModelNearRandomBaseline) {
  GptModel fresh(probe_model_config(), 123);
  auto corpus = probe_corpus();
  ProbeConfig pc;
  pc.num_cases = 48;
  const ProbeResult r = run_bigram_cloze(fresh, *corpus, pc);
  EXPECT_LT(r.accuracy, 0.6);  // no training signal -> near 0.25
}

}  // namespace
}  // namespace photon
