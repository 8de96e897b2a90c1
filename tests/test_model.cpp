// Whole-model correctness: end-to-end gradient check against finite
// differences, tied-embedding behavior, determinism, and "it actually
// learns".

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace photon {
namespace {

ModelConfig grad_check_config() {
  ModelConfig c;
  c.n_layers = 2;
  c.d_model = 8;
  c.n_heads = 2;
  c.vocab_size = 12;
  c.seq_len = 5;
  c.expansion_ratio = 2;
  return c;
}

TEST(GptModel, ParamCountMatchesFormula) {
  const ModelConfig c = grad_check_config();
  GptModel model(c, 1);
  EXPECT_EQ(static_cast<std::int64_t>(model.num_params()), c.num_params());
  // Views exactly tile the flat buffer.
  std::size_t covered = 0;
  for (const auto& v : model.param_views()) covered += v.size;
  EXPECT_EQ(covered, model.num_params());
}

TEST(GptModel, GradientMatchesFiniteDifferences) {
  const ModelConfig c = grad_check_config();
  GptModel model(c, 42);
  Rng rng(7);
  const int batch = 2, seq = c.seq_len;
  std::vector<int> tokens(static_cast<std::size_t>(batch) * seq);
  std::vector<int> targets(tokens.size());
  for (auto& t : tokens) {
    t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(c.vocab_size)));
  }
  for (auto& t : targets) {
    t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(c.vocab_size)));
  }
  targets[1] = -1;  // exercise the ignore path

  model.zero_grad();
  model.train_step_fb(tokens, targets, batch, seq);
  const std::vector<float> grads(model.grads().begin(), model.grads().end());

  // Probe a deterministic spread of parameters across every named view.
  const float eps = 1e-2f;
  int checked = 0;
  for (const auto& view : model.param_views()) {
    for (const std::size_t rel : {std::size_t{0}, view.size / 2}) {
      const std::size_t i = view.offset + rel;
      auto params = model.params();
      const float saved = params[i];
      params[i] = saved + eps;
      const float lp = model.eval_loss(tokens, targets, batch, seq);
      params[i] = saved - eps;
      const float lm = model.eval_loss(tokens, targets, batch, seq);
      params[i] = saved;
      const double num = (static_cast<double>(lp) - lm) / (2.0 * eps);
      EXPECT_NEAR(grads[i], num, 5e-2 + 0.05 * std::abs(num))
          << view.name << "[" << rel << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(GptModel, TiedEmbeddingGetsBothGradientContributions) {
  // With targets on, wte receives gradients from both the embedding lookup
  // and the LM head; untie-by-proxy: gradient of an embedding row of an
  // UNUSED token must still be nonzero (LM head contribution over logits).
  const ModelConfig c = grad_check_config();
  GptModel model(c, 5);
  const int batch = 1, seq = c.seq_len;
  std::vector<int> tokens(static_cast<std::size_t>(seq), 1);
  std::vector<int> targets(static_cast<std::size_t>(seq), 2);
  model.zero_grad();
  model.train_step_fb(tokens, targets, batch, seq);
  // Token 7 never appears as input; its wte row still has LM-head gradient.
  const auto& view = model.param_views().front();
  ASSERT_EQ(view.name, "wte");
  double norm = 0.0;
  for (int j = 0; j < c.d_model; ++j) {
    const float g = model.grads()[view.offset +
                                  static_cast<std::size_t>(7) * c.d_model + j];
    norm += static_cast<double>(g) * g;
  }
  EXPECT_GT(norm, 0.0);
}

TEST(GptModel, DeterministicConstructionAndForward) {
  const ModelConfig c = grad_check_config();
  GptModel a(c, 99), b(c, 99);
  ASSERT_EQ(a.num_params(), b.num_params());
  for (std::size_t i = 0; i < a.num_params(); ++i) {
    ASSERT_FLOAT_EQ(a.params()[i], b.params()[i]);
  }
  std::vector<int> tokens(static_cast<std::size_t>(c.seq_len), 3);
  std::vector<int> targets(static_cast<std::size_t>(c.seq_len), 4);
  EXPECT_FLOAT_EQ(a.eval_loss(tokens, targets, 1, c.seq_len),
                  b.eval_loss(tokens, targets, 1, c.seq_len));
}

TEST(GptModel, DifferentSeedsDifferentInit) {
  const ModelConfig c = grad_check_config();
  GptModel a(c, 1), b(c, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.num_params() && !any_diff; ++i) {
    any_diff = a.params()[i] != b.params()[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(GptModel, InitialLossNearUniform) {
  const ModelConfig c = grad_check_config();
  GptModel model(c, 11);
  Rng rng(3);
  std::vector<int> tokens(static_cast<std::size_t>(4) * c.seq_len);
  std::vector<int> targets(tokens.size());
  for (auto& t : tokens) t = static_cast<int>(rng.next_below(c.vocab_size));
  for (auto& t : targets) t = static_cast<int>(rng.next_below(c.vocab_size));
  const float loss = model.eval_loss(tokens, targets, 4, c.seq_len);
  EXPECT_NEAR(loss, std::log(static_cast<float>(c.vocab_size)), 0.3f);
}

TEST(GptModel, LearnsMarkovCorpus) {
  ModelConfig c = ModelConfig::nano();
  c.seq_len = 24;
  GptModel model(c, 33);
  AdamW opt(model.num_params());

  CorpusConfig cc;
  cc.vocab_size = c.vocab_size;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  CorpusStreamSource stream(corpus, 77);

  const int batch = 4;
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 120; ++step) {
    const Batch b = stream.next_batch(batch, c.seq_len);
    model.zero_grad();
    const float loss = model.train_step_fb(b.tokens, b.targets, batch, c.seq_len);
    clip_grad_norm(kernels::default_context(), model.grads(), 1.0);
    opt.step(kernels::default_context(), model.params(), model.grads(), 5e-3f);
    if (step == 0) first_loss = loss;
    last_loss = loss;
  }
  // Random-token loss is log(128) ~ 4.85; the chain's entropy floor is far
  // lower, so a learning model must cut loss substantially.
  EXPECT_LT(last_loss, first_loss - 1.0f);
}

TEST(GptModel, RejectsOutOfRangeTokens) {
  const ModelConfig c = grad_check_config();
  GptModel model(c, 1);
  std::vector<int> tokens(static_cast<std::size_t>(c.seq_len), c.vocab_size);
  std::vector<int> targets(static_cast<std::size_t>(c.seq_len), 0);
  EXPECT_THROW(model.eval_loss(tokens, targets, 1, c.seq_len),
               std::out_of_range);
}

TEST(GptModel, GradAccumulationAcrossCalls) {
  // Two forward/backward calls without zero_grad accumulate exactly.
  const ModelConfig c = grad_check_config();
  GptModel model(c, 8);
  Rng rng(5);
  std::vector<int> tokens(static_cast<std::size_t>(c.seq_len));
  std::vector<int> targets(tokens.size());
  for (auto& t : tokens) t = static_cast<int>(rng.next_below(c.vocab_size));
  for (auto& t : targets) t = static_cast<int>(rng.next_below(c.vocab_size));

  model.zero_grad();
  model.train_step_fb(tokens, targets, 1, c.seq_len);
  const std::vector<float> once(model.grads().begin(), model.grads().end());
  model.train_step_fb(tokens, targets, 1, c.seq_len);
  for (std::size_t i = 0; i < once.size(); i += 97) {
    EXPECT_NEAR(model.grads()[i], 2.0f * once[i],
                1e-5f + 1e-4f * std::abs(once[i]));
  }
}

}  // namespace
}  // namespace photon
