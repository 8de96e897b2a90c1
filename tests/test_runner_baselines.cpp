// End-to-end runs: PhotonRunner federated training improves perplexity and
// honors its controls; centralized and DiLoCo baselines behave as the paper
// describes.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "baselines/centralized.hpp"
#include "baselines/diloco.hpp"
#include "core/runner.hpp"

namespace photon {
namespace {

RunnerConfig fast_runner_config() {
  RunnerConfig rc;
  rc.model = ModelConfig::nano();
  rc.population = 2;
  rc.local_steps = 8;
  rc.local_batch = 2;
  rc.rounds = 12;
  rc.eval_every = 4;
  rc.eval_batches = 2;
  rc.eval_batch_size = 4;
  rc.max_lr = 8e-3f;
  rc.warmup_steps = 8;
  rc.seed = 71;
  return rc;
}

TEST(PhotonRunner, FederatedTrainingReducesPerplexity) {
  PhotonRunner runner(fast_runner_config());
  const double before = runner.evaluate_now();
  const TrainingHistory& h = runner.run();
  EXPECT_FALSE(h.empty());
  const double after = h.final_perplexity();
  EXPECT_GT(after, 0.0);
  EXPECT_LT(after, before * 0.8);  // at least 20% perplexity reduction
}

TEST(PhotonRunner, TargetPerplexityStopsEarly) {
  RunnerConfig rc = fast_runner_config();
  rc.target_perplexity = 1e9;  // trivially reached at first eval
  PhotonRunner runner(rc);
  const TrainingHistory& h = runner.run();
  EXPECT_EQ(h.records().size(), static_cast<std::size_t>(rc.eval_every));
}

TEST(PhotonRunner, HeterogeneousDataStillTrains) {
  RunnerConfig rc = fast_runner_config();
  rc.population = 4;
  rc.heterogeneity_blend = 0.3;
  PhotonRunner runner(rc);
  const double before = runner.evaluate_now();
  const TrainingHistory& h = runner.run();
  EXPECT_LT(h.final_perplexity(), before);
}

TEST(PhotonRunner, PartialParticipationRuns) {
  RunnerConfig rc = fast_runner_config();
  rc.population = 4;
  rc.clients_per_round = 2;
  PhotonRunner runner(rc);
  const TrainingHistory& h = runner.run();
  for (const auto& rec : h.records()) {
    EXPECT_EQ(rec.participants.size(), 2u);
  }
}

TEST(PhotonRunner, DeterministicAcrossIdenticalRuns) {
  RunnerConfig rc = fast_runner_config();
  rc.rounds = 4;
  PhotonRunner a(rc), b(rc);
  a.run();
  b.run();
  const auto& ra = a.aggregator().history().records();
  const auto& rb = b.aggregator().history().records();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra[i].mean_train_loss, rb[i].mean_train_loss);
    EXPECT_DOUBLE_EQ(ra[i].eval_perplexity, rb[i].eval_perplexity);
  }
}

TEST(PhotonRunner, RejectsNonPositiveEvalEvery) {
  // run() takes (r + 1) % eval_every; the constructor must refuse 0 first.
  RunnerConfig rc = fast_runner_config();
  for (const int every : {0, -4}) {
    rc.eval_every = every;
    EXPECT_THROW(PhotonRunner{rc}, std::invalid_argument) << every;
  }
}

TEST(CentralizedTrainer, LearnsAndRecordsHistory) {
  CentralizedConfig cc;
  cc.model = ModelConfig::nano();
  cc.batch = 4;
  cc.steps = 96;
  cc.eval_every = 32;
  cc.eval_batches = 2;
  cc.eval_batch_size = 4;
  cc.max_lr = 8e-3f;
  cc.warmup_steps = 8;
  cc.seed = 5;
  CentralizedTrainer trainer(cc);
  const CentralizedResult result = trainer.run();
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.steps_run, 96);
  ASSERT_GE(result.history.records().size(), 2u);
  const auto& recs = result.history.records();
  EXPECT_LT(recs.back().eval_perplexity, recs.front().eval_perplexity);
}

TEST(CentralizedTrainer, DetectsDivergenceAtAbsurdLr) {
  CentralizedConfig cc;
  cc.model = ModelConfig::nano();
  cc.batch = 2;
  cc.steps = 200;
  cc.max_lr = 30.0f;  // guaranteed blow-up
  cc.warmup_steps = 2;
  cc.eval_every = 10;
  cc.eval_batches = 2;
  cc.eval_batch_size = 4;
  cc.max_grad_norm = 1e9f;  // disable the safety net
  cc.divergence_loss = 10.0;
  cc.seed = 5;
  const CentralizedResult result = CentralizedTrainer(cc).run();
  EXPECT_TRUE(result.diverged);
  EXPECT_LT(result.steps_run, 200);
}

TEST(CentralizedTrainer, RejectsNonPositiveStepsBatchOrEvalEvery) {
  CentralizedConfig cc;
  cc.model = ModelConfig::nano();
  cc.eval_tokens = 1 << 10;
  for (const int bad : {0, -1}) {
    CentralizedConfig c = cc;
    c.eval_every = bad;
    EXPECT_THROW(CentralizedTrainer{c}, std::invalid_argument) << bad;
    c = cc;
    c.steps = bad;
    EXPECT_THROW(CentralizedTrainer{c}, std::invalid_argument) << bad;
    c = cc;
    c.batch = bad;
    EXPECT_THROW(CentralizedTrainer{c}, std::invalid_argument) << bad;
  }
}

TEST(DiLoCo, ConfigTransformsRecipeOnly) {
  RunnerConfig base = fast_runner_config();
  const RunnerConfig diloco = diloco_config(base, {0.1f, 0.9f});
  EXPECT_EQ(diloco.server_opt, "nesterov");
  EXPECT_FLOAT_EQ(diloco.server_lr, 0.1f);
  EXPECT_FLOAT_EQ(diloco.server_momentum, 0.9f);
  EXPECT_FALSE(diloco.stateless_optimizer);
  // Untouched fields preserved.
  EXPECT_EQ(diloco.population, base.population);
  EXPECT_EQ(diloco.local_steps, base.local_steps);
}

TEST(DiLoCo, RunsAndLearns) {
  RunnerConfig rc = diloco_config(fast_runner_config());
  PhotonRunner runner(rc);
  const double before = runner.evaluate_now();
  const TrainingHistory& h = runner.run();
  EXPECT_LT(h.final_perplexity(), before);
}

}  // namespace
}  // namespace photon
