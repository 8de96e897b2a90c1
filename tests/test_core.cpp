// core/: sampler, server optimizers, post-processing, metrics, checkpoints.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>

#include "core/checkpoint.hpp"
#include "core/metrics.hpp"
#include "core/postprocess.hpp"
#include "core/sampler.hpp"
#include "core/server_opt.hpp"
#include "util/rng.hpp"

namespace photon {
namespace {

// --------------------------------------------------------------- sampler --
TEST(ClientSampler, SamplesDistinctClientsDeterministically) {
  ClientSampler a(16, 7), b(16, 7);
  const auto s1 = a.sample(4, 3);
  const auto s2 = b.sample(4, 3);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 4u);
  std::set<int> uniq(s1.begin(), s1.end());
  EXPECT_EQ(uniq.size(), 4u);
  // Different rounds differ (with overwhelming probability for this seed).
  EXPECT_NE(a.sample(4, 4), s1);
}

TEST(ClientSampler, UniformCoverageAcrossRounds) {
  ClientSampler sampler(8, 3);
  std::vector<int> hits(8, 0);
  for (std::uint32_t r = 0; r < 2000; ++r) {
    for (int c : sampler.sample(2, r)) hits[static_cast<std::size_t>(c)]++;
  }
  for (int h : hits) EXPECT_NEAR(h, 500, 90);  // 2000*2/8
}

TEST(ClientSampler, RespectsAvailability) {
  ClientSampler sampler(4, 1);
  sampler.set_available(0, false);
  sampler.set_available(1, false);
  EXPECT_EQ(sampler.num_available(), 2);
  for (std::uint32_t r = 0; r < 20; ++r) {
    for (int c : sampler.sample(4, r)) EXPECT_GE(c, 2);
  }
  // Fewer available than requested: returns all available.
  EXPECT_EQ(sampler.sample(4, 0).size(), 2u);
}

TEST(ClientSampler, FullParticipationIsEveryone) {
  ClientSampler sampler(5, 9);
  const auto s = sampler.sample(5, 0);
  EXPECT_EQ(s, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ClientSampler, SaltDrawsIndependentCohortsForTheSameRound) {
  ClientSampler sampler(32, 7);
  const auto base = sampler.sample(4, 5);
  // Salt 0 is the historical cohort, bit-exactly.
  EXPECT_EQ(sampler.sample(4, 5, 0), base);
  // Non-zero salts (quorum-loss retries) draw fresh deterministic cohorts.
  const auto retry1 = sampler.sample(4, 5, 1);
  const auto retry2 = sampler.sample(4, 5, 2);
  EXPECT_NE(retry1, base);
  EXPECT_NE(retry2, retry1);
  EXPECT_EQ(sampler.sample(4, 5, 1), retry1);
}

TEST(ClientSampler, Validation) {
  EXPECT_THROW(ClientSampler(0, 1), std::invalid_argument);
  ClientSampler s(3, 1);
  EXPECT_THROW(s.sample(0, 0), std::invalid_argument);
  EXPECT_THROW(s.set_available(5, true), std::out_of_range);
}

// ------------------------------------------------------------ server opts --
TEST(FedAvgOpt, UnitLrIsPlainAveraging) {
  // theta' = theta - Delta, with Delta = theta - mean(theta_k):
  // theta' == mean of client models.  Photon's default.
  FedAvgOpt opt(1.0f);
  std::vector<float> params{1.0f, 2.0f};
  opt.apply(params, std::vector<float>{0.25f, -0.5f});
  EXPECT_FLOAT_EQ(params[0], 0.75f);
  EXPECT_FLOAT_EQ(params[1], 2.5f);
}

TEST(FedMomOpt, AccumulatesMomentum) {
  FedMomOpt opt(1.0f, 0.5f);
  std::vector<float> params{0.0f};
  opt.apply(params, std::vector<float>{1.0f});  // buf=1, p=-1
  EXPECT_FLOAT_EQ(params[0], -1.0f);
  opt.apply(params, std::vector<float>{1.0f});  // buf=1.5, p=-2.5
  EXPECT_FLOAT_EQ(params[0], -2.5f);
  opt.reset();
  opt.apply(params, std::vector<float>{1.0f});  // buf=1 again
  EXPECT_FLOAT_EQ(params[0], -3.5f);
}

TEST(NesterovOpt, MatchesHandComputation) {
  NesterovOpt opt(0.1f, 0.9f);
  std::vector<float> params{0.0f};
  opt.apply(params, std::vector<float>{1.0f});
  // buf=1; update=0.1*(1+0.9*1)=0.19.
  EXPECT_NEAR(params[0], -0.19f, 1e-6);
}

TEST(FedAdamOpt, FirstStepIsSignedLr) {
  FedAdamOpt opt(0.01f);
  std::vector<float> params{0.0f, 0.0f};
  opt.apply(params, std::vector<float>{0.5f, -2.0f});
  // Bias-corrected first Adam step ~ lr * sign(g).
  EXPECT_NEAR(params[0], -0.01f, 1e-4);
  EXPECT_NEAR(params[1], 0.01f, 1e-4);
}

TEST(ServerOptFactory, BuildsAllAndRejectsUnknown) {
  EXPECT_EQ(make_server_opt("fedavg", 1.0f, 0.0f)->name(), "fedavg");
  EXPECT_EQ(make_server_opt("fedmom", 1.0f, 0.9f)->name(), "fedmom");
  EXPECT_EQ(make_server_opt("nesterov", 0.1f, 0.9f)->name(), "nesterov");
  EXPECT_EQ(make_server_opt("fedadam", 0.01f, 0.0f)->name(), "fedadam");
  EXPECT_THROW(make_server_opt("sgd", 1.0f, 0.0f), std::invalid_argument);
}

TEST(ServerOpt, SizeMismatchThrows) {
  FedAvgOpt opt(1.0f);
  std::vector<float> params{1.0f};
  EXPECT_THROW(opt.apply(params, std::vector<float>{1.0f, 2.0f}),
               std::invalid_argument);
}

// ----------------------------------------------------------- postprocess --
TEST(PostProcess, ClipStageScalesToMaxNorm) {
  PostProcessPipeline pipe;
  pipe.add(std::make_unique<ClipStage>(1.0));
  std::vector<float> update{3.0f, 4.0f};
  const auto report = pipe.run(update);
  EXPECT_TRUE(report.clipped);
  EXPECT_NEAR(report.preclip_norm, 5.0, 1e-6);
  EXPECT_NEAR(std::hypot(update[0], update[1]), 1.0, 1e-5);

  std::vector<float> small{0.1f, 0.1f};
  const auto report2 = pipe.run(small);
  EXPECT_FALSE(report2.clipped);
  EXPECT_FLOAT_EQ(small[0], 0.1f);
}

TEST(PostProcess, DpNoisePerturbsWithExpectedScale) {
  PostProcessPipeline pipe;
  pipe.add(std::make_unique<DpNoiseStage>(/*multiplier=*/0.5, /*max_norm=*/2.0,
                                          /*seed=*/9));
  std::vector<float> update(5000, 0.0f);
  const auto report = pipe.run(update);
  EXPECT_DOUBLE_EQ(report.dp_noise_stddev, 1.0);
  double var = 0.0;
  for (float x : update) var += static_cast<double>(x) * x;
  var /= static_cast<double>(update.size());
  EXPECT_NEAR(std::sqrt(var), 1.0, 0.05);
}

TEST(PostProcess, CompressStageSelectsCodec) {
  PostProcessPipeline pipe;
  pipe.add(std::make_unique<CompressStage>("rle0"));
  std::vector<float> update{1.0f};
  EXPECT_EQ(pipe.run(update).codec, "rle0");
  EXPECT_THROW(CompressStage("gzip"), std::invalid_argument);
}

TEST(PostProcess, StagesRunInOrder) {
  PostProcessPipeline pipe;
  pipe.add(std::make_unique<ClipStage>(1.0));
  pipe.add(std::make_unique<DpNoiseStage>(0.1, 1.0, 3));
  pipe.add(std::make_unique<CompressStage>("rle0"));
  EXPECT_EQ(pipe.num_stages(), 3u);
  std::vector<float> update{10.0f, 0.0f};
  const auto report = pipe.run(update);
  EXPECT_TRUE(report.clipped);
  EXPECT_EQ(report.codec, "rle0");
  // Clip happened before noise: ||update|| ~ 1 + small noise, << 10.
  EXPECT_LT(std::hypot(update[0], update[1]), 2.0);
}

// ---------------------------------------------------------------- metrics --
TEST(Metrics, WeightedAggregation) {
  const std::vector<MetricDict> dicts{
      {{"loss", 2.0}, {"acc", 0.5}},
      {{"loss", 4.0}},
  };
  const auto agg = aggregate_metrics(dicts, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(agg.at("loss"), (2.0 + 12.0) / 4.0);
  EXPECT_DOUBLE_EQ(agg.at("acc"), 0.5);  // only one reporter
}

TEST(Metrics, HistoryQueries) {
  TrainingHistory h;
  RoundRecord r0;
  r0.round = 0;
  r0.eval_perplexity = 50.0;
  r0.tokens_this_round = 100;
  r0.sim_local_seconds = 10.0;
  r0.sim_comm_seconds = 1.0;
  h.add(r0);
  RoundRecord r1;
  r1.round = 1;
  r1.eval_perplexity = 30.0;
  r1.tokens_this_round = 100;
  r1.sim_local_seconds = 10.0;
  r1.sim_comm_seconds = 1.0;
  h.add(r1);

  EXPECT_EQ(h.first_round_reaching(35.0), 1);
  EXPECT_EQ(h.first_round_reaching(10.0), -1);
  EXPECT_EQ(h.tokens_through(0), 100u);
  EXPECT_EQ(h.tokens_through(1), 200u);
  EXPECT_DOUBLE_EQ(h.sim_seconds_to(35.0), 22.0);
  EXPECT_DOUBLE_EQ(h.sim_seconds_to(5.0), -1.0);
  EXPECT_DOUBLE_EQ(h.best_perplexity(), 30.0);
  EXPECT_DOUBLE_EQ(h.final_perplexity(), 30.0);
}

// -------------------------------------------------------------- checkpoint --
TEST(CheckpointStore, MemoryRingKeepsLastN) {
  CheckpointStore store({}, /*keep_last=*/2);
  const std::vector<float> p{1.0f, 2.0f};
  store.save(0, p);
  store.save(1, p);
  store.save(2, p);
  EXPECT_EQ(store.num_in_memory(), 2u);
  EXPECT_EQ(store.latest()->round, 2u);
  EXPECT_FALSE(store.at_round(0).has_value());
  EXPECT_TRUE(store.at_round(1).has_value());
}

TEST(CheckpointStore, DiskRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_ckpt_test";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(dir, 1);
    store.save(0, std::vector<float>{1.5f, -2.5f}, 33.0);
    store.save(7, std::vector<float>{9.0f}, 21.0);
  }
  CheckpointStore reader(dir, 1);
  // Memory is empty in the new store; round 0 must come from disk.
  const auto ckpt = reader.at_round(0);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->params, (std::vector<float>{1.5f, -2.5f}));
  EXPECT_DOUBLE_EQ(ckpt->eval_perplexity, 33.0);
  EXPECT_FALSE(reader.at_round(3).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, RecoveryMetadataRoundTripsThroughDisk) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_ckpt_meta_test";
  std::filesystem::remove_all(dir);
  Checkpoint ckpt;
  ckpt.round = 4;
  ckpt.params = {0.5f, 1.5f, 2.5f};
  ckpt.eval_perplexity = 12.0;
  ckpt.schedule_step_base = 40;
  ckpt.client_trained_rounds = {5, 0, 4, 5};
  ckpt.server_opt_state = {0xAB, 0xCD, 0x01};
  {
    CheckpointStore store(dir, 1);
    store.save(ckpt);
  }
  CheckpointStore reader(dir, 1);
  const auto back = reader.latest();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->round, 4u);
  EXPECT_EQ(back->params, ckpt.params);
  EXPECT_EQ(back->schedule_step_base, 40);
  EXPECT_EQ(back->client_trained_rounds, ckpt.client_trained_rounds);
  EXPECT_EQ(back->server_opt_state, ckpt.server_opt_state);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, LegacyDiskFormatStillReadable) {
  // Pre-journal checkpoints were (round, perplexity, params) with no magic;
  // a store must read them with "not recorded" metadata defaults.
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_ckpt_legacy_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    BinaryWriter w;
    w.write(static_cast<std::uint32_t>(6));  // round, far below the magic
    w.write(17.5);
    w.write_vector(std::vector<float>{3.0f, 4.0f});
    std::ofstream os(dir / "ckpt_6.bin", std::ios::binary);
    os.write(reinterpret_cast<const char*>(w.bytes().data()),
             static_cast<std::streamsize>(w.size()));
  }
  CheckpointStore reader(dir, 1);
  const auto ckpt = reader.latest();
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->round, 6u);
  EXPECT_DOUBLE_EQ(ckpt->eval_perplexity, 17.5);
  EXPECT_EQ(ckpt->params, (std::vector<float>{3.0f, 4.0f}));
  EXPECT_EQ(ckpt->schedule_step_base, -1);
  EXPECT_TRUE(ckpt->client_trained_rounds.empty());
  EXPECT_TRUE(ckpt->server_opt_state.empty());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, JournalTracksBeginAndCommitAcrossProcesses) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_journal_test";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(dir, 2);
    EXPECT_EQ(store.journal_last_committed(), -1);
    store.journal_begin(0);
    store.save(0, std::vector<float>{1.0f});
    store.journal_commit(0);
    store.journal_begin(1);
    store.save(1, std::vector<float>{2.0f});
    store.journal_commit(1);
    store.journal_begin(2);  // crash before round 2's commit
  }
  // A fresh store (fresh process) replays the journal: round 2 began but
  // never committed, so the recovery point is round 1.
  CheckpointStore recovered(dir, 2);
  EXPECT_EQ(recovered.journal_last_begun(), 2);
  EXPECT_EQ(recovered.journal_last_committed(), 1);
  const auto ckpt = recovered.at_round(1);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->params, (std::vector<float>{2.0f}));
  recovered.journal_recovered(2);
  EXPECT_EQ(recovered.journal().back(), "R 2");
  std::filesystem::remove_all(dir);
}

TEST(ServerOpt, StateSaveLoadRestoresMomentumExactly) {
  // A restored stateful optimizer must continue bit-identically: serialize
  // `a`'s momentum after one apply, load it into fresh `b`, then drive both
  // through the same gradient sequence on identical params.
  for (const char* name : {"fedmom", "nesterov", "fedadam"}) {
    auto a = make_server_opt(name, 0.5f, 0.9f);
    auto b = make_server_opt(name, 0.5f, 0.9f);
    const std::vector<float> g1{0.1f, -0.2f}, g2{0.3f, 0.4f};
    std::vector<float> warmup{1.0f, 2.0f};
    a->apply(warmup, g1);
    BinaryWriter w;
    a->save_state(w);
    BinaryReader r(w.bytes());
    b->load_state(r);
    std::vector<float> pa{5.0f, 6.0f}, pb{5.0f, 6.0f};
    a->apply(pa, g2);
    b->apply(pb, g2);
    EXPECT_EQ(pa, pb) << name;
    EXPECT_NE(pa, (std::vector<float>{5.0f, 6.0f})) << name;
  }
}

}  // namespace
}  // namespace photon
