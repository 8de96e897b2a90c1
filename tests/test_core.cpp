// core/: sampler, server optimizers, post-processing, metrics, checkpoints.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <span>

#include "comm/message.hpp"
#include "core/checkpoint.hpp"
#include "core/metrics.hpp"
#include "core/postprocess.hpp"
#include "core/sampler.hpp"
#include "core/server_opt.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"

namespace photon {
namespace {

// --------------------------------------------------------------- sampler --
std::vector<MembershipState> all_active(int population) {
  return std::vector<MembershipState>(static_cast<std::size_t>(population),
                                      MembershipState::kActive);
}

TEST(ClientSampler, SamplesDistinctClientsDeterministically) {
  ClientSampler a(16, 7), b(16, 7);
  const auto active = all_active(16);
  const auto s1 = a.sample(active, 4, 3);
  const auto s2 = b.sample(active, 4, 3);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 4u);
  std::set<int> uniq(s1.begin(), s1.end());
  EXPECT_EQ(uniq.size(), 4u);
  // Different rounds differ (with overwhelming probability for this seed).
  EXPECT_NE(a.sample(active, 4, 4), s1);
}

TEST(ClientSampler, UniformCoverageAcrossRounds) {
  ClientSampler sampler(8, 3);
  const auto active = all_active(8);
  std::vector<int> hits(8, 0);
  for (std::uint32_t r = 0; r < 2000; ++r) {
    for (int c : sampler.sample(active, 2, r)) {
      hits[static_cast<std::size_t>(c)]++;
    }
  }
  for (int h : hits) EXPECT_NEAR(h, 500, 90);  // 2000*2/8
}

TEST(ClientSampler, RespectsAvailability) {
  ClientSampler sampler(4, 1);
  const std::vector<MembershipState> membership{
      MembershipState::kAbsent, MembershipState::kLeft,
      MembershipState::kActive, MembershipState::kActive};
  for (std::uint32_t r = 0; r < 20; ++r) {
    for (int c : sampler.sample(membership, 4, r)) EXPECT_GE(c, 2);
  }
  // Fewer available than requested: returns all available.
  EXPECT_EQ(sampler.sample(membership, 4, 0).size(), 2u);
}

TEST(ClientSampler, FullParticipationIsEveryone) {
  ClientSampler sampler(5, 9);
  const auto s = sampler.sample(all_active(5), 5, 0);
  EXPECT_EQ(s, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ClientSampler, SaltDrawsIndependentCohortsForTheSameRound) {
  ClientSampler sampler(32, 7);
  const auto active = all_active(32);
  const auto base = sampler.sample(active, 4, 5);
  // Salt 0 is the historical cohort, bit-exactly.
  EXPECT_EQ(sampler.sample(active, 4, 5, 0), base);
  // Non-zero salts (quorum-loss retries) draw fresh deterministic cohorts.
  const auto retry1 = sampler.sample(active, 4, 5, 1);
  const auto retry2 = sampler.sample(active, 4, 5, 2);
  EXPECT_NE(retry1, base);
  EXPECT_NE(retry2, retry1);
  EXPECT_EQ(sampler.sample(active, 4, 5, 1), retry1);
}

TEST(ClientSampler, Validation) {
  EXPECT_THROW(ClientSampler(0, 1), std::invalid_argument);
  ClientSampler s(3, 1);
  EXPECT_THROW(s.sample(all_active(3), 0, 0), std::invalid_argument);
  EXPECT_THROW(s.sample(all_active(5), 1, 0), std::out_of_range);
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

TEST(ServerOptFactory, BuildsAllAndRejectsUnknown) {
  EXPECT_EQ(make_server_opt("fedavg", 1.0f, 0.0f)->name(), "fedavg");
  EXPECT_EQ(make_server_opt("fedmom", 1.0f, 0.9f)->name(), "fedmom");
  EXPECT_EQ(make_server_opt("nesterov", 0.1f, 0.9f)->name(), "nesterov");
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
  const ClipStage clip(1.0);
  std::vector<float> update{3.0f, 4.0f};
  PostProcessReport report;
  clip.apply(update, report);
  EXPECT_TRUE(report.clipped);
  EXPECT_NEAR(report.preclip_norm, 5.0, 1e-6);
  EXPECT_NEAR(std::hypot(update[0], update[1]), 1.0, 1e-5);

  std::vector<float> small{0.1f, 0.1f};
  PostProcessReport report2;
  clip.apply(small, report2);
  EXPECT_FALSE(report2.clipped);
  EXPECT_FLOAT_EQ(small[0], 0.1f);
}

TEST(PostProcess, DpNoisePerturbsWithExpectedScale) {
  const DpNoiseStage noise(/*multiplier=*/0.5, /*max_norm=*/2.0, /*seed=*/9);
  std::vector<float> update(5000, 0.0f);
  PostProcessReport report;
  noise.apply(update, report, {});
  EXPECT_DOUBLE_EQ(report.dp_noise_stddev, 1.0);
  double var = 0.0;
  for (float x : update) var += static_cast<double>(x) * x;
  var /= static_cast<double>(update.size());
  EXPECT_NEAR(std::sqrt(var), 1.0, 0.05);
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
  h.add(r0);
  RoundRecord r1;
  r1.round = 1;
  r1.eval_perplexity = 30.0;
  h.add(r1);

  EXPECT_EQ(h.first_round_reaching(35.0), 1);
  EXPECT_EQ(h.first_round_reaching(10.0), -1);
  EXPECT_DOUBLE_EQ(h.final_perplexity(), 30.0);
}

// -------------------------------------------------------------- checkpoint --
Checkpoint params_checkpoint(std::uint32_t round, std::vector<float> params) {
  Checkpoint ckpt;
  ckpt.round = round;
  ckpt.params = std::move(params);
  return ckpt;
}

std::filesystem::path fresh_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CheckpointStore, MemoryStoreKeepsOnlyTheLatestSave) {
  CheckpointStore memory;
  memory.save(params_checkpoint(0, {1.0f}));
  memory.save(params_checkpoint(1, {2.0f}));
  EXPECT_EQ(memory.latest()->round, 1u);
  EXPECT_FALSE(memory.at_round(0).has_value());
  EXPECT_TRUE(memory.at_round(1).has_value());
  // With a directory the file is the only copy.
  const auto dir = fresh_dir("photon_ckpt_one_copy");
  CheckpointStore disk(dir);
  disk.save(params_checkpoint(2, {3.0f}));
  std::filesystem::remove(dir / "ckpt_2.bin");
  EXPECT_FALSE(disk.latest().has_value());
  EXPECT_FALSE(disk.at_round(2).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, DiskRoundTrip) {
  const auto dir = fresh_dir("photon_ckpt_test");
  {
    CheckpointStore store(dir);
    store.save(params_checkpoint(0, {1.5f, -2.5f}));
    store.save(params_checkpoint(7, {9.0f}));
  }
  CheckpointStore reader(dir);
  const auto ckpt = reader.at_round(0);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->params, (std::vector<float>{1.5f, -2.5f}));
  EXPECT_EQ(reader.latest()->round, 7u);
  EXPECT_FALSE(reader.at_round(3).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, RecoveryMetadataRoundTripsThroughDisk) {
  const auto dir = fresh_dir("photon_ckpt_meta_test");
  Checkpoint ckpt;
  ckpt.round = 4;
  ckpt.params = {0.5f, 1.5f, 2.5f};
  ckpt.sim_now = 40.25;
  ckpt.client_trained_rounds = {5, 0, 4, 5};
  ckpt.membership = {MembershipState::kActive, MembershipState::kAbsent,
                     MembershipState::kActive, MembershipState::kLeft};
  ckpt.link_stats.resize(4);
  ckpt.link_stats[2].wire_bytes = 4096;
  ckpt.link_stats[2].transfer_seconds = 0.125;
  ckpt.link_stats[3].backoff_seconds = 0.05;
  ckpt.server_opt_state = {0xAB, 0xCD, 0x01};
  {
    CheckpointStore store(dir);
    store.save(ckpt);
  }
  CheckpointStore reader(dir);
  const auto back = reader.latest();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->round, 4u);
  EXPECT_EQ(back->params, ckpt.params);
  EXPECT_EQ(back->sim_now, 40.25);
  EXPECT_EQ(back->client_trained_rounds, ckpt.client_trained_rounds);
  EXPECT_EQ(back->membership, ckpt.membership);
  EXPECT_EQ(back->link_stats, ckpt.link_stats);
  EXPECT_EQ(back->server_opt_state, ckpt.server_opt_state);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, SaveReplacesTheFileAtomically) {
  // A reader that opened ckpt_3.bin before round 3 is saved again keeps
  // reading the complete old image, and temporaries left by a crash
  // mid-write never change what loads.
  const auto dir = fresh_dir("photon_ckpt_atomic");
  CheckpointStore store(dir);
  store.save(params_checkpoint(3, {1.0f, 2.0f}));
  std::ifstream old_reader(dir / "ckpt_3.bin", std::ios::binary);
  store.save(params_checkpoint(3, std::vector<float>(4096, 7.0f)));
  const std::vector<std::uint8_t> old_bytes(
      (std::istreambuf_iterator<char>(old_reader)),
      std::istreambuf_iterator<char>());
  EXPECT_EQ(decode_checkpoint(old_bytes).params,
            (std::vector<float>{1.0f, 2.0f}));
  EXPECT_FALSE(std::filesystem::exists(dir / "ckpt_3.bin.tmp"));

  std::ofstream(dir / "ckpt_3.bin.tmp", std::ios::binary) << "torn";
  std::ofstream(dir / "ckpt_9.bin.tmp", std::ios::binary) << "torn";
  CheckpointStore reader(dir);
  EXPECT_EQ(reader.latest()->round, 3u);
  EXPECT_EQ(reader.at_round(3)->params.size(), 4096u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, JournalTracksBeginAndCommitAcrossProcesses) {
  const auto dir = fresh_dir("photon_journal_test");
  {
    CheckpointStore store(dir);
    EXPECT_EQ(store.journal_last_committed(), -1);
    store.journal_begin(0);
    store.save(params_checkpoint(0, {1.0f}));
    store.journal_commit(0);
    store.journal_begin(1);
    store.save(params_checkpoint(1, {2.0f}));
    store.journal_commit(1);
    store.journal_begin(2);  // crash before round 2's commit
  }
  // A fresh store (fresh process) replays the journal: round 2 began but
  // never committed, so the recovery point is round 1.
  CheckpointStore recovered(dir);
  EXPECT_EQ(recovered.journal_last_begun(), 2);
  EXPECT_EQ(recovered.journal_last_committed(), 1);
  const auto ckpt = recovered.at_round(1);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->params, (std::vector<float>{2.0f}));
  recovered.journal_recovered(2);
  EXPECT_EQ(recovered.journal().back(), "R 2");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------- image format --
/// A checkpoint with every section present: residuals, async state with a
/// q8 in-flight image and a failed slot, tuner and privacy state.
Checkpoint full_checkpoint() {
  Checkpoint c = params_checkpoint(5, {0.5f, -1.5f, 2.5f});
  c.sim_now = 12.5;
  c.client_trained_rounds = {5, 3};
  c.membership = {MembershipState::kActive, MembershipState::kLeft};
  c.link_stats.resize(2);
  LinkStats& l = c.link_stats[1];
  l.messages = 7;
  l.payload_bytes = 96;
  l.wire_bytes = 120;
  l.transfer_seconds = 0.75;
  l.retries = 2;
  l.send_failures = 1;
  l.corrupt_chunks = 1;
  l.aborted_messages = 1;
  l.deadline_misses = 1;
  l.backoff_seconds = 0.1;
  c.server_opt_state = {0xAB, 0xCD};
  c.client_ef_residuals = {{0.25f, -0.125f, 0.0f}, {}};
  AsyncAggregatorState& a = c.async_state.emplace();
  a.defer_counts = {0, 3};
  a.next_eligible = {0.0, 13.0};
  Message update;
  update.type = MessageType::kClientUpdate;
  update.codec = "q8";
  update.payload = {0.5f, -0.25f, 1.0f};
  update.metadata["loss"] = 3.5;
  AsyncInFlightSnapshot& u = a.in_flight.emplace_back();
  u.client = 1;
  u.arrive_time = 13.0;
  u.dispatch_version = 4;
  u.wave_id = 2;
  u.tokens = 32;
  u.mean_train_loss = 3.5;
  u.train_sim_seconds = 1.0;
  u.wire = update.encode();
  a.in_flight.emplace_back().failure_kind = 1;  // crashed: no image
  c.tuner_state = {1, 2, 3};
  PrivacyCheckpointState& p = c.privacy_state.emplace();
  p.accounted_rounds = 6;
  p.noise_multiplier = 0.5;
  p.delta = 1e-5;
  p.wave_counter = 2;
  p.shares_reconstructed_total = 1;
  return c;
}

TEST(CheckpointImage, EverySectionRoundTrips) {
  const Checkpoint c = full_checkpoint();
  const Checkpoint back = decode_checkpoint(encode_checkpoint(c));
  EXPECT_EQ(back.round, c.round);
  EXPECT_EQ(back.params, c.params);
  EXPECT_EQ(back.sim_now, c.sim_now);
  EXPECT_EQ(back.client_trained_rounds, c.client_trained_rounds);
  EXPECT_EQ(back.membership, c.membership);
  EXPECT_EQ(back.link_stats, c.link_stats);
  EXPECT_EQ(back.server_opt_state, c.server_opt_state);
  EXPECT_EQ(back.client_ef_residuals, c.client_ef_residuals);
  ASSERT_TRUE(back.async_state.has_value());
  EXPECT_EQ(back.async_state->defer_counts, c.async_state->defer_counts);
  EXPECT_EQ(back.async_state->next_eligible, c.async_state->next_eligible);
  ASSERT_EQ(back.async_state->in_flight.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const AsyncInFlightSnapshot& x = c.async_state->in_flight[i];
    const AsyncInFlightSnapshot& y = back.async_state->in_flight[i];
    EXPECT_EQ(y.client, x.client);
    EXPECT_EQ(y.arrive_time, x.arrive_time);
    EXPECT_EQ(y.dispatch_version, x.dispatch_version);
    EXPECT_EQ(y.wave_id, x.wave_id);
    EXPECT_EQ(y.failure_kind, x.failure_kind);
    EXPECT_EQ(y.tokens, x.tokens);
    EXPECT_EQ(y.mean_train_loss, x.mean_train_loss);
    EXPECT_EQ(y.train_sim_seconds, x.train_sim_seconds);
    EXPECT_EQ(y.wire, x.wire);
  }
  EXPECT_EQ(back.tuner_state, c.tuner_state);
  ASSERT_TRUE(back.privacy_state.has_value());
  EXPECT_EQ(back.privacy_state->accounted_rounds, 6u);
  EXPECT_EQ(back.privacy_state->noise_multiplier, 0.5);
  EXPECT_EQ(back.privacy_state->delta, 1e-5);
  EXPECT_EQ(back.privacy_state->wave_counter, 2u);
  EXPECT_EQ(back.privacy_state->shares_reconstructed_total, 1u);

  // Absent parts have no section and come back absent.
  const Checkpoint bare =
      decode_checkpoint(encode_checkpoint(params_checkpoint(1, {4.0f})));
  EXPECT_EQ(bare.params, (std::vector<float>{4.0f}));
  EXPECT_TRUE(bare.client_ef_residuals.empty());
  EXPECT_FALSE(bare.async_state.has_value());
  EXPECT_TRUE(bare.tuner_state.empty());
  EXPECT_FALSE(bare.privacy_state.has_value());
}

TEST(CheckpointImage, EveryTruncationAndBitFlipThrows) {
  // A torn write or a flipped bit anywhere must fail loudly and typed,
  // never load as a checkpoint silently missing a part.
  const std::vector<std::uint8_t> image = encode_checkpoint(full_checkpoint());
  const std::span<const std::uint8_t> whole(image);
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_THROW(decode_checkpoint(whole.first(len)), std::runtime_error)
        << "truncated to " << len;
  }
  for (std::size_t bit = 0; bit < image.size() * 8; ++bit) {
    std::vector<std::uint8_t> flipped = image;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(decode_checkpoint(flipped), std::runtime_error)
        << "bit " << bit;
  }
}

/// Each section of a checkpoint image verbatim: u32 tag, u64 length, body.
using Section = std::vector<std::uint8_t>;
constexpr std::size_t kSectionHeader = 12;

std::vector<Section> split_sections(const std::vector<std::uint8_t>& image) {
  std::vector<Section> out;
  std::size_t at = sizeof(std::uint32_t);  // past the magic
  while (at + sizeof(std::uint32_t) < image.size()) {  // up to the CRC
    std::uint64_t len = 0;
    std::memcpy(&len, image.data() + at + 4, sizeof(len));
    const std::size_t end = at + kSectionHeader + len;
    out.emplace_back(image.begin() + static_cast<std::ptrdiff_t>(at),
                     image.begin() + static_cast<std::ptrdiff_t>(end));
    at = end;
  }
  return out;
}

/// `magic`, `sections`, then their CRC: a well-formed envelope, so only the
/// structural checks behind the CRC can reject it.
std::vector<std::uint8_t> assemble(std::uint32_t magic,
                                   const std::vector<Section>& sections) {
  BinaryWriter w;
  w.write(magic);
  for (const Section& s : sections) w.write_raw(s);
  w.write(crc32(w.bytes()));
  return w.take();
}

Section with_body_size(Section s, std::size_t body) {
  s.resize(kSectionHeader + body);
  const auto len = static_cast<std::uint64_t>(body);
  std::memcpy(s.data() + 4, &len, sizeof(len));
  return s;
}

TEST(CheckpointImage, MalformedSectionsThrowBehindAValidCrc) {
  const std::vector<std::uint8_t> image = encode_checkpoint(full_checkpoint());
  std::uint32_t magic = 0;
  std::memcpy(&magic, image.data(), sizeof(magic));
  const std::vector<Section> sections = split_sections(image);
  ASSERT_EQ(sections.size(), 6u);  // meta, params, residuals, async, tuner, privacy
  ASSERT_EQ(assemble(magic, sections), image);
  const auto rejects = [&](const std::vector<Section>& s, std::uint32_t m,
                           const char* what) {
    EXPECT_THROW(decode_checkpoint(assemble(m, s)), std::runtime_error)
        << what;
  };
  rejects(sections, magic ^ 1u, "bad magic");
  std::vector<Section> repeated = sections;
  repeated.push_back(sections[4]);
  rejects(repeated, magic, "repeated section");
  std::vector<Section> unknown = sections;
  unknown[4][0] ^= 0x20;  // "TUNE" -> "tUNE"
  rejects(unknown, magic, "unknown section");
  for (const std::size_t required : {0u, 1u}) {
    std::vector<Section> missing = sections;
    missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(required));
    rejects(missing, magic, "missing metadata or params");
  }
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const std::size_t body = sections[i].size() - kSectionHeader;
    std::vector<Section> longer = sections;
    longer[i] = with_body_size(sections[i], body + 1);
    rejects(longer, magic, "body not consumed");
    std::vector<Section> shorter = sections;
    shorter[i] = with_body_size(sections[i], body - 1);
    rejects(shorter, magic, "body too short");
  }
  // Only the metadata and params sections are mandatory.
  EXPECT_NO_THROW(decode_checkpoint(assemble(magic, {sections[0], sections[1]})));
}

TEST(CheckpointImage, MembershipByteNamingNoStateThrows) {
  // Behind a valid CRC, a lifecycle byte past kLeft is refused at decode,
  // never cast into a state the engine has no transitions for.
  Checkpoint c = full_checkpoint();
  c.membership[1] = static_cast<MembershipState>(3);
  EXPECT_THROW(decode_checkpoint(encode_checkpoint(c)), std::runtime_error);
  c.membership[1] = MembershipState::kAbsent;
  EXPECT_EQ(decode_checkpoint(encode_checkpoint(c)).membership, c.membership);
}

TEST(ServerOpt, StateSaveLoadRestoresMomentumExactly) {
  // A restored stateful optimizer must continue bit-identically: serialize
  // `a`'s momentum after one apply, load it into fresh `b`, then drive both
  // through the same gradient sequence on identical params.
  for (const char* name : {"fedmom", "nesterov"}) {
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
