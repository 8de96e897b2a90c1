// Elastic asynchronous federation (DESIGN.md §12): FedBuff-style buffered
// aggregation with staleness discounting, admission control, mid-run
// membership churn, and bit-exact mid-buffer crash recovery.
//
// The determinism twins here are the async engine's contract: serial and
// pool-parallel drains, and interrupted-and-restored vs uninterrupted runs,
// must produce bit-identical global parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "comm/link.hpp"
#include "comm/message.hpp"
#include "core/aggregator.hpp"
#include "core/checkpoint.hpp"
#include "core/client.hpp"
#include "core/membership.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"

namespace photon {
namespace {

ModelConfig tiny_model() {
  ModelConfig c;
  c.n_layers = 2;
  c.d_model = 16;
  c.n_heads = 2;
  c.vocab_size = 64;
  c.seq_len = 16;
  c.expansion_ratio = 2;
  return c;
}

ClientTrainConfig tiny_client_config() {
  ClientTrainConfig ctc;
  ctc.model = tiny_model();
  ctc.local_batch = 2;
  ctc.schedule.max_lr = 5e-3f;
  ctc.schedule.warmup_steps = 2;
  ctc.schedule.total_steps = 1000;
  return ctc;
}

std::unique_ptr<DataSource> tiny_stream(std::uint64_t seed) {
  CorpusConfig cc;
  cc.vocab_size = 64;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  return std::make_unique<CorpusStreamSource>(corpus, seed);
}

std::unique_ptr<Aggregator> build_async_aggregator(
    AggregatorConfig ac, int population = 4,
    const std::string& opt = "fedavg", bool ephemeral = false,
    const std::string& codec = "") {
  ac.async.enabled = true;
  ac.seed = 33;
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < population; ++i) {
    auto cfg = tiny_client_config();
    cfg.ephemeral = ephemeral;
    cfg.link_codec = codec;
    clients.push_back(std::make_unique<LLMClient>(
        i, cfg, tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
  }
  return std::make_unique<Aggregator>(tiny_model(), ac,
                                      make_server_opt(opt, 0.5f, 0.9f),
                                      std::move(clients), 55);
}

bool params_equal(const Aggregator& a, const Aggregator& b) {
  return a.global_params().size() == b.global_params().size() &&
         std::memcmp(a.global_params().data(), b.global_params().data(),
                     a.global_params().size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------- basic drains --
TEST(AsyncFederation, DrainRecordIsCoherent) {
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;  // asserts the plain single-pop drain shape
  ac.local_steps = 2;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 3;
  auto agg = build_async_aggregator(ac);
  const RoundRecord rec = agg->run_round();
  EXPECT_TRUE(rec.async_drain);
  EXPECT_EQ(rec.round, 0u);
  EXPECT_EQ(rec.server_version, 0u);
  EXPECT_EQ(rec.survivors, 3);
  EXPECT_EQ(rec.participants.size(), 3u);
  EXPECT_GT(rec.mean_train_loss, 0.0);
  EXPECT_GT(rec.update_norm, 0.0);
  EXPECT_GT(rec.comm_bytes, 0u);
  EXPECT_GT(agg->sim_now(), 0.0);
  EXPECT_EQ(agg->round(), 1u);
  // Drain 0 dispatches at version 0 and accepts at round 0: no staleness.
  EXPECT_EQ(rec.mean_staleness, 0.0);
  EXPECT_EQ(rec.max_staleness, 0u);
}

TEST(AsyncFederation, SurplusInFlightUpdatesCarryStalenessIntoNextDrain) {
  // buffer_goal 2 with 4 slots: the drain accepts 2 and leaves in-flight
  // work dispatched at the old version; the next drain accepts it at
  // version+1, so staleness shows up and the polynomial discount < 1.
  // (Secagg pops whole waves, never a surplus — plain path pinned.)
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 2;
  ac.async.max_in_flight = 4;
  auto agg = build_async_aggregator(ac);
  (void)agg->run_round();
  const RoundRecord rec1 = agg->run_round();
  EXPECT_GT(rec1.max_staleness, 0u);
  EXPECT_GT(rec1.mean_staleness, 0.0);
}

TEST(AsyncFederation, ConstantAndPolynomialStalenessWeightingDiverge) {
  // Needs the single-pop staleness profile; wave pops see no staleness
  // in this 2-drain window.
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 2;
  ac.async.max_in_flight = 4;
  auto poly = build_async_aggregator(ac);
  ac.async.staleness =
      AggregatorConfig::AsyncAggregation::StalenessWeight::kConstant;
  auto constant = build_async_aggregator(ac);
  for (int r = 0; r < 3; ++r) {
    (void)poly->run_round();
    (void)constant->run_round();
  }
  // Same dispatch/accept timeline, different discount: models must differ.
  EXPECT_FALSE(params_equal(*poly, *constant));
}

TEST(AsyncFederation, SecureAggregationDrainsMatchPlainClosely) {
  // Async + secagg drains whole dispatch waves through the masked ring;
  // with no faults the decoded drain must track the plain drain to
  // fixed-point rounding, and the record must flag the secure path.
  // buffer_goal = population so each drain is exactly one dispatch wave
  // (the wave is secagg's atomic accept unit; a partial-wave goal would
  // legitimately accept more members than the plain single-pop path).
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;  // the "plain" arm must stay plaintext
  ac.local_steps = 2;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 4;
  ac.async.max_in_flight = 4;
  auto plain = build_async_aggregator(ac);
  ac.secure_aggregation = true;
  auto secure = build_async_aggregator(ac);
  const RoundRecord rp = plain->run_round();
  const RoundRecord rs = secure->run_round();
  EXPECT_FALSE(rp.secure_round);
  EXPECT_TRUE(rs.secure_round);
  auto sp = rp.participants;
  auto ss = rs.participants;
  std::sort(sp.begin(), sp.end());
  std::sort(ss.begin(), ss.end());
  EXPECT_EQ(sp, ss);
  EXPECT_EQ(rs.secagg_dropouts_recovered, 0);
  // After one drain the two engines saw identical updates, so the decoded
  // masked mean must match the plain fp64 mean to fixed-point rounding.
  // (Later drains legitimately diverge: wave-atomic pops change the
  // re-admission timeline, so staleness profiles differ.)
  const std::span<const float> a = plain->global_params();
  const std::span<const float> b = secure->global_params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-6f) << "param " << i;
  }
  // A second secure drain keeps working and stays fault-free.
  const RoundRecord rs2 = secure->run_round();
  EXPECT_TRUE(rs2.secure_round);
  EXPECT_EQ(rs2.survivors, 4);
  EXPECT_EQ(rs2.secagg_dropouts_recovered, 0);
}

// ---------------------------------------------------- determinism twins --
TEST(AsyncFederation, SerialAndParallelDrainsAreBitIdentical) {
  AggregatorConfig ac;
  ac.local_steps = 2;
  ac.async.buffer_goal = 3;
  ac.async.max_in_flight = 6;
  ac.parallel_clients = false;
  auto serial = build_async_aggregator(ac, /*population=*/8);
  ac.parallel_clients = true;
  auto parallel = build_async_aggregator(ac, /*population=*/8);
  for (int r = 0; r < 3; ++r) {
    const RoundRecord rs = serial->run_round();
    const RoundRecord rp = parallel->run_round();
    EXPECT_EQ(rs.participants, rp.participants);
    EXPECT_EQ(rs.mean_staleness, rp.mean_staleness);
    EXPECT_EQ(rs.admission_deferred, rp.admission_deferred);
    ASSERT_TRUE(params_equal(*serial, *parallel)) << "drain " << r;
  }
}

TEST(AsyncFederation, ChurnedFaultedTwinsAreBitIdentical) {
  // The full gauntlet: crashes, stragglers, link drops, wire corruption,
  // and join/leave churn — serial vs pool-parallel must still agree bit
  // for bit, because every decision is content-keyed, never thread-keyed.
  FaultPlan plan;
  plan.crash_prob = 0.1;
  plan.straggle_prob = 0.3;
  plan.link_drop_prob = 0.05;
  plan.corrupt_prob = 0.05;
  plan.membership.initial_population = 6;
  plan.membership.arrive_prob = 0.3;
  plan.membership.leave_prob = 0.05;
  FaultInjector injector(plan);

  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.async.buffer_goal = 3;
  ac.async.max_in_flight = 5;
  ac.parallel_clients = false;
  auto serial = build_async_aggregator(ac, /*population=*/8);
  ac.parallel_clients = true;
  auto parallel = build_async_aggregator(ac, /*population=*/8);
  injector.install(*serial);
  injector.install(*parallel);
  for (int r = 0; r < 4; ++r) {
    const RoundRecord rs = serial->run_round();
    const RoundRecord rp = parallel->run_round();
    EXPECT_EQ(rs.participants, rp.participants);
    EXPECT_EQ(rs.crashed_clients, rp.crashed_clients);
    EXPECT_EQ(rs.arrivals, rp.arrivals);
    EXPECT_EQ(rs.departures, rp.departures);
    EXPECT_EQ(rs.discarded_updates, rp.discarded_updates);
    ASSERT_TRUE(params_equal(*serial, *parallel)) << "drain " << r;
  }
  EXPECT_EQ(serial->sim_now(), parallel->sim_now());
}

// ------------------------------------------------------ admission control --
TEST(AsyncFederation, InFlightCapDefersAdmissionDeterministically) {
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 4;
  ac.async.max_in_flight = 2;  // 8 hungry clients, 2 seats
  auto agg = build_async_aggregator(ac, /*population=*/8);
  auto twin = build_async_aggregator(ac, /*population=*/8);
  const RoundRecord rec = agg->run_round();
  const RoundRecord rec2 = twin->run_round();
  EXPECT_GT(rec.admission_deferred, 0u);
  EXPECT_EQ(rec.admission_deferred, rec2.admission_deferred);
  EXPECT_EQ(rec.participants, rec2.participants);
  EXPECT_EQ(rec.survivors, 4);
  EXPECT_EQ(agg->async_in_flight(), twin->async_in_flight());
}

// --------------------------------------------------------------- churn ----
TEST(AsyncFederation, ScheduledJoinBootstrapsNewClientMidRun) {
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 2;
  auto agg = build_async_aggregator(ac, /*population=*/3);
  MembershipPlan plan;
  plan.initial_population = 2;  // client 2 starts absent
  plan.scheduled.push_back({1, 2, MembershipAction::kArrive});
  agg->set_membership_plan(plan);
  EXPECT_EQ(agg->membership_state(2), MembershipState::kAbsent);
  EXPECT_EQ(agg->active_population(), 2);

  const RoundRecord r0 = agg->run_round();
  EXPECT_EQ(r0.arrivals, 0u);
  for (int c : r0.participants) EXPECT_NE(c, 2);

  const RoundRecord r1 = agg->run_round();
  EXPECT_EQ(r1.arrivals, 1u);
  EXPECT_EQ(agg->membership_state(2), MembershipState::kActive);
  EXPECT_EQ(agg->active_population(), 3);

  // The joiner is dispatched (bootstrapped via the ordinary broadcast) in
  // the drain it arrived in; its update lands in this drain's buffer or —
  // if the goal filled first — carries into the next as a stale accept.
  EXPECT_GT(agg->client_trained_rounds()[2], 0u);
  const RoundRecord r2 = agg->run_round();
  bool seen = false;
  for (int c : r1.participants) seen |= c == 2;
  for (int c : r2.participants) seen |= c == 2;
  EXPECT_TRUE(seen);
}

TEST(AsyncFederation, ScheduledLeaveIsPermanentAndInFlightWorkIsDiscarded) {
  // Single-pop surplus semantics; the secagg wave path has its own
  // leave-in-flight coverage in test_secure_agg.cpp.
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 2;
  ac.async.max_in_flight = 4;  // surplus stays in flight across the drain
  auto agg = build_async_aggregator(ac, /*population=*/4);
  // All four dispatch in drain 0 with identical fault-free timing, so the
  // buffer accepts the two lowest ids (arrival ties break on client id) and
  // leaves clients 2 and 3 in flight across the drain boundary — exactly
  // the clients the plan then removes.
  MembershipPlan plan;
  plan.scheduled.push_back({1, 2, MembershipAction::kLeave});
  plan.scheduled.push_back({1, 3, MembershipAction::kLeave});
  agg->set_membership_plan(plan);

  const RoundRecord r0 = agg->run_round();
  EXPECT_EQ(r0.participants, (std::vector<int>{0, 1}));
  EXPECT_EQ(agg->async_in_flight(), 2);

  const RoundRecord r1 = agg->run_round();
  EXPECT_EQ(r1.departures, 2u);
  EXPECT_EQ(agg->membership_state(2), MembershipState::kLeft);
  EXPECT_EQ(agg->membership_state(3), MembershipState::kLeft);
  EXPECT_EQ(agg->active_population(), 2);
  // The departed clients' in-flight updates arrive first (their dispatch
  // predates the drain) and must be discarded, never aggregated.
  EXPECT_EQ(r1.discarded_updates, 2u);

  for (int r = 2; r < 4; ++r) {
    const RoundRecord rec = agg->run_round();
    for (int c : rec.participants) {
      EXPECT_NE(c, 2);
      EXPECT_NE(c, 3);
    }
  }
}

// ------------------------------------------------------- crash recovery ---
TEST(AsyncFederation, MidBufferCrashRecoveryIsBitExactUnderFaults) {
  // Kill the server between drains (the checkpoint holds a non-empty
  // in-flight buffer because max_in_flight > buffer_goal), rebuild from
  // disk, and finish the run: parameters must match the uninterrupted twin
  // bit for bit, with faults and churn active the whole time.
  const auto base =
      std::filesystem::temp_directory_path() / "photon_async_recovery";
  std::filesystem::remove_all(base);

  FaultPlan plan;
  plan.crash_prob = 0.1;
  plan.straggle_prob = 0.2;
  plan.link_drop_prob = 0.05;
  plan.membership.initial_population = 5;
  plan.membership.arrive_prob = 0.25;
  plan.membership.leave_prob = 0.05;
  FaultInjector injector(plan);

  AggregatorConfig ac;
  // Asserts a mid-flight buffer at the kill point; secagg wave pops drain
  // whole waves (its crash twin lives in test_secure_agg.cpp).
  ac.privacy.ignore_env = true;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 2;
  ac.async.max_in_flight = 4;
  ac.checkpoint_every = 1;

  ac.checkpoint_dir = base / "ref";
  auto ref = build_async_aggregator(ac, /*population=*/6, "nesterov");
  injector.install(*ref);
  for (int r = 0; r < 6; ++r) ref->run_round();

  ac.checkpoint_dir = base / "crash";
  {
    auto doomed = build_async_aggregator(ac, /*population=*/6, "nesterov");
    injector.install(*doomed);
    for (int r = 0; r < 3; ++r) doomed->run_round();
    EXPECT_GT(doomed->async_in_flight(), 0);  // the buffer is mid-flight
  }  // dies here

  auto revived = build_async_aggregator(ac, /*population=*/6, "nesterov");
  injector.install(*revived);
  ASSERT_TRUE(revived->restore_latest_checkpoint());
  EXPECT_EQ(revived->round(), 3u);
  EXPECT_GT(revived->async_in_flight(), 0);  // pending updates came back
  for (int r = 3; r < 6; ++r) revived->run_round();

  EXPECT_EQ(ref->sim_now(), revived->sim_now());
  EXPECT_TRUE(params_equal(*ref, *revived));
  std::filesystem::remove_all(base);
}

TEST(AsyncFederation, RestoreUnderDifferentMembershipPlanKeepsSavedStates) {
  // Satellite: a checkpoint written under plan A restores into an engine
  // configured with plan B.  The saved lifecycle states win for the past;
  // plan B's future events still fire.
  const auto base =
      std::filesystem::temp_directory_path() / "photon_async_replan";
  std::filesystem::remove_all(base);

  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 2;
  ac.checkpoint_every = 1;
  ac.checkpoint_dir = base;

  MembershipPlan plan_a;
  plan_a.initial_population = 3;  // client 3 absent under plan A
  {
    auto agg = build_async_aggregator(ac, /*population=*/4);
    agg->set_membership_plan(plan_a);
    for (int r = 0; r < 2; ++r) agg->run_round();
    EXPECT_EQ(agg->membership_state(3), MembershipState::kAbsent);
  }

  MembershipPlan plan_b;  // everyone active initially, and a future leave
  plan_b.scheduled.push_back({3, 1, MembershipAction::kLeave});
  auto revived = build_async_aggregator(ac, /*population=*/4);
  revived->set_membership_plan(plan_b);
  ASSERT_TRUE(revived->restore_latest_checkpoint());
  // The checkpoint's states survive the plan swap: client 3 stays absent
  // even though plan B would have had it active from round 0.
  EXPECT_EQ(revived->membership_state(3), MembershipState::kAbsent);
  EXPECT_EQ(revived->membership_state(1), MembershipState::kActive);
  // Plan B's future event still fires at round 3.
  (void)revived->run_round();  // round 2
  const RoundRecord r3 = revived->run_round();
  EXPECT_EQ(r3.departures, 1u);
  EXPECT_EQ(revived->membership_state(1), MembershipState::kLeft);
  std::filesystem::remove_all(base);
}

// ------------------------------------------ restore input validation ---
// Restore must refuse an in-flight update it cannot replay safely — before
// touching any engine state — instead of copying or decoding out of bounds
// in the next drain.  Each update is a PHO2 wire image, checked exactly as
// one fresh off the wire.
void expect_restore_rejects(const AsyncInFlightSnapshot& pending) {
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  auto agg = build_async_aggregator(ac);
  const std::vector<float> before(agg->global_params().begin(),
                                  agg->global_params().end());
  Checkpoint ckpt;
  ckpt.round = 4;
  ckpt.params.assign(before.size(), 0.5f);
  AsyncAggregatorState& st = ckpt.async_state.emplace();
  const auto pop = static_cast<std::size_t>(agg->population());
  ckpt.client_trained_rounds.assign(pop, 0);
  ckpt.membership.assign(pop, MembershipState::kActive);
  ckpt.link_stats.assign(pop, {});
  st.defer_counts.assign(pop, 0);
  st.next_eligible.assign(pop, 0.0);
  st.in_flight = {pending};
  agg->checkpoints().journal_begin(4);
  agg->checkpoints().save(std::move(ckpt));
  agg->checkpoints().journal_commit(4);
  EXPECT_THROW(agg->restore_latest_checkpoint(), std::runtime_error);
  EXPECT_EQ(agg->round(), 0u);
  EXPECT_EQ(0, std::memcmp(before.data(), agg->global_params().data(),
                           before.size() * sizeof(float)));
  EXPECT_EQ(agg->async_in_flight(), 0);
}

/// A client update of `elems` floats encoded with `codec`.
std::vector<std::uint8_t> update_image(const std::string& codec,
                                       std::size_t elems) {
  Message m;
  m.type = MessageType::kClientUpdate;
  m.codec = codec;
  m.payload.assign(elems, 0.25f);
  return m.encode();
}

AsyncInFlightSnapshot pending_update(std::vector<std::uint8_t> wire) {
  AsyncInFlightSnapshot u;
  u.client = 1;
  u.arrive_time = 2.0;
  u.train_sim_seconds = 1.0;
  u.wire = std::move(wire);
  return u;
}

/// Offset of the chunk-length field in an identity-codec image of `elems`
/// floats in one chunk: the payload and the 4-byte CRC follow it, and the
/// u32 chunk count precedes it.
std::size_t length_field(const std::vector<std::uint8_t>& wire,
                         std::size_t elems) {
  return wire.size() - 4 - elems * sizeof(float) - 8;
}

TEST(AsyncFederation, RestoreRejectsOversizedFp32Snapshot) {
  const std::size_t n = tiny_model().num_params();
  expect_restore_rejects(pending_update(update_image("", n + 16)));
}

TEST(AsyncFederation, RestoreRejectsUnknownStreamedCodec) {
  const std::size_t n = tiny_model().num_params();
  std::vector<std::uint8_t> wire = update_image("rle0", n);
  const std::string from = "rle0";
  const auto at = std::search(wire.begin(), wire.end(), from.begin(), from.end());
  ASSERT_NE(at, wire.end());
  std::memcpy(&*at, "lzss", 4);  // not registered
  expect_restore_rejects(pending_update(wire));
}

TEST(AsyncFederation, RestoreRejectsChunkLengthsPastStoredBytes) {
  // The image ends before its chunk table says the chunk bytes do.
  const std::size_t n = tiny_model().num_params();
  std::vector<std::uint8_t> wire = update_image("q8", n);
  wire.erase(wire.end() - 5, wire.end());
  expect_restore_rejects(pending_update(wire));
}

TEST(AsyncFederation, RestoreRejectsMalformedSnapshotShapes) {
  const std::size_t n = tiny_model().num_params();
  AsyncInFlightSnapshot kind = pending_update({});
  kind.failure_kind = 3;  // 0 ok, 1 crash, 2 link failure
  expect_restore_rejects(kind);

  // Not the model size, streamed or materialized.
  expect_restore_rejects(pending_update(update_image("q8", n + 1)));
  expect_restore_rejects(pending_update(update_image("rle0", n - 1)));

  std::vector<std::uint8_t> flipped = update_image("q8", n);  // CRC mismatch
  flipped[flipped.size() - 9] ^= 1;
  expect_restore_rejects(pending_update(flipped));

  expect_restore_rejects(pending_update({}));  // an ok slot with no image

  std::vector<std::uint8_t> wrap = update_image("", n);  // length wraps
  const std::uint64_t wrapping = ~std::uint64_t{0};
  std::memcpy(wrap.data() + length_field(wrap, n), &wrapping, sizeof(wrapping));
  expect_restore_rejects(pending_update(wrap));

  std::vector<std::uint8_t> chunks = update_image("", n);  // 2 chunks, 1 len
  const std::uint32_t two = 2;
  std::memcpy(chunks.data() + length_field(chunks, n) - sizeof(two), &two,
              sizeof(two));
  expect_restore_rejects(pending_update(chunks));
}

TEST(AsyncFederation, RestoreRejectsCheckpointTruncatedAtAnySectionBoundary) {
  // Crash-point test: the committed checkpoint of an async q8 run with
  // updates in flight, cut where a section starts (or where the CRC does),
  // must fail restore loudly and leave the fresh engine untouched.
  const auto base =
      std::filesystem::temp_directory_path() / "photon_async_torn";
  std::filesystem::remove_all(base);
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.async.buffer_goal = 2;
  ac.async.max_in_flight = 4;
  ac.checkpoint_dir = base;
  std::uint32_t committed = 0;
  {
    auto agg = build_async_aggregator(ac, /*population=*/6, "nesterov",
                                      false, "q8");
    for (int r = 0; r < 3; ++r) agg->run_round();
    ASSERT_GT(agg->async_in_flight(), 0);
    committed = static_cast<std::uint32_t>(
        agg->checkpoints().journal_last_committed());
  }
  const auto path = base / ("ckpt_" + std::to_string(committed) + ".bin");
  std::vector<std::uint8_t> image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Section starts: past the u32 magic, each is a u32 tag and a u64 length
  // ahead of its body; the CRC's 4 bytes close the image.
  std::vector<std::size_t> cuts;
  for (std::size_t at = 4; at < image.size(); ) {
    cuts.push_back(at);
    if (at + 4 == image.size()) break;
    std::uint64_t len = 0;
    std::memcpy(&len, image.data() + at + 4, sizeof(len));
    at += 12 + len;
  }
  ASSERT_EQ(cuts.size(), 5u);  // meta, params, residuals, async, CRC
  for (const std::size_t cut : cuts) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(cut));
    }
    auto fresh = build_async_aggregator(ac, 6, "nesterov", false, "q8");
    const std::vector<float> before(fresh->global_params().begin(),
                                    fresh->global_params().end());
    EXPECT_THROW(fresh->restore_latest_checkpoint(), std::runtime_error)
        << "cut at " << cut;
    EXPECT_EQ(fresh->round(), 0u);
    EXPECT_EQ(0, std::memcmp(before.data(), fresh->global_params().data(),
                             before.size() * sizeof(float)));
    EXPECT_EQ(fresh->async_in_flight(), 0);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  auto whole = build_async_aggregator(ac, 6, "nesterov", false, "q8");
  ASSERT_TRUE(whole->restore_latest_checkpoint());
  EXPECT_EQ(whole->round(), committed + 1);
  EXPECT_GT(whole->async_in_flight(), 0);
  std::filesystem::remove_all(base);
}

TEST(AsyncFederation, SyncCheckpointsStayByteStableWithoutAsyncState) {
  // A sync engine writes no async section, and its checkpoints restore
  // with no async state.
  const auto base =
      std::filesystem::temp_directory_path() / "photon_sync_ckpt_compat";
  std::filesystem::remove_all(base);
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.checkpoint_every = 1;
  ac.checkpoint_dir = base;
  ac.seed = 33;
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<LLMClient>(
        i, tiny_client_config(), tiny_stream(100 + i), 7));
  }
  Aggregator agg(tiny_model(), ac, make_server_opt("fedavg", 1.0f, 0.0f),
                 std::move(clients), 55);
  agg.run_round();
  CheckpointStore mgr(base);
  const auto ckpt = mgr.latest();
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_FALSE(ckpt->async_state.has_value());
  std::filesystem::remove_all(base);
}

// ------------------------------------------------------------ quorum skip --
TEST(FaultEngine, QuorumLossSkipsRoundCleanlyWhenOptedIn) {
  // Satellite regression: K=1 cohort, every client always crashes, quorum
  // fraction 1.0 — with skip_on_quorum_loss the round must come back as a
  // clean skipped record (no divide-by-zero, no param change), and the
  // round/schedule/sim clocks must advance exactly one round.
  AggregatorConfig ac;
  ac.clients_per_round = 1;
  ac.local_steps = 2;
  ac.parallel_clients = false;
  ac.min_cohort_fraction = 1.0;
  ac.max_cohort_retries = 1;
  ac.skip_on_quorum_loss = true;
  ac.seed = 33;
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<LLMClient>(
        i, tiny_client_config(), tiny_stream(100 + i), 7));
  }
  Aggregator agg(tiny_model(), ac, make_server_opt("fedavg", 1.0f, 0.0f),
                 std::move(clients), 55);
  agg.set_client_fault_hook([](std::uint32_t, int, std::uint32_t) {
    ClientRoundFault f;
    f.crash = true;
    return f;
  });
  const std::vector<float> before(agg.global_params().begin(),
                                  agg.global_params().end());
  const RoundRecord rec = agg.run_round();
  EXPECT_TRUE(rec.skipped);
  EXPECT_EQ(rec.survivors, 0);
  EXPECT_EQ(rec.mean_train_loss, 0.0);
  EXPECT_EQ(rec.update_norm, 0.0);
  EXPECT_EQ(rec.crashed_clients, 2);  // both attempts counted
  EXPECT_EQ(agg.round(), 1u);
  EXPECT_GT(agg.sim_now(), 0.0);
  EXPECT_EQ(0, std::memcmp(before.data(), agg.global_params().data(),
                           before.size() * sizeof(float)));
  // The next round with the faults lifted completes normally.
  agg.set_client_fault_hook(nullptr);
  const RoundRecord rec1 = agg.run_round();
  EXPECT_FALSE(rec1.skipped);
  EXPECT_EQ(rec1.round, 1u);
  EXPECT_GT(rec1.survivors, 0);
}

// ------------------------------------------------------ ephemeral clients --
// Ephemeral clients keep no local checkpoint copy; resident ones do.  Both
// train on their thread's replica shell, and the broadcast carries all
// cross-round state (ephemeral requires a stateless optimizer), so the two
// federations must agree bit for bit.
void expect_ephemeral_matches_resident(bool parallel_clients) {
  AggregatorConfig ac;
  ac.local_steps = 2;
  ac.parallel_clients = parallel_clients;
  ac.async.buffer_goal = 2;
  ac.async.max_in_flight = 4;
  auto resident = build_async_aggregator(ac, 4, "fedavg", false);
  auto ephemeral = build_async_aggregator(ac, 4, "fedavg", true);
  for (int r = 0; r < 3; ++r) {
    (void)resident->run_round();
    (void)ephemeral->run_round();
    ASSERT_TRUE(params_equal(*resident, *ephemeral)) << "drain " << r;
  }
}

TEST(AsyncFederation, EphemeralClientsMatchResidentClientsBitForBit) {
  expect_ephemeral_matches_resident(false);
}

TEST(AsyncFederation, ParallelEphemeralClientsMatchResidentClientsBitForBit) {
  expect_ephemeral_matches_resident(true);
}

TEST(AsyncFederation, EphemeralRequiresStatelessOptimizer) {
  auto cfg = tiny_client_config();
  cfg.ephemeral = true;
  cfg.stateless_optimizer = false;
  EXPECT_THROW(LLMClient(0, cfg, tiny_stream(1), 7), std::invalid_argument);
}

// ----------------------------------------------------- link telemetry ----
TEST(SimLinkTelemetry, RetransmitAndDeadlineMissCountersExport) {
  // A bare link keeps its counts in LinkStats; the aggregator publishes
  // them as link.retransmits / link.deadline_misses at round close
  // (ObsIntegration.RegistryCountersEqualSummedLinkStats).
  SimLink link("flaky", 1.0);
  RetryPolicy policy;
  policy.max_attempts = 3;
  link.set_retry_policy(policy);
  link.set_fault_hook([](const Message&, int attempt) {
    LinkFault f;
    f.drop = attempt == 1;  // first try fails, retry succeeds
    return f;
  });
  Message m;
  m.payload = {1.0f, 2.0f};
  Message out;
  link.transmit(m, out);
  EXPECT_EQ(link.stats().retries, 1u);
  EXPECT_EQ(link.stats().deadline_misses, 0u);

  // Now a dead peer behind a tight deadline: the abort is a deadline miss.
  SimLink dead("dead", 1.0);
  RetryPolicy slow;
  slow.max_attempts = 100;
  slow.backoff_base_s = 10.0;
  slow.message_deadline_s = 1.0;
  dead.set_retry_policy(slow);
  dead.set_fault_hook([](const Message&, int) {
    LinkFault f;
    f.drop = true;
    return f;
  });
  EXPECT_THROW(dead.transmit(m, out), TransmitError);
  EXPECT_EQ(dead.stats().deadline_misses, 1u);
  EXPECT_EQ(dead.stats().aborted_messages, 1u);
}

}  // namespace
}  // namespace photon
