// Pairwise-masked secure aggregation with dropout recovery + DP accounting
// (DESIGN.md §14): Shamir field algebra, pair-seed symmetry, bit-exact mask
// cancellation across shard widths, dropout reconstruction against the
// no-dropout sum, the RDP accountant against its closed form, and the full
// Aggregator integration — faulted sync rounds, async wave drains, crash
// recovery, and the secagg × quantized-wire composition.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "comm/link.hpp"
#include "comm/message.hpp"
#include "comm/secure_agg.hpp"
#include "core/aggregator.hpp"
#include "core/checkpoint.hpp"
#include "core/client.hpp"
#include "core/postprocess.hpp"
#include "core/privacy.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

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

std::unique_ptr<Aggregator> build_aggregator(
    AggregatorConfig ac, int population,
    ClientTrainConfig ctc = tiny_client_config(),
    const std::string& opt = "fedavg") {
  ac.seed = 33;
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < population; ++i) {
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc, tiny_stream(100 + static_cast<std::uint64_t>(i)), 7));
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

/// The ring encoding the protocol uses: q = round(x * 2^F) as wrapping u64.
std::uint64_t ring_encode(float x, double scale) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::llrint(static_cast<double>(x) * scale)));
}

std::vector<std::vector<float>> random_updates(int k, std::size_t n,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> updates(static_cast<std::size_t>(k),
                                          std::vector<float>(n));
  for (auto& u : updates) {
    for (auto& x : u) x = rng.gaussian(0.0f, 1.0f);
  }
  return updates;
}

// ------------------------------------------------------- field + shamir --
TEST(SecAggField, ShamirRoundtripFromAnyThresholdSubset) {
  const std::uint64_t secret = 0x1234'5678'9ABCDEFULL % secagg::kPrime;
  const auto shares = secagg::shamir_split(secret, /*n=*/5, /*t=*/3, 0xFEED);
  ASSERT_EQ(shares.size(), 5u);

  // Any 3-subset reconstructs; all 5 reconstruct; order never matters.
  const std::vector<std::vector<int>> subsets{
      {0, 1, 2}, {2, 4, 0}, {4, 3, 1}, {0, 1, 2, 3, 4}};
  for (const auto& subset : subsets) {
    std::vector<secagg::Share> picked;
    for (const int i : subset) picked.push_back(shares[i]);
    EXPECT_EQ(secagg::shamir_reconstruct(picked), secret);
  }
  // Two shares (below t) interpolate to something else: the polynomial has
  // degree 2, so a line through 2 points misses the intercept.
  const std::vector<secagg::Share> two{shares[0], shares[1]};
  EXPECT_NE(secagg::shamir_reconstruct(two), secret);
  EXPECT_THROW(secagg::shamir_split(secret, 2, 3, 1), std::invalid_argument);
}

TEST(SecAggField, FieldInverseAndKeyAgreementCommute) {
  for (const std::uint64_t a :
       {std::uint64_t{3}, std::uint64_t{12345}, secagg::kPrime - 2}) {
    EXPECT_EQ(secagg::field_mul(a, secagg::field_inv(a)), 1ULL);
  }
  const std::uint64_t sk_a = 0xA11CE, sk_b = 0xB0B;
  EXPECT_EQ(secagg::shared_key(sk_a, secagg::public_key(sk_b)),
            secagg::shared_key(sk_b, secagg::public_key(sk_a)));
}

// ----------------------------------------------------------- session ------
TEST(SecAggSession, PairSeedsAreSymmetricAndDistinctAcrossPairs) {
  SecAggConfig cfg;
  cfg.session_seed = 0xC0FFEE;
  const SecAggSession s({4, 7, 9, 11, 20}, cfg);
  std::vector<std::uint64_t> seen;
  for (int a = 0; a < s.cohort_size(); ++a) {
    for (int b = a + 1; b < s.cohort_size(); ++b) {
      EXPECT_EQ(s.pair_seed(a, b), s.pair_seed(b, a));
      seen.push_back(s.pair_seed(a, b));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_THROW(s.pair_seed(0, 0), std::out_of_range);
  // A different session seed re-keys every pair.
  cfg.session_seed = 0xC0FFEF;
  const SecAggSession t({4, 7, 9, 11, 20}, cfg);
  EXPECT_NE(s.pair_seed(0, 1), t.pair_seed(0, 1));
}

TEST(SecAggSession, MaskedSumEqualsPlainEncodingSumBitExactly) {
  const int k = 5;
  const std::size_t n = 513;  // odd: exercises shard remainders
  SecAggConfig cfg;
  cfg.session_seed = 42;
  std::vector<int> cohort(k);
  for (int i = 0; i < k; ++i) cohort[i] = i;
  const SecAggSession s(cohort, cfg);
  const auto updates = random_updates(k, n, 7);

  std::vector<std::uint64_t> acc(n, 0);
  for (int c = 0; c < k; ++c) {
    s.mask_update_into(c, updates[static_cast<std::size_t>(c)], acc,
                       kernels::default_context());
  }
  // Masks cancel pairwise, so the wrapped sum IS the sum of the plain
  // fixed-point encodings — bit for bit, not approximately.
  std::vector<std::uint64_t> expected(n, 0);
  for (int c = 0; c < k; ++c) {
    for (std::size_t e = 0; e < n; ++e) {
      expected[e] += ring_encode(updates[static_cast<std::size_t>(c)][e],
                                 s.fixed_point_scale());
    }
  }
  EXPECT_EQ(0, std::memcmp(acc.data(), expected.data(),
                           n * sizeof(std::uint64_t)));
}

TEST(SecAggSession, MaskingIsBitIdenticalSerialVsParallel) {
  const int k = 4;
  const std::size_t n = 1021;
  SecAggConfig cfg;
  cfg.session_seed = 99;
  const SecAggSession s({0, 1, 2, 3}, cfg);
  const auto updates = random_updates(k, n, 21);

  ThreadPool pool(4);
  const kernels::KernelContext par(&pool, 4, /*grain=*/16);
  std::vector<std::uint64_t> serial(n, 0), parallel(n, 0);
  for (int c = 0; c < k; ++c) {
    s.mask_update_into(c, updates[static_cast<std::size_t>(c)], serial,
                       kernels::default_context());
    s.mask_update_into(c, updates[static_cast<std::size_t>(c)], parallel, par);
  }
  EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                           n * sizeof(std::uint64_t)));
}

TEST(SecAggSession, DropoutRecoveryMatchesSurvivorOnlySumBitExactly) {
  const int k = 5;
  const std::size_t n = 257;
  SecAggConfig cfg;
  cfg.session_seed = 0xD0D0;
  const SecAggSession s({0, 1, 2, 3, 4}, cfg);
  const auto updates = random_updates(k, n, 31);

  const std::vector<int> survivors{0, 2, 4};
  const std::vector<int> dropped{1, 3};
  std::vector<std::uint64_t> acc(n, 0);
  for (const int c : survivors) {
    s.mask_update_into(c, updates[static_cast<std::size_t>(c)], acc,
                       kernels::default_context());
  }
  s.recover_dropouts(survivors, dropped, acc, kernels::default_context());

  // After recovery the accumulator equals the survivors' plain encoding
  // sum bit-exactly: every unresolved mask half has been stripped.
  std::vector<std::uint64_t> expected(n, 0);
  for (const int c : survivors) {
    for (std::size_t e = 0; e < n; ++e) {
      expected[e] += ring_encode(updates[static_cast<std::size_t>(c)][e],
                                 s.fixed_point_scale());
    }
  }
  EXPECT_EQ(0, std::memcmp(acc.data(), expected.data(),
                           n * sizeof(std::uint64_t)));

  std::vector<float> mean(n);
  s.decode_mean(acc, static_cast<int>(survivors.size()), mean,
                kernels::default_context());
  for (std::size_t e = 0; e < n; e += 17) {
    const float plain = (updates[0][e] + updates[2][e] + updates[4][e]) / 3.0f;
    EXPECT_NEAR(mean[e], plain, 1e-6f);
  }
}

TEST(SecAggSession, RecoveryBelowShareThresholdAborts) {
  SecAggConfig cfg;
  cfg.share_threshold_fraction = 0.6;  // t = ceil(0.6 * 5) = 3
  const SecAggSession s({0, 1, 2, 3, 4}, cfg);
  EXPECT_EQ(s.threshold(), 3);
  EXPECT_EQ(SecAggSession::threshold_for(5, 0.6), 3);
  EXPECT_EQ(SecAggSession::threshold_for(1, 0.5), 1);
  std::vector<std::uint64_t> acc(8, 0);
  const std::vector<int> survivors{0, 1};
  const std::vector<int> dropped{2, 3, 4};
  EXPECT_THROW(s.recover_dropouts(survivors, dropped, acc,
                                  kernels::default_context()),
               SecAggAbort);
}

TEST(SecAggSession, SharesReconstructEachMemberSecret) {
  SecAggConfig cfg;
  cfg.session_seed = 5;
  const SecAggSession s({0, 1, 2, 3}, cfg);
  for (int owner = 0; owner < 4; ++owner) {
    std::vector<secagg::Share> held;
    for (int holder = 0; holder < 4; ++holder) {
      if (holder == owner) continue;
      held.push_back(s.share_of(owner, holder));
      if (static_cast<int>(held.size()) == s.threshold()) break;
    }
    EXPECT_EQ(secagg::shamir_reconstruct(held), s.member_secret(owner));
  }
}

TEST(SecAggSession, KeyExchangeCostsWireTimeAndEmitsSpans) {
  SecAggConfig cfg;
  cfg.session_seed = 77;
  const SecAggSession s({0, 1, 2}, cfg);

  SimLink l0("ke0", 1.0, 5.0), l1("ke1", 1.0, 5.0), l2("ke2", 1.0, 5.0);
  std::vector<SimLink*> links{&l0, &l1, &l2};
  obs::Tracer tracer;
  const KeyExchangeResult ke =
      s.run_key_exchange(links, /*sim_base=*/1.5,
                         obs::RoundTrace(&tracer, /*round=*/3));
  EXPECT_TRUE(ke.failed.empty());
  EXPECT_GT(ke.sim_seconds, 0.0);
  EXPECT_GT(ke.wire_bytes, 0u);
  ASSERT_EQ(ke.member_seconds.size(), 3u);
  double max_member = 0.0;
  for (const double t : ke.member_seconds) {
    EXPECT_GT(t, 0.0);
    max_member = std::max(max_member, t);
  }
  EXPECT_DOUBLE_EQ(ke.sim_seconds, max_member);  // barrier semantics
  int ke_spans = 0;
  for (const obs::TraceEvent& ev : tracer.drain()) {
    if (ev.kind == obs::SpanKind::kKeyExchange) ++ke_spans;
  }
  EXPECT_EQ(ke_spans, obs::Tracer::compiled_in() ? 3 : 0);

  // Null links = compute-only members: zero time, nothing fails.
  std::vector<SimLink*> none{nullptr, nullptr, nullptr};
  const KeyExchangeResult free_ke =
      s.run_key_exchange(none, 0.0, {});
  EXPECT_TRUE(free_ke.failed.empty());
  EXPECT_DOUBLE_EQ(free_ke.sim_seconds, 0.0);
}

// ----------------------------------------------------------- privacy ------
TEST(Privacy, StatelessGaussianIsDeterministicAndStandard) {
  EXPECT_DOUBLE_EQ(privacy::stateless_gaussian(9, 4),
                   privacy::stateless_gaussian(9, 4));
  EXPECT_NE(privacy::stateless_gaussian(9, 4),
            privacy::stateless_gaussian(9, 5));
  EXPECT_NE(privacy::stateless_gaussian(9, 4),
            privacy::stateless_gaussian(10, 4));
  double sum = 0.0, sq = 0.0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = privacy::stateless_gaussian(123, i);
    sum += g;
    sq += g * g;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Privacy, RdpEpsilonGrowsWithRoundsAndBoundsClosedForm) {
  privacy::RdpAccountant acct(/*noise_multiplier=*/1.0, /*delta=*/1e-5);
  EXPECT_DOUBLE_EQ(acct.epsilon(), 0.0);
  double prev = 0.0;
  for (int r = 1; r <= 64; r *= 2) {
    privacy::RdpAccountant fresh(1.0, 1e-5);
    fresh.account_rounds(static_cast<std::uint64_t>(r));
    const double eps = fresh.epsilon();
    EXPECT_GT(eps, prev);  // strictly monotone in composed rounds
    const double closed = privacy::RdpAccountant::closed_form_epsilon(
        1.0, 1e-5, static_cast<std::uint64_t>(r));
    EXPECT_GE(eps, closed);            // grid is an upper bound...
    EXPECT_LT(eps, closed * 1.10);     // ...within 10% of the optimum
    prev = eps;
  }
  // More noise, less epsilon.
  privacy::RdpAccountant loud(2.0, 1e-5), quiet(0.5, 1e-5);
  loud.account_rounds(10);
  quiet.account_rounds(10);
  EXPECT_LT(loud.epsilon(), quiet.epsilon());
  EXPECT_THROW(privacy::RdpAccountant(0.0, 1e-5), std::invalid_argument);
  EXPECT_THROW(privacy::RdpAccountant(1.0, 0.0), std::invalid_argument);
}

TEST(Privacy, DpNoiseStageIsAPureFunctionOfRoundAndClient) {
  const std::size_t n = 64;
  std::vector<float> a(n, 0.0f), b(n, 0.0f), c(n, 0.0f);
  PostProcessReport report;
  DpNoiseStage s1(/*noise_multiplier=*/0.5, /*max_norm=*/1.0, /*seed=*/77);
  DpNoiseStage s2(0.5, 1.0, 77);
  s1.apply(a, report, {.round = 4, .client = 2});
  EXPECT_DOUBLE_EQ(report.dp_noise_stddev, 0.5);
  s2.apply(b, report, {.round = 4, .client = 2});
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), n * sizeof(float)));
  s2.apply(c, report, {.round = 5, .client = 2});
  EXPECT_NE(0, std::memcmp(a.data(), c.data(), n * sizeof(float)));
}

// ------------------------------------------------- engine integration ----
TEST(SecAggFederation, FaultedSyncRoundsRecoverDropoutsExactly) {
  // Crash faults under sync secagg: dropped members' masks are rebuilt
  // from Shamir shares and the round completes; KE charges sim time.
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.secure_aggregation = true;
  auto agg = build_aggregator(ac, /*population=*/5);
  FaultPlan plan;
  plan.crash_prob = 0.35;
  FaultInjector injector(plan);
  injector.install(*agg);

  int recovered = 0;
  for (int r = 0; r < 6; ++r) {
    const RoundRecord rec = agg->run_round();
    EXPECT_TRUE(rec.secure_round);
    EXPECT_GT(rec.sim_privacy_seconds, 0.0);  // key exchange is never free
    recovered += rec.secagg_dropouts_recovered;
    for (const float p : agg->global_params()) ASSERT_TRUE(std::isfinite(p));
  }
  EXPECT_GT(recovered, 0);  // 35% crash over 6 rounds of 5 must drop someone
  EXPECT_EQ(agg->shares_reconstructed_total(),
            static_cast<std::uint64_t>(recovered));
}

TEST(SecAggFederation, DpAccountingPublishesMonotoneEpsilon) {
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.privacy.dp_delta = 1e-5;
  auto ctc = tiny_client_config();
  ctc.clip_update_norm = 1e-2;
  ctc.dp_noise_multiplier = 1.0;
  auto agg = build_aggregator(ac, /*population=*/3, ctc);
  ASSERT_NE(agg->accountant(), nullptr);
  EXPECT_DOUBLE_EQ(agg->accountant()->noise_multiplier(), 1.0);

  double prev = 0.0;
  for (int r = 0; r < 3; ++r) {
    const RoundRecord rec = agg->run_round();
    EXPECT_GT(rec.dp_epsilon, prev);
    EXPECT_DOUBLE_EQ(
        rec.dp_epsilon,
        [&] {
          privacy::RdpAccountant ref(1.0, 1e-5);
          ref.account_rounds(static_cast<std::uint64_t>(r + 1));
          return ref.epsilon();
        }());
    prev = rec.dp_epsilon;
  }
  // No DP clients -> no accountant, and records carry the -1 sentinel.
  auto plain = build_aggregator(ac, 3);
  EXPECT_EQ(plain->accountant(), nullptr);
  EXPECT_DOUBLE_EQ(plain->run_round().dp_epsilon, -1.0);
}

TEST(SecAggFederation, SecureCrashRecoveryTwinIsBitExactUnderFaults) {
  // The flagship twin: secagg + DP + faults + churn, server killed mid-run
  // and rebuilt from disk.  Parameters, the wave counter, and the
  // accountant must all come back bit-exact vs the uninterrupted run.
  const auto base =
      std::filesystem::temp_directory_path() / "photon_secagg_recovery";
  std::filesystem::remove_all(base);

  FaultPlan plan;
  plan.crash_prob = 0.15;
  plan.membership.initial_population = 4;
  plan.membership.arrive_prob = 0.3;
  plan.membership.leave_prob = 0.05;
  FaultInjector injector(plan);

  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.secure_aggregation = true;
  ac.async.enabled = true;
  ac.async.buffer_goal = 2;
  ac.async.max_in_flight = 4;
  ac.checkpoint_every = 1;
  auto ctc = tiny_client_config();
  ctc.clip_update_norm = 1e-2;
  ctc.dp_noise_multiplier = 0.3;

  ac.checkpoint_dir = base / "ref";
  auto ref = build_aggregator(ac, /*population=*/5, ctc, "nesterov");
  injector.install(*ref);
  for (int r = 0; r < 6; ++r) ref->run_round();

  ac.checkpoint_dir = base / "crash";
  {
    auto doomed = build_aggregator(ac, 5, ctc, "nesterov");
    injector.install(*doomed);
    for (int r = 0; r < 3; ++r) doomed->run_round();
  }  // dies here

  auto revived = build_aggregator(ac, 5, ctc, "nesterov");
  injector.install(*revived);
  ASSERT_TRUE(revived->restore_latest_checkpoint());
  EXPECT_EQ(revived->round(), 3u);
  ASSERT_NE(revived->accountant(), nullptr);
  EXPECT_EQ(revived->accountant()->accounted_rounds(), 3u);
  for (int r = 3; r < 6; ++r) revived->run_round();

  EXPECT_TRUE(params_equal(*ref, *revived));
  EXPECT_EQ(ref->shares_reconstructed_total(),
            revived->shares_reconstructed_total());
  EXPECT_DOUBLE_EQ(ref->accountant()->epsilon(),
                   revived->accountant()->epsilon());
  std::filesystem::remove_all(base);
}

TEST(SecAggFederation, RestoreRejectsCheckpointOfAnotherDpAccounting) {
  // The accountant resumes only under the (sigma, delta) it composed with.
  // A checkpoint written under another sigma or delta, or with DP
  // accounting on one side only, is refused before anything is restored:
  // restoring it would publish epsilon for the wrong noise, or restart it
  // at 0.
  const auto base =
      std::filesystem::temp_directory_path() / "photon_dp_mismatch";
  std::filesystem::remove_all(base);
  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.checkpoint_dir = base;
  const auto clients = [](double sigma) {
    auto ctc = tiny_client_config();
    if (sigma > 0.0) {
      ctc.clip_update_norm = 1e-2;
      ctc.dp_noise_multiplier = sigma;
    }
    return ctc;
  };
  const auto expect_refused = [&](const AggregatorConfig& cfg, double sigma,
                                  const char* what) {
    auto agg = build_aggregator(cfg, /*population=*/3, clients(sigma));
    const std::vector<float> before(agg->global_params().begin(),
                                    agg->global_params().end());
    EXPECT_THROW(agg->restore_latest_checkpoint(), std::runtime_error) << what;
    EXPECT_EQ(agg->round(), 0u) << what;
    EXPECT_EQ(agg->sim_now(), 0.0) << what;
    EXPECT_EQ(0, std::memcmp(before.data(), agg->global_params().data(),
                             before.size() * sizeof(float)))
        << what;
    if (agg->accountant() != nullptr) {
      EXPECT_EQ(agg->accountant()->accounted_rounds(), 0u) << what;
    }
  };

  {
    auto writer = build_aggregator(ac, 3, clients(0.5));
    for (int r = 0; r < 2; ++r) writer->run_round();
  }
  expect_refused(ac, 0.7, "another sigma");
  AggregatorConfig other_delta = ac;
  other_delta.privacy.dp_delta = 1e-6;
  expect_refused(other_delta, 0.5, "another delta");
  expect_refused(ac, 0.0, "no accountant in the engine");
  auto same = build_aggregator(ac, 3, clients(0.5));
  ASSERT_TRUE(same->restore_latest_checkpoint());
  EXPECT_EQ(same->accountant()->accounted_rounds(), 2u);

  std::filesystem::remove_all(base);
  {
    auto writer = build_aggregator(ac, 3, clients(0.0));
    writer->run_round();
  }
  expect_refused(ac, 0.5, "no DP accounting in the checkpoint");
  std::filesystem::remove_all(base);
}

TEST(SecAggFederation, RestoredWaveWithDepartedMemberRecoversItsMasks) {
  // MembershipPlan x secagg: a wave member that left while its masked
  // update was in flight is a dropout — the restored wave rebuilds the
  // session from the persisted wave id and survivors reconstruct the
  // departed member's masks from shares.
  const auto base =
      std::filesystem::temp_directory_path() / "photon_secagg_leave";
  std::filesystem::remove_all(base);

  AggregatorConfig ac;
  ac.local_steps = 1;
  ac.parallel_clients = false;
  ac.secure_aggregation = true;
  ac.async.enabled = true;
  ac.async.buffer_goal = 2;
  ac.async.max_in_flight = 4;
  ac.checkpoint_every = 1;
  ac.checkpoint_dir = base;

  // Hand-craft the drain-boundary checkpoint: wave 7 (clients 1, 2, 3) in
  // flight, client 3 already kLeft.
  auto probe = build_aggregator(ac, /*population=*/4);
  const std::size_t n = probe->global_params().size();
  Checkpoint ckpt;
  ckpt.round = 0;
  ckpt.params.assign(probe->global_params().begin(),
                     probe->global_params().end());
  ckpt.sim_now = 10.0;
  ckpt.client_trained_rounds.assign(4, 1);
  ckpt.membership = {MembershipState::kActive, MembershipState::kActive,
                     MembershipState::kActive, MembershipState::kLeft};
  ckpt.link_stats.assign(4, {});
  AsyncAggregatorState& st = ckpt.async_state.emplace();
  st.defer_counts.assign(4, 0);
  st.next_eligible.assign(4, 0.0);
  for (int c = 1; c <= 3; ++c) {
    AsyncInFlightSnapshot u;
    u.client = c;
    u.arrive_time = 10.5 + 0.1 * c;
    u.dispatch_version = 0;
    u.wave_id = 7;
    u.tokens = 16;
    u.mean_train_loss = 4.0;
    // Masked updates materialize, so they persist identity-encoded.
    Message update;
    update.type = MessageType::kClientUpdate;
    update.sender = static_cast<std::uint32_t>(c);
    update.payload.assign(n, 0.01f * static_cast<float>(c));
    u.wire = update.encode();
    st.in_flight.push_back(std::move(u));
  }
  ckpt.privacy_state.emplace().wave_counter = 7;
  {
    CheckpointStore store(base);
    store.journal_begin(0);
    store.save(std::move(ckpt));
    store.journal_commit(0);
  }

  auto agg = build_aggregator(ac, 4);
  ASSERT_TRUE(agg->restore_latest_checkpoint());
  const RoundRecord rec = agg->run_round();
  EXPECT_TRUE(rec.secure_round);
  // Client 3 departed in flight: one dropout recovered, its update
  // discarded, the two survivors accepted.
  EXPECT_EQ(rec.secagg_dropouts_recovered, 1);
  EXPECT_EQ(rec.discarded_updates, 1);
  auto parts = rec.participants;
  std::sort(parts.begin(), parts.end());
  EXPECT_EQ(parts, (std::vector<int>{1, 2}));
  EXPECT_EQ(agg->shares_reconstructed_total(), 1u);
  std::filesystem::remove_all(base);
}

TEST(SecAggFederation, ComposesWithQuantizedWireCodec) {
  // secagg + q8 wire: quantized payloads materialize to fp32 before
  // masking (no streamed fan-in), and the composed round stays close to
  // the plain q8 round — composition is clean, not rejected.
  AggregatorConfig ac;
  ac.privacy.ignore_env = true;  // the baseline arm must stay plaintext
  ac.local_steps = 2;
  ac.parallel_clients = false;
  auto ctc = tiny_client_config();
  ctc.link_codec = "q8";
  auto plain = build_aggregator(ac, /*population=*/4, ctc);
  ac.secure_aggregation = true;
  auto secure = build_aggregator(ac, 4, ctc);
  const RoundRecord rp = plain->run_round();
  const RoundRecord rs = secure->run_round();
  EXPECT_FALSE(rp.secure_round);
  EXPECT_TRUE(rs.secure_round);
  EXPECT_EQ(rp.participants, rs.participants);
  for (std::size_t i = 0; i < plain->global_params().size(); i += 157) {
    EXPECT_NEAR(plain->global_params()[i], secure->global_params()[i], 1e-4f);
  }
}

TEST(SecAggFederation, PrivacyCheckpointFieldRoundTripsThroughDisk) {
  const auto base =
      std::filesystem::temp_directory_path() / "photon_privacy_ckpt";
  std::filesystem::remove_all(base);
  {
    CheckpointStore store(base);
    Checkpoint ckpt;
    ckpt.round = 9;
    ckpt.params = {1.0f, 2.0f};
    PrivacyCheckpointState& p = ckpt.privacy_state.emplace();
    p.accounted_rounds = 10;
    p.noise_multiplier = 0.7;
    p.delta = 1e-6;
    p.wave_counter = 42;
    p.shares_reconstructed_total = 5;
    store.save(std::move(ckpt));
  }
  CheckpointStore fresh(base);
  const auto back = fresh.latest();
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->privacy_state.has_value());
  EXPECT_EQ(back->privacy_state->accounted_rounds, 10u);
  EXPECT_DOUBLE_EQ(back->privacy_state->noise_multiplier, 0.7);
  EXPECT_DOUBLE_EQ(back->privacy_state->delta, 1e-6);
  EXPECT_EQ(back->privacy_state->wave_counter, 42u);
  EXPECT_EQ(back->privacy_state->shares_reconstructed_total, 5u);
  // A plain checkpoint round-trips with the field absent.
  {
    CheckpointStore store(base);
    Checkpoint plain;
    plain.round = 10;
    plain.params = {3.0f};
    store.save(std::move(plain));
  }
  CheckpointStore fresh2(base);
  const auto plain_back = fresh2.latest();
  ASSERT_TRUE(plain_back.has_value());
  EXPECT_FALSE(plain_back->privacy_state.has_value());
  std::filesystem::remove_all(base);
}

TEST(SecAggFederation, SumIntoRejectsRaggedSpans) {
  // Regression: every member's span is checked against the server
  // accumulator, not just the first one, and decoding checks its output.
  const SecAggSession sec({0, 1}, SecAggConfig{32, 0.5, 3});
  const auto& ctx = kernels::default_context();
  std::vector<float> a(8, 1.0f), b(7, 1.0f);
  std::vector<std::uint64_t> acc(8, 0);
  sec.mask_update_into(0, a, acc, ctx);
  EXPECT_THROW(sec.mask_update_into(1, b, acc, ctx), std::invalid_argument);
  std::vector<float> out(8, 0.0f), short_out(7, 0.0f);
  EXPECT_THROW(sec.decode_mean(acc, 2, short_out, ctx), std::invalid_argument);
  EXPECT_THROW(sec.decode_mean(acc, 0, out, ctx), std::invalid_argument);
  EXPECT_THROW(SecAggSession({}, SecAggConfig{}), std::invalid_argument);
  // The rejected span left the accumulator untouched.
  sec.mask_update_into(1, a, acc, ctx);
  sec.decode_mean(acc, 2, out, ctx);
  for (const float v : out) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(SecAggFederation, SyncSecureRoundIsBitIdenticalSerialVsParallel) {
  auto make = [&](bool parallel) {
    AggregatorConfig ac;
    ac.local_steps = 2;
    ac.parallel_clients = parallel;
    ac.secure_aggregation = true;
    return build_aggregator(ac, /*population=*/4);
  };
  auto serial = make(false);
  auto parallel = make(true);
  for (int r = 0; r < 2; ++r) {
    (void)serial->run_round();
    (void)parallel->run_round();
    ASSERT_TRUE(params_equal(*serial, *parallel)) << "round " << r;
  }
}

}  // namespace
}  // namespace photon
