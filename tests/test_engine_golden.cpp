// Golden engine digests: a fixed matrix of small federations, each reduced
// to up to three FNV-1a digests.  The engine digest covers everything the
// round engines produce deterministically — final global parameters, every
// RoundRecord field but the two wall-clock ones, and the autotuner's
// captured state.  The trace digest covers every drained trace event's
// deterministic fields.  The checkpoint digest covers the checkpoint
// directory's file bytes.  Two more entries run the experiment harnesses the
// paper benches share, PhotonRunner and CentralizedTrainer, end to end.
//
// The constants pin the engines' outputs across refactors: a change to how
// rounds dispatch, aggregate, trace or checkpoint that moves a single bit
// (an arrival time summed in a different order, say) changes a digest.  A
// new span kind moves only the trace digests, and a change to the checkpoint
// file format or to which files the store keeps only the checkpoint
// digests, so the engine digests still prove the engines' outputs
// unchanged.
// Every codec is pinned ("rle0", never the env-overridable "") and every
// config sets privacy.ignore_env, so the PHOTON_WIRE_CODEC and PHOTON_SECAGG
// CI lanes run the same federations as the default lane.  The runner has no
// ignore_env, so its entry runs under secure aggregation in every lane.
// SIMD variants and thread counts are bit-identical by contract, so the
// digests hold under every PHOTON_SIMD / PHOTON_NUM_THREADS setting too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baselines/centralized.hpp"
#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "core/runner.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "tune/session.hpp"

namespace photon {
namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  void str(const std::string& s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

ModelConfig golden_model() {
  ModelConfig c;
  c.n_layers = 2;
  c.d_model = 16;
  c.n_heads = 2;
  c.vocab_size = 64;
  c.seq_len = 16;
  c.expansion_ratio = 2;
  return c;
}

struct Federation {
  AggregatorConfig ac;
  int population = 6;
  std::string server_opt = "nesterov";
  /// Codec of client i; every entry is an explicit registered name.
  std::function<std::string(int)> codec = [](int) { return "rle0"; };
  double dp_noise = 0.0;
  bool ephemeral = false;
  FaultPlan faults;
  bool inject_faults = false;
  /// Wire chunk size for this case (0 = the default): small chunks make the
  /// streamed fan-in fold several chunks per update.
  std::size_t chunk_bytes = 0;
};

std::unique_ptr<Aggregator> build(const Federation& f) {
  CorpusConfig cc;
  cc.vocab_size = 64;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < f.population; ++i) {
    ClientTrainConfig ctc;
    ctc.model = golden_model();
    ctc.local_batch = 2;
    ctc.schedule.max_lr = 5e-3f;
    ctc.schedule.warmup_steps = 2;
    ctc.schedule.total_steps = 1000;
    ctc.link_codec = f.codec(i);
    ctc.ephemeral = f.ephemeral;
    if (f.dp_noise > 0.0) {
      ctc.clip_update_norm = 1e-2;
      ctc.dp_noise_multiplier = f.dp_noise;
    }
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc,
        std::make_unique<CorpusStreamSource>(
            corpus, 100 + static_cast<std::uint64_t>(i)),
        7));
  }
  AggregatorConfig ac = f.ac;
  ac.seed = 33;
  ac.privacy.ignore_env = true;
  auto agg = std::make_unique<Aggregator>(
      golden_model(), ac, make_server_opt(f.server_opt, 0.5f, 0.9f),
      std::move(clients), 55);
  if (f.chunk_bytes != 0) agg->set_wire_chunk_bytes(f.chunk_bytes);
  return agg;
}

void hash_record(Fnv1a& h, const RoundRecord& r) {
  h.pod(r.round);
  h.vec(r.participants);
  h.pod(r.mean_train_loss);
  h.pod(r.update_norm);
  h.pod(r.tokens_this_round);
  h.pod(r.comm_bytes);
  h.pod(r.sim_comm_seconds);
  h.pod(r.sim_local_seconds);
  h.pod(r.client_metrics.size());
  for (const auto& [k, v] : r.client_metrics) {
    h.str(k);
    h.pod(v);
  }
  h.pod(r.eval_perplexity);
  h.vec(r.dropped_clients);
  h.pod(r.survivors);
  h.pod(r.crashed_clients);
  h.pod(r.link_failed_clients);
  h.pod(r.straggler_drops);
  h.pod(r.cohort_retries);
  h.pod(r.link_retries);
  h.pod(r.corrupt_chunks);
  h.pod(r.backoff_seconds);
  h.pod(r.topology_fallback);
  h.pod(r.sim_slowest_client_seconds);
  h.pod(r.skipped);
  h.pod(r.async_drain);
  h.pod(r.server_version);
  h.pod(r.mean_staleness);
  h.pod(r.max_staleness);
  h.pod(r.admission_deferred);
  h.pod(r.discarded_updates);
  h.pod(r.arrivals);
  h.pod(r.departures);
  h.pod(r.secure_round);
  h.pod(r.secagg_dropouts_recovered);
  h.pod(r.sim_privacy_seconds);
  h.pod(r.dp_epsilon);
}

void hash_events(Fnv1a& h, const std::vector<obs::TraceEvent>& events) {
  h.pod(events.size());
  for (const obs::TraceEvent& e : events) {
    h.pod(e.kind);
    h.pod(e.round);
    h.pod(e.actor);
    h.pod(e.detail);
    h.pod(e.sim_begin);
    h.pod(e.sim_end);
  }
}

void hash_dir(Fnv1a& h, const std::filesystem::path& dir) {
  if (dir.empty() || !std::filesystem::exists(dir)) return;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& p : files) {
    h.str(p.filename().string());
    std::ifstream in(p, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    h.vec(bytes);
  }
}

void hash_engine(Fnv1a& h, const Aggregator& agg) {
  const auto params = agg.global_params();
  h.pod(params.size());
  h.bytes(params.data(), params.size() * sizeof(float));
  h.pod(agg.round());
  h.pod(agg.sim_now());
  h.pod(agg.schedule_step_base());
  h.vec(agg.client_trained_rounds());
  for (const RoundRecord& r : agg.history().records()) hash_record(h, r);
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("photon_golden_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// 0 = the case records no digest of that kind.
struct Digests {
  std::uint64_t engine = 0;
  std::uint64_t trace = 0;
  std::uint64_t ckpt = 0;
};

/// Digests of the checkpoint directory, which is then removed.
std::uint64_t take_dir(const std::filesystem::path& dir) {
  Fnv1a h;
  hash_dir(h, dir);
  std::filesystem::remove_all(dir);
  return h.value();
}

/// Run `rounds` rounds of `f` (optionally killing the server after
/// `crash_after` rounds and finishing on a fresh process restored from
/// disk) and digest the surviving engine, its trace and its checkpoints.
Digests run_plain(const std::string& name, Federation f, int rounds,
                        int crash_after = -1) {
  const auto dir = fresh_dir(name);
  f.ac.checkpoint_dir = dir;
  FaultInjector injector(f.faults);
  if (crash_after >= 0) {
    auto doomed = build(f);
    if (f.inject_faults) injector.install(*doomed);
    for (int r = 0; r < crash_after; ++r) doomed->run_round();
  }
  obs::Tracer tracer;
  f.ac.tracer = &tracer;
  auto agg = build(f);
  if (f.inject_faults) injector.install(*agg);
  if (crash_after >= 0) {
    EXPECT_TRUE(agg->restore_latest_checkpoint()) << name;
  }
  for (int r = std::max(crash_after, 0); r < rounds; ++r) agg->run_round();
  Fnv1a engine;
  hash_engine(engine, *agg);
  Fnv1a trace;
  hash_events(trace, tracer.drain());
  return {engine.value(), trace.value(), take_dir(dir)};
}

Digests run_tuned(const std::string& name, Federation f, int rounds) {
  const auto dir = fresh_dir(name);
  f.ac.checkpoint_dir = dir;
  FaultInjector injector(f.faults);
  auto agg = build(f);
  if (f.inject_faults) injector.install(*agg);
  tune::TunerConfig tc;
  tc.threads = 4;  // decisions must not depend on the machine
  tune::TunedSession session(*agg, tc);
  for (int r = 0; r < rounds; ++r) session.step();
  Fnv1a h;
  hash_engine(h, *agg);
  h.vec(session.tuner().capture_state());
  return {.engine = h.value(), .ckpt = take_dir(dir)};
}

/// A short PhotonRunner run: corpus and stream salts, the schedule period,
/// the eval set and the eval span, as every paper bench wires them.
Digests run_runner() {
  RunnerConfig rc;
  rc.model = golden_model();
  rc.population = 3;
  rc.clients_per_round = 2;
  rc.local_steps = 2;
  rc.local_batch = 2;
  rc.max_lr = 5e-3f;
  rc.warmup_steps = 2;
  rc.secure_aggregation = true;
  rc.link_codec = "rle0";
  rc.rounds = 5;
  rc.eval_every = 2;
  rc.eval_batches = 2;
  rc.eval_batch_size = 2;
  rc.eval_tokens = 1 << 10;
  rc.seed = 17;
  obs::Tracer tracer;  // outlives the runner that points at it
  PhotonRunner runner(rc);
  runner.aggregator().set_tracer(&tracer);
  runner.run();
  Fnv1a engine;
  hash_engine(engine, runner.aggregator());
  Fnv1a trace;
  hash_events(trace, tracer.drain());
  return {.engine = engine.value(), .trace = trace.value()};
}

/// A short CentralizedTrainer run (the App. C.1 baseline).
Digests run_centralized() {
  CentralizedConfig cc;
  cc.model = golden_model();
  cc.batch = 2;
  cc.steps = 10;
  cc.max_lr = 5e-3f;
  cc.warmup_steps = 2;
  cc.eval_every = 4;
  cc.eval_batches = 2;
  cc.eval_batch_size = 2;
  cc.eval_tokens = 1 << 10;
  cc.seed = 19;
  CentralizedTrainer trainer(cc);
  const CentralizedResult result = trainer.run();
  Fnv1a h;
  const auto params = trainer.model().params();
  h.pod(params.size());
  h.bytes(params.data(), params.size() * sizeof(float));
  h.pod(result.diverged);
  h.pod(result.steps_run);
  for (const RoundRecord& r : result.history.records()) hash_record(h, r);
  return {.engine = h.value()};
}

FaultPlan chaos(double crash, double straggle, double drop, double corrupt) {
  FaultPlan p;
  p.seed = 0x601DE7ULL;
  p.crash_prob = crash;
  p.straggle_prob = straggle;
  p.straggle_factor_min = 2.0;
  p.straggle_factor_max = 6.0;
  p.link_drop_prob = drop;
  p.corrupt_prob = corrupt;
  return p;
}

Federation sync_base(Topology t) {
  Federation f;
  f.ac.clients_per_round = 4;
  f.ac.local_steps = 2;
  f.ac.topology = t;
  f.ac.bandwidth_mbps = 12.5;
  f.ac.link_bandwidth_gbps = 0.1;
  f.ac.sim_throughput_bps = 4.0;
  f.ac.retry.max_attempts = 3;
  return f;
}

Federation async_base() {
  Federation f;
  f.population = 8;
  f.ac.local_steps = 1;
  f.ac.bandwidth_mbps = 12.5;
  f.ac.link_bandwidth_gbps = 0.1;
  f.ac.sim_throughput_bps = 4.0;
  f.ac.async.enabled = true;
  f.ac.async.buffer_goal = 3;
  f.ac.async.max_in_flight = 5;
  f.ac.retry.max_attempts = 3;
  return f;
}

struct GoldenCase {
  const char* name;
  Digests want;
  std::function<Digests()> run;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({"sync_rar_fp32_disk",
                   {0x02ba12f98198d1b5ULL, 0xcda290a5a9211b8eULL,
                    0x8898ff7d379bdf46ULL},
                   [] {
                     return run_plain("sync_rar_fp32_disk",
                                      sync_base(Topology::kRingAllReduce), 4);
                   }});
  cases.push_back({"sync_ps_faults_deadline_skip",
                   {0xa81b76ab4bb17effULL, 0x72d10881171735a3ULL,
                    0x46b7e0c6d7363df2ULL},
                   [] {
                     Federation f = sync_base(Topology::kParameterServer);
                     f.faults = chaos(0.2, 0.3, 0.05, 0.05);
                     f.inject_faults = true;
                     f.ac.round_deadline_s = 1.2;
                     f.ac.min_cohort_fraction = 0.5;
                     f.ac.max_cohort_retries = 1;
                     f.ac.skip_on_quorum_loss = true;
                     return run_plain("sync_ps_faults_deadline_skip", f, 6);
                   }});
  cases.push_back({"sync_ar_quorum_skip",
                   {0xe1156a25114bfb40ULL, 0x72e21504d786932bULL,
                    0x41718ba7213ca499ULL},
                   [] {
                     Federation f = sync_base(Topology::kAllReduce);
                     f.faults = chaos(0.3, 0.0, 0.0, 0.0);
                     f.inject_faults = true;
                     f.ac.min_cohort_fraction = 1.0;
                     f.ac.max_cohort_retries = 1;
                     f.ac.skip_on_quorum_loss = true;
                     return run_plain("sync_ar_quorum_skip", f, 5);
                   }});
  cases.push_back({"sync_q8_streamed_ar",
                   {0x4f632c228e9ac9feULL, 0x8f498edf4d872481ULL,
                    0x4ad06789286eb71aULL},
                   [] {
                     Federation f = sync_base(Topology::kAllReduce);
                     f.codec = [](int) { return "q8"; };
                     f.chunk_bytes = 4096;
                     return run_plain("sync_q8_streamed_ar", f, 4);
                   }});
  cases.push_back({"sync_mixed_q4_fp32_rar",
                   {0x07bcbc5b7c8c4481ULL, 0x8b2046bc4b64d4a3ULL,
                    0x145e3328df454d3bULL},
                   [] {
                     Federation f = sync_base(Topology::kRingAllReduce);
                     f.codec = [](int i) { return i % 2 == 0 ? "q4" : "rle0"; };
                     f.chunk_bytes = 8192;
                     return run_plain("sync_mixed_q4_fp32_rar", f, 4);
                   }});
  cases.push_back({"sync_secagg_dp_faults",
                   {0xcd86b866b31a8900ULL, 0xe03df5c08ede155fULL,
                    0x1c3892ae2289c267ULL},
                   [] {
                     Federation f = sync_base(Topology::kParameterServer);
                     f.ac.secure_aggregation = true;
                     f.ac.clients_per_round = 5;
                     f.ac.round_deadline_s = 1.5;
                     f.ac.max_cohort_retries = 2;
                     f.ac.skip_on_quorum_loss = true;
                     f.dp_noise = 0.5;
                     f.faults = chaos(0.15, 0.2, 0.05, 0.05);
                     f.inject_faults = true;
                     return run_plain("sync_secagg_dp_faults", f, 5);
                   }});
  cases.push_back({"sync_crash_restore",
                   {0x5ee07c1ed17c5061ULL, 0xc702f1193c5b6f4eULL,
                    0x7cc12d0b143cea70ULL},
                   [] {
                     Federation f = sync_base(Topology::kRingAllReduce);
                     f.codec = [](int) { return "q8"; };
                     f.faults = chaos(0.1, 0.2, 0.05, 0.0);
                     f.inject_faults = true;
                     return run_plain("sync_crash_restore", f, 6, 3);
                   }});
  cases.push_back({"async_fp32_churn_faults",
                   {0x6c1b44edb99db1d4ULL, 0x255079f17181913aULL,
                    0x853fb61528ac77e7ULL},
                   [] {
                     Federation f = async_base();
                     f.faults = chaos(0.1, 0.2, 0.05, 0.05);
                     f.faults.membership.initial_population = 6;
                     f.faults.membership.arrive_prob = 0.25;
                     f.faults.membership.leave_prob = 0.05;
                     f.inject_faults = true;
                     return run_plain("async_fp32_churn_faults", f, 6);
                   }});
  cases.push_back({"async_q8_ephemeral_constant",
                   {0xf45e94bf276ec320ULL, 0xae8b74b6a2fe2e75ULL,
                    0x3c321d1433a1bd56ULL},
                   [] {
                     Federation f = async_base();
                     f.server_opt = "fedavg";
                     f.ephemeral = true;
                     f.codec = [](int) { return "q8"; };
                     f.chunk_bytes = 4096;
                     f.ac.async.staleness = AggregatorConfig::AsyncAggregation::
                         StalenessWeight::kConstant;
                     f.faults = chaos(0.05, 0.2, 0.0, 0.0);
                     f.inject_faults = true;
                     return run_plain("async_q8_ephemeral_constant", f, 6);
                   }});
  cases.push_back({"async_secagg_dp_leaves",
                   {0x09d9c9a42e285c74ULL, 0x2de230f216ce6696ULL,
                    0x5afba33bae44ea7aULL},
                   [] {
                     Federation f = async_base();
                     f.ac.secure_aggregation = true;
                     f.dp_noise = 0.5;
                     f.faults = chaos(0.1, 0.2, 0.05, 0.0);
                     f.faults.membership.leave_prob = 0.12;
                     f.inject_faults = true;
                     return run_plain("async_secagg_dp_leaves", f, 6);
                   }});
  cases.push_back({"async_crash_restore",
                   {0x7491c7996e715c25ULL, 0x213941116a3b3d7cULL,
                    0xbd19a3febac9e41bULL},
                   [] {
                     Federation f = async_base();
                     f.codec = [](int i) { return i % 3 == 0 ? "rle0" : "q8"; };
                     f.chunk_bytes = 4096;
                     f.faults = chaos(0.1, 0.2, 0.05, 0.05);
                     f.faults.membership.initial_population = 6;
                     f.faults.membership.arrive_prob = 0.25;
                     f.inject_faults = true;
                     return run_plain("async_crash_restore", f, 6, 3);
                   }});
  cases.push_back({"tuned_sync",
                   {0x6f9e6c8333a99a57ULL, 0,
                    0x4baf56ca6ff02206ULL},
                   [] {
                     Federation f = sync_base(Topology::kParameterServer);
                     f.ac.bandwidth_mbps = 1.25;
                     f.ac.link_bandwidth_gbps = 0.01;
                     f.ac.round_deadline_s = 4.0;
                     f.faults = chaos(0.0, 0.25, 0.0, 0.0);
                     f.inject_faults = true;
                     return run_tuned("tuned_sync", f, 6);
                   }});
  cases.push_back({"tuned_async",
                   {0x7f37c9471b1c3e67ULL, 0,
                    0x093dbaec00f87aa9ULL},
                   [] {
                     Federation f = async_base();
                     f.ac.bandwidth_mbps = 1.25;
                     f.ac.link_bandwidth_gbps = 0.01;
                     f.faults = chaos(0.05, 0.25, 0.0, 0.0);
                     f.inject_faults = true;
                     return run_tuned("tuned_async", f, 6);
                   }});
  cases.push_back({"runner",
                   {0x62ddaf771f0a26deULL, 0x4fa355a6d698ad07ULL,
                    0},
                   run_runner});
  cases.push_back({"centralized",
                   {0x84fae02f50727e5dULL, 0,
                    0},
                   run_centralized});
  return cases;
}

TEST(EngineGolden, DigestsMatchRecordedConstants) {
  if (!obs::Tracer::compiled_in()) {
    GTEST_SKIP() << "digests include trace events; PHOTON_TRACE=OFF build";
  }
  for (const GoldenCase& c : golden_cases()) {
    const Digests got = c.run();
    EXPECT_EQ(got.engine, c.want.engine)
        << c.name << ": engine digest 0x" << std::hex << got.engine << "ULL";
    EXPECT_EQ(got.trace, c.want.trace)
        << c.name << ": trace digest 0x" << std::hex << got.trace << "ULL";
    EXPECT_EQ(got.ckpt, c.want.ckpt)
        << c.name << ": checkpoint digest 0x" << std::hex << got.ckpt << "ULL";
  }
}

}  // namespace
}  // namespace photon
