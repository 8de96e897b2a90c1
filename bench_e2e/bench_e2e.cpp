// Real-clock end-to-end benchmark of the federated round path.
//
// One process runs one workload (README.md lists them and why each exists)
// as a closed loop: the main thread calls Aggregator::run_round() back to
// back, and the cohort fans out over the existing global pool.  The benchmark
// starts no threads of its own.
//
//   --trace 0   setup (median of several), then an untraced pass for
//               --seconds: the end-to-end metrics.  Their times are process
//               CPU seconds, not wall seconds (see process_cpu_seconds).
//   --trace 1   a shorter untraced pass, then a traced pass of a fresh
//               federation with the same seed, then direct calls into the
//               layers the trace cannot see: the per-layer metrics.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR] [--smoke] [--expect-names BENCHMARK.json]
//   bench_e2e --list        (workload names, one per line)
//
// The timed pass runs at least 100 rounds and then until --seconds have
// passed.  The deterministic end-to-end metrics come from a separate
// reference window: a fixed number of rounds of a federation built from a
// fixed seed, so they are a function of the code alone.  A failed output
// check is named on stderr and the process exits 1.  The last stdout line is
// one JSON object with the keys correct, attempted, failed and metrics.

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/quantization.hpp"
#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "core/postprocess.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/config.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "tensor/kernel_context.hpp"
#include "tensor/simd.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

#ifndef PHOTON_BENCH_BUILD_TYPE
#define PHOTON_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PHOTON_BENCH_SANITIZE
#define PHOTON_BENCH_SANITIZE ""
#endif
#ifndef PHOTON_BENCH_COMPILER
#define PHOTON_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace photon;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kWarmupRounds = 2;
constexpr int kSetupReps = 9;
/// Floor on timed rounds so p90 has at least ten samples beyond it.
constexpr int kMinTimedRounds = 100;
/// Seed of the reference window, whatever --seed says.
constexpr std::uint64_t kReferenceSeed = 1;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// CPU seconds used by every thread of this process, user plus system.  The
/// kernel leaves out the time the hypervisor ran other guests on our cores
/// (steal), which on a shared host swings wall time by 2x from minute to
/// minute; pool workers block instead of spinning, so idle waits add nothing.
double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

[[noreturn]] void fail_check(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: CHECK FAILED: %s\n", what.c_str());
  std::exit(1);
}

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR] [--smoke] "
               "[--expect-names BENCHMARK.json] | --list\n",
               what.c_str());
  std::exit(2);
}

// --- host -----------------------------------------------------------------

/// One field of /proc/self/status in KiB (VmHWM, VmRSS); 0 when absent.
std::uint64_t proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Host fingerprint: a real-clock number means nothing without it.
std::vector<std::pair<std::string, std::string>> host_fingerprint() {
  return {
      {"nproc", std::to_string(affinity_cpus())},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"pool_threads", std::to_string(global_pool().size())},
      {"cpu_model", cpu_model()},
      {"simd_variant", simd::variant_name(simd::active_variant())},
      {"compiler", PHOTON_BENCH_COMPILER},
      {"build_type", PHOTON_BENCH_BUILD_TYPE},
      {"PHOTON_SIMD", env_or("PHOTON_SIMD", "")},
      {"PHOTON_NUM_THREADS", env_or("PHOTON_NUM_THREADS", "")},
      {"PHOTON_KERNEL_GRAIN", env_or("PHOTON_KERNEL_GRAIN", "")},
  };
}

/// Timing a debug or sanitizer build measures the instrumentation.
void require_release_build() {
  bool ok = std::string(PHOTON_BENCH_BUILD_TYPE) == "Release" &&
            std::string(PHOTON_BENCH_SANITIZE).empty();
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  ok = false;
#endif
  if (!ok) {
    std::fprintf(stderr,
                 "bench_e2e: refusing to time a '%s' build with sanitizer "
                 "'%s'; configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "PHOTON_SANITIZE\n",
                 PHOTON_BENCH_BUILD_TYPE, PHOTON_BENCH_SANITIZE);
    std::exit(2);
  }
}

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  ModelConfig model;
  int batch = 1;
  int local_steps = 1;
  float max_lr = 5e-3f;
  int warmup_steps = 2;
  int population = 8;
  int cohort = 0;  // K; 0 = full participation
  std::string codec;  // "" = identity fp32 wire
  bool error_feedback = true;
  bool ephemeral = false;
  std::string server_opt = "fedavg";
  float server_lr = 1.0f;
  float server_momentum = 0.0f;
  bool disk_checkpoint = false;
  int checkpoint_every = 1;
  bool secagg = false;
  double clip = 0.0;
  double dp_sigma = 0.0;
  bool faulty = false;
  FaultPlan faults;
  double deadline_s = 0.0;
  double quorum = 0.0;
  int cohort_retries = 2;
  int link_attempts = 3;
  double bandwidth_mbps = 1250.0;
  AggregatorConfig::AsyncAggregation async;
  /// Length of the reference window the deterministic metrics are taken
  /// over; also the shortest untraced pass of --trace 1 and --smoke runs.
  int window = 20;
  /// Check that a pass's last 10 losses average below its first 10 (only
  /// where 20 rounds of training visibly move the loss).
  bool loss_falls = false;
  /// Minimum traced-pass length in --trace 1.
  int traced_rounds = 30;
  int smoke_traced_rounds = 2;
};

std::vector<Workload> all_workloads() {
  std::vector<Workload> out;

  Workload lh;
  lh.name = "local_heavy";
  lh.model = ModelConfig::small();
  lh.batch = 2;
  lh.local_steps = 4;
  lh.max_lr = 1e-2f;
  lh.warmup_steps = 8;
  lh.population = 8;
  lh.cohort = 4;
  lh.loss_falls = true;
  out.push_back(lh);

  Workload wq;
  wq.name = "wire_q8";
  wq.model = ModelConfig{2, 128, 8, 2048, 16, 4};
  wq.population = 8;
  wq.cohort = 8;
  wq.codec = "q8";
  wq.server_opt = "nesterov";
  wq.server_lr = 0.7f;
  wq.server_momentum = 0.9f;
  wq.disk_checkpoint = true;
  wq.checkpoint_every = 4;
  out.push_back(wq);

  Workload sf;
  sf.name = "secure_faults";
  sf.model = ModelConfig{2, 96, 8, 2048, 16, 4};
  // Scalar DP-noise code slows about twice as much as the training kernels
  // when the host is contended; 4 local steps of batch 2 keep it to a third
  // of client time so the round time stays steady across runs.
  sf.batch = 2;
  sf.local_steps = 4;
  sf.population = 12;
  sf.cohort = 8;
  sf.secagg = true;
  sf.clip = 1e-2;
  sf.dp_sigma = 0.5;
  sf.faulty = true;
  sf.faults.crash_prob = 0.08;
  sf.faults.straggle_prob = 0.15;
  sf.faults.link_drop_prob = 0.05;
  sf.faults.corrupt_prob = 0.05;
  sf.deadline_s = 10.0;  // 2.5x the 4 sim-s of local training
  sf.quorum = 0.5;
  sf.cohort_retries = 4;
  sf.link_attempts = 4;
  out.push_back(sf);

  Workload ac;
  ac.name = "async_churn";
  ac.model = ModelConfig::micro();
  ac.population = 500;
  ac.codec = "q8";
  ac.error_feedback = false;
  ac.ephemeral = true;
  ac.bandwidth_mbps = 12.5;
  ac.async.enabled = true;
  ac.async.buffer_goal = 16;
  ac.async.max_in_flight = 32;
  ac.faulty = true;
  ac.faults.crash_prob = 0.05;
  ac.faults.straggle_prob = 0.15;
  ac.faults.link_drop_prob = 0.03;
  ac.faults.corrupt_prob = 0.03;
  ac.faults.membership.initial_population = 450;
  ac.faults.membership.arrive_prob = 0.002;
  ac.faults.membership.leave_prob = 0.0005;
  ac.window = 100;
  ac.traced_rounds = 150;
  ac.smoke_traced_rounds = 10;
  out.push_back(ac);
  return out;
}

// --- timing decorators for the two injected interfaces ----------------------

/// Times every pull from the wrapped stream.  Each client owns one, and a
/// client runs on one pool worker at a time, so the counter needs no lock:
/// the main thread reads it only after the round's fan-out has joined.
class TimedSource final : public DataSource {
 public:
  explicit TimedSource(std::unique_ptr<DataSource> inner)
      : inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  void next_tokens(std::size_t n, std::vector<int>& out) override {
    const auto t = Clock::now();
    inner_->next_tokens(n, out);
    seconds_ += seconds_since(t);
  }
  std::uint64_t bytes_streamed() const override {
    return inner_->bytes_streamed();
  }
  double seconds() const { return seconds_; }

 private:
  std::unique_ptr<DataSource> inner_;
  double seconds_ = 0.0;
};

class TimedServerOpt final : public ServerOpt {
 public:
  explicit TimedServerOpt(std::unique_ptr<ServerOpt> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void apply(std::span<float> params,
             std::span<const float> pseudo_grad) override {
    const auto t = Clock::now();
    inner_->apply(params, pseudo_grad);
    seconds_ += seconds_since(t);
    ++calls_;
  }
  void reset() override { inner_->reset(); }
  void save_state(BinaryWriter& w) const override { inner_->save_state(w); }
  void load_state(BinaryReader& r) override { inner_->load_state(r); }
  double seconds() const { return seconds_; }
  std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<ServerOpt> inner_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
};

// --- federation -------------------------------------------------------------

/// A checkpoint directory inside the work dir, removed with its last owner.
class CheckpointDir {
 public:
  explicit CheckpointDir(const fs::path& parent) {
    static int counter = 0;
    path_ = parent / ("ckpt-" + std::to_string(::getpid()) + "-" +
                      std::to_string(counter++));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~CheckpointDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  CheckpointDir(const CheckpointDir&) = delete;
  CheckpointDir& operator=(const CheckpointDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

struct Federation {
  std::shared_ptr<CheckpointDir> dir;          // outlives the checkpoint store
  std::unique_ptr<FaultInjector> injector;  // its hooks outlive the aggregator
  std::unique_ptr<Aggregator> agg;
  std::vector<const TimedSource*> sources;  // owned by agg's clients
  const TimedServerOpt* server_opt = nullptr;  // owned by agg
  std::vector<double> sim_after;  // agg->sim_now() after every round

  RoundRecord step() {
    RoundRecord rec = agg->run_round();
    sim_after.push_back(agg->sim_now());
    return rec;
  }
  /// Destroy the aggregator before the hooks and directory it uses.
  void release() {
    agg.reset();
    *this = Federation{};
  }
};

struct BuildOptions {
  obs::Tracer* tracer = nullptr;
  bool timed = false;  // wrap DataSource / ServerOpt in timing decorators
  std::shared_ptr<CheckpointDir> dir;  // reuse (restore); null = fresh
};

Federation build_federation(const Workload& w, std::uint64_t seed,
                            const fs::path& work_dir,
                            const BuildOptions& opt) {
  Federation fed;
  if (w.disk_checkpoint) {
    fed.dir = opt.dir != nullptr ? opt.dir
                                 : std::make_shared<CheckpointDir>(work_dir);
  }

  CorpusConfig cc;
  cc.vocab_size = w.model.vocab_size;
  cc.base_seed = hash_combine(seed, 0xDA7AULL);
  auto corpus = std::make_shared<const MarkovSource>(cc, c4_style());

  ClientTrainConfig ctc;
  ctc.model = w.model;
  ctc.local_batch = w.batch;
  ctc.schedule.max_lr = w.max_lr;
  ctc.schedule.warmup_steps = w.warmup_steps;
  // Fixed horizon: the schedule must not depend on how long a run lasts.
  ctc.schedule.total_steps = 4000;
  ctc.link_codec = w.codec;
  ctc.quant_error_feedback = w.error_feedback;
  ctc.ephemeral = w.ephemeral;
  ctc.clip_update_norm = w.clip;
  ctc.dp_noise_multiplier = w.dp_sigma;

  std::vector<std::unique_ptr<LLMClient>> clients;
  clients.reserve(static_cast<std::size_t>(w.population));
  for (int i = 0; i < w.population; ++i) {
    std::unique_ptr<DataSource> source = std::make_unique<CorpusStreamSource>(
        corpus, hash_combine(seed, 0x517EA4ULL + static_cast<std::uint64_t>(i)));
    if (opt.timed) {
      auto timed = std::make_unique<TimedSource>(std::move(source));
      fed.sources.push_back(timed.get());
      source = std::move(timed);
    }
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc, std::move(source), hash_combine(seed, 0xC11E47ULL)));
  }

  AggregatorConfig ac;
  ac.privacy.ignore_env = true;
  ac.clients_per_round = w.cohort;
  ac.local_steps = w.local_steps;
  ac.topology = Topology::kRingAllReduce;
  ac.bandwidth_mbps = w.bandwidth_mbps;
  ac.secure_aggregation = w.secagg;
  ac.checkpoint_every = w.checkpoint_every;
  if (fed.dir != nullptr) ac.checkpoint_dir = fed.dir->path();
  ac.seed = hash_combine(seed, 0x5A3FULL);
  ac.round_deadline_s = w.deadline_s;
  ac.min_cohort_fraction = w.quorum;
  ac.max_cohort_retries = w.cohort_retries;
  ac.retry.max_attempts = w.link_attempts;
  ac.async = w.async;
  ac.tracer = opt.tracer;

  std::unique_ptr<ServerOpt> server_opt =
      make_server_opt(w.server_opt, w.server_lr, w.server_momentum);
  if (opt.timed) {
    auto timed = std::make_unique<TimedServerOpt>(std::move(server_opt));
    fed.server_opt = timed.get();
    server_opt = std::move(timed);
  }
  fed.agg = std::make_unique<Aggregator>(w.model, ac, std::move(server_opt),
                                         std::move(clients),
                                         hash_combine(seed, 0x1217ULL));
  if (w.faulty) {
    FaultPlan plan = w.faults;
    plan.seed = hash_combine(seed, 0xFA017ULL);
    plan.membership.seed = hash_combine(seed, 0x4D454D42ULL);
    fed.injector = std::make_unique<FaultInjector>(plan);
    fed.injector->install(*fed.agg);
  }
  return fed;
}

// --- passes -----------------------------------------------------------------

struct Pass {
  std::size_t first = 0;        // history index of the first timed round
  double sim_start = 0.0;       // sim clock when the timed rounds began
  std::vector<double> wall_s;   // wall time of each timed run_round()
  std::vector<double> cpu_s;    // process CPU time of each timed run_round()
  double wall_total = 0.0;
  double cpu_total = 0.0;
  std::uint64_t tokens = 0;
};

/// Construction plus warm-up rounds; returns their process CPU time.
double setup(Federation& fed, const Workload& w, std::uint64_t seed,
             const fs::path& work_dir, const BuildOptions& opt,
             const std::function<void()>& after_build = {}) {
  fed.release();  // before building the next one
  const double c = process_cpu_seconds();
  fed = build_federation(w, seed, work_dir, opt);
  if (after_build) after_build();
  for (int r = 0; r < kWarmupRounds; ++r) fed.step();
  return process_cpu_seconds() - c;
}

/// Timed closed loop: at least `min_rounds` rounds, then until `seconds`.
/// `after_round` runs outside the timed interval (trace draining).
Pass run_pass(Federation& fed, int min_rounds, double seconds,
              const std::function<void()>& after_round = {}) {
  Pass p;
  p.first = fed.agg->history().records().size();
  p.sim_start = fed.agg->sim_now();
  const auto start = Clock::now();
  while (static_cast<int>(p.wall_s.size()) < min_rounds ||
         seconds_since(start) < seconds) {
    const double c = process_cpu_seconds();
    const auto t = Clock::now();
    const RoundRecord rec = fed.step();
    const double dt = seconds_since(t);
    const double dc = process_cpu_seconds() - c;
    p.wall_s.push_back(dt);
    p.wall_total += dt;
    p.cpu_s.push_back(dc);
    p.cpu_total += dc;
    p.tokens += rec.tokens_this_round;
    if (after_round) after_round();
  }
  return p;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- output checks ----------------------------------------------------------

/// The records of a pass's timed rounds.
std::vector<RoundRecord> records_of(const Federation& fed, const Pass& p) {
  const auto first = fed.agg->history().records().begin() +
                     static_cast<std::ptrdiff_t>(p.first);
  return {first, first + static_cast<std::ptrdiff_t>(p.wall_s.size())};
}

/// Checks the whole history of `fed` and the rounds `win` of one pass.
void check_outputs(const Workload& w, const Federation& fed,
                   const std::vector<RoundRecord>& win) {
  for (const RoundRecord& r : fed.agg->history().records()) {
    if (!std::isfinite(r.mean_train_loss)) {
      fail_check("loss of round " + std::to_string(r.round) + " is not finite");
    }
  }
  for (const float x : fed.agg->global_params()) {
    if (!std::isfinite(x)) fail_check("global params are not finite");
  }
  if (w.loss_falls) {
    double first = 0.0;
    double last = 0.0;
    for (int i = 0; i < 10; ++i) {
      first += win[static_cast<std::size_t>(i)].mean_train_loss;
      last += win[win.size() - 1 - static_cast<std::size_t>(i)].mean_train_loss;
    }
    if (!(last < first)) {
      fail_check(w.name + ": mean loss of a pass's last 10 rounds is not "
                          "below that of its first 10");
    }
  }
  if (w.secagg) {
    int recovered = 0;
    for (const RoundRecord& r : win) recovered += r.secagg_dropouts_recovered;
    if (recovered < 1) fail_check(w.name + ": no secagg dropout recovered");
    double prev = 0.0;
    for (const RoundRecord& r : fed.agg->history().records()) {
      if (!std::isfinite(r.dp_epsilon) || r.dp_epsilon <= 0.0 ||
          r.dp_epsilon < prev) {
        fail_check(w.name + ": DP epsilon is not finite, positive and "
                            "monotone at round " + std::to_string(r.round));
      }
      prev = r.dp_epsilon;
    }
  }
  if (w.faults.membership.enabled()) {
    std::uint32_t arrivals = 0;
    std::uint32_t departures = 0;
    for (const RoundRecord& r : win) {
      arrivals += r.arrivals;
      departures += r.departures;
    }
    if (arrivals < 1 || departures < 1) {
      fail_check(w.name + ": a pass saw no client arrival or no departure");
    }
  }
}

/// Restores the last committed checkpoint and checks the params match the
/// live model bit for bit; returns the restore call's wall time.  Disk
/// checkpoints restore into a fresh aggregator (the cold read path); memory
/// checkpoints can only restore into the live one.
double restore_and_check(const Workload& w, std::uint64_t seed,
                         const fs::path& work_dir, Federation& fed) {
  if (w.checkpoint_every <= 0) return 0.0;
  const auto every = static_cast<std::uint32_t>(w.checkpoint_every);
  while ((fed.agg->round() - 1) % every != 0) fed.step();
  const std::vector<float> live(fed.agg->global_params().begin(),
                                fed.agg->global_params().end());
  Federation fresh;
  Aggregator* target = fed.agg.get();
  if (w.disk_checkpoint) {
    BuildOptions opt;
    opt.dir = fed.dir;
    fresh = build_federation(w, seed, work_dir, opt);
    target = fresh.agg.get();
  }
  const auto t = Clock::now();
  const bool ok = target->restore_latest_checkpoint();
  const double dt = seconds_since(t);
  const auto restored = target->global_params();
  if (!ok || restored.size() != live.size() ||
      std::memcmp(restored.data(), live.data(), restored.size_bytes()) != 0) {
    fail_check(w.name + ": restored params differ from checkpointed round " +
               std::to_string(fed.agg->round() - 1));
  }
  return dt;
}

/// The traced pass must reproduce the untraced one bit for bit.
void check_same_timeline(const std::vector<RoundRecord>& a,
                         const std::vector<double>& sim_a,
                         const Federation& traced) {
  const auto& b = traced.agg->history().records();
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const bool same =
        std::memcmp(&a[i].mean_train_loss, &b[i].mean_train_loss,
                    sizeof(double)) == 0 &&
        a[i].comm_bytes == b[i].comm_bytes &&
        std::memcmp(&sim_a[i], &traced.sim_after[i], sizeof(double)) == 0;
    if (!same) {
      fail_check("traced pass diverged from the untraced pass at round " +
                 std::to_string(i) + " (loss, comm bytes or sim clock)");
    }
  }
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Deterministic end-to-end metrics over the reference window `p`.
void deterministic_metrics(const Federation& fed, const Pass& p,
                           std::vector<Metric>& out) {
  const std::vector<RoundRecord> win = records_of(fed, p);
  double tokens = 0.0;
  double bytes = 0.0;
  double ok = 0.0;
  double tried = 0.0;
  for (const RoundRecord& r : win) {
    tokens += static_cast<double>(r.tokens_this_round);
    bytes += static_cast<double>(r.comm_bytes);
    ok += r.survivors;
    tried += r.survivors + r.crashed_clients + r.link_failed_clients +
             r.straggler_drops + static_cast<double>(r.discarded_updates);
  }
  const double sim = fed.sim_after[p.first + win.size() - 1] - p.sim_start;
  double last_loss = 0.0;
  const std::size_t tail = std::min<std::size_t>(10, win.size());
  for (std::size_t i = win.size() - tail; i < win.size(); ++i) {
    last_loss += win[i].mean_train_loss / static_cast<double>(tail);
  }
  out.push_back({"sim_s_per_mtok", "sim_s/Mtok", sim / tokens * 1e6});
  out.push_back({"final_loss", "nats", last_loss});
  out.push_back({"wire_mb_per_round", "MB",
                 bytes / static_cast<double>(win.size()) / 1e6});
  out.push_back({"update_survival_frac", "ratio", ok / tried});
}

/// Per-kind sums of the real-clock durations the round path records.
struct SpanTotals {
  std::array<std::uint64_t, obs::kNumSpanKinds> ns{};
  std::array<std::uint64_t, obs::kNumSpanKinds> count{};
  std::uint64_t events = 0;

  void add(const std::vector<obs::TraceEvent>& evs) {
    for (const obs::TraceEvent& e : evs) {
      const auto k = static_cast<std::size_t>(e.kind);
      ns[k] += e.real_ns;
      ++count[k];
    }
    events += evs.size();
  }
  double seconds(obs::SpanKind k) const {
    return static_cast<double>(ns[static_cast<std::size_t>(k)]) * 1e-9;
  }
  std::uint64_t n(obs::SpanKind k) const {
    return count[static_cast<std::size_t>(k)];
  }
};

/// Median wall time (ms) of `fn` over at least `min_reps` calls and at least
/// `budget_s` seconds.
double median_ms(const std::function<void()>& fn, int min_reps,
                 double budget_s) {
  std::vector<double> ms;
  const auto start = Clock::now();
  while (static_cast<int>(ms.size()) < min_reps ||
         (seconds_since(start) < budget_s && ms.size() < 2000)) {
    const auto t = Clock::now();
    fn();
    ms.push_back(seconds_since(t) * 1e3);
  }
  return median(ms);
}

/// Layers the trace cannot split, timed by direct calls at the workload's
/// shapes.  Runs on a pool worker so every kernel takes the serial path it
/// takes inside the client fan-out.
void direct_layer_metrics(const Workload& w, std::uint64_t seed, bool smoke,
                          std::vector<Metric>& out) {
  const int reps = smoke ? 2 : 5;
  const double budget = smoke ? 0.0 : 0.25;
  std::vector<Metric> m;
  global_pool()
      .submit([&] {
        const kernels::KernelContext& serial = kernels::KernelContext::serial();
        GptModel model(w.model, seed);
        model.set_kernel_context(&serial);
        AdamW adamw(model.num_params());
        CorpusConfig cc;
        cc.vocab_size = w.model.vocab_size;
        cc.base_seed = seed;
        CorpusStreamSource source(
            std::make_shared<const MarkovSource>(cc, c4_style()), seed);
        const Batch b = source.next_batch(w.batch, w.model.seq_len);
        const double fwd_bwd_ms = median_ms(
            [&] {
              model.zero_grad();
              model.train_step_fb(b.tokens, b.targets, w.batch,
                                  w.model.seq_len);
            },
            reps, budget);
        const double adamw_ms = median_ms(
            [&] {
              adamw.step_clipped(serial, model.params(), model.grads(), 1e-4f,
                                 1.0);
            },
            reps, budget);
        const double init_ms = median_ms(
            [&] {
              GptModel replica(w.model, seed + 1);
              AdamW opt(replica.num_params());
            },
            reps, budget);
        const double flops = w.model.flops_per_token() *
                             static_cast<double>(w.batch) * w.model.seq_len;
        m.push_back({"nn.fwd_bwd_ms", "ms", fwd_bwd_ms});
        m.push_back({"nn.adamw_ms", "ms", adamw_ms});
        m.push_back({"nn.gflops", "GFLOP/s", flops / (fwd_bwd_ms * 1e-3) / 1e9});
        m.push_back({"nn.replica_init_ms", "ms", init_ms});

        const std::size_t n = model.num_params();
        std::vector<float> update(n, 1e-3f);
        std::vector<float> residual(n);
        DpNoiseStage noise(0.5, w.clip > 0.0 ? w.clip : 1.0, seed);
        std::uint32_t round = 0;
        PostProcessReport report;
        m.push_back({"privacy.dp_noise_ms", "ms",
                     median_ms([&] { noise.apply(update, report, {round++, 0}); },
                               reps, budget)});
        m.push_back({"comm.ef_residual_ms", "ms",
                     median_ms(
                         [&] {
                           wire_quant::residual_of(update.data(),
                                                   residual.data(), n, 8);
                         },
                         reps, budget)});
      })
      .get();
  out.insert(out.end(), m.begin(), m.end());
}

// --- output -----------------------------------------------------------------

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Only a run whose checks all passed gets this far, hence correct = true
/// and failed = 0.
std::string result_json(std::size_t attempted,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": true, \"attempted\": " << attempted
     << ", \"failed\": 0, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << format_double(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// Smoke-test check: the printed metrics are exactly those BENCHMARK.json
/// declares for this mode, with the same units, and the workload set agrees.
void check_against_declaration(const fs::path& path, int trace,
                               const std::vector<Metric>& metrics) {
  std::ifstream in(path);
  if (!in) fail_check("cannot read " + path.string());
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::json::Value doc = obs::json::parse(ss.str());
  std::set<std::string> declared_workloads;
  for (const auto& v : doc.at("workloads").as_array()) {
    declared_workloads.insert(v.at("name").as_string());
  }
  std::set<std::string> known_workloads;
  for (const Workload& w : all_workloads()) known_workloads.insert(w.name);
  if (declared_workloads != known_workloads) {
    fail_check("workload names differ from " + path.string());
  }
  std::map<std::string, std::string> declared;
  for (const auto& v :
       doc.at(trace == 0 ? "end_to_end" : "per_layer").as_array()) {
    declared[v.at("name").as_string()] = v.at("unit").as_string();
  }
  std::map<std::string, std::string> printed;
  for (const Metric& m : metrics) printed[m.name] = m.unit;
  if (declared != printed) {
    std::string diff;
    for (const auto& [name, unit] : declared) {
      const auto it = printed.find(name);
      if (it == printed.end()) {
        diff += " missing:" + name;
      } else if (it->second != unit) {
        diff += " unit:" + name;
      }
    }
    for (const auto& [name, unit] : printed) {
      if (declared.count(name) == 0) diff += " undeclared:" + name;
    }
    fail_check("metrics differ from " + path.string() + ":" + diff);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  fs::path work_dir = ".bench_build/e2e/work";
  bool smoke = false;
  fs::path expect_names;
  bool list = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    // Whole-string numeric parse; anything else is a usage error.
    const auto number = [&](auto parse) {
      const std::string v = value();
      std::size_t used = 0;
      try {
        const auto x = parse(v, &used);
        if (used == v.size()) return x;
      } catch (const std::exception&) {
      }
      usage_error("bad value '" + v + "' for " + arg);
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = number([](const std::string& v, std::size_t* n) {
        return std::stoull(v, n);
      });
    } else if (arg == "--seconds") {
      a.seconds = number([](const std::string& v, std::size_t* n) {
        return std::stod(v, n);
      });
    } else if (arg == "--trace") {
      a.trace = number([](const std::string& v, std::size_t* n) {
        return std::stoi(v, n);
      });
    } else if (arg == "--work-dir") {
      a.work_dir = value();
    } else if (arg == "--expect-names") {
      a.expect_names = value();
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--list") {
      a.list = true;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (a.trace != 0 && a.trace != 1) usage_error("--trace must be 0 or 1");
  if (!(a.seconds >= 0.0)) usage_error("--seconds must be >= 0");
  return a;
}

/// --trace 0: setup and the timed pass at --seed, the reference window, then
/// more setups.
std::size_t end_to_end(const Workload& w, const Args& a,
                       std::vector<Metric>& out) {
  // The timed federation is the process's first, and peak RSS is read right
  // after its pass.  Federations built after others land on arenas their
  // predecessors fragmented, which moves VmHWM by up to ±10% from run to
  // run, and the restore check below holds a second federation the workload
  // itself never has.
  Federation fed;
  std::vector<double> setups{setup(fed, w, a.seed, a.work_dir, {})};
  const Pass p = run_pass(fed, a.smoke ? w.window : kMinTimedRounds,
                          a.smoke ? 0.0 : a.seconds);
  const double peak_rss_mb =
      static_cast<double>(proc_status_kb("VmHWM")) / 1024.0;
  check_outputs(w, fed, records_of(fed, p));
  restore_and_check(w, a.seed, a.work_dir, fed);
  out.push_back({"round_cpu_s_p50", "s", quantile(p.cpu_s, 0.5)});
  out.push_back({"round_cpu_s_p90", "s", quantile(p.cpu_s, 0.9)});
  out.push_back({"tokens_per_cpu_s", "tok/cpu_s",
                 static_cast<double>(p.tokens) / p.cpu_total});
  out.push_back({"peak_rss_mb", "MB", peak_rss_mb});
  // Wall time is what a user waits for, but it includes steal, so it is
  // printed for the record and not gated.
  std::printf("  wall clock (not a metric): round p50 %.6g s, p90 %.6g s, "
              "%.6g tok/s\n",
              quantile(p.wall_s, 0.5), quantile(p.wall_s, 0.9),
              static_cast<double>(p.tokens) / p.wall_total);

  // The reference window is built from kReferenceSeed whatever --seed is, so
  // its metrics are identical in every run of the same code: any change in
  // them is a change in what the program computes.  Its setup counts as one
  // of the setup reps.
  setups.push_back(setup(fed, w, kReferenceSeed, a.work_dir, {}));
  const Pass ref = run_pass(fed, w.window, 0.0);
  check_outputs(w, fed, records_of(fed, ref));
  deterministic_metrics(fed, ref, out);

  const int reps = a.smoke ? 2 : kSetupReps;
  while (static_cast<int>(setups.size()) < reps) {
    setups.push_back(setup(fed, w, a.seed, a.work_dir, {}));
  }
  fed.release();
  out.push_back({"setup_s", "s", median(setups)});
  std::printf("  %zu timed rounds, %d reference rounds, %zu setup reps\n",
              p.wall_s.size(), w.window, setups.size());
  return p.wall_s.size();
}

int trained_clients(const Aggregator& agg) {
  int n = 0;
  for (const std::uint32_t r : agg.client_trained_rounds()) n += r > 0 ? 1 : 0;
  return n;
}

/// --trace 1: untraced pass, traced pass, direct layer calls.
std::size_t per_layer(const Workload& w, const Args& a,
                      std::vector<Metric>& out) {
  const double pass_s = a.smoke ? 0.0 : 0.4 * a.seconds;

  // Set up twice so both passes below run on an allocator that has already
  // served a federation: otherwise only the first pays fresh-page faults,
  // which skews obs.overhead_frac.
  Federation fed;
  for (int i = 0; i < 2; ++i) setup(fed, w, a.seed, a.work_dir, {});
  const Pass plain = run_pass(fed, w.window, pass_s);
  check_outputs(w, fed, records_of(fed, plain));
  const std::vector<RoundRecord> plain_records = fed.agg->history().records();
  const std::vector<double> plain_sim = fed.sim_after;
  const double restore_s = restore_and_check(w, a.seed, a.work_dir, fed);
  fed.release();

  obs::Tracer tracer;
  BuildOptions opt;
  opt.tracer = &tracer;
  opt.timed = true;
  std::uint64_t rss_before_kb = 0;
  setup(fed, w, a.seed, a.work_dir, opt,
        [&] { rss_before_kb = proc_status_kb("VmRSS"); });
  (void)tracer.drain();  // warm-up spans
  double source_s_start = 0.0;
  for (const TimedSource* s : fed.sources) source_s_start += s->seconds();
  const double opt_s_start = fed.server_opt->seconds();
  const std::uint64_t opt_calls_start = fed.server_opt->calls();
  std::uint64_t payload_start = 0;
  for (int id = 0; id < fed.agg->population(); ++id) {
    payload_start += fed.agg->link_stats(id).payload_bytes;
  }

  SpanTotals spans;
  const int traced_min = a.smoke ? w.smoke_traced_rounds : w.traced_rounds;
  int traced_rounds = 0;
  int trained_at_window = 0;
  const Pass traced = run_pass(fed, traced_min, pass_s, [&] {
    spans.add(tracer.drain());
    if (++traced_rounds == w.window) {
      trained_at_window = trained_clients(*fed.agg);
    }
  });
  check_same_timeline(plain_records, plain_sim, fed);

  const double rounds = static_cast<double>(traced.wall_s.size());
  const std::vector<RoundRecord> recs = records_of(fed, traced);
  double source_s = 0.0;
  for (const TimedSource* s : fed.sources) source_s += s->seconds();
  std::uint64_t payload = 0;
  for (int id = 0; id < fed.agg->population(); ++id) {
    payload += fed.agg->link_stats(id).payload_bytes;
  }
  const int touched = trained_clients(*fed.agg);
  if (traced_rounds < w.window) trained_at_window = touched;
  const std::uint64_t rss_after_kb = proc_status_kb("VmRSS");
  double retries = 0, corrupt = 0, dropouts = 0, cohort_retries = 0,
         deferred = 0, staleness = 0;
  for (const RoundRecord& r : recs) {
    retries += static_cast<double>(r.link_retries);
    corrupt += static_cast<double>(r.corrupt_chunks);
    dropouts += r.secagg_dropouts_recovered;
    cohort_retries += r.cohort_retries;
    deferred += r.admission_deferred;
    staleness += r.mean_staleness;
  }
  double ckpt_mb = 0.0;  // largest checkpoint file; 0 for memory-only stores
  if (fed.dir != nullptr) {
    for (const auto& e : fs::directory_iterator(fed.dir->path())) {
      if (e.path().filename().string().rfind("ckpt_", 0) == 0) {
        ckpt_mb = std::max(ckpt_mb, static_cast<double>(e.file_size()) / 1e6);
      }
    }
  }

  using K = obs::SpanKind;
  const auto per_round = [&](K k) { return spans.seconds(k) / rounds; };
  const double lanes = static_cast<double>(std::min<std::size_t>(
      w.async.enabled ? global_pool().size()
                      : static_cast<std::size_t>(w.cohort > 0 ? w.cohort
                                                              : w.population),
      global_pool().size()));
  const double fanout = (per_round(K::kBroadcast) + per_round(K::kLocalTrain) +
                         per_round(K::kUpdateReturn)) /
                        lanes;
  const double serial = per_round(K::kCollective) + per_round(K::kServerOpt) +
                        per_round(K::kCheckpoint) + per_round(K::kKeyExchange);
  const double round_s = per_round(K::kRound);
  const double saves = static_cast<double>(spans.n(K::kCheckpoint));

  direct_layer_metrics(w, a.seed, a.smoke, out);
  out.push_back({"client.local_train_s", "s", per_round(K::kLocalTrain)});
  out.push_back({"client.local_step_ms", "ms",
                 spans.seconds(K::kLocalStep) * 1e3 /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, spans.n(K::kLocalStep)))});
  out.push_back({"client.epilogue_s", "s",
                 per_round(K::kLocalTrain) - per_round(K::kLocalStep)});
  out.push_back({"data.next_tokens_s", "s",
                 (source_s - source_s_start) / rounds});
  out.push_back({"comm.broadcast_s", "s", per_round(K::kBroadcast)});
  out.push_back({"comm.update_return_s", "s", per_round(K::kUpdateReturn)});
  out.push_back({"comm.encode_s", "s", per_round(K::kEncode)});
  out.push_back({"comm.decode_s", "s", per_round(K::kDecode)});
  out.push_back({"comm.encode_gbps", "GB/s",
                 static_cast<double>(payload - payload_start) /
                     std::max(1.0, spans.seconds(K::kEncode) * 1e9)});
  out.push_back({"comm.collective_s", "s", per_round(K::kCollective)});
  out.push_back({"comm.dequant_accum_s", "s", per_round(K::kDequantAccum)});
  out.push_back({"comm.retransmits", "count", retries / rounds});
  out.push_back({"comm.corrupt_chunks", "count", corrupt / rounds});
  out.push_back({"secagg.key_exchange_s", "s", per_round(K::kKeyExchange)});
  out.push_back({"secagg.dropouts_recovered", "count", dropouts / rounds});
  out.push_back({"server_opt.apply_ms", "ms",
                 (fed.server_opt->seconds() - opt_s_start) * 1e3 /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, fed.server_opt->calls() - opt_calls_start))});
  out.push_back({"checkpoint.save_s", "s",
                 saves > 0 ? spans.seconds(K::kCheckpoint) / saves : 0.0});
  out.push_back({"checkpoint.mb_written", "MB", ckpt_mb});
  out.push_back({"checkpoint.restore_s", "s", restore_s});
  out.push_back({"aggregator.fanout_s", "s", fanout});
  out.push_back({"aggregator.serial_s", "s", serial});
  out.push_back({"aggregator.unattributed_frac", "ratio",
                 round_s > 0 ? 1.0 - (fanout + serial) / round_s : 0.0});
  out.push_back({"aggregator.cohort_retries", "count", cohort_retries / rounds});
  out.push_back({"async.admission_deferred", "count", deferred / rounds});
  out.push_back({"async.staleness_mean", "versions", staleness / rounds});
  out.push_back({"async.rss_kb_per_client", "KiB",
                 (static_cast<double>(rss_after_kb) -
                  static_cast<double>(rss_before_kb)) /
                     std::max(1, touched)});
  // Both passes replay the same rounds from the same seed; compare only the
  // rounds both ran, so the two medians cover the same work.
  const auto common = static_cast<std::ptrdiff_t>(
      std::min(plain.cpu_s.size(), traced.cpu_s.size()));
  out.push_back(
      {"obs.overhead_frac", "ratio",
       median({traced.cpu_s.begin(), traced.cpu_s.begin() + common}) /
               median({plain.cpu_s.begin(), plain.cpu_s.begin() + common}) -
           1.0});
  out.push_back({"obs.spans_per_round", "count",
                 static_cast<double>(spans.events) / rounds});
  out.push_back({"obs.dropped", "count",
                 static_cast<double>(tracer.dropped())});
  std::printf("  %zu untraced + %zu traced rounds\n", plain.wall_s.size(),
              traced.wall_s.size());
  std::printf("  clients trained: %d of %d after %d traced rounds, %d after "
              "%zu\n",
              trained_at_window, fed.agg->population(),
              std::min(w.window, traced_rounds), touched,
              traced.wall_s.size());
  return plain.wall_s.size() + traced.wall_s.size();
}

/// Runs one workload in the mode `a` asks for, prints its metrics, and
/// writes the result file; the JSON result is the last stdout line.
void run_workload(const Workload& w, const Args& a) {
  fs::create_directories(a.work_dir);
  const auto host = host_fingerprint();
  std::printf("bench_e2e %s seed=%llu trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace);
  for (const auto& [k, v] : host) {
    std::printf("  host.%s = %s\n", k.c_str(), v.c_str());
  }

  std::vector<Metric> metrics;
  const std::size_t attempted = a.trace == 0 ? end_to_end(w, a, metrics)
                                             : per_layer(w, a, metrics);
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) fail_check(m.name + " is not finite");
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!a.expect_names.empty()) {
    check_against_declaration(a.expect_names, a.trace, metrics);
  }

  const std::string result = result_json(attempted, metrics);
  const fs::path result_dir = a.work_dir / "results";
  fs::create_directories(result_dir);
  std::ofstream file(result_dir / (w.name + "-seed" + std::to_string(a.seed) +
                                   "-trace" + std::to_string(a.trace) + ".json"));
  file << "{\"workload\": \"" << w.name << "\", \"seed\": " << a.seed
       << ", \"trace\": " << a.trace << ", \"host\": {";
  for (std::size_t i = 0; i < host.size(); ++i) {
    file << (i > 0 ? ", " : "") << "\"" << host[i].first << "\": \""
         << json_escape(host[i].second) << "\"";
  }
  file << "}, \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const std::vector<Workload> workloads = all_workloads();
  if (a.list) {
    for (const Workload& w : workloads) std::printf("%s\n", w.name.c_str());
    return 0;
  }
  require_release_build();
  // Hermetic: the library's env opt-ins must not change what is measured.
  for (const char* v : {"PHOTON_WIRE_CODEC", "PHOTON_SECAGG", "PHOTON_TRACE"}) {
    ::unsetenv(v);
  }
  Logger::instance().set_level(LogLevel::kError);

  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const Workload& w) {
                                 return w.name == a.workload;
                               });
  if (it == workloads.end()) usage_error("unknown workload '" + a.workload + "'");
  try {
    run_workload(*it, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
