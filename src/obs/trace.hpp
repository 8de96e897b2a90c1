#pragma once
// Low-overhead tracing spans for the federated round path (DESIGN.md §9).
//
// A Tracer produces nested spans over two clocks at once:
//
//   * sim clock — the deterministic simulated-time coordinate every span's
//     begin/end timestamps live in.  Sim timestamps are pure functions of
//     (seed, config): link transfer/backoff math, straggle factors, and the
//     cost model — never wall clock or thread schedule — so the drained
//     event stream is bit-identical at any thread count.
//   * real clock — an optional steady-clock duration (`real_ns`) recorded
//     alongside, for profiling actual CPU cost.  Real durations are
//     nondeterministic and are therefore excluded from deterministic
//     exports by default (see obs/export.hpp).
//
// Hot-path contract: record() appends to a per-thread ring buffer owned by
// the tracer — registration of a new thread takes a mutex once, every
// subsequent record is a single-writer array store plus one release store
// of the ring's count.  No locks, no allocation (past ring creation), no
// contention between pool workers.  drain() merges all rings at a
// quiescent point (between rounds; callers must not race it against
// record) and sorts by the deterministic event identity.
//
// Cost when off: a compile-time PHOTON_TRACE=OFF build (see the top-level
// CMake option) turns Tracer::compiled_in() into a constant false so every
// instrumentation site folds to nothing; at runtime, a null tracer is the
// off switch and set_sample_every() thins rounds, both resolved once per
// round into a RoundTrace, so an unsampled span costs one branch.  A bench
// guard (bench/bench_obs_overhead) verifies the disabled cost stays within
// noise of the un-instrumented round path.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#ifndef PHOTON_TRACE_ENABLED
#define PHOTON_TRACE_ENABLED 1
#endif

namespace photon::obs {

/// Span taxonomy of the round path.  Width spans cover a sim-time interval;
/// instant events (sim_begin == sim_end) mark decisions (straggler cut,
/// crash, link failure) or zero-sim-width work measured in real time only
/// (encode/decode).
enum class SpanKind : std::uint8_t {
  kRound = 0,        // one federated round, wall to wall
  kBroadcast,        // Agg -> client model broadcast (transfer + retries)
  kLocalTrain,       // client's tau local steps
  kLocalStep,        // one local optimizer step
  kEncode,           // instant, wire encode: detail 0 = a sender's one
                     // encode of a message at its send time (real_ns =
                     // the encode); detail = attempt >= 1 = that transmit
                     // attempt sending the image (real_ns 0)
  kDecode,           // wire deserialization of one transmit attempt
  kCollective,       // PS/AR/RAR aggregation collective
  kServerOpt,        // ServerOpt::apply on the global model
  kCheckpoint,       // checkpoint save + journal commit
  kRetryWait,        // link retry backoff interval
  kUpdateReturn,     // client -> Agg pseudo-gradient return
  kEval,             // held-out evaluation of the global model
  kStragglerCut,     // client cut by the round deadline (width = sim time
                     // the round still charged to the cut client)
  kCrash,            // instant: client crashed mid-round
  kLinkFail,         // instant: transmit gave up (attempts/deadline)
  kDequantAccum,     // streamed dequantize+accumulate of one wire chunk,
                     // pipelined inside the update-return transfer window
  kBufferDrain,      // async engine: one staleness-weighted server step over
                     // a full FedBuff buffer (width = first dispatch to the
                     // buffer_goal'th accepted arrival)
  kAdmissionDefer,   // instant: admission control told a client to back off
                     // (in-flight cap reached); detail = consecutive defers
  kClientArrive,     // instant: elastic membership — client joined mid-run
  kClientLeave,      // instant: elastic membership — client left permanently
  kKeyExchange,      // secagg: one member's simulated key-agreement rounds
                     // (roster download + share upload); detail = cohort size
  kShareRecovery,    // instant: Shamir reconstruction of one dropped
                     // member's secret; detail = survivor count
};

/// Stable lower_snake name used by every exporter ("round", "retry_wait"...).
const char* span_name(SpanKind kind);

/// Inverse of span_name; throws std::invalid_argument on unknown names.
SpanKind span_kind_from_name(std::string_view name);

/// Number of distinct SpanKind values (for iteration / histograms).
inline constexpr int kNumSpanKinds = 22;

struct TraceEvent {
  SpanKind kind = SpanKind::kRound;
  std::uint32_t round = 0;
  /// Client id the span belongs to; kAggregatorActor for server-side work.
  std::int32_t actor = -1;
  /// Kind-specific detail: local step index, transmit attempt, cohort
  /// attempt, or -1 when unused.
  std::int32_t detail = -1;
  double sim_begin = 0.0;
  double sim_end = 0.0;
  /// Steady-clock duration; 0 when not measured.  Nondeterministic — never
  /// part of the deterministic export or the sort identity.
  std::uint64_t real_ns = 0;
};

inline constexpr std::int32_t kAggregatorActor = -1;

/// Deterministic total order on the fields that identify an event.  Ties
/// can only occur between events whose deterministic fields all coincide,
/// so the drained stream is byte-stable at any thread count.
bool trace_event_before(const TraceEvent& a, const TraceEvent& b);

class Tracer {
 public:
  /// Events each thread's ring holds before dropping (drops are counted,
  /// never silent).  Default comfortably holds a multi-round soak.
  static constexpr std::size_t kDefaultRingCapacity = 1 << 16;

  explicit Tracer(std::size_t ring_capacity = kDefaultRingCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// False in a PHOTON_TRACE=OFF build: every call site folds away.
  static constexpr bool compiled_in() { return PHOTON_TRACE_ENABLED != 0; }

  /// Runtime sampling knob: keep only rounds where round % n == 0 (n >= 1).
  /// Deterministic — a pure function of the round number.
  void set_sample_every(std::uint32_t n);
  std::uint32_t sample_every() const { return sample_every_; }

  /// True when spans of `round` should be recorded under the sampling knob.
  bool sampled(std::uint32_t round) const {
    return compiled_in() && round % sample_every_ == 0;
  }

  /// Append one event to the calling thread's ring.  Lock-free after the
  /// thread's first record.  No-op when the round is sampled out.
  void record(const TraceEvent& event);

  /// Merge every thread ring into one deterministically ordered stream and
  /// reset the rings.  Must run at a quiescent point (no concurrent
  /// record) — e.g. between rounds, after parallel_for has joined.  Events
  /// whose sort identity ties keep ring order.
  std::vector<TraceEvent> drain();

  /// Copy of `round`'s events in drain() order; the rings are left
  /// untouched, so readers that do not own the tracer (the autotuner) never
  /// take spans from its owner.  Same quiescence rule as drain().
  std::vector<TraceEvent> round_events(std::uint32_t round) const;

  /// Events dropped because a ring filled (cumulative; 0 in healthy runs).
  std::uint64_t dropped() const;

 private:
  struct Ring {
    explicit Ring(std::size_t capacity) : slots(capacity) {}
    std::vector<TraceEvent> slots;
    std::atomic<std::size_t> count{0};   // published with release
    std::atomic<std::uint64_t> dropped{0};
  };

  Ring& local_ring();

  const std::size_t capacity_;
  const std::uint64_t id_;  // process-unique, for thread-local ring lookup
  std::uint32_t sample_every_ = 1;
  mutable std::mutex rings_mu_;  // ring registration + drain only
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// Steady-clock stopwatch for real_ns.  Construct with armed=false (or in a
/// PHOTON_TRACE=OFF build) and it never touches the clock: ns() returns 0.
class RealTimer {
 public:
  explicit RealTimer(bool armed = true)
      : armed_(armed && Tracer::compiled_in()),
        start_(armed_ ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{}) {}
  std::uint64_t ns() const {
    if (!armed_) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// One round's view of a tracer: the tracer when it samples the round,
/// nothing otherwise, plus the round number.  The round engine builds one
/// per round and hands it to every component that records spans (links,
/// clients, secagg), so the sampling test runs once, here.  Not a scope
/// guard: most spans learn their sim end only after the work is done, so
/// each span is one explicit record() call.
class RoundTrace {
 public:
  RoundTrace() = default;
  RoundTrace(Tracer* tracer, std::uint32_t round)
      : tracer_(tracer != nullptr && tracer->sampled(round) ? tracer
                                                             : nullptr),
        round_(round) {}

  bool on() const { return tracer_ != nullptr; }
  std::uint32_t round() const { return round_; }
  /// Stopwatch for a span's real_ns, armed only when on().
  RealTimer timer() const { return RealTimer(on()); }
  void record(SpanKind kind, std::int32_t actor, std::int32_t detail,
              double sim_begin, double sim_end,
              std::uint64_t real_ns = 0) const {
    if (tracer_ != nullptr) {
      tracer_->record(
          {kind, round_, actor, detail, sim_begin, sim_end, real_ns});
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  std::uint32_t round_ = 0;
};

/// Process-wide tracer enabled by the PHOTON_TRACE environment variable
/// ("1"/"on"/"true"; anything else or unset = nullptr).  Lets examples and
/// benches opt into tracing without code changes:
///   PHOTON_TRACE=1 ./examples/quickstart
Tracer* env_tracer();

}  // namespace photon::obs
