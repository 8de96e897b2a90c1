#pragma once
// Trace-driven round autotuner (DESIGN.md §13).
//
// Closes the loop from observability back into configuration: after each
// round the Tracer's span tree is parsed into a TraceDigest, the digest is
// attributed to a binding resource (client compute / wire bandwidth /
// straggler tail / server drain), and the next round's knobs are chosen
// through the Aggregator's typed decision interface:
//
//   * wire codec      fp32 -> q8 -> q4 by fp32-equivalent link occupancy
//   * topology        PS / AR / RAR by the Appendix B.1 cost model,
//                     cross-checked against the observed collective span
//                     (a mid-round ring fallback pins PS)
//   * cohort size     shrink under straggler-tail pressure, grow while the
//                     tail is flat and the collective has headroom
//   * async limits    max_in_flight up under admission-defer pressure,
//                     down when staleness runs hot
//   * kernel grain    power-of-2 hill-climb toward a shards-per-thread
//   * wire chunk      target, within safe bounds
//
// Every decision is a pure function of (seed, round, prior-trace digests):
// no wall clock, no RNG draws, no hardware probes.  Serial and parallel
// twins therefore produce bit-identical decision histories, and the whole
// tuner state serializes into the checkpoint's tuner section so a
// crash-restored run continues the exact decision timeline.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/aggregator.hpp"
#include "tune/trace_digest.hpp"

namespace photon::tune {

/// What a caller sets.  The knob bounds and decision thresholds are fixed
/// constants in autotuner.cpp; the straggler-tail bound is the digest's.
struct TunerConfig {
  /// Master switch: disabled, observe() still digests but every decision
  /// echoes the initial configuration and apply() is a no-op — the round
  /// path stays byte-identical to an untuned run.
  bool enabled = true;
  std::uint64_t seed = 0x7E0E5ULL;
  /// Deterministic parallelism hint for the grain/chunk targets.  An
  /// explicit value keeps decisions machine-independent; 0 = the kernel
  /// default context's thread count.
  int threads = 0;
  /// Sync cohort bounds; max_cohort is clamped to the population.
  int min_cohort = 2;
  int max_cohort = 64;
};

/// One round's knob decision.  `round` is the round the decision applies
/// TO (the digest that produced it came from round-1).
struct TunerDecision {
  std::uint32_t round = 0;
  BindingResource binding = BindingResource::kClientCompute;
  std::string codec;                 ///< "" = identity fp32 wire
  Topology topology = Topology::kRingAllReduce;
  int clients_per_round = 0;
  int buffer_goal = 0;               ///< async; 0 = config-derived
  int max_in_flight = 0;
  std::size_t kernel_grain = 32768;
  std::size_t wire_chunk_bytes = 256 * 1024;
  std::uint64_t digest_hash = 0;     ///< hash of the digest that drove it

  bool operator==(const TunerDecision&) const = default;

  void serialize(BinaryWriter& w) const;
  static TunerDecision deserialize(BinaryReader& r);
};

class RoundAutotuner final : public RoundStateExtension {
 public:
  explicit RoundAutotuner(TunerConfig config);

  /// Seed the decision history from the aggregator's live configuration so
  /// the first apply() is a no-op and disabled knobs echo reality.  Must
  /// run before the first observe()/apply().
  void bind_initial(Aggregator& agg);

  /// Digest one finished round (events: its trace, e.g.
  /// Tracer::round_events; other rounds' events are ignored) and append the
  /// next round's decision.  Returns that decision.  Idempotent
  /// per round: a second call for an already-observed round (the boundary
  /// read after on_checkpoint already folded it) is a no-op.
  const TunerDecision& observe(const RoundRecord& record,
                               const std::vector<obs::TraceEvent>& events);

  /// RoundStateExtension checkpoint fold: reads the finishing round's
  /// events from the aggregator's tracer (a copy; the rings are left to
  /// their owner) and observes the round so the decision it produces is
  /// part of the captured state.  Checkpointed rounds are therefore digested
  /// WITHOUT their kCheckpoint / kRound spans — deterministically so on
  /// both sides of a crash, which is the point.  (Decisions are pure in
  /// seed, config — including checkpoint cadence — and the trace.)
  void on_checkpoint(const RoundRecord& record) override;

  /// Push the current decision's knobs into the aggregator and the two
  /// process-wide knobs (kernel grain, wire chunk size).  Safe to call at
  /// round boundaries only.
  void apply(Aggregator& agg) const;

  const TunerDecision& current() const { return history_.back(); }
  const std::vector<TunerDecision>& history() const { return history_; }
  const std::vector<TraceDigest>& digests() const { return digests_; }
  const TunerConfig& config() const { return config_; }

  /// Round after which decisions stopped changing (the convergence point
  /// the headline bench asserts on); 0 when only the initial decision
  /// exists.
  std::uint32_t last_decision_change() const;

  // --- RoundStateExtension (the checkpoint's tuner section) --------------
  std::vector<std::uint8_t> capture_state() const override;
  void restore_state(std::span<const std::uint8_t> bytes) override;

 private:
  TunerDecision decide(const TraceDigest& d, const TunerDecision& prev) const;

  TunerConfig config_;
  obs::Tracer* tracer_ = nullptr;  ///< for the on_checkpoint read
  std::int64_t last_observed_ = -1;
  std::int64_t model_params_ = 0;
  int population_ = 0;
  bool secure_agg_ = false;
  bool async_mode_ = false;
  bool bound_ = false;
  /// Sticky: any digest so far was straggler-tail-bound (recomputed from
  /// digests_ on restore, so it needs no checkpoint field of its own).
  bool tail_seen_ = false;
  std::vector<TunerDecision> history_;
  std::vector<TraceDigest> digests_;
};

}  // namespace photon::tune
