#pragma once
// Trace digests (DESIGN.md §13): the autotuner's deterministic view of one
// finished round.
//
// A digest condenses the Tracer's span tree for one round (parsed back via
// obs::attribute_rounds) plus the round's record into a handful of sim-time
// aggregates, then attributes the round to a *binding resource* — the thing
// the round actually waited on.  Every field is a pure function of the
// deterministic span/record fields (sim timestamps, byte counts, event
// counts — NEVER real_ns or wall_seconds), so a digest of the same
// federation is bit-identical at any thread count, which is what lets the
// tuner's decisions stay bit-reproducible and crash-recoverable.

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "obs/export.hpp"
#include "util/serialization.hpp"

namespace photon::tune {

/// What the round's sim-time was bound by.
enum class BindingResource : std::uint8_t {
  kClientCompute = 0,  ///< local training dominates the client path
  kWireBandwidth = 1,  ///< link transfer + collective dominate
  kStragglerTail = 2,  ///< slowest client far beyond the median
  kServerDrain = 3,    ///< async admission pressure (defers dominate)
  kPrivacy = 4,        ///< secagg key exchange + share recovery dominate
};

const char* binding_resource_name(BindingResource r);

/// Reads a serialized BindingResource byte; throws std::runtime_error on a
/// byte that names no resource.
BindingResource read_binding(BinaryReader& r);

/// Deterministic per-round condensation of the span tree + round record.
struct TraceDigest {
  std::uint32_t round = 0;

  // --- sim-time aggregates (seconds) ------------------------------------
  double round_s = 0.0;            ///< kRound span width (async: drain span)
  double client_bcast_s = 0.0;     ///< mean per-client broadcast transfer
  double client_train_s = 0.0;     ///< mean per-client local training
  double client_update_s = 0.0;    ///< mean per-client update return
  double client_retry_s = 0.0;     ///< mean per-client link backoff
  double collective_s = 0.0;       ///< fabric aggregation window
  double slowest_client_s = 0.0;   ///< max per-client critical path
  double median_client_s = 0.0;    ///< median per-client critical path
  double privacy_s = 0.0;          ///< secagg key exchange + recovery

  // --- pressure signals --------------------------------------------------
  double defer_pressure = 0.0;     ///< admission defers per accepted update
  double mean_staleness = 0.0;     ///< async: over accepted updates

  // --- counts ------------------------------------------------------------
  std::int32_t clients = 0;        ///< clients with spans this round
  std::int32_t survivors = 0;
  std::int32_t straggler_cuts = 0;
  std::int32_t crashes = 0;
  std::int32_t link_fails = 0;
  std::uint8_t topology_fallback = 0;  ///< AR/RAR degraded to PS mid-round
  std::uint8_t async_drain = 0;
  std::uint64_t comm_bytes = 0;
  std::uint64_t tokens = 0;

  BindingResource binding = BindingResource::kClientCompute;

  /// Straggler-tail signal: slowest / median client critical path (1.0
  /// when uniform; 0 when no clients participated).
  double tail_ratio() const {
    return median_client_s > 0.0 ? slowest_client_s / median_client_s : 0.0;
  }

  /// FNV-1a over the serialized fields: the digest's identity in decision
  /// history (and the cheap way to memcmp twin timelines).
  std::uint64_t hash() const;

  void serialize(BinaryWriter& w) const;
  static TraceDigest deserialize(BinaryReader& r);
};

/// Build the digest for `record.round` from a drain() or round_events()
/// stream (other rounds' events are ignored).  Returns a digest with
/// clients == 0 when the stream holds no spans for the round (no tracer,
/// or sampled out) — callers should then keep their previous decision.
TraceDigest digest_round(const RoundRecord& record,
                         const std::vector<obs::TraceEvent>& events);

}  // namespace photon::tune
