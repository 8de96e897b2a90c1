#include "tune/trace_digest.hpp"

#include <stdexcept>
#include <string>

namespace photon::tune {

namespace {

// Attribution thresholds are fixed semantics of the digest (the *decision*
// thresholds live in autotuner.cpp): a round is tail-bound when the slowest
// client runs 1.5x past the median or the deadline actually cut someone,
// and drain-bound when the async engine issued more defers than accepts.
constexpr double kTailBound = 1.5;
constexpr double kDeferBound = 1.0;

BindingResource attribute(const TraceDigest& d) {
  if (d.async_drain != 0 && d.defer_pressure >= kDeferBound) {
    return BindingResource::kServerDrain;
  }
  if (d.straggler_cuts > 0 || d.tail_ratio() >= kTailBound) {
    return BindingResource::kStragglerTail;
  }
  const double wire =
      d.client_bcast_s + d.client_update_s + d.client_retry_s + d.collective_s;
  if (d.privacy_s > wire && d.privacy_s > d.client_train_s) {
    return BindingResource::kPrivacy;
  }
  return wire > d.client_train_s ? BindingResource::kWireBandwidth
                                 : BindingResource::kClientCompute;
}

}  // namespace

const char* binding_resource_name(BindingResource r) {
  switch (r) {
    case BindingResource::kClientCompute: return "client-compute";
    case BindingResource::kWireBandwidth: return "wire-bandwidth";
    case BindingResource::kStragglerTail: return "straggler-tail";
    case BindingResource::kServerDrain: return "server-drain";
    case BindingResource::kPrivacy: return "privacy";
  }
  return "?";
}

BindingResource read_binding(BinaryReader& r) {
  const auto b = r.read<std::uint8_t>();
  if (b > static_cast<std::uint8_t>(BindingResource::kPrivacy)) {
    throw std::runtime_error("tune: bad binding-resource byte " +
                             std::to_string(b));
  }
  return static_cast<BindingResource>(b);
}

std::uint64_t TraceDigest::hash() const {
  BinaryWriter w;
  serialize(w);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const std::uint8_t b : w.bytes()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void TraceDigest::serialize(BinaryWriter& w) const {
  w.write(round);
  w.write(round_s);
  w.write(client_bcast_s);
  w.write(client_train_s);
  w.write(client_update_s);
  w.write(client_retry_s);
  w.write(collective_s);
  w.write(slowest_client_s);
  w.write(median_client_s);
  w.write(privacy_s);
  w.write(defer_pressure);
  w.write(mean_staleness);
  w.write(clients);
  w.write(survivors);
  w.write(straggler_cuts);
  w.write(crashes);
  w.write(link_fails);
  w.write(topology_fallback);
  w.write(async_drain);
  w.write(comm_bytes);
  w.write(tokens);
  w.write(static_cast<std::uint8_t>(binding));
}

TraceDigest TraceDigest::deserialize(BinaryReader& r) {
  TraceDigest d;
  d.round = r.read<std::uint32_t>();
  d.round_s = r.read<double>();
  d.client_bcast_s = r.read<double>();
  d.client_train_s = r.read<double>();
  d.client_update_s = r.read<double>();
  d.client_retry_s = r.read<double>();
  d.collective_s = r.read<double>();
  d.slowest_client_s = r.read<double>();
  d.median_client_s = r.read<double>();
  d.privacy_s = r.read<double>();
  d.defer_pressure = r.read<double>();
  d.mean_staleness = r.read<double>();
  d.clients = r.read<std::int32_t>();
  d.survivors = r.read<std::int32_t>();
  d.straggler_cuts = r.read<std::int32_t>();
  d.crashes = r.read<std::int32_t>();
  d.link_fails = r.read<std::int32_t>();
  d.topology_fallback = r.read<std::uint8_t>();
  d.async_drain = r.read<std::uint8_t>();
  d.comm_bytes = r.read<std::uint64_t>();
  d.tokens = r.read<std::uint64_t>();
  d.binding = read_binding(r);
  return d;
}

TraceDigest digest_round(const RoundRecord& record,
                         const std::vector<obs::TraceEvent>& events) {
  TraceDigest d;
  d.round = record.round;
  for (const obs::RoundAttribution& a : obs::attribute_rounds(events)) {
    if (a.round != record.round) continue;
    const double inv_c = a.clients > 0 ? 1.0 / a.clients : 0.0;
    d.round_s = a.round_s > 0.0 ? a.round_s : a.buffer_drain_s;
    d.client_bcast_s = a.broadcast_s * inv_c;
    d.client_train_s = a.local_train_s * inv_c;
    d.client_update_s = a.update_return_s * inv_c;
    d.client_retry_s = a.retry_wait_s * inv_c;
    d.collective_s = a.collective_s;
    d.slowest_client_s = a.slowest_client_s;
    d.median_client_s = a.median_client_s;
    d.privacy_s = a.key_exchange_s;
    d.clients = a.clients;
    break;
  }
  // Checkpoint-time digests run before the kRound / kBufferDrain spans are
  // recorded; reconstruct the round width from the client critical path so
  // occupancy fractions stay meaningful (deterministic on both sides of a
  // crash, because both sides digest at the same point).
  if (d.round_s <= 0.0) d.round_s = d.slowest_client_s + d.collective_s;
  // Record-side signals (all sim-deterministic; wall_* fields are real time
  // and must never reach a digest).
  // Tracer-off rounds still carry the privacy window in the record.
  if (d.privacy_s <= 0.0) d.privacy_s = record.sim_privacy_seconds;
  d.survivors = record.survivors;
  d.straggler_cuts = record.straggler_drops;
  d.crashes = record.crashed_clients;
  d.link_fails = record.link_failed_clients;
  d.topology_fallback = record.topology_fallback ? 1 : 0;
  d.async_drain = record.async_drain ? 1 : 0;
  d.comm_bytes = record.comm_bytes;
  d.tokens = record.tokens_this_round;
  d.mean_staleness = record.mean_staleness;
  d.defer_pressure =
      record.survivors > 0
          ? static_cast<double>(record.admission_deferred) / record.survivors
          : static_cast<double>(record.admission_deferred);
  d.binding = attribute(d);
  return d;
}

}  // namespace photon::tune
