#include "tune/autotuner.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "comm/cost_model.hpp"
#include "comm/message.hpp"
#include "tensor/kernel_context.hpp"

namespace photon::tune {

namespace {

constexpr std::uint32_t kStateMagic = 0x314E5554;  // 'TUN1'

// --- knob bounds ------------------------------------------------------------
constexpr int kMaxInFlightCap = 256;
constexpr std::size_t kMinGrain = 4096;
constexpr std::size_t kMaxGrain = std::size_t{1} << 20;
/// Chunk bounds stay multiples of 1 KiB (256 floats) so the quantizer's
/// 256-float block grid is unchanged by chunk moves — retuning the chunk
/// size changes wire framing and parallelism, never dequantized values.
constexpr std::size_t kMinChunkBytes = 64 * 1024;
constexpr std::size_t kMaxChunkBytes = 1024 * 1024;

// --- decision thresholds ----------------------------------------------------
constexpr double kQ8Occupancy = 0.25;    ///< fp32-equiv wire share for q8
constexpr double kQ4Occupancy = 0.55;    ///< ... and q4
constexpr double kFp32Occupancy = 0.10;  ///< de-escalate to fp32 below this
constexpr double kTailGrow = 1.2;        ///< grow cohort at tail_ratio <= this
constexpr double kCollectiveHeadroom = 0.35;  ///< no growth past this share
constexpr double kTopologyGain = 1.05;  ///< model-predicted gain to switch
constexpr double kDeferHigh = 1.0;      ///< defers/accept raising in-flight
constexpr double kStalenessMax = 2.0;   ///< mean staleness that lowers it

/// Nominal wire compression ratio per codec (measured end-to-end payload
/// ratios; q8/q4 carry per-block scales so they land under the ideal
/// 4x/8x).  Used to normalize the *observed* wire time to its
/// fp32-equivalent before comparing against the occupancy thresholds —
/// otherwise switching to q8 shrinks the observed wire share below the
/// escalation threshold and the codec decision oscillates forever.
double compression_ratio(const std::string& codec) {
  if (codec == "q8") return 3.94;
  if (codec == "q4") return 7.8;
  return 1.0;
}

std::size_t floor_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

/// One deterministic hill-climb step: move `cur` (a power of two) one x2 /
/// /2 step toward `target`, clamped to [lo, hi].  Single-step moves keep
/// the knob path insensitive to transient digest noise.
std::size_t step_toward(std::size_t cur, std::size_t target, std::size_t lo,
                        std::size_t hi) {
  const std::size_t goal = std::clamp(floor_pow2(target), lo, hi);
  if (cur * 2 <= goal) return cur * 2;
  if (cur / 2 >= goal && cur / 2 >= lo) return cur / 2;
  return cur;
}

}  // namespace

void TunerDecision::serialize(BinaryWriter& w) const {
  w.write(round);
  w.write(static_cast<std::uint8_t>(binding));
  w.write_string(codec);
  w.write(static_cast<std::uint8_t>(topology));
  w.write(clients_per_round);
  w.write(buffer_goal);
  w.write(max_in_flight);
  w.write(static_cast<std::uint64_t>(kernel_grain));
  w.write(static_cast<std::uint64_t>(wire_chunk_bytes));
  w.write(digest_hash);
}

TunerDecision TunerDecision::deserialize(BinaryReader& r) {
  TunerDecision d;
  d.round = r.read<std::uint32_t>();
  d.binding = read_binding(r);
  d.codec = r.read_string();
  const auto topology = r.read<std::uint8_t>();
  if (topology > static_cast<std::uint8_t>(Topology::kRingAllReduce)) {
    throw std::runtime_error("RoundAutotuner: bad topology byte " +
                             std::to_string(topology));
  }
  d.topology = static_cast<Topology>(topology);
  d.clients_per_round = r.read<int>();
  d.buffer_goal = r.read<int>();
  d.max_in_flight = r.read<int>();
  d.kernel_grain = static_cast<std::size_t>(r.read<std::uint64_t>());
  d.wire_chunk_bytes = static_cast<std::size_t>(r.read<std::uint64_t>());
  d.digest_hash = r.read<std::uint64_t>();
  return d;
}

RoundAutotuner::RoundAutotuner(TunerConfig config) : config_(config) {
  if (config_.min_cohort < 1 || config_.max_cohort < config_.min_cohort) {
    throw std::invalid_argument("RoundAutotuner: bad cohort bounds");
  }
}

void RoundAutotuner::bind_initial(Aggregator& agg) {
  const AggregatorConfig& ac = agg.config();
  population_ = agg.population();
  model_params_ = static_cast<std::int64_t>(agg.global_params().size());
  secure_agg_ = ac.secure_aggregation;
  async_mode_ = ac.async.enabled;
  config_.max_cohort = std::min(config_.max_cohort, population_);
  config_.min_cohort = std::min(config_.min_cohort, config_.max_cohort);
  if (config_.threads <= 0) {
    config_.threads = std::max(1, kernels::default_context().threads());
  }

  TunerDecision d;
  d.round = 0;
  d.topology = ac.topology;
  d.clients_per_round =
      ac.clients_per_round > 0 ? ac.clients_per_round : population_;
  d.codec = population_ > 0 ? agg.client(0).config().link_codec : "";
  d.buffer_goal = agg.async_buffer_goal();
  d.max_in_flight = agg.async_max_in_flight();
  d.kernel_grain = kernels::default_context().grain();
  d.wire_chunk_bytes = wire_chunk_bytes();
  d.digest_hash = 0;

  history_.assign(1, d);
  digests_.clear();
  last_observed_ = -1;
  tail_seen_ = false;
  tracer_ = agg.tracer();
  bound_ = true;
  agg.set_state_extension(this);
}

const TunerDecision& RoundAutotuner::observe(
    const RoundRecord& record, const std::vector<obs::TraceEvent>& events) {
  if (!bound_) {
    throw std::logic_error("RoundAutotuner: observe() before bind_initial()");
  }
  if (static_cast<std::int64_t>(record.round) <= last_observed_) {
    return history_.back();  // already folded by on_checkpoint
  }
  last_observed_ = record.round;
  const TraceDigest d = digest_round(record, events);
  digests_.push_back(d);
  tail_seen_ = tail_seen_ || d.binding == BindingResource::kStragglerTail;
  TunerDecision next = config_.enabled && d.clients > 0
                           ? decide(d, history_.back())
                           : history_.back();
  next.round = record.round + 1;
  next.binding = d.binding;
  next.digest_hash = d.hash();
  history_.push_back(next);
  return history_.back();
}

void RoundAutotuner::on_checkpoint(const RoundRecord& record) {
  if (!bound_ || tracer_ == nullptr) return;
  (void)observe(record, tracer_->round_events(record.round));
}

TunerDecision RoundAutotuner::decide(const TraceDigest& d,
                                     const TunerDecision& prev) const {
  TunerDecision next = prev;
  const double round_s = std::max(d.round_s, 1e-12);

  // --- wire codec: fp32-equivalent link occupancy ------------------------
  if (!secure_agg_) {
    const double wire_s =
        (d.client_bcast_s + d.client_update_s + d.client_retry_s +
         d.collective_s) *
        compression_ratio(prev.codec);
    const double occupancy = wire_s / round_s;
    if (occupancy >= kQ4Occupancy) {
      next.codec = "q4";
    } else if (occupancy >= kQ8Occupancy) {
      next.codec = "q8";
    } else if (occupancy < kFp32Occupancy) {
      next.codec = "";
    }
  }

  // --- topology: cost-model argmin with hysteresis -----------------------
  if (!secure_agg_) {
    if (d.topology_fallback != 0) {
      // The fabric already degraded AR/RAR to PS mid-round; pin PS until
      // a clean round shows otherwise.
      next.topology = Topology::kParameterServer;
    } else {
      const int k = std::max(1, prev.clients_per_round);
      constexpr Topology kAll[] = {Topology::kParameterServer,
                                   Topology::kAllReduce,
                                   Topology::kRingAllReduce};
      // Rank by Appendix B.1's per-worker traffic, in multiples of S/B.
      Topology best = prev.topology;
      double best_f = traffic_ratio(prev.topology, k).value();
      for (const Topology t : kAll) {
        const double f = traffic_ratio(t, k).value();
        if (f < best_f) {
          best = t;
          best_f = f;
        }
      }
      // Only switch when the model predicts a real gain AND the observed
      // collective span is worth optimizing (cross-check: a model win on a
      // negligible span is not worth a reconfiguration).
      const double cur_f = traffic_ratio(prev.topology, k).value();
      if (best != prev.topology && cur_f / best_f >= kTopologyGain &&
          d.collective_s / round_s >= 0.01) {
        next.topology = best;
      }
    }
  }

  // --- cohort size: straggler tail vs collective headroom ----------------
  if (!async_mode_) {
    const int k = prev.clients_per_round;
    const int step = std::max(1, k / 4);
    if (d.binding == BindingResource::kStragglerTail) {
      next.clients_per_round = std::max(config_.min_cohort, k - step);
    } else if (!tail_seen_ && d.tail_ratio() <= kTailGrow &&
               d.crashes == 0 && d.link_fails == 0 &&
               d.collective_s / round_s <= kCollectiveHeadroom) {
      // Growth is gated on never having seen a tail-bound round: straggler
      // mixes are stochastic per round, and without the sticky gate the
      // cohort oscillates (grow on a lucky round, shrink right back),
      // which both hurts throughput and breaks decision convergence.
      next.clients_per_round = std::min(config_.max_cohort, k + step);
    }
  }

  // --- async admission: defer pressure vs staleness ----------------------
  if (async_mode_) {
    if (d.defer_pressure >= kDeferHigh) {
      next.max_in_flight = std::min(kMaxInFlightCap,
                                    prev.max_in_flight + prev.max_in_flight / 2);
    } else if (d.defer_pressure == 0.0 && d.mean_staleness > kStalenessMax) {
      next.max_in_flight =
          std::max(prev.buffer_goal, prev.max_in_flight -
                                         std::max(1, prev.max_in_flight / 4));
    }
  }

  // --- kernel grain / wire chunk: power-of-2 hill-climb ------------------
  const auto params = static_cast<std::size_t>(std::max<std::int64_t>(
      model_params_, 1));
  const auto threads = static_cast<std::size_t>(std::max(config_.threads, 1));
  if (d.binding == BindingResource::kClientCompute) {
    // Target: ~4 shards per thread so the pool can load-balance without
    // drowning in dispatch overhead.
    const std::size_t target = params / (4 * threads);
    next.kernel_grain =
        step_toward(prev.kernel_grain, target, kMinGrain, kMaxGrain);
  }
  if (d.binding == BindingResource::kWireBandwidth) {
    // Target: ~2 chunks per thread of fp32 payload, so encode/decode of a
    // single tensor saturates the pool.
    const std::size_t target = 4 * params / (2 * threads);
    next.wire_chunk_bytes = step_toward(prev.wire_chunk_bytes, target,
                                        kMinChunkBytes, kMaxChunkBytes);
  }

  return next;
}

void RoundAutotuner::apply(Aggregator& agg) const {
  if (!config_.enabled || !bound_) return;
  const TunerDecision& d = history_.back();
  if (!secure_agg_) {
    agg.set_topology(d.topology);
    agg.set_wire_codec(d.codec);
  }
  if (async_mode_) {
    agg.set_async_limits(d.buffer_goal, d.max_in_flight);
  } else {
    agg.set_clients_per_round(d.clients_per_round);
  }
  kernels::set_default_grain(d.kernel_grain);
  set_wire_chunk_bytes(d.wire_chunk_bytes);
}

std::uint32_t RoundAutotuner::last_decision_change() const {
  for (std::size_t i = history_.size(); i-- > 1;) {
    const TunerDecision& a = history_[i];
    const TunerDecision& b = history_[i - 1];
    // Compare knobs only (round/binding/digest_hash advance every round).
    if (a.codec != b.codec || a.topology != b.topology ||
        a.clients_per_round != b.clients_per_round ||
        a.buffer_goal != b.buffer_goal || a.max_in_flight != b.max_in_flight ||
        a.kernel_grain != b.kernel_grain ||
        a.wire_chunk_bytes != b.wire_chunk_bytes) {
      return a.round;
    }
  }
  return 0;
}

std::vector<std::uint8_t> RoundAutotuner::capture_state() const {
  BinaryWriter w;
  w.write(kStateMagic);
  w.write(config_.seed);
  w.write(static_cast<std::uint64_t>(history_.size()));
  for (const TunerDecision& d : history_) d.serialize(w);
  w.write(static_cast<std::uint64_t>(digests_.size()));
  for (const TraceDigest& d : digests_) d.serialize(w);
  return w.take();
}

void RoundAutotuner::restore_state(std::span<const std::uint8_t> bytes) {
  BinaryReader r(bytes);
  if (r.read<std::uint32_t>() != kStateMagic) {
    throw std::runtime_error("RoundAutotuner: bad tuner-state magic");
  }
  if (r.read<std::uint64_t>() != config_.seed) {
    throw std::runtime_error("RoundAutotuner: tuner-state seed mismatch");
  }
  // Both lists grow one record at a time, so a count the bytes cannot back
  // fails on a truncated read, never on a huge allocation.  Nothing is
  // committed until every record has parsed.
  std::vector<TunerDecision> history;
  for (auto n = r.read<std::uint64_t>(); n > 0; --n) {
    history.push_back(TunerDecision::deserialize(r));
  }
  std::vector<TraceDigest> digests;
  for (auto n = r.read<std::uint64_t>(); n > 0; --n) {
    digests.push_back(TraceDigest::deserialize(r));
  }
  if (history.empty()) {
    throw std::runtime_error("RoundAutotuner: restored empty history");
  }
  history_ = std::move(history);
  digests_ = std::move(digests);
  tail_seen_ = std::any_of(digests_.begin(), digests_.end(), [](const auto& d) {
    return d.binding == BindingResource::kStragglerTail;
  });
  last_observed_ = digests_.empty()
                       ? -1
                       : static_cast<std::int64_t>(digests_.back().round);
}

}  // namespace photon::tune
