#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>

namespace photon::obs {

namespace {

constexpr const char* kSpanNames[kNumSpanKinds] = {
    "round",         "broadcast",  "local_train", "local_step",
    "encode",        "decode",     "collective",  "server_opt",
    "checkpoint",    "retry_wait", "update_return", "eval",
    "straggler_cut", "crash",      "link_fail",   "dequant_accum",
    "buffer_drain",  "admission_defer", "client_arrive", "client_leave",
    "key_exchange",  "share_recovery",
};

/// One slot per (thread, tracer) pairing.  A thread that alternates
/// between tracers re-registers (cheap, cold); tracer ids are never
/// reused, so a stale slot can never alias a new tracer.
struct ThreadSlot {
  std::uint64_t owner = 0;
  void* ring = nullptr;
};
thread_local ThreadSlot t_slot;

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const char* span_name(SpanKind kind) {
  const auto i = static_cast<int>(kind);
  if (i < 0 || i >= kNumSpanKinds) return "?";
  return kSpanNames[i];
}

SpanKind span_kind_from_name(std::string_view name) {
  for (int i = 0; i < kNumSpanKinds; ++i) {
    if (name == kSpanNames[i]) return static_cast<SpanKind>(i);
  }
  throw std::invalid_argument("span_kind_from_name: unknown span name '" +
                              std::string(name) + "'");
}

bool trace_event_before(const TraceEvent& a, const TraceEvent& b) {
  return std::tuple(a.round, a.sim_begin, a.actor, static_cast<int>(a.kind),
                    a.detail, a.sim_end) <
         std::tuple(b.round, b.sim_begin, b.actor, static_cast<int>(b.kind),
                    b.detail, b.sim_end);
}

Tracer::Tracer(std::size_t ring_capacity)
    : capacity_(std::max<std::size_t>(1, ring_capacity)),
      id_(next_tracer_id()) {}

Tracer::~Tracer() = default;

void Tracer::set_sample_every(std::uint32_t n) {
  if (n == 0) throw std::invalid_argument("Tracer: sample_every must be >= 1");
  sample_every_ = n;
}

Tracer::Ring& Tracer::local_ring() {
  if (t_slot.owner == id_) return *static_cast<Ring*>(t_slot.ring);
  std::scoped_lock lock(rings_mu_);
  rings_.push_back(std::make_unique<Ring>(capacity_));
  t_slot = {id_, rings_.back().get()};
  return *rings_.back();
}

void Tracer::record(const TraceEvent& event) {
  if constexpr (!compiled_in()) {
    (void)event;
    return;
  }
  if (!sampled(event.round)) return;
  Ring& ring = local_ring();
  const std::size_t idx = ring.count.load(std::memory_order_relaxed);
  if (idx >= ring.slots.size()) {
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring.slots[idx] = event;
  ring.count.store(idx + 1, std::memory_order_release);
}

std::vector<TraceEvent> Tracer::drain() {
  std::vector<TraceEvent> out;
  {
    std::scoped_lock lock(rings_mu_);
    for (auto& ring : rings_) {
      const std::size_t n = ring->count.load(std::memory_order_acquire);
      out.insert(out.end(), ring->slots.begin(),
                 ring->slots.begin() + static_cast<std::ptrdiff_t>(n));
      ring->count.store(0, std::memory_order_relaxed);
    }
  }
  std::stable_sort(out.begin(), out.end(), trace_event_before);
  return out;
}

std::vector<TraceEvent> Tracer::round_events(std::uint32_t round) const {
  std::vector<TraceEvent> out;
  {
    std::scoped_lock lock(rings_mu_);
    for (const auto& ring : rings_) {
      const std::size_t n = ring->count.load(std::memory_order_acquire);
      std::copy_if(ring->slots.begin(),
                   ring->slots.begin() + static_cast<std::ptrdiff_t>(n),
                   std::back_inserter(out),
                   [round](const TraceEvent& e) { return e.round == round; });
    }
  }
  // A stable sort of the ring-order subsequence equals the round's slice of
  // a stable drain(), ties included.
  std::stable_sort(out.begin(), out.end(), trace_event_before);
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::scoped_lock lock(rings_mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

Tracer* env_tracer() {
  static Tracer* tracer = []() -> Tracer* {
    const char* env = std::getenv("PHOTON_TRACE");
    if (env == nullptr) return nullptr;
    const std::string_view v(env);
    if (v != "1" && v != "on" && v != "true") return nullptr;
    static Tracer t;
    return &t;
  }();
  return tracer;
}

}  // namespace photon::obs
