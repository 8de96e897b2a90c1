#include "comm/link.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>
#include <optional>
#include <stdexcept>

#include "util/rng.hpp"

namespace photon {

double RetryPolicy::backoff_s(std::uint64_t key, std::uint64_t n) const {
  double b = backoff_base_s *
             std::pow(kRetryBackoffMultiplier, static_cast<double>(n) - 1.0);
  b = std::min(b, kRetryBackoffMaxS);
  // Deterministic jitter in [-1, 1): a pure function of the retry's
  // identity, so replays never depend on wall clock or thread interleaving.
  const std::uint64_t h = hash_combine(kRetryJitterSeed, hash_combine(key, n));
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  b *= 1.0 + kRetryJitterFrac * unit;
  return b;
}

SimLink::SimLink(std::string name, double bandwidth_gbps, double latency_ms)
    : name_(std::move(name)),
      bandwidth_gbps_(bandwidth_gbps),
      latency_s_(latency_ms / 1000.0) {
  if (bandwidth_gbps_ <= 0.0) {
    throw std::invalid_argument("SimLink: bandwidth must be > 0");
  }
  if (latency_s_ < 0.0) {
    throw std::invalid_argument("SimLink: latency must be >= 0");
  }
}

double SimLink::transfer_time(std::uint64_t bytes) const {
  const double bytes_per_second = bandwidth_gbps_ * 1e9 / 8.0;
  return latency_s_ + static_cast<double>(bytes) / bytes_per_second;
}

namespace {

// A corrupted attempt's bytes: a private copy of the non-empty `image`
// with one bit flipped inside its CRC-protected region (chunk bytes + CRC
// field), so the receiver is guaranteed to detect it; `seed` picks the
// (byte, bit).  A shared image is never written, and the copy lives only
// for its attempt, on the thread running it.  Its pages are mapped and
// unmapped directly: freeing a model-sized malloc block raises glibc's
// dynamic mmap threshold, after which model-sized buffers come from arenas
// that keep their pages.  On bench_e2e's secure_faults (4-vCPU Xeon) a
// std::vector copy here read 8-10% more peak RSS than the parent's
// in-place flip; mapped pages read 2-4% more.
class CorruptedCopy {
 public:
  CorruptedCopy(const WireScratch& image, std::uint64_t seed)
      : size_(image.wire.size()),
        data_(static_cast<std::uint8_t*>(
            mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0))) {
    if (data_ == MAP_FAILED) throw std::bad_alloc();
    std::memcpy(data_, image.wire.data(), size_);
    const std::size_t lo = std::min(image.payload_offset, size_ - 1);
    data_[lo + seed % (size_ - lo)] ^=
        static_cast<std::uint8_t>(1u << ((seed >> 32) % 8));
  }
  ~CorruptedCopy() { munmap(data_, size_); }
  CorruptedCopy(const CorruptedCopy&) = delete;
  CorruptedCopy& operator=(const CorruptedCopy&) = delete;

  std::span<const std::uint8_t> bytes() const { return {data_, size_}; }

 private:
  std::size_t size_;
  std::uint8_t* data_;
};

}  // namespace

void encode_for_transmit(const Message& message, WireScratch& image,
                         const LinkTraceContext& trace, ThreadPool* pool,
                         const ChunkWriter& write_chunk) {
  const obs::RealTimer timer = trace.trace.timer();
  message.encode_into(image, pool, write_chunk);
  trace.trace.record(obs::SpanKind::kEncode, trace.actor, 0, trace.sim_base,
                     trace.sim_base, timer.ns());
}

void SimLink::transmit(const Message& message, const WireScratch& image,
                       Message& out, const LinkTraceContext& trace) {
  out.payload.resize(message.view().size());
  transmit(message, image, out, out.payload, trace);
}

void SimLink::transmit(const Message& message, const WireScratch& image,
                       Message& header, std::span<float> payload,
                       const LinkTraceContext& trace) {
  if (payload.size() != message.view().size()) {
    throw std::invalid_argument("SimLink::transmit: the payload holds " +
                                std::to_string(message.view().size()) +
                                " floats, the receive buffer " +
                                std::to_string(payload.size()));
  }
  transmit_impl(message, image, trace,
                [&](std::span<const std::uint8_t> wire) {
                  Message::decode_into(wire, header, payload, pool_);
                });
}

void SimLink::transmit_wire(const Message& message, const WireScratch& image,
                            Message& header, WireView& view,
                            const LinkTraceContext& trace) {
  // validate_wire throws on exactly the corruptions decode_into would
  // reject (the CRC covers the compressed chunk bytes), so retransmit
  // behavior — including under injected bit flips — is unchanged.
  transmit_impl(message, image, trace,
                [&](std::span<const std::uint8_t> wire) {
                  Message::validate_wire(wire, header, view, pool_);
                });
}

template <typename Receive>
void SimLink::transmit_impl(const Message& message, const WireScratch& image,
                            const LinkTraceContext& ctx, Receive&& receive) {
  stats_.payload_bytes += message.view().size() * sizeof(float);
  ++stats_.messages;
  const int max_attempts = std::max(1, retry_.max_attempts);

  // Tracing: spans walk a deterministic sim-time cursor from the context's
  // base over the same transfer/backoff arithmetic the stats record, so
  // the emitted timeline is bit-identical at any thread count.
  double cursor = ctx.sim_base;
  const auto mark = [&](obs::SpanKind kind, double begin, double end,
                        int attempt, std::uint64_t real_ns) {
    ctx.trace.record(kind, ctx.actor, attempt, begin, end, real_ns);
  };

  double spent = 0.0;  // simulated seconds consumed by this message
  for (int attempt = 1;; ++attempt) {
    const LinkFault fault =
        fault_hook_ ? fault_hook_(message, attempt) : LinkFault{};
    bool delivered = false;
    if (fault.drop) {
      // Transient send failure: nothing reaches the peer, but noticing the
      // failure still burns the propagation delay.
      ++stats_.send_failures;
      stats_.transfer_seconds += latency_s_;
      spent += latency_s_;
      cursor += latency_s_;
    } else {
      mark(obs::SpanKind::kEncode, cursor, cursor, attempt, 0);
      std::optional<CorruptedCopy> corrupted;
      if (fault.corrupt != 0 && !image.wire.empty()) {
        corrupted.emplace(image, fault.corrupt);
      }
      const std::span<const std::uint8_t> wire =
          corrupted ? corrupted->bytes()
                    : std::span<const std::uint8_t>(image.wire);
      stats_.wire_bytes += wire.size();
      const double t = transfer_time(wire.size());
      stats_.transfer_seconds += t;
      spent += t;
      cursor += t;
      const obs::RealTimer decode_timer = ctx.trace.timer();
      try {
        receive(wire);
        delivered = true;
      } catch (const std::exception&) {
        // Corrupted on the wire; every injected flip lands in CRC-covered
        // bytes, so decode always rejects rather than returning garbage.
        ++stats_.corrupt_chunks;
      }
      mark(obs::SpanKind::kDecode, cursor, cursor, attempt, decode_timer.ns());
    }
    if (delivered) return;

    if (attempt >= max_attempts) {
      ++stats_.aborted_messages;
      mark(obs::SpanKind::kLinkFail, cursor, cursor, attempt, 0);
      throw TransmitError(name_ + ": message abandoned after " +
                          std::to_string(attempt) + " attempts");
    }
    const double backoff = std::max(
        retry_.backoff_s(hash_combine(message.round, message.sender),
                         static_cast<std::uint64_t>(attempt)),
        0.0);
    if (retry_.message_deadline_s > 0.0 &&
        spent + backoff > retry_.message_deadline_s) {
      ++stats_.aborted_messages;
      ++stats_.deadline_misses;
      mark(obs::SpanKind::kLinkFail, cursor, cursor, attempt, 0);
      throw TransmitError(name_ + ": message deadline exceeded after " +
                          std::to_string(attempt) + " attempts");
    }
    mark(obs::SpanKind::kRetryWait, cursor, cursor + backoff, attempt, 0);
    spent += backoff;
    cursor += backoff;
    stats_.backoff_seconds += backoff;
    ++stats_.retries;
  }
}

NetworkFabric::NetworkFabric(std::vector<std::string> sites)
    : sites_(std::move(sites)),
      bandwidth_(sites_.size() * sites_.size(), 0.0) {
  if (sites_.size() < 2) {
    throw std::invalid_argument("NetworkFabric: need at least 2 sites");
  }
}

std::size_t NetworkFabric::site_index(const std::string& name) const {
  const auto it = std::find(sites_.begin(), sites_.end(), name);
  if (it == sites_.end()) {
    throw std::out_of_range("NetworkFabric: unknown site " + name);
  }
  return static_cast<std::size_t>(it - sites_.begin());
}

void NetworkFabric::set_bandwidth(std::size_t from, std::size_t to,
                                  double gbps) {
  if (from >= sites_.size() || to >= sites_.size() || from == to) {
    throw std::out_of_range("NetworkFabric::set_bandwidth: bad indices");
  }
  if (gbps <= 0.0) {
    throw std::invalid_argument("NetworkFabric: bandwidth must be > 0");
  }
  bandwidth_[from * sites_.size() + to] = gbps;
}

void NetworkFabric::set_symmetric_bandwidth(std::size_t a, std::size_t b,
                                            double gbps) {
  set_bandwidth(a, b, gbps);
  set_bandwidth(b, a, gbps);
}

double NetworkFabric::bandwidth(std::size_t from, std::size_t to) const {
  if (from >= sites_.size() || to >= sites_.size()) {
    throw std::out_of_range("NetworkFabric::bandwidth: bad indices");
  }
  return bandwidth_[from * sites_.size() + to];
}

double NetworkFabric::slowest_ring_link_gbps() const {
  double slowest = bandwidth(sites_.size() - 1, 0);
  for (std::size_t i = 0; i + 1 < sites_.size(); ++i) {
    slowest = std::min(slowest, bandwidth(i, i + 1));
  }
  if (slowest <= 0.0) {
    throw std::runtime_error("NetworkFabric: ring has an unset link");
  }
  return slowest;
}

double NetworkFabric::slowest_star_link_gbps(std::size_t hub) const {
  double slowest = -1.0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (i == hub) continue;
    const double up = bandwidth(i, hub);
    const double down = bandwidth(hub, i);
    const double worst = std::min(up, down);
    slowest = slowest < 0.0 ? worst : std::min(slowest, worst);
  }
  if (slowest <= 0.0) {
    throw std::runtime_error("NetworkFabric: star has an unset link");
  }
  return slowest;
}

}  // namespace photon
