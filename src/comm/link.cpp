#include "comm/link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace photon {

double RetryPolicy::backoff_s(std::uint64_t key, std::uint64_t n) const {
  double b = backoff_base_s *
             std::pow(backoff_multiplier, static_cast<double>(n) - 1.0);
  b = std::min(b, backoff_max_s);
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

void SimLink::transmit(const Message& message, Message& out) {
  transmit_impl(message, [&](std::span<const std::uint8_t> wire) {
    Message::decode_into(wire, out, pool_);
  });
}

void SimLink::transmit_wire(const Message& message, Message& header,
                            WireView& view) {
  // validate_wire throws on exactly the corruptions decode_into would
  // reject (the CRC covers the compressed chunk bytes), so retransmit
  // behavior — including under injected bit flips — is unchanged.
  transmit_impl(message, [&](std::span<const std::uint8_t> wire) {
    Message::validate_wire(wire, header, view, pool_);
  });
}

template <typename Receive>
void SimLink::transmit_impl(const Message& message, Receive&& receive) {
  const int max_attempts = std::max(1, retry_.max_attempts);
  ++stats_.messages;
  stats_.payload_bytes += message.view().size() * sizeof(float);

  // Tracing: spans walk a deterministic sim-time cursor from the context's
  // base over the same transfer/backoff arithmetic the stats record, so
  // the emitted timeline is bit-identical at any thread count.
  const obs::RoundTrace& trace = trace_.trace;
  double cursor = trace_.sim_base;
  const auto mark = [&](obs::SpanKind kind, double begin, double end,
                        int attempt, std::uint64_t real_ns) {
    trace.record(kind, trace_.actor, attempt, begin, end, real_ns);
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
      const obs::RealTimer encode_timer = trace.timer();
      const auto wire = message.encode_into(scratch_, pool_);
      mark(obs::SpanKind::kEncode, cursor, cursor, attempt, encode_timer.ns());
      if (fault.corrupt != 0 && !scratch_.wire.empty()) {
        // Flip one bit inside the CRC-protected region (chunk bytes + CRC
        // field) — the receiver is guaranteed to be able to detect it.
        const std::size_t lo =
            std::min(scratch_.payload_offset, scratch_.wire.size() - 1);
        const std::size_t span = scratch_.wire.size() - lo;
        const std::size_t byte = lo + fault.corrupt % span;
        scratch_.wire[byte] ^=
            static_cast<std::uint8_t>(1u << ((fault.corrupt >> 32) % 8));
      }
      stats_.wire_bytes += wire.size();
      const double t = transfer_time(wire.size());
      stats_.transfer_seconds += t;
      spent += t;
      cursor += t;
      const obs::RealTimer decode_timer = trace.timer();
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
