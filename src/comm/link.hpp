#pragma once
// Link: the Agg <-> LLM-C communication gateway (paper §4).
//
// In this reproduction the federation runs in one process, so Link's job is
// (a) carrying each message's wire image, which its sender encoded, through
// the real CRC-checked receive path, and (b) faithful accounting of bytes
// and transfer time over a simulated network link with finite bandwidth
// and latency.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "obs/trace.hpp"

namespace photon {

struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;   // uncompressed payload volume
  std::uint64_t wire_bytes = 0;      // bytes actually on the wire
  double transfer_seconds = 0.0;     // simulated time spent transferring
  // --- fault-tolerance telemetry ---
  std::uint64_t retries = 0;           // retransmissions beyond first attempt
  std::uint64_t send_failures = 0;     // transient send faults hit
  std::uint64_t corrupt_chunks = 0;    // CRC/codec-rejected receptions
  std::uint64_t aborted_messages = 0;  // gave up (attempts/deadline exhausted)
  std::uint64_t deadline_misses = 0;   // aborts caused by message_deadline_s
                                       // specifically (subset of aborted)
  double backoff_seconds = 0.0;        // simulated time spent backing off

  bool operator==(const LinkStats&) const = default;
};

/// Relative backoff jitter in [-kRetryJitterFrac, +kRetryJitterFrac],
/// derived statelessly from kRetryJitterSeed and the retry's identity
/// (round, sender, attempt on a link; client, defer count at async
/// admission) so replays are bit-exact at any thread count.
inline constexpr double kRetryJitterFrac = 0.1;
inline constexpr std::uint64_t kRetryJitterSeed = 0x4C696E6BULL;  // "Link"
/// Exponential backoff growth per retry, and the cap on a single backoff.
inline constexpr double kRetryBackoffMultiplier = 2.0;
inline constexpr double kRetryBackoffMaxS = 1.0;

/// Retry/backoff policy for SimLink::transmit.  A failed attempt (transient
/// send fault or CRC-rejected reception) is retransmitted after an
/// exponential backoff with deterministic jitter, up to `max_attempts`
/// total attempts and an optional per-message simulated-time deadline.
struct RetryPolicy {
  int max_attempts = 3;          // total attempts; 1 = no retry
  double backoff_base_s = 0.05;  // backoff before the 2nd attempt
  /// Simulated seconds (transfer + backoff) a single message may consume
  /// before the link gives up; 0 = no deadline.
  double message_deadline_s = 0.0;

  /// Backoff before retry `n` (1-based) of the retry identified by `key`:
  /// base * kRetryBackoffMultiplier^(n-1), capped at kRetryBackoffMaxS,
  /// times 1 + kRetryJitterFrac * u for u in [-1, 1) hashed from
  /// kRetryJitterSeed, `key` and `n`.  Unfloored; each caller applies its
  /// own floor.
  double backoff_s(std::uint64_t key, std::uint64_t n) const;
};

/// A fault injected into one transmit attempt (see sim/faults.hpp for the
/// deterministic scheduler that produces these).
struct LinkFault {
  /// Transient send failure: the attempt never reaches the peer.
  bool drop = false;
  /// != 0: flip one bit of the CRC-protected wire region (chunk bytes +
  /// CRC field); the value seeds the (byte, bit) choice.  The receiver must
  /// detect it and the link retransmits.
  std::uint64_t corrupt = 0;
};

/// Per-attempt fault decision hook; must be a pure function of
/// (message identity, attempt) for deterministic replay.
using LinkFaultHook = std::function<LinkFault(const Message&, int attempt)>;

/// Thrown when a message could not be delivered within the retry policy's
/// attempt/deadline budget.  Round engines treat this as a failed client,
/// not a fatal error.
class TransmitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Where the spans of one transmit go, passed with it by its sender:
/// `trace` is the round's trace handle (off by default), `sim_base` the
/// absolute sim timestamp the transmit starts at; the link walks a local
/// cursor forward over its deterministic transfer and backoff times, so
/// every emitted span (encode/decode instants, retry_wait intervals,
/// link_fail marks) lands on the global round timeline without the link
/// knowing about rounds.
struct LinkTraceContext {
  obs::RoundTrace trace;
  std::int32_t actor = -1;  // span actor: the peer client, or the server
  double sim_base = 0.0;
};

/// A sender's one encode of `message` into the buffer it owns, at
/// `chunk_bytes` raw bytes per chunk, on `pool` (nullptr = inline), with
/// its codec chunks from `write_chunk` when given (Message::encode_into),
/// traced as a detail-0 kEncode instant at trace.sim_base on trace.actor
/// carrying the encode's real time.  Every image a SimLink sends is made
/// here.
void encode_for_transmit(const Message& message, WireScratch& image,
                         const LinkTraceContext& trace,
                         std::size_t chunk_bytes, ThreadPool* pool = nullptr,
                         const ChunkWriter& write_chunk = {});

class SimLink {
 public:
  /// bandwidth in Gbps (paper quotes links in Gbps), latency in ms.
  SimLink(std::string name, double bandwidth_gbps, double latency_ms = 0.0);

  const std::string& name() const { return name_; }
  double bandwidth_gbps() const { return bandwidth_gbps_; }
  double latency_s() const { return latency_s_; }

  /// Simulated seconds to move `bytes` over this link.
  double transfer_time(std::uint64_t bytes) const;

  /// "Send" `image`, `message` as its sender encoded it with
  /// encode_for_transmit, and deserialize it into `out` (bit-exact,
  /// CRC-checked, reusing out's payload capacity), recording stats.  Every
  /// attempt resends image.wire, which the link only reads, so one image
  /// serves any number of links, concurrently too.  `message` keys the
  /// fault hook and the retry backoff.  Chunked decode/CRC work runs on
  /// the pool set via set_thread_pool.
  ///
  /// `message`'s payload may borrow `out.payload`, which each attempt's
  /// decode overwrites: once it has taken the payload's size, the link
  /// reads only the message's type, round and sender, and a fault hook
  /// must read no more than its header fields.
  ///
  /// Fault tolerance: each attempt consults the fault hook (if any); a
  /// transient send failure or a CRC-rejected (corrupted) reception is
  /// retransmitted under the RetryPolicy — exponential backoff with
  /// deterministic jitter, bounded attempts, optional per-message simulated
  /// deadline.  Exhausting the budget throws TransmitError and counts an
  /// aborted message; with no hook and no faults the path and stats are
  /// bit-identical to the pre-fault-engine transmit.  A corrupted attempt
  /// flips its bit in a copy of the wire image private to that attempt,
  /// never in the image itself.  Spans go where `trace` says.
  void transmit(const Message& message, const WireScratch& image,
                Message& out, const LinkTraceContext& trace = {});

  /// transmit() into a caller's buffer: each attempt decodes the header
  /// into `header` and the payload into `payload` (Message::decode_into's
  /// span overload), so a receiver can train straight from the floats it
  /// received.  `payload` must hold exactly message.view().size() floats
  /// (std::invalid_argument before any attempt otherwise).  A corrupted
  /// attempt may leave flipped floats in `payload`; the retry that
  /// delivers overwrites every one of them, and an abandoned message
  /// leaves `payload` undefined.  The overload above resizes out.payload
  /// and receives through this one.
  void transmit(const Message& message, const WireScratch& image,
                Message& header, std::span<float> payload,
                const LinkTraceContext& trace = {});

  /// Validate-only transmit for the streamed aggregation path: identical
  /// retry/backoff/fault/stats/trace semantics to transmit(), but the
  /// receive side CRC-checks the wire image without decompressing and
  /// points `view` at it (header fields land in `header`, payload left
  /// empty).  The aggregator then dequantizes-and-accumulates straight from
  /// the compressed chunks, never materializing this client's fp32 payload.
  /// On return `view` borrows image.wire, so the sender keeps that image
  /// unchanged while the view is read: only a clean attempt validates, and
  /// a corrupted attempt's private copy never does, so no view is left
  /// pointing at it.
  void transmit_wire(const Message& message, const WireScratch& image,
                     Message& header, WireView& view,
                     const LinkTraceContext& trace = {});

  /// Pool for per-chunk decode/CRC work (nullptr = inline).  Not owned.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Retry/backoff policy applied by transmit (default: 3 attempts).
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Per-attempt fault injection hook (empty = fault-free).  Not owned by
  /// the link; the closure must outlive it.
  void set_fault_hook(LinkFaultHook hook) { fault_hook_ = std::move(hook); }

  const LinkStats& stats() const { return stats_; }
  /// Resume from checkpointed totals (crash recovery).
  void restore_stats(const LinkStats& stats) { stats_ = stats; }

 private:
  /// The one attempt loop behind both transmits.
  template <typename Receive>
  void transmit_impl(const Message& message, const WireScratch& image,
                     const LinkTraceContext& ctx, Receive&& receive);

  std::string name_;
  double bandwidth_gbps_;
  double latency_s_;
  LinkStats stats_;
  ThreadPool* pool_ = nullptr;
  RetryPolicy retry_;
  LinkFaultHook fault_hook_;
};

/// Directed bandwidth matrix between named sites, used to model the
/// federation of Fig. 2 where the slowest ring link bottlenecks RAR.
class NetworkFabric {
 public:
  explicit NetworkFabric(std::vector<std::string> sites);

  std::size_t num_sites() const { return sites_.size(); }
  const std::vector<std::string>& sites() const { return sites_; }
  std::size_t site_index(const std::string& name) const;

  void set_bandwidth(std::size_t from, std::size_t to, double gbps);
  void set_symmetric_bandwidth(std::size_t a, std::size_t b, double gbps);
  double bandwidth(std::size_t from, std::size_t to) const;

  /// The slowest link along the ring 0 -> 1 -> ... -> n-1 -> 0; this is the
  /// RAR bottleneck (paper Fig. 2 caption).
  double slowest_ring_link_gbps() const;

  /// Bandwidth of the slowest client<->hub connection for a PS rooted at
  /// `hub` (paper: "the connection speed to England limits each update").
  double slowest_star_link_gbps(std::size_t hub) const;

 private:
  std::vector<std::string> sites_;
  std::vector<double> bandwidth_;  // (n, n) Gbps, 0 on diagonal
};

}  // namespace photon
