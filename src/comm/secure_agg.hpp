#pragma once
// Pairwise-masked secure aggregation with dropout recovery (DESIGN.md §14).
//
// Bonawitz-style protocol, simulated end to end:
//
//   1. Key agreement.  Every cohort member i derives a per-round secret
//      sk_i and publishes pk_i = sk_i * G (mod 2^64, G odd so the map is a
//      bijection).  The multiplication commutes, so both endpoints of a
//      pair compute the same shared key k_ij = sk_i * pk_j = sk_j * pk_i
//      and hash it into a symmetric pair seed.  The roster of public keys
//      and each member's secret shares travel over the member's SimLink as
//      kControl messages — they cost wire bytes and simulated time, retry
//      under the link's RetryPolicy, and appear as kKeyExchange spans.
//
//   2. Masking.  Updates are encoded into a fixed-point mod-2^64 ring
//      (q = round(x * 2^F), F fractional bits) and each pair (i, j) adds
//      sign(i, j) * PRG(seed_ij, element) with sign(i, j) = -sign(j, i).
//      Wrapping u64 arithmetic makes cancellation exact — the sum of the
//      masked updates is bit-identical to the sum of the encodings — and
//      the counter-based PRG (splitmix hash of (seed, absolute element
//      index), the SIMD layer's k_sr_hash) makes masking stateless, so it
//      shards over threads and SIMD variants bit-identically.
//
//   3. Dropout recovery.  sk_i is Shamir-shared (t of n, over the field
//      Z_p with p = 2^61 - 1) among the cohort during key exchange.  When
//      a member drops mid-round (crash, link failure, straggler cut, or a
//      MembershipPlan leave), any t survivors reconstruct sk_d, re-derive
//      the dropped member's pair seeds, and strip the survivors' matching
//      mask halves from the accumulator.  Fewer than t survivors aborts
//      the round (SecAggAbort) — the Aggregator folds the threshold into
//      its quorum so the retry/skip machinery handles it.
//
// Everything here is deterministic in (session_seed, cohort): secrets,
// shares, masks, and the recovered aggregate replay bit-exactly at any
// thread count and under PHOTON_SIMD=scalar|avx2|avx512.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/message.hpp"
#include "obs/trace.hpp"
#include "tensor/kernel_context.hpp"

namespace photon {

class SimLink;

namespace secagg {

/// Shamir field: Z_p with the Mersenne prime p = 2^61 - 1 (reduction is a
/// shift-add; products fit in unsigned __int128).
inline constexpr std::uint64_t kPrime = (1ULL << 61) - 1;

std::uint64_t field_add(std::uint64_t a, std::uint64_t b);
std::uint64_t field_sub(std::uint64_t a, std::uint64_t b);
std::uint64_t field_mul(std::uint64_t a, std::uint64_t b);
std::uint64_t field_pow(std::uint64_t base, std::uint64_t exp);
std::uint64_t field_inv(std::uint64_t a);  // a != 0

/// One Shamir share: the polynomial evaluated at x (x >= 1).
struct Share {
  std::uint32_t x = 0;
  std::uint64_t y = 0;
};

/// Split `secret` (< kPrime) into n shares with reconstruction threshold
/// t (2 <= t <= n).  Polynomial coefficients are derived from `seed`, so
/// the split is deterministic.
std::vector<Share> shamir_split(std::uint64_t secret, int n, int t,
                                std::uint64_t seed);

/// Lagrange-interpolate the secret at x=0 from any >= t distinct shares.
std::uint64_t shamir_reconstruct(std::span<const Share> shares);

/// Commutative simulated key agreement over the 2^64 ring.
std::uint64_t public_key(std::uint64_t secret);
std::uint64_t shared_key(std::uint64_t my_secret, std::uint64_t their_public);

}  // namespace secagg

/// Thrown when fewer survivors remain than the Shamir threshold: the
/// dropped members' masks cannot be reconstructed and the round must be
/// retried or skipped.
class SecAggAbort : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-member outcome of the simulated key-agreement rounds.
struct KeyExchangeResult {
  double sim_seconds = 0.0;            // barrier: max member completion time
  std::vector<double> member_seconds;  // per-member link time
  std::vector<int> failed;             // members whose KE transmit failed
  std::uint64_t wire_bytes = 0;        // roster + share traffic
};

/// One round's pairwise-masking session over a fixed cohort.  The member
/// order given at construction is the protocol order: signs, pair seeds,
/// and shares are all indexed by position in `cohort`.  Every session
/// encodes with F = 32 fractional bits and shares with threshold fraction
/// f = 0.5 (DESIGN.md §14).
class SecAggSession {
 public:
  /// `session_seed` is the session's entropy; the Aggregator derives it
  /// from (seed, round, attempt) or (seed, wave).
  SecAggSession(std::vector<int> cohort, std::uint64_t session_seed);

  int cohort_size() const { return static_cast<int>(cohort_.size()); }
  const std::vector<int>& cohort() const { return cohort_; }
  /// Shamir threshold for this cohort size: threshold_for(n, f).
  int threshold() const { return threshold_; }
  /// t = clamp(max(2, ceil(fraction * n)), 2, n); n itself when n <= 1.
  static int threshold_for(int cohort_size, double fraction);
  /// 2^F, the ring encoding's scale.
  static double fixed_point_scale();

  /// Simulated key agreement + share distribution: per member, a server
  /// roster broadcast (all public keys) and a share upload, both kControl
  /// messages over the member's link.  The roster is encoded once, into
  /// roster_image(), and that image goes to every member.  Entries in
  /// `links` may be null (compute-only, zero sim time) and `links` itself
  /// may be empty (all compute-only).  Members whose transmits exhaust
  /// their retry budget are reported in `failed`; the caller treats them as
  /// dropouts.  The messages carry `trace.round()`, are encoded at
  /// `chunk_bytes` raw bytes per chunk, and each member's link records its
  /// spans into `trace` from `sim_base`.
  KeyExchangeResult run_key_exchange(
      std::span<SimLink* const> links, double sim_base,
      const obs::RoundTrace& trace,
      std::size_t chunk_bytes = kDefaultWireChunkBytes);

  /// Fixed-point-encode member `idx`'s update and add its pairwise masks:
  ///   acc[e] += encode(update[e]) + sum_j sign(idx,j) * prg(seed_ij, e)
  /// (wrapping).  `acc` is NOT zeroed — accumulating k members into one
  /// buffer is the server-side sum.  Bit-identical at any shard width.
  void mask_update_into(int idx, std::span<const float> update,
                        std::span<std::uint64_t> acc,
                        const kernels::KernelContext& ctx) const;

  /// Strip the unresolved mask halves survivors added towards dropped
  /// members, reconstructing each dropped secret from the survivors'
  /// Shamir shares.  Throws SecAggAbort when survivors < threshold().
  /// Records a kShareRecovery span per dropped member into `trace`.
  void recover_dropouts(std::span<const int> survivors,
                        std::span<const int> dropped,
                        std::span<std::uint64_t> acc,
                        const kernels::KernelContext& ctx,
                        const obs::RoundTrace& trace = {},
                        double sim_time = 0.0) const;

  /// Decode the ring sum of `n_agg` masked updates into their mean.
  void decode_mean(std::span<const std::uint64_t> acc, int n_agg,
                   std::span<float> out,
                   const kernels::KernelContext& ctx) const;

  // Test hooks: the protocol's internal state is deterministic, so tests
  // assert symmetry and reconstruction against it directly.
  std::uint64_t member_secret(int idx) const { return secrets_[idx]; }
  std::uint64_t member_public(int idx) const { return publics_[idx]; }
  /// The roster as run_key_exchange last encoded and sent it.
  const WireScratch& roster_image() const { return roster_wire_; }
  /// Symmetric pair seed (a != b, both cohort positions).
  std::uint64_t pair_seed(int a, int b) const;
  /// Share of member `owner`'s secret held by member `holder`.
  secagg::Share share_of(int owner, int holder) const;

 private:
  std::uint64_t session_seed_;
  std::vector<int> cohort_;
  int threshold_ = 2;
  std::vector<std::uint64_t> secrets_;  // per member, in Z_p \ {0}
  std::vector<std::uint64_t> publics_;
  // shares_[owner][holder]: Shamir share of secrets_[owner] given to
  // cohort position `holder` (x = holder + 1).
  std::vector<std::vector<secagg::Share>> shares_;
  WireScratch roster_wire_;  // the server's one encode of the roster

  std::uint64_t seed_from_secret(std::uint64_t secret, int other_pos) const;
};

}  // namespace photon
