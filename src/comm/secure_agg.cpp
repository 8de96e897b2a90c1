#include "comm/secure_agg.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "comm/link.hpp"
#include "comm/message.hpp"
#include "util/rng.hpp"

namespace photon {
namespace secagg {

namespace {

std::uint64_t reduce(unsigned __int128 x) {
  // p = 2^61 - 1: fold the high bits twice, then a final conditional sub.
  std::uint64_t lo = static_cast<std::uint64_t>(x) & kPrime;
  std::uint64_t hi = static_cast<std::uint64_t>(x >> 61);
  std::uint64_t r = lo + (hi & kPrime) + static_cast<std::uint64_t>(x >> 122);
  r = (r & kPrime) + (r >> 61);
  if (r >= kPrime) r -= kPrime;
  return r;
}

}  // namespace

std::uint64_t field_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = a + b;  // < 2^62, no overflow
  if (r >= kPrime) r -= kPrime;
  return r;
}

std::uint64_t field_sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a + kPrime - b;
}

std::uint64_t field_mul(std::uint64_t a, std::uint64_t b) {
  return reduce(static_cast<unsigned __int128>(a) * b);
}

std::uint64_t field_pow(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t r = 1;
  while (exp != 0) {
    if (exp & 1) r = field_mul(r, base);
    base = field_mul(base, base);
    exp >>= 1;
  }
  return r;
}

std::uint64_t field_inv(std::uint64_t a) {
  if (a == 0) throw std::invalid_argument("field_inv: zero");
  return field_pow(a, kPrime - 2);  // Fermat: a^(p-2) = a^-1
}

std::vector<Share> shamir_split(std::uint64_t secret, int n, int t,
                                std::uint64_t seed) {
  if (n < 1 || t < 1 || t > n) {
    throw std::invalid_argument("shamir_split: bad (n, t)");
  }
  if (secret >= kPrime) throw std::invalid_argument("shamir_split: secret");
  // f(x) = secret + c1 x + ... + c_{t-1} x^{t-1}, coefficients from `seed`.
  std::vector<std::uint64_t> coeff(static_cast<std::size_t>(t));
  coeff[0] = secret;
  for (int i = 1; i < t; ++i) {
    coeff[static_cast<std::size_t>(i)] =
        hash_combine(seed, static_cast<std::uint64_t>(i)) % kPrime;
  }
  std::vector<Share> shares(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    const std::uint64_t x = static_cast<std::uint64_t>(s) + 1;
    std::uint64_t y = 0;  // Horner, highest degree first
    for (int i = t - 1; i >= 0; --i) {
      y = field_add(field_mul(y, x), coeff[static_cast<std::size_t>(i)]);
    }
    shares[static_cast<std::size_t>(s)] = {static_cast<std::uint32_t>(x), y};
  }
  return shares;
}

std::uint64_t shamir_reconstruct(std::span<const Share> shares) {
  if (shares.empty()) {
    throw std::invalid_argument("shamir_reconstruct: no shares");
  }
  // Lagrange interpolation at x = 0.
  std::uint64_t secret = 0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    std::uint64_t num = 1, den = 1;
    const std::uint64_t xi = shares[i].x;
    for (std::size_t j = 0; j < shares.size(); ++j) {
      if (j == i) continue;
      const std::uint64_t xj = shares[j].x;
      if (xj == xi) {
        throw std::invalid_argument("shamir_reconstruct: duplicate x");
      }
      num = field_mul(num, xj);                  // (0 - xj) * (-1)
      den = field_mul(den, field_sub(xj, xi));   // (xi - xj) * (-1)
    }
    const std::uint64_t w = field_mul(num, field_inv(den));
    secret = field_add(secret, field_mul(shares[i].y, w));
  }
  return secret;
}

// Any odd multiplier is a unit mod 2^64; commutativity of the product gives
// both pair endpoints the same shared key.
constexpr std::uint64_t kGenerator = 0x9E3779B97F4A7C15ULL | 1ULL;

std::uint64_t public_key(std::uint64_t secret) { return secret * kGenerator; }

std::uint64_t shared_key(std::uint64_t my_secret,
                         std::uint64_t their_public) {
  return my_secret * their_public;  // = sk_a * sk_b * G (mod 2^64)
}

}  // namespace secagg

// ------------------------------------------------------------- session ---

namespace {

/// Fractional bits F of the fixed-point ring encoding, q = round(x * 2^F).
constexpr int kFixedPointBits = 32;
static_assert(kFixedPointBits >= 8 && kFixedPointBits <= 48,
              "fixed-point bits out of range");
constexpr double kFixedPointScale =
    static_cast<double>(std::uint64_t{1} << kFixedPointBits);
/// Shamir threshold as a fraction f of the cohort: t = max(2, ceil(f * n)).
constexpr double kShareThresholdFraction = 0.5;

}  // namespace

double SecAggSession::fixed_point_scale() { return kFixedPointScale; }

int SecAggSession::threshold_for(int cohort_size, double fraction) {
  if (cohort_size <= 1) return cohort_size;
  const int t = std::max(
      2, static_cast<int>(std::ceil(fraction * cohort_size)));
  return std::min(t, cohort_size);
}

SecAggSession::SecAggSession(std::vector<int> cohort,
                             std::uint64_t session_seed)
    : session_seed_(session_seed), cohort_(std::move(cohort)) {
  if (cohort_.empty()) {
    throw std::invalid_argument("SecAggSession: empty cohort");
  }
  threshold_ = threshold_for(cohort_size(), kShareThresholdFraction);
  const int n = cohort_size();
  secrets_.resize(static_cast<std::size_t>(n));
  publics_.resize(static_cast<std::size_t>(n));
  shares_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Secrets are keyed on the *client id*, not the cohort position, so a
    // member keeps its identity across re-sampled cohorts.
    const std::uint64_t raw = hash_combine(
        session_seed_,
        hash_combine(0x5EC2E7ULL,
                     static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(cohort_[i]))));
    secrets_[static_cast<std::size_t>(i)] = raw % (secagg::kPrime - 1) + 1;
    publics_[static_cast<std::size_t>(i)] =
        secagg::public_key(secrets_[static_cast<std::size_t>(i)]);
  }
  if (n > 1) {
    for (int i = 0; i < n; ++i) {
      shares_[static_cast<std::size_t>(i)] = secagg::shamir_split(
          secrets_[static_cast<std::size_t>(i)], n, threshold_,
          hash_combine(session_seed_,
                       hash_combine(0x5A4E5ULL,
                                    static_cast<std::uint64_t>(i))));
    }
  }
}

std::uint64_t SecAggSession::seed_from_secret(std::uint64_t secret,
                                              int other_pos) const {
  return secagg::shared_key(secret,
                            publics_[static_cast<std::size_t>(other_pos)]);
}

std::uint64_t SecAggSession::pair_seed(int a, int b) const {
  if (a == b || a < 0 || b < 0 || a >= cohort_size() || b >= cohort_size()) {
    throw std::out_of_range("SecAggSession::pair_seed: bad pair");
  }
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  // shared_key commutes, so either member derives the same seed; the salt
  // binds the stream to this session and pair.
  return hash_combine(
      seed_from_secret(secrets_[static_cast<std::size_t>(a)], b),
      hash_combine(session_seed_, hash_combine(lo, hi)));
}

secagg::Share SecAggSession::share_of(int owner, int holder) const {
  return shares_[static_cast<std::size_t>(owner)]
                [static_cast<std::size_t>(holder)];
}

namespace {

// u64 values ride the float payload as two bit-cast u32 halves; the
// identity codec moves payload bytes verbatim, so the round trip is exact.
void push_u64(std::vector<float>& payload, std::uint64_t v) {
  payload.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(v)));
  payload.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(v >> 32)));
}

}  // namespace

KeyExchangeResult SecAggSession::run_key_exchange(
    std::span<SimLink* const> links, double sim_base,
    const obs::RoundTrace& trace) {
  const int n = cohort_size();
  KeyExchangeResult result;
  result.member_seconds.assign(static_cast<std::size_t>(n), 0.0);
  if (n < 2) return result;

  // Server -> member: the roster of public keys, encoded once; every
  // member's link sends that one image.
  Message roster;
  roster.type = MessageType::kControl;
  roster.round = trace.round();
  roster.codec = "";  // keys must survive the wire bit-exactly
  roster.metadata["secagg.key_exchange"] = 1.0;
  for (int i = 0; i < n; ++i) {
    push_u64(roster.payload, publics_[static_cast<std::size_t>(i)]);
  }
  encode_for_transmit(roster, roster_wire_,
                      {trace, obs::kAggregatorActor, sim_base});

  // Member -> server: its Shamir shares for every peer, each member's
  // encoded in turn into one buffer.
  Message shares;
  shares.type = MessageType::kControl;
  shares.round = trace.round();
  shares.codec = "";
  shares.metadata["secagg.shares"] = 1.0;
  WireScratch shares_wire;
  Message rx;

  for (int i = 0; i < n; ++i) {
    SimLink* link =
        i < static_cast<int>(links.size()) ? links[static_cast<std::size_t>(i)]
                                           : nullptr;
    if (link == nullptr) continue;  // compute-only member
    const obs::RealTimer ke_timer = trace.timer();
    const double before_s = link->stats().transfer_seconds;
    const std::uint64_t before_b = link->stats().wire_bytes;
    // Both start at sim_base: the barrier charges summed transfers only.
    const LinkTraceContext ctx{trace, cohort_[i], sim_base};
    try {
      link->transmit(roster, roster_wire_, rx, ctx);
      shares.sender = static_cast<std::uint32_t>(cohort_[i]);
      shares.payload.clear();
      for (int holder = 0; holder < n; ++holder) {
        if (holder == i) continue;
        const secagg::Share s = share_of(i, holder);
        shares.payload.push_back(
            std::bit_cast<float>(static_cast<std::uint32_t>(s.x)));
        push_u64(shares.payload, s.y);
      }
      encode_for_transmit(shares, shares_wire, ctx);
      link->transmit(shares, shares_wire, rx, ctx);
    } catch (const TransmitError&) {
      result.failed.push_back(i);
    }
    const double member_s = link->stats().transfer_seconds - before_s;
    result.member_seconds[static_cast<std::size_t>(i)] = member_s;
    result.sim_seconds = std::max(result.sim_seconds, member_s);
    result.wire_bytes += link->stats().wire_bytes - before_b;
    trace.record(obs::SpanKind::kKeyExchange, cohort_[i], n, sim_base,
                 sim_base + member_s, ke_timer.ns());
  }
  return result;
}

void SecAggSession::mask_update_into(int idx, std::span<const float> update,
                                     std::span<std::uint64_t> acc,
                                     const kernels::KernelContext& ctx) const {
  if (idx < 0 || idx >= cohort_size()) {
    throw std::out_of_range("SecAggSession::mask_update_into: bad member");
  }
  if (update.size() != acc.size()) {
    throw std::invalid_argument(
        "SecAggSession::mask_update_into: size mismatch");
  }
  const int n = cohort_size();
  std::vector<std::uint64_t> seeds;
  std::vector<std::int8_t> signs;
  seeds.reserve(static_cast<std::size_t>(n - 1));
  signs.reserve(static_cast<std::size_t>(n - 1));
  for (int j = 0; j < n; ++j) {
    if (j == idx) continue;
    seeds.push_back(pair_seed(idx, j));
    signs.push_back(idx < j ? 1 : -1);
  }
  const auto& ops = ctx.simd();
  ctx.parallel_shards(
      acc.size(), ctx.grain_rows(2 + seeds.size()),
      [&](std::size_t begin, std::size_t end) {
        ops.secagg_mask_accum(acc.data() + begin, update.data() + begin,
                              kFixedPointScale, seeds.data(), signs.data(),
                              seeds.size(), static_cast<std::uint64_t>(begin),
                              end - begin);
      });
}

void SecAggSession::recover_dropouts(std::span<const int> survivors,
                                     std::span<const int> dropped,
                                     std::span<std::uint64_t> acc,
                                     const kernels::KernelContext& ctx,
                                     const obs::RoundTrace& trace,
                                     double sim_time) const {
  if (dropped.empty()) return;
  if (static_cast<int>(survivors.size()) < threshold_) {
    throw SecAggAbort("SecAggSession: survivors below share threshold (" +
                      std::to_string(survivors.size()) + " < " +
                      std::to_string(threshold_) + ")");
  }
  // Reconstruct every dropped secret from the first `threshold_` survivor
  // shares, then re-derive the pair seeds the survivors used towards it.
  struct Strip {
    std::uint64_t seed;
    std::int8_t sign;  // the sign to SUBTRACT (the survivor's contribution)
  };
  std::vector<Strip> strips;
  strips.reserve(dropped.size() * survivors.size());
  for (const int d : dropped) {
    const obs::RealTimer rec_timer = trace.timer();
    std::vector<secagg::Share> quorum;
    quorum.reserve(static_cast<std::size_t>(threshold_));
    for (int k = 0; k < threshold_; ++k) {
      quorum.push_back(share_of(d, survivors[static_cast<std::size_t>(k)]));
    }
    const std::uint64_t sk = secagg::shamir_reconstruct(quorum);
    for (const int s : survivors) {
      // Survivor s added sign(s, d) * prg(seed_sd); strip exactly that.
      const auto lo = static_cast<std::uint64_t>(std::min(s, d));
      const auto hi = static_cast<std::uint64_t>(std::max(s, d));
      const std::uint64_t seed = hash_combine(
          seed_from_secret(sk, s),
          hash_combine(session_seed_, hash_combine(lo, hi)));
      strips.push_back({seed, static_cast<std::int8_t>(s < d ? 1 : -1)});
    }
    trace.record(obs::SpanKind::kShareRecovery,
                 cohort_[static_cast<std::size_t>(d)],
                 static_cast<std::int32_t>(survivors.size()), sim_time,
                 sim_time, rec_timer.ns());
  }
  const auto& ops = ctx.simd();
  ctx.parallel_shards(
      acc.size(), ctx.grain_rows(1 + strips.size()),
      [&](std::size_t begin, std::size_t end) {
        for (const Strip& st : strips) {
          ops.secagg_prg_accum(acc.data() + begin, st.seed,
                               static_cast<std::int8_t>(-st.sign),
                               static_cast<std::uint64_t>(begin), end - begin);
        }
      });
}

void SecAggSession::decode_mean(std::span<const std::uint64_t> acc, int n_agg,
                                std::span<float> out,
                                const kernels::KernelContext& ctx) const {
  if (acc.size() != out.size()) {
    throw std::invalid_argument("SecAggSession::decode_mean: size mismatch");
  }
  if (n_agg <= 0) {
    throw std::invalid_argument("SecAggSession::decode_mean: n_agg <= 0");
  }
  const double inv = 1.0 / (kFixedPointScale * static_cast<double>(n_agg));
  const auto& ops = ctx.simd();
  ctx.parallel_shards(acc.size(), ctx.grain_rows(2),
                      [&](std::size_t begin, std::size_t end) {
                        ops.secagg_decode(out.data() + begin,
                                          acc.data() + begin, inv,
                                          end - begin);
                      });
}

}  // namespace photon
