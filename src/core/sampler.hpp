#pragma once
// Client Sampler (paper Alg. 1, L4): C ~ U(P, K) — sample K clients per
// round uniformly without replacement from the population P.
//
// Partial participation (paper §5.5) is expressed by K < P.  Intermittent
// clients (Appendix A: "billion-scale experiments assume intermittent client
// availability") are the membership states the caller passes in: only
// kActive clients are ever sampled.

#include <cstdint>
#include <span>
#include <vector>

#include "core/membership.hpp"

namespace photon {

class ClientSampler {
 public:
  ClientSampler(int population, std::uint64_t seed);

  int population() const { return population_; }

  /// Sample min(k, active) distinct clients among those kActive in
  /// `membership` (one state per client of the population) for `round`.
  /// Deterministic given (seed, round, membership).  `salt` draws an
  /// independent cohort for the same round — used when a round loses
  /// quorum and must be retried with fresh participants; salt 0 reproduces
  /// the historical (pre-salt) cohort bit-exactly.
  std::vector<int> sample(std::span<const MembershipState> membership, int k,
                          std::uint32_t round, std::uint32_t salt = 0) const;

 private:
  int population_;
  std::uint64_t seed_;
};

}  // namespace photon
