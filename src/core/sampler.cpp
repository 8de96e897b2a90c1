#include "core/sampler.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace photon {

ClientSampler::ClientSampler(int population, std::uint64_t seed)
    : population_(population), seed_(seed) {
  if (population <= 0) {
    throw std::invalid_argument("ClientSampler: population must be > 0");
  }
}

std::vector<int> ClientSampler::sample(
    std::span<const MembershipState> membership, int k, std::uint32_t round,
    std::uint32_t salt) const {
  if (k <= 0) throw std::invalid_argument("ClientSampler::sample: k <= 0");
  if (membership.size() != static_cast<std::size_t>(population_)) {
    throw std::out_of_range(
        "ClientSampler::sample: membership size != population");
  }
  std::vector<int> pool;
  pool.reserve(membership.size());
  for (int c = 0; c < population_; ++c) {
    if (membership[static_cast<std::size_t>(c)] == MembershipState::kActive) {
      pool.push_back(c);
    }
  }
  if (pool.empty()) return {};
  std::uint64_t key = hash_combine(seed_, round);
  if (salt != 0) key = hash_combine(key, salt);
  Rng rng(key);
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(k), pool.size());
  const auto idx = rng.sample_without_replacement(pool.size(), take);
  std::vector<int> out;
  out.reserve(take);
  for (std::size_t i : idx) out.push_back(pool[i]);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace photon
