#include "core/membership.hpp"

#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace photon {
namespace {

// Decision-kind tags for the membership hash streams (see sim/faults.cpp
// for the same pattern): arrival draws never perturb departure draws.
constexpr std::uint64_t kArriveTag = 0xA441E5ULL;
constexpr std::uint64_t kLeaveTag = 0x1EAFE5ULL;

/// Uniform [0, 1) from a stateless hash (same mapping as Rng::next_double).
double membership_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t membership_key(std::uint64_t seed, std::uint32_t round,
                             int client, std::uint64_t tag) {
  std::uint64_t h = hash_combine(seed, round);
  h = hash_combine(h, static_cast<std::uint64_t>(client));
  return hash_combine(h, tag);
}

}  // namespace

void MembershipPlan::validate() const {
  auto check_prob = [](double p, const char* name) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument(std::string("MembershipPlan: ") + name +
                                  " must be in [0, 1]");
    }
  };
  check_prob(arrive_prob, "arrive_prob");
  check_prob(leave_prob, "leave_prob");
}

MembershipAction MembershipPlan::action(std::uint32_t round, int client,
                                        MembershipState state) const {
  if (state == MembershipState::kLeft) return MembershipAction::kNone;
  // Scheduled events win over the probabilistic draw.
  for (const Event& e : scheduled) {
    if (e.round != round || e.client != client) continue;
    if (e.action == MembershipAction::kArrive &&
        state == MembershipState::kAbsent) {
      return MembershipAction::kArrive;
    }
    if (e.action == MembershipAction::kLeave &&
        state == MembershipState::kActive) {
      return MembershipAction::kLeave;
    }
  }
  if (state == MembershipState::kAbsent && arrive_prob > 0.0) {
    const std::uint64_t key = membership_key(seed, round, client, kArriveTag);
    if (membership_unit(key) < arrive_prob) return MembershipAction::kArrive;
  }
  if (state == MembershipState::kActive && leave_prob > 0.0) {
    const std::uint64_t key = membership_key(seed, round, client, kLeaveTag);
    if (membership_unit(key) < leave_prob) return MembershipAction::kLeave;
  }
  return MembershipAction::kNone;
}

}  // namespace photon
