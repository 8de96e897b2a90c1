#pragma once
// Elastic membership (DESIGN.md §12).
//
// Planet-scale federations never see a fixed population: clients appear
// mid-run, participate for a while, and leave for good ("The Future of LLM
// Pre-training is Federated", PAPERS.md).  A MembershipPlan is the
// declarative, seeded schedule of those arrivals and departures — like a
// FaultPlan, every decision is a pure stateless hash of
// (seed, round, client, kind), so elastic runs replay bit-exactly at any
// thread count.

#include <cstdint>
#include <limits>
#include <vector>

namespace photon {

/// Lifecycle of one client: kAbsent -> kActive -> kLeft.  Departure is
/// permanent (a returning device is a NEW client in this model); arrival
/// bootstraps the client from the current global model via the ordinary
/// broadcast path.
enum class MembershipState : std::uint8_t { kAbsent = 0, kActive = 1, kLeft = 2 };

/// What the plan asks of one client at one round boundary.
enum class MembershipAction : std::uint8_t { kNone = 0, kArrive = 1, kLeave = 2 };

struct MembershipPlan {
  std::uint64_t seed = 0x4D454D42ULL;  // "MEMB"

  /// Clients with id >= initial_population start kAbsent and can only enter
  /// via an arrival; < 0 (default) = everyone starts kActive.
  int initial_population = -1;

  /// P(an absent client arrives at a given round boundary).
  double arrive_prob = 0.0;
  /// P(an active client leaves permanently at a given round boundary).
  double leave_prob = 0.0;

  /// Probabilistic churn fires only for rounds in [first_round, last_round].
  std::uint32_t first_round = 0;
  std::uint32_t last_round = std::numeric_limits<std::uint32_t>::max();

  /// Explicit scheduled events (tests, demos); consulted before the
  /// probabilistic draw and independent of the round window.
  struct Event {
    std::uint32_t round = 0;
    int client = -1;
    MembershipAction action = MembershipAction::kNone;
  };
  std::vector<Event> scheduled;

  /// True when the plan can change membership at all (an all-default plan
  /// installed on an engine must leave the run bit-identical to no plan).
  bool enabled() const {
    return initial_population >= 0 || arrive_prob > 0.0 || leave_prob > 0.0 ||
           !scheduled.empty();
  }

  /// Initial lifecycle state for `client` before round 0.
  MembershipState initial_state(int client) const {
    return (initial_population >= 0 && client >= initial_population)
               ? MembershipState::kAbsent
               : MembershipState::kActive;
  }

  /// The action for `client` at the boundary of `round` given its current
  /// state.  Pure function of (seed, round, client, state) — never of call
  /// order — so membership replays bit-exactly.  Illegal transitions
  /// (arrive while active, leave while absent, anything after kLeft)
  /// resolve to kNone.
  MembershipAction action(std::uint32_t round, int client,
                          MembershipState state) const;

  /// Throws std::invalid_argument on out-of-range probabilities.
  void validate() const;
};

}  // namespace photon
