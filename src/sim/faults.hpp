#pragma once
// Deterministic fault injection for the federated round engine.
//
// A FaultPlan declares a fault mix (crash / straggler / link-drop / wire-
// corruption probabilities over a round window); a FaultInjector turns it
// into the hooks the Aggregator and SimLinks consult.  Every decision is a
// pure stateless hash of (plan seed, round, client, decision kind, attempt)
// — never of wall clock, thread schedule, or call order — so a faulted run
// replays bit-exactly at any thread count, and two runs with the same seed
// and plan produce identical parameters and identical telemetry.
//
// Wire corruption is injected into the CRC-protected region of the encoded
// message (chunk bytes + CRC field), so the PHO2 per-chunk CRCs are
// guaranteed to catch it and the link retransmits; corruption is a
// *detected-and-retried* fault, never a silent one.

#include <cstdint>
#include <limits>

#include "comm/link.hpp"
#include "core/aggregator.hpp"
#include "core/membership.hpp"

namespace photon {

/// Declarative fault mix.  Probabilities are per decision point: crash and
/// straggle per (round, client, cohort attempt); drop and corrupt per
/// transmit attempt.  All zero (the default) injects nothing — an installed
/// injector with a zero plan leaves the run bit-identical to no injector.
struct FaultPlan {
  std::uint64_t seed = 0xFA017ULL;

  /// P(client crashes after receiving the broadcast, before returning an
  /// update); its data stream does not advance.
  double crash_prob = 0.0;

  /// P(client is a straggler this round); its simulated local training time
  /// is multiplied by a factor drawn uniformly from
  /// [straggle_factor_min, straggle_factor_max].
  double straggle_prob = 0.0;
  double straggle_factor_min = 2.0;
  double straggle_factor_max = 8.0;

  /// P(one transmit attempt is dropped in flight — transient send failure).
  double link_drop_prob = 0.0;

  /// P(one transmit attempt arrives with a flipped bit in the CRC-protected
  /// wire region; the receiver must detect and the link retransmit).
  double corrupt_prob = 0.0;

  /// Faults fire only for rounds in [first_round, last_round].
  std::uint32_t first_round = 0;
  std::uint32_t last_round = std::numeric_limits<std::uint32_t>::max();

  /// Elastic membership churn (kClientArrive / kClientLeave events) layered
  /// on top of the transient fault mix.  Disabled by default; install()
  /// forwards it to Aggregator::set_membership_plan, where the async engine
  /// applies it at drain boundaries.
  MembershipPlan membership;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Per-(round, client, attempt) client-level fault decision.  Pure.
  ClientRoundFault client_fault(std::uint32_t round, int client,
                                std::uint32_t attempt) const;

  /// Per-transmit-attempt link fault decision for `client`'s link.  Pure.
  LinkFault link_fault(int client, const Message& message, int attempt) const;

  /// Install the client hook on `agg` and a per-link hook on every client
  /// link.  The hooks capture `this`: the injector must outlive the
  /// aggregator.
  void install(Aggregator& agg) const;

 private:
  bool active_for(std::uint32_t round) const {
    return round >= plan_.first_round && round <= plan_.last_round;
  }

  FaultPlan plan_;
};

}  // namespace photon
