#include "sim/faults.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace photon {
namespace {

// Decision-kind tags keep the per-kind hash streams independent: whether a
// client crashes in round r never perturbs whether its link drops a packet.
constexpr std::uint64_t kCrashTag = 0xC4A54ULL;
constexpr std::uint64_t kStraggleTag = 0x57A66ULL;
constexpr std::uint64_t kFactorTag = 0xFAC70ULL;
constexpr std::uint64_t kDropTag = 0xD409ULL;
constexpr std::uint64_t kCorruptTag = 0xC0441ULL;

/// Uniform [0, 1) from a stateless hash (same mapping as Rng::next_double).
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t decision_key(std::uint64_t seed, std::uint32_t round,
                           int client, std::uint64_t tag) {
  std::uint64_t h = hash_combine(seed, round);
  h = hash_combine(h, static_cast<std::uint64_t>(client));
  return hash_combine(h, tag);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(plan) {
  auto check_prob = [](double p, const char* name) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                  " must be in [0, 1]");
    }
  };
  check_prob(plan_.crash_prob, "crash_prob");
  check_prob(plan_.straggle_prob, "straggle_prob");
  check_prob(plan_.link_drop_prob, "link_drop_prob");
  check_prob(plan_.corrupt_prob, "corrupt_prob");
  if (plan_.straggle_factor_min < 1.0 ||
      plan_.straggle_factor_max < plan_.straggle_factor_min) {
    throw std::invalid_argument(
        "FaultPlan: need 1 <= straggle_factor_min <= straggle_factor_max");
  }
  plan_.membership.validate();
}

ClientRoundFault FaultInjector::client_fault(std::uint32_t round, int client,
                                             std::uint32_t attempt) const {
  ClientRoundFault fault;
  if (!active_for(round)) return fault;
  const std::uint64_t crash_key = hash_combine(
      decision_key(plan_.seed, round, client, kCrashTag), attempt);
  fault.crash = unit(crash_key) < plan_.crash_prob;
  const std::uint64_t straggle_key = hash_combine(
      decision_key(plan_.seed, round, client, kStraggleTag), attempt);
  if (unit(straggle_key) < plan_.straggle_prob) {
    const std::uint64_t factor_key = hash_combine(
        decision_key(plan_.seed, round, client, kFactorTag), attempt);
    fault.straggle_factor =
        plan_.straggle_factor_min +
        (plan_.straggle_factor_max - plan_.straggle_factor_min) *
            unit(factor_key);
  }
  return fault;
}

LinkFault FaultInjector::link_fault(int client, const Message& message,
                                    int attempt) const {
  LinkFault fault;
  if (!active_for(message.round)) return fault;
  // Key on the message identity as seen by this client's link (the
  // broadcast has sender 0 for everyone, so the client id — not the
  // message sender — decorrelates links).
  const std::uint64_t msg_id =
      hash_combine(static_cast<std::uint64_t>(message.type),
                   hash_combine(message.round, message.sender));
  std::uint64_t drop_key = decision_key(plan_.seed, message.round, client,
                                        kDropTag);
  drop_key = hash_combine(hash_combine(drop_key, msg_id),
                          static_cast<std::uint64_t>(attempt));
  if (unit(drop_key) < plan_.link_drop_prob) {
    fault.drop = true;
    return fault;  // the attempt never reaches the wire; nothing to corrupt
  }
  std::uint64_t corrupt_key = decision_key(plan_.seed, message.round, client,
                                           kCorruptTag);
  corrupt_key = hash_combine(hash_combine(corrupt_key, msg_id),
                             static_cast<std::uint64_t>(attempt));
  if (unit(corrupt_key) < plan_.corrupt_prob) {
    fault.corrupt = corrupt_key | 1;  // non-zero seeds the (byte, bit) pick
  }
  return fault;
}

void FaultInjector::install(Aggregator& agg) const {
  agg.set_client_fault_hook(
      [this](std::uint32_t round, int client, std::uint32_t attempt) {
        return client_fault(round, client, attempt);
      });
  for (int id = 0; id < agg.population(); ++id) {
    agg.link(id).set_fault_hook([this, id](const Message& m, int attempt) {
      return link_fault(id, m, attempt);
    });
  }
  if (plan_.membership.enabled()) {
    agg.set_membership_plan(plan_.membership);
  }
}

}  // namespace photon
