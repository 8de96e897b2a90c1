// Fault tolerance end to end (paper SS3.1 checkpointing, Appendix A
// "intermittent client availability", DESIGN.md SS8 failure model and
// SS12 elastic async federation):
//
//  1. the elastic asynchronous engine runs FedBuff-style buffer drains
//     over a population that churns mid-run — a MembershipPlan schedules
//     a client joining cold and another leaving permanently (its in-flight
//     update is discarded on arrival), on top of probabilistic join/leave
//     churn — while a seeded FaultInjector adds client crashes,
//     stragglers, link drops, and wire corruption, and admission control
//     caps how many clients may cook concurrently;
//  2. the server process "crashes" mid-run — with updates still sitting
//     in flight — and a fresh process restores from the write-ahead
//     journal + checkpoint (global model, membership states, deferral
//     backoffs, and the in-flight buffer itself), resuming under the SAME
//     live fault and membership plans to finish with a global model
//     bit-identical to a reference run that never crashed.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "sim/faults.hpp"

using namespace photon;

namespace {

constexpr int kPopulation = 8;
constexpr int kBufferGoal = 3;   // server steps as soon as 3 updates land
constexpr int kMaxInFlight = 6;  // admission control: at most 6 cooking
constexpr int kDrains = 12;
constexpr int kCrashAfter = 5;  // server dies after this many drains

std::vector<std::unique_ptr<LLMClient>> make_clients(const ModelConfig& model) {
  CorpusConfig cc;
  cc.vocab_size = model.vocab_size;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  ClientTrainConfig ctc;
  ctc.model = model;
  ctc.local_batch = 4;
  ctc.schedule.max_lr = 1e-2f;
  ctc.schedule.warmup_steps = 16;
  ctc.schedule.total_steps = 2000;
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < kPopulation; ++i) {
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc,
        std::make_unique<CorpusStreamSource>(corpus,
                                             100 + static_cast<std::uint64_t>(i)),
        7));
  }
  return clients;
}

// Elastic membership: client 7 starts absent and joins cold at drain 2
// (bootstrapped with the then-current global model); client 2 leaves for
// good at drain 4 — if it has an update in flight, the update is discarded
// on arrival.  On top of that, light probabilistic churn.
MembershipPlan churn_plan() {
  MembershipPlan plan;
  plan.seed = 0xE1A57ULL;
  plan.initial_population = kPopulation - 1;  // client 7 starts absent
  plan.arrive_prob = 0.05;
  plan.leave_prob = 0.02;
  plan.scheduled = {
      {/*round=*/2, /*client=*/7, MembershipAction::kArrive},
      {/*round=*/4, /*client=*/2, MembershipAction::kLeave},
  };
  return plan;
}

std::unique_ptr<Aggregator> make_aggregator(const ModelConfig& model,
                                            const std::filesystem::path& dir) {
  AggregatorConfig ac;
  ac.clients_per_round = kBufferGoal;
  ac.local_steps = 8;
  ac.async.enabled = true;
  ac.async.buffer_goal = kBufferGoal;
  ac.async.max_in_flight = kMaxInFlight;
  ac.async.staleness = AggregatorConfig::AsyncAggregation::StalenessWeight::
      kPolynomial;  // w(s) = (1+s)^-0.5
  ac.retry.max_attempts = 4;  // link-level retransmission budget
  ac.checkpoint_dir = dir;
  ac.seed = 11;
  auto agg = std::make_unique<Aggregator>(
      model, ac, make_server_opt("nesterov", 0.7f, 0.9f), make_clients(model),
      /*init_seed=*/42);
  agg->set_membership_plan(churn_plan());
  return agg;
}

void print_drain(const RoundRecord& rec) {
  std::string cohort;
  for (int id : rec.participants) cohort += std::to_string(id) + " ";
  std::printf(
      "%5u  {%-8s} %d acc  stale=%.2f/%u defer=%u join=%u leave=%u "
      "drop=%u crash=%d retries=%llu corrupt=%llu loss=%.4f\n",
      rec.round, cohort.c_str(), rec.survivors, rec.mean_staleness,
      rec.max_staleness, rec.admission_deferred, rec.arrivals, rec.departures,
      rec.discarded_updates, rec.crashed_clients,
      static_cast<unsigned long long>(rec.link_retries),
      static_cast<unsigned long long>(rec.corrupt_chunks),
      rec.mean_train_loss);
}

}  // namespace

int main() {
  const ModelConfig model = ModelConfig::nano();
  // Per-process, so concurrent runs (e.g. ctest -j) never share a journal.
  const auto base = std::filesystem::temp_directory_path() /
                    ("photon_example_ft_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);

  // One deterministic chaos plan shared by every process in this example.
  FaultPlan plan;
  plan.seed = 0xFA017;
  plan.crash_prob = 0.10;
  plan.straggle_prob = 0.20;
  plan.straggle_factor_min = 2.0;
  plan.straggle_factor_max = 8.0;
  plan.link_drop_prob = 0.05;
  plan.corrupt_prob = 0.05;
  const FaultInjector injector(plan);

  // Reference: survives all kDrains in one process.
  auto ref = make_aggregator(model, base / "ref");
  injector.install(*ref);
  std::printf("reference async run under chaos + churn (%d drains):\n",
              kDrains);
  std::printf("drain  accepted   buffer  telemetry\n");
  for (int r = 0; r < kDrains; ++r) print_drain(ref->run_round());
  std::printf("final population: %d active, %u in flight\n",
              ref->active_population(), ref->async_in_flight());

  // Crashing run: same plans, server process dies after kCrashAfter drains
  // — with whatever updates were in flight still sitting in the buffer.
  std::printf("\ncrashing run: server dies after drain %d\n", kCrashAfter - 1);
  {
    auto doomed = make_aggregator(model, base / "crash");
    injector.install(*doomed);
    for (int r = 0; r < kCrashAfter; ++r) doomed->run_round();
  }  // destructor = power loss; only the journal + checkpoints survive

  // Fresh process: restore from disk — global model, membership lifecycle
  // states, admission backoffs, and the mid-buffer in-flight updates all
  // come back from the checkpoint's async-state section — and
  // finish the schedule under the same live plans.
  auto recovered = make_aggregator(model, base / "crash");
  injector.install(*recovered);
  if (!recovered->restore_latest_checkpoint()) {
    std::printf("restore failed\n");
    return 1;
  }
  std::printf(
      "recovered at drain %u with %u update(s) still in flight (journal: "
      "\"%s\"), resuming:\n",
      recovered->round(), recovered->async_in_flight(),
      recovered->checkpoints().journal().back().c_str());
  for (int r = kCrashAfter; r < kDrains; ++r) print_drain(recovered->run_round());

  const bool exact =
      ref->global_params().size() == recovered->global_params().size() &&
      std::memcmp(ref->global_params().data(),
                  recovered->global_params().data(),
                  ref->global_params().size() * sizeof(float)) == 0;
  std::printf(
      "\ncrash-recovered model bit-identical to never-crashed reference: %s\n",
      exact ? "yes" : "NO");

  std::filesystem::remove_all(base);
  return exact ? 0 : 1;
}
