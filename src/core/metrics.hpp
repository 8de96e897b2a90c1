#pragma once
// Training metrics and their federated aggregation (AggMetrics, Alg. 1 L10).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace photon {

/// Free-form metric dictionary exchanged via Link message metadata.
using MetricDict = std::map<std::string, double>;

/// Weighted aggregation of per-client metric dictionaries: keys are
/// averaged weighted by `weights` (e.g. tokens processed); missing keys are
/// averaged over the clients reporting them.
MetricDict aggregate_metrics(const std::vector<MetricDict>& metrics,
                             const std::vector<double>& weights);

/// One federated round's record, accumulated by the Aggregator.
struct RoundRecord {
  std::uint32_t round = 0;
  std::vector<int> participants;
  double mean_train_loss = 0.0;
  double update_norm = 0.0;       // ||averaged pseudo-gradient||
  std::uint64_t tokens_this_round = 0;
  std::uint64_t comm_bytes = 0;   // wire bytes this round (all clients)
  double sim_comm_seconds = 0.0;  // simulated aggregation communication time
  double sim_local_seconds = 0.0; // simulated local compute time
  double wall_seconds = 0.0;       // measured wall time of the whole round
  double wall_train_seconds = 0.0; // measured wall time inside client training
  MetricDict client_metrics;      // aggregated client metric dict
  double eval_perplexity = -1.0;  // < 0 = not evaluated this round

  // --- failure telemetry (fault-tolerant round engine) ---
  /// Sampled clients of the final cohort whose updates were NOT aggregated.
  std::vector<int> dropped_clients;
  int survivors = 0;              // cohort members actually aggregated
  int crashed_clients = 0;        // injected/observed client crashes
  int link_failed_clients = 0;    // transmit gave up (attempts/deadline)
  int straggler_drops = 0;        // cut off by the round deadline
  std::uint32_t cohort_retries = 0;  // fresh cohorts sampled after quorum loss
  std::uint64_t link_retries = 0;    // link-level retransmissions this round
  std::uint64_t corrupt_chunks = 0;  // CRC-detected wire corruptions
  double backoff_seconds = 0.0;      // simulated link backoff this round
  bool topology_fallback = false;    // AR/RAR degraded to PS mid-round
  /// Simulated (transfer + backoff + local train) seconds of the slowest
  /// surviving client; what a round deadline is compared against.
  double sim_slowest_client_seconds = 0.0;
  /// Sync mode with skip_on_quorum_loss: every cohort collapsed below
  /// quorum, so no aggregation/server step happened.  survivors == 0 and the
  /// loss/norm fields are zero — a clean no-op record, never a 0/0 mean.
  bool skipped = false;

  // --- elastic async engine telemetry (DESIGN.md §12) ---
  bool async_drain = false;       // record is one FedBuff buffer drain
  /// Server model version the drain stepped FROM (== round for drain N).
  std::uint32_t server_version = 0;
  double mean_staleness = 0.0;    // over accepted updates this drain
  std::uint32_t max_staleness = 0;
  std::uint32_t admission_deferred = 0;  // back-off verdicts issued
  /// Updates that arrived but were discarded (client left before arrival).
  std::uint32_t discarded_updates = 0;
  std::uint32_t arrivals = 0;     // clients that joined at this boundary
  std::uint32_t departures = 0;   // clients that left at this boundary

  // --- privacy telemetry (secure aggregation + DP, DESIGN.md §14) ---
  /// Aggregate computed under pairwise masking (the server only ever saw
  /// masked updates and their ring sum).
  bool secure_round = false;
  /// Dropped members whose pairwise masks were reconstructed from
  /// surviving Shamir shares this round.
  int secagg_dropouts_recovered = 0;
  /// Simulated seconds spent in key exchange (+ recovery) this round.
  double sim_privacy_seconds = 0.0;
  /// RDP accountant's eps(delta) after this round; < 0 = DP disabled.
  double dp_epsilon = -1.0;
};

/// Full training history with convenience queries used by benches.
class TrainingHistory {
 public:
  void add(RoundRecord record) { records_.push_back(std::move(record)); }
  const std::vector<RoundRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }

  /// Mutable access to the most recent record (for late eval annotation).
  RoundRecord& last_mutable() { return records_.back(); }

  /// First round whose eval perplexity is <= target; -1 if never reached.
  int first_round_reaching(double target_ppl) const;

  double final_perplexity() const;

 private:
  std::vector<RoundRecord> records_;
};

}  // namespace photon
