#pragma once
// Aggregator (Agg): the central orchestrator of paper Alg. 1, L1-12.
//
// Per round it samples clients, broadcasts the global model through each
// client's Link (real serialization + compression + CRC), runs the sampled
// clients' local pipelines in parallel, aggregates pseudo-gradients with the
// configured topology (PS / AR / RAR, optionally under secure aggregation),
// applies ServerOpt, aggregates metrics, and checkpoints.
//
// Fault-tolerant round engine (DESIGN.md §8): clients may crash mid-round,
// straggle past a simulated round deadline, or lose their link (transient
// send failures and wire corruption are retried by SimLink itself).  Failed
// and late clients are dropped from the cohort; aggregation proceeds over
// the surviving cohort (mean reweighted to the survivors, AR/RAR falling
// back to PS accounting when a ring peer died mid-round) as long as a
// configurable quorum survives, and the round is retried with a fresh
// cohort when quorum is lost.  A write-ahead round journal plus checkpoint
// metadata make crash recovery exact: ServerOpt is applied exactly once per
// completed round and the LR schedule resumes bit-identically.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/link.hpp"
#include "core/checkpoint.hpp"
#include "core/client.hpp"
#include "core/metrics.hpp"
#include "core/privacy.hpp"
#include "core/sampler.hpp"
#include "core/membership.hpp"
#include "core/server_opt.hpp"
#include "nn/config.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace photon {

class SecAggSession;

struct AggregatorConfig {
  /// K: clients sampled per round; 0 = full participation.
  int clients_per_round = 0;
  /// tau: local steps per round.
  int local_steps = 16;
  Topology topology = Topology::kRingAllReduce;
  /// Bandwidth used by the aggregation collective (MB/s), Appendix B.1's B.
  double bandwidth_mbps = 1250.0;
  /// Secure aggregation (pairwise masking); forces PS accounting since
  /// peer-to-peer aggregation is prohibited under privacy constraints (§4).
  bool secure_aggregation = false;
  /// Per-client Agg<->LLM-C link speed for wire accounting (Gbps).
  double link_bandwidth_gbps = 10.0;
  /// nu: simulated local throughput (batches/s) for wall-time accounting.
  double sim_throughput_bps = 1.0;
  std::filesystem::path checkpoint_dir;  // empty = memory-only checkpoints
  std::uint64_t seed = 0x41676701ULL;
  /// Run sampled clients on the global thread pool.
  bool parallel_clients = true;
  /// Checkpoint every Nth round (Alg. 1 L11); 1 = every round (default),
  /// 0 = never.  Large models make per-round checkpointing the dominant
  /// non-training cost, so runs that only need crash recovery can thin it.
  int checkpoint_every = 1;

  // --- fault tolerance ---------------------------------------------------
  /// Simulated wall-clock budget for one round; a client whose simulated
  /// broadcast + local-train + update-return time exceeds it is cut off as
  /// a straggler.  0 = no deadline.
  double round_deadline_s = 0.0;
  /// Quorum: the fraction of the sampled cohort that must survive for the
  /// round to aggregate (at least one client always required).  Below it
  /// the round is retried with a freshly sampled cohort.
  double min_cohort_fraction = 0.0;
  /// Fresh-cohort retries after quorum loss before run_round throws.
  int max_cohort_retries = 2;
  /// Opt-in: when every cohort attempt collapses below quorum, emit a clean
  /// skipped RoundRecord (survivors == 0, no aggregation, no server step,
  /// round index still advances) instead of throwing.  Default false keeps
  /// the historical throw-on-exhaustion contract.
  bool skip_on_quorum_loss = false;
  /// Link-level retry/backoff policy installed on every client link.
  RetryPolicy retry;

  // --- elastic async federation (DESIGN.md §12) --------------------------
  /// FedBuff-style asynchronous aggregation: run_round becomes one buffer
  /// drain — updates are accepted continuously as they arrive (each client
  /// trains on whatever global version it was dispatched with), and a
  /// staleness-weighted server-opt step fires once `buffer_goal` accepted
  /// updates accumulate.  Pending in-flight updates carry across drains,
  /// which is where staleness > 0 comes from.  Deterministic at any thread
  /// count: arrivals are processed in (sim arrival time, client id) order
  /// and the global model only changes at drain boundaries.
  struct AsyncAggregation {
    bool enabled = false;
    /// Accepted updates per server step; 0 = clients_per_round (or the full
    /// population when that is 0 too).
    int buffer_goal = 0;
    /// Admission control: server-side cap on concurrently in-flight
    /// updates; 0 = 2 * buffer_goal.  Non-admitted clients are deferred
    /// with RetryPolicy-style exponential backoff in sim time.
    int max_in_flight = 0;
    /// Staleness discount w(s) applied to an update trained s server
    /// versions ago: kPolynomial = (1 + s)^-0.5 (FedBuff's choice),
    /// kConstant = 1 (plain buffer mean).  The drain normalizes by the sum
    /// of applied weights.
    enum class StalenessWeight { kConstant, kPolynomial };
    StalenessWeight staleness = StalenessWeight::kPolynomial;
  } async;

  // --- privacy engine (DESIGN.md §14) ------------------------------------
  struct Privacy {
    /// Target delta of the RDP accountant.  The accountant is built when
    /// any client adds DP noise (dp_noise_multiplier > 0); eps(delta) is
    /// published per round via the record and the privacy.dp_epsilon gauge.
    double dp_delta = 1e-5;
    /// Ignore the PHOTON_SECAGG environment opt-in.  Tests that assert
    /// exact fp32 aggregation semantics pin plain aggregation with this;
    /// everything else inherits the env sweep (tools/ci.sh secagg lane).
    bool ignore_env = false;
  } privacy;

  // --- observability -----------------------------------------------------
  /// Span sink for the round path (nullptr = no tracing).  Not owned; must
  /// outlive the aggregator.  Every span's sim timestamps are pure functions
  /// of (seed, config), so traces are byte-identical at any thread count.
  obs::Tracer* tracer = nullptr;
  /// Counter/gauge/histogram sink (nullptr = none).  Not owned.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-(round, client, attempt) fault decision for one client's local
/// round, produced by a deterministic scheduler (sim/faults.hpp).
struct ClientRoundFault {
  /// Client dies after receiving the broadcast, before returning an update.
  bool crash = false;
  /// Multiplies the client's simulated local training time (>= 1 slows it
  /// down); with a round deadline this is what turns into a straggler drop.
  double straggle_factor = 1.0;
};

/// Hook consulted once per sampled client per cohort attempt; must be a
/// pure function of its arguments so replays are bit-exact at any thread
/// count.
using ClientFaultHook = std::function<ClientRoundFault(
    std::uint32_t round, int client, std::uint32_t attempt)>;

/// Opaque per-round state extension serialized into checkpoints as their
/// tuner section (the trace-driven autotuner, src/tune).  The
/// aggregator never interprets the bytes; it captures them at every
/// checkpoint save and hands them back on restore, which is what makes a
/// tuned run's crash recovery bit-identical to an uninterrupted one.
class RoundStateExtension {
 public:
  virtual ~RoundStateExtension() = default;
  /// Called immediately before capture_state() at every checkpoint save,
  /// once the round's record is complete (the kCheckpoint / kRound spans
  /// are not yet recorded).  Gives the extension its one chance to fold
  /// the finishing round into the state about to be captured — the spans
  /// of a completed round die with a crash, so any decision that depends
  /// on them must reach the checkpoint here or it cannot be replayed.
  virtual void on_checkpoint(const RoundRecord& record) { (void)record; }
  virtual std::vector<std::uint8_t> capture_state() const = 0;
  /// Called by restore once the checkpoint passed the engine's checks and
  /// before the engine changes.  Throws on bytes it cannot take, and then
  /// keeps its current state.
  virtual void restore_state(std::span<const std::uint8_t> bytes) = 0;
};

class Aggregator {
 public:
  Aggregator(const ModelConfig& model, AggregatorConfig config,
             std::unique_ptr<ServerOpt> server_opt,
             std::vector<std::unique_ptr<LLMClient>> clients,
             std::uint64_t init_seed);

  /// Execute one federated round; returns (and stores) its record.
  RoundRecord run_round();

  std::uint32_t round() const { return round_; }
  int population() const { return static_cast<int>(clients_.size()); }
  std::span<const float> global_params() const { return global_params_; }
  const ModelConfig& model_config() const { return model_config_; }

  ServerOpt& server_opt() { return *server_opt_; }
  CheckpointStore& checkpoints() { return checkpoints_; }
  TrainingHistory& history() { return history_; }
  const TrainingHistory& history() const { return history_; }
  LLMClient& client(int id) { return *clients_.at(static_cast<std::size_t>(id)); }
  SimLink& link(int id) { return links_.at(static_cast<std::size_t>(id)); }
  const LinkStats& link_stats(int id) const {
    return links_.at(static_cast<std::size_t>(id)).stats();
  }

  /// LR-schedule offset the NEXT round's local steps start from: every
  /// round, skipped ones included, advances it by local_steps.
  std::int64_t schedule_step_base() const {
    return static_cast<std::int64_t>(round_) * config_.local_steps;
  }
  /// Simulated wall-clock: the sim timestamp the NEXT round starts at
  /// (sum of completed rounds' slowest-client + collective sim seconds).
  double sim_now() const { return sim_now_; }
  /// Rounds each client has actually trained (data-stream position).
  const std::vector<std::uint32_t>& client_trained_rounds() const {
    return client_rounds_;
  }
  /// Effective FedBuff buffer goal (async.buffer_goal, else
  /// clients_per_round, else the population) and in-flight cap
  /// (async.max_in_flight, else twice the goal) for this config.
  int async_buffer_goal() const;
  int async_max_in_flight() const;

  /// Install the deterministic per-client fault schedule (nullptr = none).
  void set_client_fault_hook(ClientFaultHook hook) {
    fault_hook_ = std::move(hook);
  }

  /// Install an elastic membership plan (arrivals / permanent departures,
  /// applied at round/drain boundaries).  Resets every client to the plan's
  /// initial state; a default-constructed (disabled) plan restores the
  /// fixed full population.
  void set_membership_plan(const MembershipPlan& plan);
  /// Lifecycle state of one client under the installed membership plan.
  MembershipState membership_state(int id) const {
    return membership_.at(static_cast<std::size_t>(id));
  }
  /// Active (joined, not departed) clients right now.
  int active_population() const;
  /// Async engine: updates currently in flight (dispatched, not resolved).
  int async_in_flight() const;

  // --- per-round tuning knobs (src/tune decision interface) --------------
  // All setters take effect at the next round/drain boundary; calling them
  // mid-round is undefined.  They exist so the trace-driven autotuner can
  // close the loop from observed spans back into configuration.
  const AggregatorConfig& config() const { return config_; }
  /// Aggregation topology for subsequent rounds (ignored while
  /// secure_aggregation forces PS accounting).
  void set_topology(Topology t) { config_.topology = t; }
  /// Cohort size K for subsequent rounds (0 = full participation).
  void set_clients_per_round(int k);
  /// Wire codec for every client's update link ("" = identity fp32).
  /// Throws on an unknown codec name; error-feedback residuals are kept
  /// across switches (deterministic in both the live and restored timeline).
  void set_wire_codec(const std::string& codec);
  /// Async engine limits (0 keeps the config default derivation).  The
  /// in-flight slot pool only ever grows, so pending updates keep their
  /// slots when the cap is lowered; the admission cap applies immediately.
  void set_async_limits(int buffer_goal, int max_in_flight);
  /// Late tracer attachment (the tuner needs spans even when the caller
  /// did not configure a tracer); the next round's trace handle uses it.
  void set_tracer(obs::Tracer* tracer) { config_.tracer = tracer; }
  obs::Tracer* tracer() const { return config_.tracer; }
  /// Attach the opaque checkpoint state extension (nullptr = detach).
  /// Not owned; must outlive the aggregator.
  void set_state_extension(RoundStateExtension* ext) { state_ext_ = ext; }

  /// Annotate the most recent round's record with an eval result.
  void record_eval(double perplexity);

  /// Restore the global model from the latest checkpoint (crash recovery),
  /// with the sim clock and every client's membership state, which win
  /// over anything the installed membership plan would derive.  In async
  /// mode this also restores the mid-buffer engine state (pending in-flight
  /// updates, admission counters), so the recovered timeline is
  /// bit-identical to an uninterrupted run.  Returns false only when there
  /// is no checkpoint; throws std::runtime_error, before restoring
  /// anything, on a checkpoint whose param count or client population
  /// differs from this engine's, whose DP accounting (sigma, delta)
  /// differs from this engine's accountant (including one side having
  /// none), or whose tuner section the attached extension refuses.
  bool restore_latest_checkpoint();

  // --- privacy engine introspection (DESIGN.md §14) ----------------------
  /// The DP accountant, or nullptr when no client adds DP noise.
  const privacy::RdpAccountant* accountant() const { return accountant_.get(); }
  /// Lifetime count of dropped secagg members whose masks were
  /// reconstructed from surviving Shamir shares.
  std::uint64_t shares_reconstructed_total() const {
    return shares_reconstructed_total_;
  }

 private:
  /// What the server learns about one dispatched client.  kOk..kLinkFailed
  /// are persisted as AsyncInFlightSnapshot::failure_kind; kLate (a round
  /// deadline cut) only exists inside a sync round.
  enum Outcome : std::uint8_t {
    kOk = 0,
    kCrashed = 1,
    kLinkFailed = 2,
    kLate = 3
  };

  /// One dispatch slot: a client between its broadcast and the server's use
  /// of its update.  A sync round uses slot i for cohort position i; the
  /// async engine's slots are its admission pool (busy while in flight).
  /// Slots are reused across the whole run (their message/wire/update
  /// buffers keep capacity), so resident memory is bounded by the slot
  /// count regardless of population.
  struct InFlight {
    bool busy = false;                   // async: holds an admission slot
    int client = -1;
    double dispatch_time = 0.0;          // sim time the broadcast starts
    double arrive_time = 0.0;            // when the outcome reaches the server
    double sim_seconds = 0.0;            // link + train sim time since dispatch
    std::uint32_t dispatch_version = 0;  // server version trained against
    std::uint64_t wave_id = 0;           // secagg dispatch wave (0 = plain)
    Outcome outcome = kOk;
    bool trained = false;                // local data stream advanced
    bool streamed = false;               // update retained as a wire image
    double train_sim_seconds = 0.0;
    double train_wall_seconds = 0.0;     // measured wall time in training
    Message header;       // received update header (metadata = metrics)
    WireView wire;        // retained quantized wire image when streamed
    ClientUpdate update;  // reused delta/metric storage
  };

  /// What a round's epilogue needs from its start.
  struct RoundStart {
    std::chrono::steady_clock::time_point wall;
    obs::RealTimer timer;
    double t0 = 0.0;  // sim time the round starts at
    LinkStats links;  // link stats summed over every client at round start
  };

  RoundRecord run_round_sync();
  RoundRecord run_round_async();
  /// Also builds the round's trace handle trace_.
  RoundStart begin_round();
  /// Every LinkStats field summed over every client link.
  LinkStats link_totals() const;
  /// Apply the membership plan's arrivals/departures for round_ (client-id
  /// order; pure given (plan, round, states)).
  void apply_membership(RoundRecord& record);
  double staleness_weight(std::uint32_t staleness) const;
  /// Reset `slot` for a fresh dispatch of `client` at sim time `t`.
  void arm(InFlight& slot, int client, double t) const;
  /// Broadcast + local training + update return for the client armed in
  /// `slot` (Alg. 1 L5-7).  `attempt` salts the fault hook (the sync cohort
  /// attempt, the async dispatch sequence); `deadline` > 0 cuts stragglers
  /// (sync rounds).  Parallel-safe: only this slot, this client, and this
  /// client's link are touched.
  void dispatch(InFlight& slot, const Message& broadcast, std::uint32_t attempt,
                double deadline);
  /// Count a resolved slot's failure (crash, link failure, deadline cut, or
  /// a client that departed while in flight) into `record`; true when its
  /// update is usable.
  bool tally(const InFlight& slot, RoundRecord& record);
  /// Streamed dequantize-and-accumulate of the wire images held by slots
  /// `from`, each weighted `w`.  With close_weight > 0 they are a whole
  /// sync round's sum, narrowed chunk by chunk into pseudo_grad_;
  /// otherwise they fold into the drain accumulator acc_.  Returns each
  /// chunk's measured real time.
  std::vector<std::uint64_t> fold_streamed(std::span<const std::size_t> from,
                                           double w, double close_weight);
  /// Secure aggregation of one masked cohort (a sync round or an async
  /// wave): mask each survivor's fp32 update into the mod-2^64 ring, strip
  /// dropped members' masks from survivor shares, decode the mean.
  /// `member_slots[pos]` is the slot of cohort position pos.
  void secagg_mean(const SecAggSession& session,
                   std::span<const std::size_t> member_slots,
                   std::span<const int> surv_pos, std::span<const int> drop_pos,
                   double sim_time, std::span<float> mean, RoundRecord& record);
  /// ServerOpt (Alg. 1 L9) under the write-ahead journal's `begin`.
  void step_server(std::span<const float> pseudo_grad, RoundRecord& record);
  /// Link-stat deltas since the round started, local sim time, wall time.
  void finish_record(RoundRecord& record, const RoundStart& start) const;
  /// Checkpoint (Alg. 1 L11) when this round is due, then journal `commit`.
  void save_checkpoint(const RoundRecord& record);
  /// kRound span over [t0, sim_now_], the round's counters (from the record
  /// and the link-stat deltas since `start`), history; advances the round
  /// index.
  RoundRecord close_round(RoundRecord& record, const RoundStart& start,
                          std::int32_t detail);
  AsyncAggregatorState capture_async_state() const;
  /// Throws std::runtime_error unless every pending snapshot can be replayed
  /// safely into this engine; checked before restore mutates anything.
  void validate_async_state(const AsyncAggregatorState& state) const;
  void restore_async_state(const AsyncAggregatorState& state);
  /// Compose this round into the accountant and publish eps on the record.
  void account_privacy(RoundRecord& record);
  PrivacyCheckpointState capture_privacy_state() const;

  ModelConfig model_config_;
  AggregatorConfig config_;
  std::unique_ptr<ServerOpt> server_opt_;
  std::vector<std::unique_ptr<LLMClient>> clients_;
  std::vector<SimLink> links_;
  ClientSampler sampler_;
  CheckpointStore checkpoints_;
  TrainingHistory history_;
  std::vector<float> global_params_;
  std::uint32_t round_ = 0;
  double sim_now_ = 0.0;
  ClientFaultHook fault_hook_;
  RoundStateExtension* state_ext_ = nullptr;
  /// The current round's trace handle, built by begin_round(); every span
  /// of the round (links, clients and secagg included) records through it.
  obs::RoundTrace trace_;
  /// Metric handles resolved once at construction; null (no-op) when
  /// config_.metrics is null.  Round and link counters have no handles:
  /// close_round() publishes them from the record and the link stats.
  struct {
    obs::GaugeHandle tokens_per_sim_second;
    obs::HistogramHandle client_sim_seconds;
    obs::GaugeHandle async_in_flight;
    obs::HistogramHandle async_staleness;
    // One per masked mean (a sync round or an async wave); no record field
    // holds it.
    obs::CounterHandle secagg_rounds;
    obs::GaugeHandle dp_epsilon;
  } obs_;
  /// Rounds of local training each client has run (== its data-stream
  /// position in rounds); persisted in checkpoints so recovery can fast-
  /// forward every client's stream to the exact token it would have read.
  std::vector<std::uint32_t> client_rounds_;

  /// Pseudo-gradient of the round; async drains also use it as scratch for
  /// each secagg wave's mean.
  std::vector<float> pseudo_grad_;

  // --- elastic async engine state (DESIGN.md §12) -----------------------
  MembershipPlan membership_plan_;
  std::vector<MembershipState> membership_;   // per client
  std::vector<std::uint32_t> defer_counts_;   // consecutive admission defers
  std::vector<double> next_eligible_;         // sim time a defer expires
  std::vector<std::uint32_t> dispatch_seq_;   // dispatches per client per drain
  std::vector<InFlight> slots_;               // sync cohort / async pool
  std::vector<int> client_slot_;              // client -> slot, -1 = idle
  std::vector<double> acc_;  // fp64 staleness-weighted drain accumulator

  // --- privacy engine state (DESIGN.md §14) -----------------------------
  /// RDP accountant (built when any client adds DP noise); composes one
  /// Gaussian mechanism per completed round/drain.
  std::unique_ptr<privacy::RdpAccountant> accountant_;
  /// Monotone id of the next async secagg dispatch wave; persisted so a
  /// restored run seeds the same per-wave mask sessions.
  std::uint64_t secagg_wave_counter_ = 0;
  std::uint64_t shares_reconstructed_total_ = 0;
  std::vector<std::uint64_t> secagg_acc_;  // mod-2^64 masked accumulator
};

}  // namespace photon
