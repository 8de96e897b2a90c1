#pragma once
// Checkpointing (paper Alg. 1 L11 server-side, L27 client-side): global
// model snapshots each round for fast recovery, with optional persistence
// to disk, recovery metadata, and a write-ahead round journal that makes
// aggregator crash-recovery exact (ServerOpt applied exactly once per
// completed round; the sim clock and membership restored bit-identically).

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/link.hpp"
#include "core/membership.hpp"

namespace photon {

/// One in-flight async update pending at a drain boundary.  Restore replays
/// it through the exact path the uninterrupted run would have used.
struct AsyncInFlightSnapshot {
  int client = -1;
  double arrive_time = 0.0;          // absolute sim time the update lands
  std::uint32_t dispatch_version = 0;  // server model version it trained on
  /// SecAgg dispatch wave this update was masked under (0 when plain).
  /// Every member of a wave shares it, so a restored run rebuilds the same
  /// SecAggSession (seeded by wave id) and unmasking stays bit-exact.
  std::uint64_t wave_id = 0;
  /// 0 = delivers normally; 1 = client crashed mid-round; 2 = the return
  /// transmit aborted.  Failed slots still occupy admission capacity until
  /// their arrive_time, so they must survive recovery too.
  std::uint8_t failure_kind = 0;
  std::uint64_t tokens = 0;
  double mean_train_loss = 0.0;
  double train_sim_seconds = 0.0;
  /// The update as a PHO2 wire image (empty for failed slots), its metadata
  /// holding the client's metrics: a quantized update exactly as received,
  /// which the streamed fan-in dequantizes chunk by chunk; any other update
  /// re-encoded with the identity codec.
  std::vector<std::uint8_t> wire;
};

/// Async engine state captured at a FedBuff drain boundary (the fp64
/// accumulator is always empty there, so "buffer contents" = the in-flight
/// updates plus the per-client counters that gate admission).  The sim
/// clock and membership live in the checkpoint's metadata, for both engines.
struct AsyncAggregatorState {
  std::vector<std::uint32_t> defer_counts;  // consecutive admission defers
  std::vector<double> next_eligible;        // sim time a defer expires
  std::vector<AsyncInFlightSnapshot> in_flight;
};

/// Privacy engine state at a checkpoint boundary (DESIGN.md §14): the RDP
/// accountant's composition count (epsilon is recomputed from it), the
/// (sigma, delta) it was built with, which restore checks against its own,
/// and the SecAgg wave counter that seeds per-dispatch-wave mask sessions.
/// A restored run continues both exactly where the crashed run left off.
struct PrivacyCheckpointState {
  std::uint64_t accounted_rounds = 0;   // RDP compositions so far
  double noise_multiplier = 0.0;        // sigma the accountant was built with
  double delta = 0.0;                   // target delta; 0 = DP disabled
  std::uint64_t wave_counter = 0;       // next async secagg wave id
  std::uint64_t shares_reconstructed_total = 0;  // lifetime dropout recoveries
};

struct Checkpoint {
  std::uint32_t round = 0;
  std::vector<float> params;

  // --- recovery metadata ---
  // The LR schedule position is not stored: it is (round + 1) x tau.
  /// The sim clock when `round` closed.  Spans and arrival times are
  /// absolute sim timestamps, so a restored run resumes at this epoch.
  double sim_now = 0.0;
  /// Per-client count of rounds whose local training actually ran, used to
  /// fast-forward fresh client data streams to their pre-crash positions.
  std::vector<std::uint32_t> client_trained_rounds;
  /// Every client's lifecycle state after `round`.  Restore keeps these
  /// over anything a membership plan would derive.
  std::vector<MembershipState> membership;
  /// Every client link's running LinkStats totals.  Sim durations are
  /// differences of these totals, so a restored run continues from the
  /// same totals or its durations differ in the last bit.
  std::vector<LinkStats> link_stats;
  /// Serialized ServerOpt state (momentum / moment buffers) captured after
  /// this round's apply; empty for stateless optimizers.
  std::vector<std::uint8_t> server_opt_state;
  /// Per-client error-feedback residuals under quantized wire codecs
  /// (empty vectors for clients that have not hit a lossy codec yet).
  /// Restoring them keeps the post-recovery wire stream bit-identical to
  /// an uninterrupted run.
  std::vector<std::vector<float>> client_ef_residuals;
  /// Async engine state; async-mode saves only.
  std::optional<AsyncAggregatorState> async_state;
  /// Opaque autotuner state (src/tune decision history + trace digests),
  /// non-empty only when a tuner is attached.  Restoring it replays the
  /// tuner's knob decisions bit-identically.
  std::vector<std::uint8_t> tuner_state;
  /// Privacy engine state (DESIGN.md §14): DP accountant composition and
  /// the SecAgg wave counter; saved only when secure aggregation or DP
  /// accounting is active.
  std::optional<PrivacyCheckpointState> privacy_state;
};

/// The checkpoint image: the magic "PCK3", then one section per part that
/// is present, each (u32 tag, u64 body length, body), then the CRC32 of
/// every byte before it.  The metadata and params sections are mandatory.
std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& ckpt);
/// Inverse of encode_checkpoint.  Throws std::runtime_error on a bad magic
/// or CRC, on a truncated, repeated, unknown or missing mandatory section
/// or one whose body its decoder does not consume exactly, and on a
/// membership byte that names no MembershipState.
Checkpoint decode_checkpoint(std::span<const std::uint8_t> image);

class CheckpointStore {
 public:
  /// `dir` empty = memory-only store (tests, sweeps) holding the latest
  /// save; otherwise checkpoints live only on disk, as
  /// <dir>/ckpt_<round>.bin, and the round journal as <dir>/round.journal
  /// (replayed on construction for crash recovery).
  explicit CheckpointStore(std::filesystem::path dir = {});

  /// Keep `ckpt`.  On disk a reader sees the old ckpt_<round>.bin or the
  /// new one, never a torn one, and the new one survives power loss.
  void save(Checkpoint ckpt);

  /// Most recent checkpoint: the latest save in memory, or the
  /// highest-round ckpt_*.bin on disk.
  std::optional<Checkpoint> latest() const;

  /// Checkpoint for an exact round.
  std::optional<Checkpoint> at_round(std::uint32_t round) const;

  const std::filesystem::path& dir() const { return dir_; }

  // --- write-ahead round journal ---------------------------------------
  // Protocol per round r: `begin r` is appended BEFORE the ServerOpt
  // apply; `commit r` AFTER the round's checkpoint is durable, and is
  // fsynced itself.
  // On recovery the last committed round is the restore point: a round
  // with a dangling `begin` may have mutated the in-memory model but never
  // produced a durable checkpoint, so re-running it from the last commit
  // applies ServerOpt exactly once per round of the final timeline.

  void journal_begin(std::uint32_t round);
  void journal_commit(std::uint32_t round);
  /// Record that a recovery restarted the run at `round` (audit trail).
  void journal_recovered(std::uint32_t round);

  /// Highest round with a durable checkpoint per the journal; -1 if the
  /// journal has no commits (fall back to latest()).
  std::int64_t journal_last_committed() const { return last_committed_; }
  /// Highest round that began applying; -1 if none.
  std::int64_t journal_last_begun() const { return last_begun_; }
  /// In-order journal entries ("B <r>" / "C <r>" / "R <r>"), replayed from
  /// disk on construction when persistent.
  const std::vector<std::string>& journal() const { return journal_; }

 private:
  void journal_append(char tag, std::uint32_t round);
  void replay_journal();
  std::optional<Checkpoint> read_from_disk(std::uint32_t round) const;

  std::filesystem::path dir_;
  /// Memory-only stores: the latest save, as an object rather than its
  /// encoded image (freeing an image per save inflates RSS; DESIGN.md §8).
  std::optional<Checkpoint> memory_;
  std::vector<std::string> journal_;
  std::int64_t last_begun_ = -1;
  std::int64_t last_committed_ = -1;
};

}  // namespace photon
