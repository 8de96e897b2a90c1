#include "core/aggregator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

#include "comm/collective.hpp"
#include "comm/compression.hpp"
#include "comm/message.hpp"
#include "comm/secure_agg.hpp"
#include "tensor/kernels.hpp"
#include "util/logging.hpp"
#include "util/serialization.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

/// Decision-kind tag for the admission-priority hash stream (same pattern
/// as sim/faults.cpp): which clients win a contested admission wave never
/// perturbs any other seeded draw.
constexpr std::uint64_t kAdmitTag = 0xAD317ULL;

/// Decision-kind tag for secagg session seeds: sync sessions key on
/// (seed, tag, round, attempt), async wave sessions on (seed, tag, wave).
constexpr std::uint64_t kSecAggTag = 0x5ECA66ULL;

/// Every secagg session's mask ring has F = 32 fractional bits, and its
/// Shamir threshold is t = clamp(max(2, ceil(f * n)), 2, n) with f = 0.5
/// (DESIGN.md §14).
constexpr int kSecAggFixedPointBits = 32;
constexpr double kSecAggThresholdFraction = 0.5;

/// FedBuff's polynomial staleness discount w(s) = (1 + s)^-kStalenessExponent.
constexpr double kStalenessExponent = 0.5;

}  // namespace

Aggregator::Aggregator(const ModelConfig& model, AggregatorConfig config,
                       std::unique_ptr<ServerOpt> server_opt,
                       std::vector<std::unique_ptr<LLMClient>> clients,
                       std::uint64_t init_seed)
    : model_config_(model),
      config_(std::move(config)),
      server_opt_(std::move(server_opt)),
      clients_(std::move(clients)),
      sampler_(static_cast<int>(clients_.size()), config_.seed),
      checkpoints_(config_.checkpoint_dir) {
  if (clients_.empty()) {
    throw std::invalid_argument("Aggregator: no clients");
  }
  if (server_opt_ == nullptr) {
    throw std::invalid_argument("Aggregator: null server optimizer");
  }
  if (config_.local_steps <= 0) {
    throw std::invalid_argument("Aggregator: local_steps must be > 0");
  }
  if (config_.checkpoint_every < 0) {
    throw std::invalid_argument("Aggregator: checkpoint_every must be >= 0");
  }
  if (config_.round_deadline_s < 0.0) {
    throw std::invalid_argument("Aggregator: round_deadline_s must be >= 0");
  }
  if (config_.min_cohort_fraction < 0.0 || config_.min_cohort_fraction > 1.0) {
    throw std::invalid_argument(
        "Aggregator: min_cohort_fraction must be in [0, 1]");
  }
  if (config_.max_cohort_retries < 0) {
    throw std::invalid_argument("Aggregator: max_cohort_retries must be >= 0");
  }
  // Opt-in environment sweep (tools/ci.sh secagg lane): rerun any
  // federation under pairwise-masked aggregation.  An explicit config or
  // the ignore_env pin always wins.
  if (!config_.secure_aggregation && !config_.privacy.ignore_env) {
    if (const char* env = std::getenv("PHOTON_SECAGG");
        env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
      config_.secure_aggregation = true;
    }
  }
  if (config_.async.enabled &&
      (config_.async.buffer_goal < 0 || config_.async.max_in_flight < 0)) {
    throw std::invalid_argument(
        "Aggregator: async buffer_goal/max_in_flight must be >= 0");
  }
  for (const auto& c : clients_) {
    if (c->config().model.num_params() != model_config_.num_params()) {
      throw std::invalid_argument("Aggregator: client/global model mismatch");
    }
  }
  links_.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    links_.emplace_back("agg<->client" + std::to_string(i),
                        config_.link_bandwidth_gbps);
    // Chunked encode/decode work may use the pool; when the round is
    // already fanned out across it, transmits degrade to inline (nesting
    // policy) and the bits are identical either way.
    links_.back().set_thread_pool(&global_pool());
    links_.back().set_retry_policy(config_.retry);
  }
  client_rounds_.assign(clients_.size(), 0);
  membership_.assign(clients_.size(), MembershipState::kActive);
  defer_counts_.assign(clients_.size(), 0);
  next_eligible_.assign(clients_.size(), 0.0);
  dispatch_seq_.assign(clients_.size(), 0);
  client_slot_.assign(clients_.size(), -1);
  if (config_.async.enabled) {
    slots_.resize(static_cast<std::size_t>(async_max_in_flight()));
  }
  if (config_.metrics != nullptr) {
    // Publishes the kernels.simd_variant gauge (resolved SIMD dispatch:
    // 0=scalar, 1=avx2, 2=avx512) plus the per-kernel FLOPs counters.
    kernels::set_kernel_metrics(config_.metrics);
    obs_.tokens_per_sim_second =
        config_.metrics->gauge("round.tokens_per_sim_second");
    obs_.client_sim_seconds =
        config_.metrics->histogram("client.sim_round_seconds");
    obs_.async_in_flight = config_.metrics->gauge("round.async.in_flight");
    obs_.async_staleness =
        config_.metrics->histogram("round.async.staleness");
    obs_.secagg_rounds = config_.metrics->counter("privacy.secagg_rounds");
    obs_.dp_epsilon = config_.metrics->gauge("privacy.dp_epsilon");
  }

  // Client-level DP accountant: one Gaussian mechanism per round at the
  // population's worst-case (largest) noise multiplier.
  double dp_sigma = 0.0;
  for (const auto& c : clients_) {
    dp_sigma = std::max(dp_sigma, c->config().dp_noise_multiplier);
  }
  if (dp_sigma > 0.0) {
    accountant_ = std::make_unique<privacy::RdpAccountant>(
        dp_sigma, config_.privacy.dp_delta);
  }

  // InitModel (Alg. 1 L2): the server initializes the global parameters.
  GptModel init(model_config_, init_seed);
  global_params_.assign(init.params().begin(), init.params().end());
}

RoundRecord Aggregator::run_round() {
  return config_.async.enabled ? run_round_async() : run_round_sync();
}

void Aggregator::set_clients_per_round(int k) {
  if (k < 0 || k > population()) {
    throw std::invalid_argument(
        "Aggregator::set_clients_per_round: K must be in [0, population]");
  }
  config_.clients_per_round = k;
}

void Aggregator::set_wire_codec(const std::string& codec) {
  if (codec_by_name(codec) == nullptr) {
    throw std::invalid_argument("Aggregator::set_wire_codec: unknown codec " +
                                codec);
  }
  for (auto& c : clients_) c->set_link_codec(codec);
}

void Aggregator::set_async_limits(int buffer_goal, int max_in_flight) {
  if (buffer_goal < 0 || max_in_flight < 0) {
    throw std::invalid_argument(
        "Aggregator::set_async_limits: limits must be >= 0");
  }
  config_.async.buffer_goal = buffer_goal;
  config_.async.max_in_flight = max_in_flight;
  if (config_.async.enabled) {
    // Grow-only: updates already in flight keep their slots; a lowered cap
    // takes effect through the admission arithmetic, not by dropping slots.
    const auto want = static_cast<std::size_t>(async_max_in_flight());
    if (slots_.size() < want) slots_.resize(want);
  }
}

// ===== shared round core ===================================================
// Both engines dispatch clients through dispatch(), count outcomes with
// tally(), aggregate through one fp64 weighted sum (fold_weighted /
// narrow_mean) and one secagg helper, and close with one epilogue.  What
// stays engine-specific is kept apart on purpose (DESIGN.md §15): the sync
// fp32 path's float-ring collective_mean, the arrival-time summation order
// in dispatch(), and the mean-loss arithmetic.

Aggregator::RoundStart Aggregator::begin_round() {
  trace_ = obs::RoundTrace(config_.tracer, round_);
  return {std::chrono::steady_clock::now(), trace_.timer(), sim_now_,
          link_totals()};
}

LinkStats Aggregator::link_totals() const {
  LinkStats total;
  for (const auto& link : links_) {
    const LinkStats& s = link.stats();
    total.messages += s.messages;
    total.payload_bytes += s.payload_bytes;
    total.wire_bytes += s.wire_bytes;
    total.transfer_seconds += s.transfer_seconds;
    total.retries += s.retries;
    total.send_failures += s.send_failures;
    total.corrupt_chunks += s.corrupt_chunks;
    total.aborted_messages += s.aborted_messages;
    total.deadline_misses += s.deadline_misses;
    total.backoff_seconds += s.backoff_seconds;
  }
  return total;
}

void Aggregator::arm(InFlight& slot, int client, double t) const {
  slot.client = client;
  slot.dispatch_time = t;
  slot.arrive_time = t;
  slot.sim_seconds = 0.0;
  slot.dispatch_version = round_;
  slot.wave_id = 0;
  slot.outcome = kOk;
  slot.trained = false;
  slot.streamed = false;
  slot.train_sim_seconds = 0.0;
  slot.train_wall_seconds = 0.0;
}

void Aggregator::dispatch(InFlight& slot, const Message& broadcast,
                          std::uint32_t attempt, double deadline) {
  const int id = slot.client;
  SimLink& link = links_[static_cast<std::size_t>(id)];
  LLMClient& client = *clients_[static_cast<std::size_t>(id)];
  const double t = slot.dispatch_time;
  const LinkStats before = link.stats();
  // Simulated seconds this client has spent on its link since dispatch
  // (transfers + retry backoff).
  const auto sim_elapsed = [&]() {
    const LinkStats& now = link.stats();
    return (now.transfer_seconds - before.transfer_seconds) +
           (now.backoff_seconds - before.backoff_seconds);
  };
  const auto mark = [&](obs::SpanKind kind, double begin, double end,
                        std::uint64_t real_ns) {
    trace_.record(kind, id, static_cast<std::int32_t>(attempt), begin, end,
                  real_ns);
  };
  // The outcome reaches the server `train_s` sim seconds of local training
  // after the link time so far.  A sync round measures each client from
  // the round's dispatch barrier, t + (link + train); the async engine
  // stamps arrivals on the absolute clock, (t + link) + train.  The two
  // orders round differently, and both are pinned by the golden digests.
  const auto settle = [&](double train_s) {
    const double link_s = sim_elapsed();
    slot.sim_seconds = link_s + train_s;
    slot.arrive_time = config_.async.enabled ? (t + link_s) + train_s
                                             : t + slot.sim_seconds;
  };
  // Every fault decision is a pure function of (round, client, attempt),
  // and failures only write this slot, so fan-outs are bit-identical
  // serial vs parallel.
  ClientRoundFault fault;
  if (fault_hook_) fault = fault_hook_(round_, id, attempt);
  const double straggle = std::max(1.0, fault.straggle_factor);
  const double train_sim = straggle *
                           static_cast<double>(config_.local_steps) /
                           config_.sim_throughput_bps;
  slot.train_sim_seconds = train_sim;

  link.set_trace_context({trace_, id, t});
  const obs::RealTimer bcast_timer = trace_.timer();
  try {
    link.transmit(broadcast, slot.header);
  } catch (const TransmitError&) {
    slot.outcome = kLinkFailed;
    settle(0.0);
    mark(obs::SpanKind::kBroadcast, t, slot.arrive_time, bcast_timer.ns());
    return;
  }
  const double bcast_end = t + sim_elapsed();
  mark(obs::SpanKind::kBroadcast, t, bcast_end, bcast_timer.ns());
  if (fault.crash) {
    // Client dies holding the broadcast, before training starts: its data
    // stream does not advance and no update comes back.
    slot.outcome = kCrashed;
    settle(0.0);
    mark(obs::SpanKind::kCrash, bcast_end, bcast_end, 0);
    return;
  }
  if (deadline > 0.0 && sim_elapsed() + train_sim > deadline) {
    // Known-too-slow straggler is cut before training (no data used).  The
    // span covers the sim interval the round still charges to the cut
    // client, so trace attribution of round time stays complete.
    slot.outcome = kLate;
    settle(train_sim);
    mark(obs::SpanKind::kStragglerCut, bcast_end, slot.arrive_time, 0);
    return;
  }
  client.set_trace({trace_, bcast_end,
                    train_sim / static_cast<double>(config_.local_steps)});
  const auto t_train = std::chrono::steady_clock::now();
  const obs::RealTimer train_timer = trace_.timer();
  client.run_round(slot.header.payload, round_, config_.local_steps,
                   schedule_step_base(), slot.update);
  slot.trained = true;
  slot.train_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_train)
          .count();
  const double train_end = bcast_end + train_sim;
  mark(obs::SpanKind::kLocalTrain, bcast_end, train_end, train_timer.ns());
  Message up;
  up.type = MessageType::kClientUpdate;
  up.round = round_;
  up.sender = static_cast<std::uint32_t>(id);
  up.codec = client.config().link_codec;
  up.payload_view = slot.update.delta;
  up.metadata = slot.update.metrics;
  // A quantized update's wire CRC covers the *compressed* chunk bytes, so
  // the return transfer is validated without decompressing: the wire image
  // is retained and the server dequantizes-and-accumulates it chunk by
  // chunk.  Secure aggregation masks fp32 payloads and must materialize;
  // lossless codecs keep the classic decode path.
  const Codec* up_codec = codec_by_name(up.codec);
  const bool stream = !config_.secure_aggregation && up_codec != nullptr &&
                      up_codec->quant_bits() != 0;
  link.set_trace_context({trace_, id, train_end});
  const obs::RealTimer up_timer = trace_.timer();
  try {
    if (stream) {
      link.transmit_wire(up, slot.header, slot.wire);
      slot.streamed = true;
    } else {
      link.transmit(up, slot.header);  // header now holds the update
    }
  } catch (const TransmitError&) {
    slot.outcome = kLinkFailed;
  }
  settle(train_sim);
  mark(obs::SpanKind::kUpdateReturn, train_end, slot.arrive_time,
       up_timer.ns());
  if (slot.outcome == kOk && deadline > 0.0 && slot.sim_seconds > deadline) {
    slot.outcome = kLate;  // update arrived past the deadline
    mark(obs::SpanKind::kStragglerCut, slot.arrive_time, slot.arrive_time, 0);
  }
}

bool Aggregator::tally(const InFlight& slot, RoundRecord& record) {
  switch (slot.outcome) {
    case kCrashed:
      ++record.crashed_clients;
      return false;
    case kLinkFailed:
      ++record.link_failed_clients;
      return false;
    case kLate:
      ++record.straggler_drops;
      return false;
    case kOk:
      break;
  }
  if (membership_[static_cast<std::size_t>(slot.client)] !=
      MembershipState::kActive) {
    // The client departed while its update was in flight: discard.  (Sync
    // cohorts only ever hold active clients.)
    ++record.discarded_updates;
    return false;
  }
  return true;
}

namespace {

/// The fp64 weighted sum every aggregation path folds into:
/// acc[e] += w * x[e].  Narrowed once by narrow_mean.
void fold_weighted(double* acc, const float* x, std::size_t n, double w) {
  for (std::size_t e = 0; e < n; ++e) acc[e] += w * static_cast<double>(x[e]);
}

/// out[e] = float(acc[e] * (1 / weight_sum)); an empty sum (weight_sum 0)
/// yields zeros.
void narrow_mean(const double* acc, float* out, std::size_t n,
                 double weight_sum) {
  const double inv = weight_sum > 0.0 ? 1.0 / weight_sum : 0.0;
  for (std::size_t e = 0; e < n; ++e) out[e] = static_cast<float>(acc[e] * inv);
}

/// fn(i) for every i < n: on the global pool when `parallel` and n > 1,
/// else serially in index order.
template <typename Fn>
void fan_out(bool parallel, std::size_t n, Fn&& fn) {
  if (parallel && n > 1) {
    global_pool().parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

/// Decode a persisted in-flight update image into `header`; a quantized
/// image is also kept in `view`, which the streamed fan-in folds chunk by
/// chunk (returns true).  Throws std::runtime_error unless the image is a
/// well-formed update of `n` parameters.
bool load_update(std::span<const std::uint8_t> wire, std::size_t n,
                 Message& header, WireView& view) {
  Message::decode_into(wire, header);
  if (header.payload.size() != n) {
    throw std::runtime_error(
        "Aggregator: async checkpoint update size mismatch");
  }
  const bool streamed = codec_by_name(header.codec)->quant_bits() != 0;
  if (streamed) Message::validate_wire(wire, header, view);
  return streamed;
}

}  // namespace

// Streamed dequantize-and-accumulate (DESIGN.md §11): walk the retained
// wire images chunk by chunk on the pool.  Each task decodes chunk c of
// every view in `from` into task-local scratch and folds it with weight w
// while that range is in cache, so no update's full fp32 form is ever
// materialized.  With close_weight > 0 the views are the whole sum (a sync
// round): the chunk accumulates in task-local fp64 and is narrowed to its
// mean in pseudo_grad_ right away — per element the views add in `from`
// order, the exact arithmetic of mean_rows_pd, so the mean is bit-identical
// to the materialized collective at any thread count.  Otherwise (an async
// accept) chunks fold into the drain accumulator acc_.
std::vector<std::uint64_t> Aggregator::fold_streamed(
    std::span<const std::size_t> from, double w, double close_weight) {
  const WireView& head = slots_[from.front()].wire;
  for (const std::size_t s : from) {
    if (slots_[s].wire.elems != global_params_.size()) {
      throw std::runtime_error("Aggregator: update size mismatch");
    }
  }
  std::vector<std::uint64_t> chunk_ns(head.n_chunks(), 0);
  fan_out(config_.parallel_clients, head.n_chunks(), [&](std::size_t c) {
    const obs::RealTimer chunk_timer = trace_.timer();
    const std::size_t off = head.raw_off(c) / sizeof(float);
    const std::size_t len = head.raw_len(c) / sizeof(float);
    std::vector<float> tmp(len);
    std::vector<double> local(close_weight > 0.0 ? len : 0, 0.0);
    double* acc = close_weight > 0.0 ? local.data() : acc_.data() + off;
    for (const std::size_t s : from) {
      const WireView& v = slots_[s].wire;
      codec_by_name(v.codec)->decompress_into(
          v.chunk(c),
          {reinterpret_cast<std::uint8_t*>(tmp.data()), len * sizeof(float)});
      fold_weighted(acc, tmp.data(), len, w);
    }
    if (close_weight > 0.0) {
      narrow_mean(acc, pseudo_grad_.data() + off, len, close_weight);
    }
    chunk_ns[c] = chunk_timer.ns();
  });
  return chunk_ns;
}

void Aggregator::secagg_mean(const SecAggSession& session,
                             std::span<const std::size_t> member_slots,
                             std::span<const int> surv_pos,
                             std::span<const int> drop_pos, double sim_time,
                             std::span<float> mean, RoundRecord& record) {
  // Ring-encode + mask every survivor's update into one mod-2^64
  // accumulator (wrapping adds commute, so the order never matters),
  // reconstruct dropped members' pair masks from survivor shares, then
  // decode.  The server only ever combines masked words; pairwise masks
  // cancel in the wrapped sum bit-exactly.
  const auto& ctx = kernels::default_context();
  secagg_acc_.assign(mean.size(), 0);
  for (const int pos : surv_pos) {
    const auto& payload =
        slots_[member_slots[static_cast<std::size_t>(pos)]].header.payload;
    if (payload.size() != mean.size()) {
      throw std::runtime_error("Aggregator: secagg update size mismatch");
    }
    session.mask_update_into(pos, payload, secagg_acc_, ctx);
  }
  session.recover_dropouts(surv_pos, drop_pos, secagg_acc_, ctx, trace_,
                           sim_time);
  session.decode_mean(secagg_acc_, static_cast<int>(surv_pos.size()), mean,
                      ctx);
  record.secagg_dropouts_recovered += static_cast<int>(drop_pos.size());
  shares_reconstructed_total_ += drop_pos.size();
  obs_.secagg_rounds.add();
}

void Aggregator::step_server(std::span<const float> pseudo_grad,
                             RoundRecord& record) {
  record.update_norm = kernels::l2_norm(
      kernels::default_context(), pseudo_grad.data(), pseudo_grad.size());
  // ServerOpt (Alg. 1 L9), bracketed by the write-ahead journal: `begin` is
  // durable before the global model mutates, `commit` only once this
  // round's checkpoint is.  A crash between the two leaves a dangling
  // begin, and recovery restarts from the last commit — so ServerOpt is
  // applied exactly once per round of the final timeline.
  const obs::RealTimer server_opt_timer = trace_.timer();
  checkpoints_.journal_begin(round_);
  server_opt_->apply(global_params_, pseudo_grad);
  // Server-side compute is not simulated, so ServerOpt and Checkpoint are
  // sim-zero-width marks at round end carrying measured real durations.
  trace_.record(obs::SpanKind::kServerOpt, obs::kAggregatorActor, -1,
                sim_now_, sim_now_, server_opt_timer.ns());
}

void Aggregator::finish_record(RoundRecord& record,
                               const RoundStart& start) const {
  // Wire bytes: broadcast + update message bytes through Agg links (all
  // attempts, including retransmissions) on top of any collective fabric
  // traffic already in comm_bytes; the other deltas surface the round's
  // fault telemetry.
  const LinkStats after = link_totals();
  record.comm_bytes += after.wire_bytes - start.links.wire_bytes;
  record.link_retries = after.retries - start.links.retries;
  record.corrupt_chunks = after.corrupt_chunks - start.links.corrupt_chunks;
  record.backoff_seconds =
      after.backoff_seconds - start.links.backoff_seconds;
  record.sim_local_seconds =
      static_cast<double>(config_.local_steps) / config_.sim_throughput_bps;
  record.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start.wall)
                            .count();
}

void Aggregator::save_checkpoint(const RoundRecord& record) {
  // Runs after the record is complete (but before the closing spans) so a
  // state extension can fold the finished round into the state it is about
  // to capture — the contract that makes tuned crash recovery bit-identical
  // to an uninterrupted run.
  if (config_.checkpoint_every == 0 ||
      round_ % static_cast<std::uint32_t>(config_.checkpoint_every) != 0) {
    return;
  }
  const obs::RealTimer ckpt_timer = trace_.timer();
  Checkpoint ckpt;
  ckpt.round = round_;
  ckpt.params = global_params_;
  ckpt.sim_now = sim_now_;
  ckpt.client_trained_rounds = client_rounds_;
  ckpt.membership = membership_;
  for (const SimLink& link : links_) ckpt.link_stats.push_back(link.stats());
  BinaryWriter w;
  server_opt_->save_state(w);
  ckpt.server_opt_state = w.take();
  // Error-feedback residuals are part of the deterministic client state:
  // recovery must hand each client the exact residual it carried, or the
  // post-restore timeline diverges from an uninterrupted run.
  ckpt.client_ef_residuals.reserve(clients_.size());
  for (const auto& c : clients_) {
    ckpt.client_ef_residuals.push_back(c->ef_residual());
  }
  if (config_.async.enabled) {
    // The drain boundary is the async save point: the accumulator is empty
    // here, so the buffer's durable form is the pending in-flight updates
    // plus the admission counters.
    ckpt.async_state = capture_async_state();
  }
  if (accountant_ != nullptr || config_.secure_aggregation) {
    ckpt.privacy_state = capture_privacy_state();
  }
  if (state_ext_ != nullptr) {
    state_ext_->on_checkpoint(record);
    ckpt.tuner_state = state_ext_->capture_state();
  }
  checkpoints_.save(std::move(ckpt));
  checkpoints_.journal_commit(round_);
  trace_.record(obs::SpanKind::kCheckpoint, obs::kAggregatorActor, -1,
                sim_now_, sim_now_, ckpt_timer.ns());
}

RoundRecord Aggregator::close_round(RoundRecord& record,
                                    const RoundStart& start,
                                    std::int32_t detail) {
  trace_.record(obs::SpanKind::kRound, obs::kAggregatorActor, detail,
                start.t0, sim_now_, start.timer.ns());
  if (obs::MetricsRegistry* reg = config_.metrics; reg != nullptr) {
    // Every round and link count already lives in the record or in the
    // links' LinkStats; the registry gets this round's share of them once,
    // here, so link.* equals summed LinkStats by construction.
    const LinkStats now = link_totals();
    const LinkStats& then = start.links;
    const auto add = [reg](const char* name, std::uint64_t n) {
      reg->counter(name).add(n);
    };
    add("round.completed", 1);
    add("round.tokens", record.tokens_this_round);
    add("round.crashes", static_cast<std::uint64_t>(record.crashed_clients));
    add("round.link_failures",
        static_cast<std::uint64_t>(record.link_failed_clients));
    add("round.straggler_cuts",
        static_cast<std::uint64_t>(record.straggler_drops));
    add("round.cohort_retries", record.cohort_retries);
    add("round.async.drains", record.async_drain ? 1 : 0);
    add("round.async.accepted",
        record.async_drain ? static_cast<std::uint64_t>(record.survivors) : 0);
    add("round.async.discarded", record.discarded_updates);
    add("round.async.deferred", record.admission_deferred);
    add("round.async.arrivals", record.arrivals);
    add("round.async.departures", record.departures);
    add("privacy.share_recoveries",
        static_cast<std::uint64_t>(record.secagg_dropouts_recovered));
    add("link.messages", now.messages - then.messages);
    add("link.payload_bytes", now.payload_bytes - then.payload_bytes);
    add("link.wire_bytes", now.wire_bytes - then.wire_bytes);
    add("link.retries", now.retries - then.retries);
    // Every retry is a retransmission; both names are kept.
    add("link.retransmits", now.retries - then.retries);
    add("link.send_failures", now.send_failures - then.send_failures);
    add("link.corrupt_chunks", now.corrupt_chunks - then.corrupt_chunks);
    add("link.aborted_messages", now.aborted_messages - then.aborted_messages);
    add("link.deadline_misses", now.deadline_misses - then.deadline_misses);
  }
  if (!record.skipped && sim_now_ > start.t0) {
    obs_.tokens_per_sim_second.set(
        static_cast<double>(record.tokens_this_round) /
        (sim_now_ - start.t0));
  }
  history_.add(record);
  ++round_;
  return record;
}

// ===== synchronous rounds ===================================================

RoundRecord Aggregator::run_round_sync() {
  const RoundStart start = begin_round();
  const double t0 = start.t0;
  const int k = config_.clients_per_round > 0
                    ? config_.clients_per_round
                    : static_cast<int>(clients_.size());

  RoundRecord record;
  record.round = round_;
  apply_membership(record);

  std::vector<int> cohort;
  std::vector<std::size_t> survivors;  // cohort slots whose updates aggregate

  // Pairwise-masking session for the current cohort attempt (DESIGN.md
  // §14); outlives the attempt loop because the surviving attempt's
  // session unmasks the aggregate below.
  std::optional<SecAggSession> secagg;
  KeyExchangeResult ke;
  // Slowest client critical path over attempts that LOST quorum.  The
  // round cannot close before every dispatched client of every attempt has
  // returned or timed out, so this folds into the round end below — it
  // keeps the kRound span covering all attempt spans (the obs attribution
  // invariant) when a retried attempt held the round's slowest straggler.
  double retry_slowest = 0.0;

  // Cohort-attempt loop: a round that loses quorum is retried with a
  // freshly salted cohort (Alg. 1's sampling, salted by the attempt index)
  // rather than aborting the run.
  for (std::uint32_t attempt = 0;; ++attempt) {
    cohort = sampler_.sample(membership_, k, round_, attempt);
    if (cohort.empty()) {
      throw std::runtime_error("Aggregator::run_round: no available clients");
    }
    if (slots_.size() < cohort.size()) slots_.resize(cohort.size());

    // Secagg phase 1: simulated key agreement + Shamir share distribution
    // over the cohort's links, BEFORE the broadcast — the fan-out below
    // starts at the key-exchange barrier (all members must hold the roster
    // before anyone's masked update makes sense).  Members whose exchange
    // transmits fail are dropped here and never receive the broadcast.
    secagg.reset();
    ke = {};
    if (config_.secure_aggregation && cohort.size() > 1) {
      secagg.emplace(
          cohort,
          SecAggConfig{kSecAggFixedPointBits, kSecAggThresholdFraction,
                       hash_combine(hash_combine(config_.seed, kSecAggTag),
                                    hash_combine(round_, attempt))});
      std::vector<SimLink*> ke_links(cohort.size());
      for (std::size_t i = 0; i < cohort.size(); ++i) {
        ke_links[i] = &links_[static_cast<std::size_t>(cohort[i])];
      }
      ke = secagg->run_key_exchange(ke_links, t0, trace_);
      record.sim_privacy_seconds += ke.sim_seconds;
    }
    const double t_start = t0 + ke.sim_seconds;
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      arm(slots_[i], cohort[i], t_start);
    }
    for (const int pos : ke.failed) {
      InFlight& slot = slots_[static_cast<std::size_t>(pos)];
      slot.outcome = kLinkFailed;
      slot.sim_seconds = ke.member_seconds[static_cast<std::size_t>(pos)];
    }

    // One broadcast message borrows the global parameters; every client
    // link encodes straight from that buffer, so broadcasting to K clients
    // makes zero copies of the model beyond the wire itself.
    Message broadcast;
    broadcast.type = MessageType::kModelBroadcast;
    broadcast.round = round_;
    broadcast.sender = 0;
    broadcast.payload_view = global_params_;
    broadcast.metadata["local_steps"] = config_.local_steps;

    fan_out(config_.parallel_clients, cohort.size(), [&](std::size_t i) {
      if (slots_[i].outcome != kOk) return;  // dropped at key exchange
      dispatch(slots_[i], broadcast, attempt, config_.round_deadline_s);
    });

    // Serial bookkeeping in cohort order keeps everything deterministic.
    survivors.clear();
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      const InFlight& slot = slots_[i];
      // Data-stream position advances whenever training ran, even if the
      // update was then dropped — recovery must replay the same reads.
      if (slot.trained) ++client_rounds_[static_cast<std::size_t>(slot.client)];
      if (tally(slot, record)) survivors.push_back(i);
      obs_.client_sim_seconds.observe(slot.sim_seconds);
    }

    auto quorum = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               config_.min_cohort_fraction *
               static_cast<double>(cohort.size()))));
    // Secagg folds the Shamir share threshold into the quorum: below it the
    // dropped members' masks cannot be reconstructed (SecAggAbort), so the
    // round goes through the ordinary retry/skip machinery instead.
    if (secagg.has_value()) {
      quorum = std::max(quorum, static_cast<std::size_t>(secagg->threshold()));
    }
    if (survivors.size() >= quorum) break;
    if (static_cast<int>(attempt) >= config_.max_cohort_retries) {
      if (config_.skip_on_quorum_loss) {
        // Clean skipped round: no survivors, so no mean, no server step, no
        // checkpoint — but the round index (and with it the LR-schedule
        // base) and the sim clock advance exactly as a completed round's
        // would.
        record.skipped = true;
        record.participants = cohort;
        record.survivors = 0;
        for (std::size_t i = 0; i < cohort.size(); ++i) {
          record.dropped_clients.push_back(cohort[i]);
          record.sim_slowest_client_seconds = std::max(
              record.sim_slowest_client_seconds, slots_[i].sim_seconds);
        }
        // Client critical paths start at the key-exchange barrier, and a
        // prior attempt's stragglers can outlast this final one.
        record.sim_slowest_client_seconds += ke.sim_seconds;
        record.sim_slowest_client_seconds =
            std::max(record.sim_slowest_client_seconds, retry_slowest);
        finish_record(record, start);
        sim_now_ = t0 + record.sim_slowest_client_seconds;
        // Clients still trained and transmitted noisy updates this round,
        // so the mechanism released and the accountant must compose it.
        account_privacy(record);
        PHOTON_LOG_WARN("aggregator",
                        "round %u skipped: quorum lost after %u attempt(s)",
                        round_, attempt + 1);
        return close_round(record, start, 0);
      }
      throw std::runtime_error(
          "Aggregator::run_round: quorum lost in round " +
          std::to_string(round_) + " after " + std::to_string(attempt + 1) +
          " cohort attempt(s)");
    }
    ++record.cohort_retries;
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      retry_slowest =
          std::max(retry_slowest, ke.sim_seconds + slots_[i].sim_seconds);
    }
    PHOTON_LOG_WARN("aggregator",
                    "round %u attempt %u: %zu/%zu survivors below quorum "
                    "%zu; resampling cohort",
                    round_, attempt, survivors.size(), cohort.size(), quorum);
  }

  record.participants = cohort;
  record.survivors = static_cast<int>(survivors.size());
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    if (slots_[i].outcome != kOk) record.dropped_clients.push_back(cohort[i]);
    record.sim_slowest_client_seconds =
        std::max(record.sim_slowest_client_seconds, slots_[i].sim_seconds);
  }
  // Under secagg every client's critical path starts at the key-exchange
  // barrier, so the exchange window is charged to the slowest client; a
  // quorum-lost attempt's stragglers can outlast the winning attempt.
  record.sim_slowest_client_seconds += ke.sim_seconds;
  record.sim_slowest_client_seconds =
      std::max(record.sim_slowest_client_seconds, retry_slowest);

  // Ordered (cohort-index) combine over the SURVIVING cohort keeps metrics
  // and losses bit-identical between the serial and parallel fan-outs; the
  // mean is reweighted to the survivors (1/|S| instead of 1/K).
  const std::size_t n_agg = survivors.size();
  std::vector<MetricDict> client_metrics(n_agg);
  std::vector<double> weights(n_agg);
  bool any_streamed = false;
  bool all_streamed = n_agg > 0;
  for (std::size_t j = 0; j < n_agg; ++j) {
    const InFlight& slot = slots_[survivors[j]];
    client_metrics[j] = slot.header.metadata;
    weights[j] = static_cast<double>(slot.update.tokens);
    record.tokens_this_round += slot.update.tokens;
    record.mean_train_loss +=
        slot.update.mean_train_loss / static_cast<double>(n_agg);
    any_streamed = any_streamed || slot.streamed;
    all_streamed = all_streamed && slot.streamed;
  }

  // A partial cohort breaks the static ring schedule AR/RAR assume (a dead
  // peer would stall the ring), so those topologies degrade to PS
  // accounting for the round.  Secure aggregation sums masked updates at
  // the server, so it always accounts PS.
  Topology topology =
      secagg.has_value() ? Topology::kParameterServer : config_.topology;
  if (n_agg < cohort.size() && !config_.secure_aggregation &&
      topology != Topology::kParameterServer) {
    topology = Topology::kParameterServer;
    record.topology_fallback = true;
  }

  // The streamed fan-in applies when every surviving update arrived as a
  // retained quantized wire image.  A mixed cohort (possible only with
  // heterogeneous per-client codecs) materializes the streamed survivors
  // into fp32 first and takes the classic collective below.
  if (any_streamed && !all_streamed) {
    for (const std::size_t i : survivors) {
      if (!slots_[i].streamed) continue;
      const WireView& v = slots_[i].wire;
      const Codec* codec = codec_by_name(v.codec);
      auto& payload = slots_[i].header.payload;
      payload.resize(static_cast<std::size_t>(v.elems));
      auto* out8 = reinterpret_cast<std::uint8_t*>(payload.data());
      for (std::size_t c = 0; c < v.n_chunks(); ++c) {
        codec->decompress_into(v.chunk(c),
                               {out8 + v.raw_off(c), v.raw_len(c)});
      }
    }
  }

  // Aggregate (Alg. 1 L8): element-wise mean of surviving pseudo-gradients
  // through the (possibly degraded) topology; secure aggregation masks
  // first.  The fp32 mean is computed in place over the received payloads,
  // and `pseudo_grad` is a view — no full-model copy on that path.
  const std::size_t n = global_params_.size();
  std::span<const float> pseudo_grad;
  std::vector<std::uint64_t> dequant_real_ns;  // per chunk, streamed path
  std::uint64_t wire_sum = 0;                  // streamed: one update's bytes
  const obs::RealTimer collective_timer = trace_.timer();
  if (secagg.has_value()) {
    // Secagg phases 2+3 (DESIGN.md §14) over cohort positions.
    std::vector<std::size_t> member_slots(cohort.size());
    std::vector<int> surv_pos;
    std::vector<int> drop_pos;
    surv_pos.reserve(n_agg);
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      member_slots[i] = i;
      (slots_[i].outcome == kOk ? surv_pos : drop_pos)
          .push_back(static_cast<int>(i));
    }
    pseudo_grad_.resize(n);
    secagg_mean(*secagg, member_slots, surv_pos, drop_pos,
                t0 + record.sim_slowest_client_seconds, pseudo_grad_, record);
    pseudo_grad = pseudo_grad_;
    record.secure_round = true;
  } else if (all_streamed) {
    pseudo_grad_.resize(n);
    dequant_real_ns =
        fold_streamed(survivors, 1.0, static_cast<double>(n_agg));
    pseudo_grad = pseudo_grad_;
    for (const std::uint64_t len : slots_[survivors.front()].wire.lens) {
      wire_sum += len;
    }
  } else if (n_agg > 1) {
    std::vector<std::span<float>> spans;
    spans.reserve(n_agg);
    for (const std::size_t i : survivors) {
      spans.emplace_back(slots_[i].header.payload);
    }
    collective_mean(topology, spans);
    pseudo_grad = spans.front();  // buffers hold the mean
  } else {
    pseudo_grad = slots_[survivors.front()].header.payload;
  }
  // Topology accounting on what one survivor put on the wire: the q8/q4
  // chunks on the streamed path (where the wall-time win over the fp32 B.1
  // model comes from), fp32 buffers otherwise.  A secagg quorum includes
  // the Shamir threshold (>= 2), so one guard covers every path.
  CollectiveReport collective;
  if (n_agg > 1) {
    collective = collective_cost(topology, static_cast<int>(n_agg),
                                 all_streamed ? wire_sum : n * sizeof(float),
                                 config_.bandwidth_mbps);
  }
  const std::uint64_t collective_real_ns = collective_timer.ns();
  const double sim_comm_seconds = collective.seconds;

  // The collective starts once the slowest surviving client is in; the
  // round's sim end is its completion.  The sim clock advances whether or
  // not tracing is on — it is part of the deterministic round state, and a
  // state extension that persists it (the autotuner does: post-restore span
  // arithmetic must run at the exact pre-crash epoch or durations drift by
  // an ULP) captures the clock this round ends at.
  const double t_collective = t0 + record.sim_slowest_client_seconds;
  sim_now_ = t_collective + sim_comm_seconds;
  trace_.record(obs::SpanKind::kCollective, obs::kAggregatorActor,
                static_cast<std::int32_t>(n_agg), t_collective, sim_now_,
                collective_real_ns);
  if (trace_.on()) {
    // Streamed chunks pipeline inside the collective transfer window: each
    // chunk's dequant+accumulate span sits at that chunk's byte share of
    // the quantized collective, so trace viewers show decode work
    // overlapping the transfer instead of serialized after it.  Sim
    // placement is a pure function of the chunk lengths — deterministic.
    const WireView& head = slots_[survivors.front()].wire;
    double cum = 0.0;
    for (std::size_t c = 0; c < dequant_real_ns.size(); ++c) {
      const double share = wire_sum > 0
                               ? static_cast<double>(head.lens[c]) /
                                     static_cast<double>(wire_sum)
                               : 0.0;
      const double begin = t_collective + sim_comm_seconds * cum;
      cum += share;
      const double end = t_collective + sim_comm_seconds * cum;
      trace_.record(obs::SpanKind::kDequantAccum, obs::kAggregatorActor,
                    static_cast<std::int32_t>(c), begin, end,
                    dequant_real_ns[c]);
    }
  }

  step_server(pseudo_grad, record);

  // AggMetrics (L10).
  record.client_metrics = aggregate_metrics(client_metrics, weights);

  // DP accounting composes BEFORE the checkpoint below so a restored
  // accountant already includes this round's mechanism.
  account_privacy(record);

  record.comm_bytes = collective.total_bytes;
  record.sim_comm_seconds = sim_comm_seconds;
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    record.wall_train_seconds += slots_[i].train_wall_seconds;
  }
  finish_record(record, start);
  save_checkpoint(record);

  PHOTON_LOG_INFO("aggregator",
                  "round %u: K=%zu survivors=%zu loss %.4f update-norm %.4f",
                  round_, cohort.size(), survivors.size(),
                  record.mean_train_loss, record.update_norm);
  return close_round(record, start, record.survivors);
}

// ===== elastic async federation (DESIGN.md §12) ===========================

void Aggregator::set_membership_plan(const MembershipPlan& plan) {
  plan.validate();
  if (plan.initial_population > static_cast<int>(clients_.size())) {
    throw std::invalid_argument(
        "Aggregator: membership initial_population exceeds client count");
  }
  membership_plan_ = plan;
  for (int c = 0; c < population(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    membership_[i] = plan.initial_state(c);
    defer_counts_[i] = 0;
    next_eligible_[i] = 0.0;
  }
}

int Aggregator::active_population() const {
  int n = 0;
  for (const MembershipState s : membership_) {
    if (s == MembershipState::kActive) ++n;
  }
  return n;
}

int Aggregator::async_in_flight() const {
  int n = 0;
  for (const InFlight& s : slots_) n += s.busy ? 1 : 0;
  return n;
}

void Aggregator::apply_membership(RoundRecord& record) {
  if (!membership_plan_.enabled()) return;
  for (int c = 0; c < population(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const MembershipAction action =
        membership_plan_.action(round_, c, membership_[i]);
    if (action == MembershipAction::kArrive) {
      // The joiner bootstraps from the current global model through the
      // ordinary broadcast path at its first dispatch/sampling — arrival
      // itself only flips the lifecycle state.
      membership_[i] = MembershipState::kActive;
      defer_counts_[i] = 0;
      next_eligible_[i] = sim_now_;
      ++record.arrivals;
      trace_.record(obs::SpanKind::kClientArrive, c, 0, sim_now_, sim_now_);
    } else if (action == MembershipAction::kLeave) {
      membership_[i] = MembershipState::kLeft;
      ++record.departures;
      trace_.record(obs::SpanKind::kClientLeave, c, 0, sim_now_, sim_now_);
    }
  }
}

int Aggregator::async_buffer_goal() const {
  if (config_.async.buffer_goal > 0) return config_.async.buffer_goal;
  return config_.clients_per_round > 0 ? config_.clients_per_round
                                       : static_cast<int>(clients_.size());
}

int Aggregator::async_max_in_flight() const {
  if (config_.async.max_in_flight > 0) return config_.async.max_in_flight;
  return 2 * async_buffer_goal();
}

double Aggregator::staleness_weight(std::uint32_t staleness) const {
  if (config_.async.staleness ==
      AggregatorConfig::AsyncAggregation::StalenessWeight::kConstant) {
    return 1.0;
  }
  return std::pow(1.0 + static_cast<double>(staleness), -kStalenessExponent);
}

RoundRecord Aggregator::run_round_async() {
  const RoundStart start = begin_round();

  RoundRecord record;
  record.round = round_;
  record.async_drain = true;
  record.server_version = round_;
  apply_membership(record);

  const int goal = async_buffer_goal();
  // Admission cap follows the (possibly tuned) config value each drain; the
  // slot pool only grows, so a lowered cap simply leaves surplus slots to
  // drain out before any new admission fills them.
  const auto cap = static_cast<std::size_t>(async_max_in_flight());
  if (slots_.size() < cap) slots_.resize(cap);
  std::fill(dispatch_seq_.begin(), dispatch_seq_.end(), 0u);

  const std::size_t n = global_params_.size();
  acc_.assign(n, 0.0);
  double weight_sum = 0.0;
  int accepted = 0;
  double staleness_sum = 0.0;
  std::vector<int> accepted_clients;
  std::vector<MetricDict> accepted_metrics;
  std::vector<double> accepted_weights;
  accepted_clients.reserve(static_cast<std::size_t>(goal));
  accepted_metrics.reserve(static_cast<std::size_t>(goal));
  accepted_weights.reserve(static_cast<std::size_t>(goal));
  double first_dispatch = -1.0;
  // Buffer one accepted update whose weighted delta is already folded into
  // acc_.
  const auto accept = [&](const InFlight& s, std::uint32_t staleness) {
    ++accepted;
    staleness_sum += static_cast<double>(staleness);
    record.max_staleness = std::max(record.max_staleness, staleness);
    obs_.async_staleness.observe(static_cast<double>(staleness));
    record.tokens_this_round += s.update.tokens;
    record.mean_train_loss += s.update.mean_train_loss;
    accepted_clients.push_back(s.client);
    accepted_metrics.push_back(s.header.metadata);
    accepted_weights.push_back(static_cast<double>(s.update.tokens));
    obs_.client_sim_seconds.observe(s.arrive_time - s.dispatch_time);
  };

  // One broadcast borrows the global parameters for the whole drain: the
  // model only mutates at drain boundaries, so every dispatch wave in this
  // drain ships identical bytes and `round` pins the trained-on version.
  Message broadcast;
  broadcast.type = MessageType::kModelBroadcast;
  broadcast.round = round_;
  broadcast.sender = 0;
  broadcast.payload_view = global_params_;
  broadcast.metadata["local_steps"] = config_.local_steps;

  std::vector<std::size_t> wave_slots;
  std::vector<std::uint32_t> wave_seq;
  std::vector<std::pair<std::uint64_t, int>> candidates;

  while (accepted < goal) {
    // --- admission control: batched top-up waves ------------------------
    std::size_t busy = 0;
    for (const InFlight& s : slots_) busy += s.busy ? 1 : 0;
    const std::size_t free = cap > busy ? cap - busy : 0;
    // Waves are chunky on purpose: top up only when at least half the
    // slots are free (or nothing is in flight), so admitted clients train
    // as one parallel_for instead of trickling through one at a time.
    if (free > 0 && (busy == 0 || free >= std::max<std::size_t>(1, cap / 2))) {
      candidates.clear();
      for (int c = 0; c < population(); ++c) {
        const auto ci = static_cast<std::size_t>(c);
        if (membership_[ci] != MembershipState::kActive) continue;
        if (client_slot_[ci] >= 0) continue;  // already in flight
        if (next_eligible_[ci] > sim_now_) continue;
        // Priority is a stateless hash of (seed, version, client): fair
        // across the population and identical on replay and restore.
        const std::uint64_t key = hash_combine(
            hash_combine(hash_combine(config_.seed, kAdmitTag), round_),
            static_cast<std::uint64_t>(c));
        candidates.emplace_back(key, c);
      }
      std::sort(candidates.begin(), candidates.end());
      wave_slots.clear();
      wave_seq.clear();
      std::size_t next_free = 0;
      for (const auto& [key, c] : candidates) {
        const auto ci = static_cast<std::size_t>(c);
        if (wave_slots.size() < free) {
          while (slots_[next_free].busy) ++next_free;
          InFlight& slot = slots_[next_free];
          arm(slot, c, sim_now_);
          slot.busy = true;
          client_slot_[ci] = static_cast<int>(next_free);
          defer_counts_[ci] = 0;
          wave_slots.push_back(next_free);
          wave_seq.push_back(dispatch_seq_[ci]++);
          ++next_free;
          if (first_dispatch < 0.0) first_dispatch = sim_now_;
        } else {
          // In-flight cap reached: tell the client to back off.  The
          // deferral timeline is a pure function of (retry policy, client,
          // defer count), so a restored run reproduces it exactly.  The
          // floor keeps the backoff strictly positive: a defer must
          // advance time.
          ++defer_counts_[ci];
          next_eligible_[ci] =
              sim_now_ + std::max(config_.retry.backoff_s(
                                      static_cast<std::uint64_t>(c),
                                      defer_counts_[ci]),
                                  1e-9);
          ++record.admission_deferred;
          trace_.record(obs::SpanKind::kAdmissionDefer, c,
                        static_cast<std::int32_t>(defer_counts_[ci]),
                        sim_now_, sim_now_);
        }
      }
      if (!wave_slots.empty() && config_.secure_aggregation) {
        // Every member of a dispatch wave trains against the same server
        // version, so the wave is the async secagg cohort: one session per
        // wave, seeded by the persisted wave counter (key agreement
        // piggybacks on the dispatch — no extra exchange round-trips).
        const std::uint64_t wid = ++secagg_wave_counter_;
        for (const std::size_t si : wave_slots) slots_[si].wave_id = wid;
      }
      // Fault decisions key on the dispatch sequence number within this
      // drain, the async analogue of the sync engine's cohort attempt.
      fan_out(config_.parallel_clients, wave_slots.size(), [&](std::size_t i) {
        dispatch(slots_[wave_slots[i]], broadcast, wave_seq[i], 0.0);
      });
      // Serial bookkeeping: data-stream positions advance in wave order.
      for (const std::size_t si : wave_slots) {
        if (slots_[si].trained) {
          ++client_rounds_[static_cast<std::size_t>(slots_[si].client)];
        }
      }
    }

    std::size_t busy_now = 0;
    for (const InFlight& s : slots_) busy_now += s.busy ? 1 : 0;
    if (busy_now == 0) {
      // Nothing in flight and nobody admissible right now: jump the sim
      // clock to the earliest deferral expiry and run admission again.
      double t_next = std::numeric_limits<double>::infinity();
      for (int c = 0; c < population(); ++c) {
        const auto ci = static_cast<std::size_t>(c);
        if (membership_[ci] != MembershipState::kActive) continue;
        t_next = std::min(t_next, next_eligible_[ci]);
      }
      if (!std::isfinite(t_next)) {
        throw std::runtime_error(
            "Aggregator::run_round_async: no active clients in round " +
            std::to_string(round_));
      }
      sim_now_ = std::max(sim_now_, t_next);
      continue;
    }

    if (config_.secure_aggregation) {
      // --- pop a whole secagg wave at once ------------------------------
      // Pair masks cancel only across a complete dispatch wave, so the wave
      // is the atomic unit of arrival: it resolves at its slowest member's
      // arrive_time.  Order on (ready_time, wave_id) — content-based, so
      // replay and restore pop the identical wave sequence.
      std::uint64_t best_wid = 0;
      double best_ready = 0.0;
      bool found = false;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].busy) continue;
        const std::uint64_t wid = slots_[i].wave_id;
        double ready = 0.0;
        for (const InFlight& s : slots_) {
          if (s.busy && s.wave_id == wid) {
            ready = std::max(ready, s.arrive_time);
          }
        }
        if (!found || ready < best_ready ||
            (ready == best_ready && wid < best_wid)) {
          found = true;
          best_wid = wid;
          best_ready = ready;
        }
      }
      sim_now_ = std::max(sim_now_, best_ready);
      std::vector<std::size_t> member_slots;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].busy && slots_[i].wave_id == best_wid) {
          member_slots.push_back(i);
        }
      }
      // Cohort positions are client-id order, never slot order: slot
      // packing differs between a recovered process and its twin.
      std::sort(member_slots.begin(), member_slots.end(),
                [&](std::size_t a, std::size_t b) {
                  return slots_[a].client < slots_[b].client;
                });
      std::vector<int> cohort;
      std::vector<int> surv_pos;
      std::vector<int> drop_pos;
      cohort.reserve(member_slots.size());
      for (std::size_t pos = 0; pos < member_slots.size(); ++pos) {
        const InFlight& s = slots_[member_slots[pos]];
        cohort.push_back(s.client);
        // A member that departed while masked and in flight is discarded,
        // but its pair masks are woven into the survivors' contributions,
        // so it is a dropout — survivors reconstruct its seed from shares.
        (tally(s, record) ? surv_pos : drop_pos)
            .push_back(static_cast<int>(pos));
      }
      const SecAggSession session(
          cohort,
          SecAggConfig{kSecAggFixedPointBits, kSecAggThresholdFraction,
                       hash_combine(hash_combine(config_.seed, kSecAggTag),
                                    best_wid)});
      if (surv_pos.empty() ||
          static_cast<int>(surv_pos.size()) < session.threshold()) {
        // Below the share threshold the wave is unrecoverable; discard it
        // whole — the protocol never reveals a partial sum.
        record.discarded_updates += static_cast<int>(surv_pos.size());
      } else {
        // pseudo_grad_ is free until the drain closes: it holds the wave's
        // mean.  All wave members trained the same dispatch version, so one
        // staleness weight covers the wave: fold w * n_ok * mean — exactly
        // the sum the per-member path would have accumulated.
        pseudo_grad_.resize(n);
        secagg_mean(session, member_slots, surv_pos, drop_pos, sim_now_,
                    pseudo_grad_, record);
        const std::uint32_t staleness =
            round_ - slots_[member_slots[0]].dispatch_version;
        const double scale = staleness_weight(staleness) *
                             static_cast<double>(surv_pos.size());
        fold_weighted(acc_.data(), pseudo_grad_.data(), n, scale);
        weight_sum += scale;
        for (const int pos : surv_pos) {
          accept(slots_[member_slots[static_cast<std::size_t>(pos)]],
                 staleness);
        }
      }
      for (const std::size_t si : member_slots) {
        client_slot_[static_cast<std::size_t>(slots_[si].client)] = -1;
        slots_[si].busy = false;
      }
      continue;
    }

    // --- pop the earliest pending outcome, ordered on (arrival, client) —
    // content-based, never slot-index-based, so replay and restore pop the
    // identical sequence regardless of slot packing or thread count.
    std::size_t pick = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const InFlight& s = slots_[i];
      if (!s.busy) continue;
      if (pick == slots_.size() || s.arrive_time < slots_[pick].arrive_time ||
          (s.arrive_time == slots_[pick].arrive_time &&
           s.client < slots_[pick].client)) {
        pick = i;
      }
    }
    InFlight& slot = slots_[pick];
    sim_now_ = std::max(sim_now_, slot.arrive_time);
    if (tally(slot, record)) {
      // Accept into the buffer: staleness-weighted fp64 accumulate,
      // streamed chunk-wise from the retained wire image — the full fp32
      // update of a quantized client is never materialized.
      const std::uint32_t staleness = round_ - slot.dispatch_version;
      const double w = staleness_weight(staleness);
      if (slot.streamed) {
        const std::size_t from[] = {pick};
        const std::vector<std::uint64_t> chunk_ns =
            fold_streamed(from, w, 0.0);
        for (std::size_t c = 0; trace_.on() && c < chunk_ns.size(); ++c) {
          trace_.record(obs::SpanKind::kDequantAccum, obs::kAggregatorActor,
                        static_cast<std::int32_t>(c), sim_now_, sim_now_,
                        chunk_ns[c]);
        }
      } else {
        const std::vector<float>& p = slot.header.payload;
        if (p.size() != n) {
          throw std::runtime_error("Aggregator: update size mismatch");
        }
        fold_weighted(acc_.data(), p.data(), n, w);
      }
      weight_sum += w;
      accept(slot, staleness);
    }
    // Free the slot; the client may request admission again immediately.
    slot.busy = false;
    client_slot_[static_cast<std::size_t>(slot.client)] = -1;
  }

  // --- drain: staleness-weighted server step ----------------------------
  record.participants = accepted_clients;
  record.survivors = accepted;
  record.mean_train_loss =
      accepted > 0 ? record.mean_train_loss / accepted : 0.0;
  record.mean_staleness =
      accepted > 0 ? staleness_sum / static_cast<double>(accepted) : 0.0;
  pseudo_grad_.resize(n);
  narrow_mean(acc_.data(), pseudo_grad_.data(), n, weight_sum);
  step_server(pseudo_grad_, record);
  record.client_metrics =
      aggregate_metrics(accepted_metrics, accepted_weights);
  record.secure_round = config_.secure_aggregation;
  account_privacy(record);
  record.sim_slowest_client_seconds = sim_now_ - start.t0;
  finish_record(record, start);
  save_checkpoint(record);

  trace_.record(obs::SpanKind::kBufferDrain, obs::kAggregatorActor, accepted,
                first_dispatch >= 0.0 ? first_dispatch : start.t0, sim_now_);
  obs_.async_in_flight.set(static_cast<double>(async_in_flight()));
  PHOTON_LOG_INFO("aggregator",
                  "drain %u: accepted=%d staleness mean %.2f max %u "
                  "deferred=%u loss %.4f",
                  round_, accepted, record.mean_staleness,
                  record.max_staleness, record.admission_deferred,
                  record.mean_train_loss);
  return close_round(record, start, accepted);
}

AsyncAggregatorState Aggregator::capture_async_state() const {
  AsyncAggregatorState s;
  s.defer_counts = defer_counts_;
  s.next_eligible = next_eligible_;
  std::vector<const InFlight*> pending;
  for (const InFlight& slot : slots_) {
    if (slot.busy) pending.push_back(&slot);
  }
  // Client order, not slot order: slot packing differs between a recovered
  // process and its uninterrupted twin, the set of pending clients doesn't.
  std::sort(pending.begin(), pending.end(),
            [](const InFlight* a, const InFlight* b) {
              return a->client < b->client;
            });
  s.in_flight.reserve(pending.size());
  for (const InFlight* slot : pending) {
    AsyncInFlightSnapshot u;
    u.client = slot->client;
    u.arrive_time = slot->arrive_time;
    u.dispatch_version = slot->dispatch_version;
    u.wave_id = slot->wave_id;
    u.failure_kind = slot->outcome;
    u.tokens = slot->update.tokens;
    u.mean_train_loss = slot->update.mean_train_loss;
    u.train_sim_seconds = slot->train_sim_seconds;
    if (slot->outcome == kOk && slot->streamed) {
      u.wire = slot->wire.bytes;
    } else if (slot->outcome == kOk) {
      // A materialized update goes back on the wire with the identity
      // codec, which restores its fp32 payload and metrics exactly.
      Message m;
      m.type = slot->header.type;
      m.round = slot->header.round;
      m.sender = slot->header.sender;
      m.metadata = slot->header.metadata;
      m.payload_view = slot->header.payload;
      u.wire = m.encode();
    }
    s.in_flight.push_back(std::move(u));
  }
  return s;
}

void Aggregator::validate_async_state(const AsyncAggregatorState& st) const {
  // A snapshot is replayed only once its shape matches this engine and each
  // pending update decodes as one fresh off the wire would.
  const auto bad = [](const std::string& what) {
    throw std::runtime_error("Aggregator: async checkpoint " + what);
  };
  if (st.defer_counts.size() != clients_.size() ||
      st.next_eligible.size() != clients_.size()) {
    bad("population mismatch");
  }
  Message header;
  WireView view;
  for (const AsyncInFlightSnapshot& u : st.in_flight) {
    if (u.client < 0 || u.client >= population()) bad("bad client id");
    if (u.failure_kind > kLinkFailed) bad("bad failure kind");
    if (u.failure_kind == kOk) {
      load_update(u.wire, global_params_.size(), header, view);
    }
  }
}

void Aggregator::restore_async_state(const AsyncAggregatorState& st) {
  defer_counts_ = st.defer_counts;
  next_eligible_ = st.next_eligible;
  if (slots_.size() < st.in_flight.size()) slots_.resize(st.in_flight.size());
  for (InFlight& slot : slots_) {
    slot.busy = false;
    slot.client = -1;
  }
  std::fill(client_slot_.begin(), client_slot_.end(), -1);
  for (std::size_t i = 0; i < st.in_flight.size(); ++i) {
    const AsyncInFlightSnapshot& u = st.in_flight[i];
    InFlight& slot = slots_[i];
    arm(slot, u.client, u.arrive_time - u.train_sim_seconds);
    slot.busy = true;
    slot.arrive_time = u.arrive_time;
    slot.dispatch_version = u.dispatch_version;
    slot.wave_id = u.wave_id;
    slot.outcome = static_cast<Outcome>(u.failure_kind);
    slot.train_sim_seconds = u.train_sim_seconds;
    // trained stays false: its stream advance is already in the checkpoint.
    slot.update.tokens = u.tokens;
    slot.update.mean_train_loss = u.mean_train_loss;
    slot.streamed = u.failure_kind == kOk &&
                    load_update(u.wire, global_params_.size(), slot.header,
                                slot.wire);
    client_slot_[static_cast<std::size_t>(u.client)] = static_cast<int>(i);
  }
}

void Aggregator::account_privacy(RoundRecord& record) {
  if (accountant_ == nullptr) return;
  accountant_->account_rounds();
  record.dp_epsilon = accountant_->epsilon();
  obs_.dp_epsilon.set(record.dp_epsilon);
}

PrivacyCheckpointState Aggregator::capture_privacy_state() const {
  PrivacyCheckpointState s;
  if (accountant_ != nullptr) {
    s.accounted_rounds = accountant_->accounted_rounds();
    s.noise_multiplier = accountant_->noise_multiplier();
    s.delta = accountant_->delta();
  }
  s.wave_counter = secagg_wave_counter_;
  s.shares_reconstructed_total = shares_reconstructed_total_;
  return s;
}

void Aggregator::record_eval(double perplexity) {
  if (history_.empty()) {
    throw std::runtime_error("Aggregator::record_eval: no rounds yet");
  }
  history_.last_mutable().eval_perplexity = perplexity;
}

bool Aggregator::restore_latest_checkpoint() {
  // Prefer the journal's last committed round: a higher-numbered ckpt file
  // could exist from a crash mid-save, but only a committed round is known
  // durable and consistent.
  std::optional<Checkpoint> ckpt;
  const std::int64_t committed = checkpoints_.journal_last_committed();
  if (committed >= 0) {
    ckpt = checkpoints_.at_round(static_cast<std::uint32_t>(committed));
  }
  if (!ckpt.has_value()) ckpt = checkpoints_.latest();
  if (!ckpt.has_value()) return false;
  // A checkpoint of another federation is refused before anything is
  // restored.  The EF residual section is optional, so it may be empty.
  if (ckpt->params.size() != global_params_.size()) {
    throw std::runtime_error("Aggregator: checkpoint holds " +
                             std::to_string(ckpt->params.size()) +
                             " params, the model has " +
                             std::to_string(global_params_.size()));
  }
  if (ckpt->client_trained_rounds.size() != clients_.size() ||
      ckpt->membership.size() != clients_.size() ||
      ckpt->link_stats.size() != clients_.size() ||
      (!ckpt->client_ef_residuals.empty() &&
       ckpt->client_ef_residuals.size() != clients_.size())) {
    throw std::runtime_error("Aggregator: checkpoint population mismatch");
  }
  if (ckpt->async_state) validate_async_state(*ckpt->async_state);
  // DP accounting resumes only under the (sigma, delta) it was composed
  // with: epsilon for another noise level, or one restarted at 0, would be
  // published silently wrong.
  const auto& priv = ckpt->privacy_state;
  const bool saved_dp = priv.has_value() && priv->delta > 0.0;
  if (saved_dp != (accountant_ != nullptr) ||
      (saved_dp && (priv->noise_multiplier != accountant_->noise_multiplier() ||
                    priv->delta != accountant_->delta()))) {
    throw std::runtime_error(
        "Aggregator: checkpoint DP accounting (sigma, delta) differs from "
        "this engine's");
  }
  check_server_opt_state(server_opt_->name(), ckpt->server_opt_state,
                         global_params_.size());
  // The extension takes its state before the engine changes, so a foreign
  // or malformed tuner section throws with the engine untouched.
  if (state_ext_ != nullptr && !ckpt->tuner_state.empty()) {
    state_ext_->restore_state(ckpt->tuner_state);
  }

  global_params_ = ckpt->params;
  round_ = ckpt->round + 1;
  sim_now_ = ckpt->sim_now;
  server_opt_->reset();
  if (!ckpt->server_opt_state.empty()) {
    BinaryReader r(ckpt->server_opt_state);
    server_opt_->load_state(r);
  }
  // Fast-forward fresh client data streams to their recorded positions so
  // post-recovery rounds read the exact tokens an uninterrupted run would.
  // Streams cannot rewind, so only positive deltas apply (an in-process
  // restore that already advanced past the checkpoint keeps its position).
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    const std::uint32_t target = ckpt->client_trained_rounds[c];
    if (target > client_rounds_[c]) {
      clients_[c]->fast_forward(target - client_rounds_[c],
                                config_.local_steps);
      client_rounds_[c] = target;
    }
  }
  // Restore each client's error-feedback residual (empty vectors for
  // clients that had none).
  for (std::size_t c = 0; c < ckpt->client_ef_residuals.size(); ++c) {
    clients_[c]->set_ef_residual(std::move(ckpt->client_ef_residuals[c]));
  }
  // The checkpointed lifecycle states win over anything plan-derived: a
  // restore may run under a *different* membership plan (late joiners that
  // were absent at save time), and the saved states are the truth.
  membership_ = std::move(ckpt->membership);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    links_[i].restore_stats(ckpt->link_stats[i]);
  }
  if (ckpt->async_state) {
    // Async engine: resume mid-buffer.  Admission counters and every
    // pending in-flight update come back exactly as the drain boundary
    // saved them.
    restore_async_state(*ckpt->async_state);
  }
  if (priv.has_value()) {
    // The wave counter must keep monotonically increasing across the crash
    // so post-recovery waves never reuse a pre-crash session seed.
    secagg_wave_counter_ = priv->wave_counter;
    shares_reconstructed_total_ = priv->shares_reconstructed_total;
  }
  if (accountant_ != nullptr) {
    // The accountant resumes mid-composition; epsilon is recomputed.
    *accountant_ = privacy::RdpAccountant(accountant_->noise_multiplier(),
                                          accountant_->delta());
    accountant_->account_rounds(priv->accounted_rounds);
    obs_.dp_epsilon.set(accountant_->epsilon());
  }
  checkpoints_.journal_recovered(round_);
  PHOTON_LOG_INFO("aggregator", "recovered at round %u (ckpt %u)", round_,
                  ckpt->round);
  return true;
}

}  // namespace photon
