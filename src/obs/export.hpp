#pragma once
// Trace exporters (DESIGN.md §9).
//
// Three output formats from one drained event stream:
//
//   * JSONL — one JSON object per event, one event per line.  The
//     deterministic export (default) emits only sim-clock fields, so the
//     byte stream is identical for identical (seed, config) at any thread
//     count; include_real adds the nondeterministic steady-clock duration.
//     from_jsonl() round-trips every exported field (property-tested).
//   * Chrome trace_event — a {"traceEvents": [...]} document loadable in
//     chrome://tracing and Perfetto.  Spans are complete ("ph":"X")
//     events on the sim-time axis (microseconds); instant decisions
//     (straggler cut, crash, link failure) are "ph":"i" marks.
//   * Per-round table — human-readable sim-time attribution per phase via
//     util/table, one row per round.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace photon::obs {

struct JsonlOptions {
  /// Emit the steady-clock real_ns field.  Off by default: real durations
  /// are nondeterministic and would break byte-identical replays.
  bool include_real = false;
};

/// Serialize events to JSONL (events are emitted in the given order; pass
/// a drained stream for the deterministic ordering guarantee).
std::string to_jsonl(const std::vector<TraceEvent>& events,
                     const JsonlOptions& options = {});

/// Parse a JSONL stream back into events; inverse of to_jsonl for every
/// field it emitted (real_ns defaults to 0 when absent).  Throws
/// std::runtime_error on malformed lines.
std::vector<TraceEvent> from_jsonl(std::string_view text);

/// Chrome trace_event JSON document (load in chrome://tracing / Perfetto).
std::string to_chrome_trace(const std::vector<TraceEvent>& events);

/// Per-round sim-time attribution parsed back from a drained (or
/// from_jsonl-imported) event stream.  Every field derives from the
/// deterministic span fields only (never real_ns), so attribution of the
/// same federation is byte-identical at any thread count — this is the
/// contract the trace-driven autotuner (src/tune) relies on.  kEncode
/// instants carry no sim time and are skipped.
struct RoundAttribution {
  std::uint32_t round = 0;
  double round_s = 0.0;         ///< kRound span width (0 for async drains)
  double broadcast_s = 0.0;     ///< summed over clients
  double local_train_s = 0.0;
  double update_return_s = 0.0;
  double collective_s = 0.0;
  double server_opt_s = 0.0;
  double checkpoint_s = 0.0;
  double retry_wait_s = 0.0;
  double decode_s = 0.0;
  double dequant_accum_s = 0.0;
  double buffer_drain_s = 0.0;  ///< async engine drain window
  double eval_s = 0.0;
  double key_exchange_s = 0.0;  ///< secagg simulated key-agreement rounds
  int share_recoveries = 0;     ///< dropped members reconstructed via Shamir
  /// Per-client critical path: sum of that client's broadcast + local_train
  /// + update_return + retry_wait spans; max / median over participating
  /// clients.  The ratio is the straggler-tail signal.
  double slowest_client_s = 0.0;
  double median_client_s = 0.0;
  int clients = 0;              ///< distinct client actors seen this round
  int straggler_cuts = 0;
  int crashes = 0;
  int link_fails = 0;
  int admission_defers = 0;
  int client_arrivals = 0;
  int client_departures = 0;
};

/// Parse a drained event stream into per-round attributions, ordered by
/// ascending round number.  Pure function of the deterministic span fields.
std::vector<RoundAttribution> attribute_rounds(
    const std::vector<TraceEvent>& events);

/// Aligned per-round table: sim seconds attributed to each phase, plus
/// fault-event counts.  One row per round present in `events`.  Rendered
/// from attribute_rounds().
std::string render_round_table(const std::vector<TraceEvent>& events);

}  // namespace photon::obs
