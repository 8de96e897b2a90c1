#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace photon::obs {

namespace {

/// Shortest-round-trip-safe, deterministic double formatting: %.17g prints
/// identical bytes for identical values and strtod recovers them exactly.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Coarse category for trace viewers' color grouping.
const char* span_category(SpanKind kind) {
  switch (kind) {
    case SpanKind::kBroadcast:
    case SpanKind::kUpdateReturn:
    case SpanKind::kEncode:
    case SpanKind::kDecode:
    case SpanKind::kCollective:
    case SpanKind::kDequantAccum: return "comm";
    case SpanKind::kLocalTrain:
    case SpanKind::kLocalStep: return "compute";
    case SpanKind::kServerOpt:
    case SpanKind::kCheckpoint:
    case SpanKind::kEval:
    case SpanKind::kBufferDrain:
    case SpanKind::kRound: return "server";
    case SpanKind::kRetryWait:
    case SpanKind::kStragglerCut:
    case SpanKind::kCrash:
    case SpanKind::kLinkFail:
    case SpanKind::kAdmissionDefer:
    case SpanKind::kClientArrive:
    case SpanKind::kClientLeave: return "fault";
    case SpanKind::kKeyExchange:
    case SpanKind::kShareRecovery: return "privacy";
  }
  return "?";
}

void append_event_jsonl(std::string& out, const TraceEvent& e,
                        const JsonlOptions& options) {
  out += "{\"kind\":\"";
  out += span_name(e.kind);
  out += "\",\"round\":";
  out += std::to_string(e.round);
  out += ",\"actor\":";
  out += std::to_string(e.actor);
  out += ",\"detail\":";
  out += std::to_string(e.detail);
  out += ",\"sim_begin\":";
  out += fmt_double(e.sim_begin);
  out += ",\"sim_end\":";
  out += fmt_double(e.sim_end);
  if (options.include_real) {
    out += ",\"real_ns\":";
    out += std::to_string(e.real_ns);
  }
  out += "}\n";
}

}  // namespace

std::string to_jsonl(const std::vector<TraceEvent>& events,
                     const JsonlOptions& options) {
  std::string out;
  out.reserve(events.size() * 96);
  for (const TraceEvent& e : events) append_event_jsonl(out, e, options);
  return out;
}

std::vector<TraceEvent> from_jsonl(std::string_view text) {
  std::vector<TraceEvent> events;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const json::Value v = json::parse(line);
    TraceEvent e;
    e.kind = span_kind_from_name(v.at("kind").as_string());
    e.round = static_cast<std::uint32_t>(v.at("round").as_number());
    e.actor = static_cast<std::int32_t>(v.at("actor").as_number());
    e.detail = static_cast<std::int32_t>(v.at("detail").as_number());
    e.sim_begin = v.at("sim_begin").as_number();
    e.sim_end = v.at("sim_end").as_number();
    if (v.contains("real_ns")) {
      e.real_ns = static_cast<std::uint64_t>(v.at("real_ns").as_number());
    }
    events.push_back(e);
  }
  return events;
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    const double ts_us = e.sim_begin * 1e6;
    const double dur_us = (e.sim_end - e.sim_begin) * 1e6;
    // Track rows: one per client, aggregator work on tid 0.
    const int tid = e.actor >= 0 ? e.actor + 1 : 0;
    out += "\n{\"name\":\"";
    out += span_name(e.kind);
    out += "\",\"cat\":\"";
    out += span_category(e.kind);
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(tid);
    out += ",\"ts\":";
    out += fmt_double(ts_us);
    if (e.sim_begin == e.sim_end) {
      out += ",\"ph\":\"i\",\"s\":\"t\"";
    } else {
      out += ",\"ph\":\"X\",\"dur\":";
      out += fmt_double(dur_us);
    }
    out += ",\"args\":{\"round\":";
    out += std::to_string(e.round);
    out += ",\"detail\":";
    out += std::to_string(e.detail);
    out += ",\"real_ns\":";
    out += std::to_string(e.real_ns);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::vector<RoundAttribution> attribute_rounds(
    const std::vector<TraceEvent>& events) {
  struct Accum {
    RoundAttribution attr;
    // Per-client critical-path seconds (bcast + train + update + retry),
    // keyed by actor id.  std::map keeps iteration deterministic.
    std::map<std::int32_t, double> client_s;
  };
  std::map<std::uint32_t, Accum> rounds;
  for (const TraceEvent& e : events) {
    Accum& acc = rounds[e.round];
    RoundAttribution& row = acc.attr;
    const double width = e.sim_end - e.sim_begin;
    bool client_path = false;
    switch (e.kind) {
      case SpanKind::kRound: row.round_s += width; break;
      case SpanKind::kBroadcast:
        row.broadcast_s += width;
        client_path = true;
        break;
      case SpanKind::kLocalTrain:
        row.local_train_s += width;
        client_path = true;
        break;
      case SpanKind::kUpdateReturn:
        row.update_return_s += width;
        client_path = true;
        break;
      case SpanKind::kCollective: row.collective_s += width; break;
      case SpanKind::kServerOpt: row.server_opt_s += width; break;
      case SpanKind::kCheckpoint: row.checkpoint_s += width; break;
      case SpanKind::kRetryWait:
        row.retry_wait_s += width;
        client_path = true;
        break;
      case SpanKind::kEncode: row.encode_s += width; break;
      case SpanKind::kDecode: row.decode_s += width; break;
      case SpanKind::kDequantAccum: row.dequant_accum_s += width; break;
      case SpanKind::kBufferDrain: row.buffer_drain_s += width; break;
      case SpanKind::kEval: row.eval_s += width; break;
      case SpanKind::kStragglerCut: ++row.straggler_cuts; break;
      case SpanKind::kCrash: ++row.crashes; break;
      case SpanKind::kLinkFail: ++row.link_fails; break;
      case SpanKind::kAdmissionDefer: ++row.admission_defers; break;
      case SpanKind::kClientArrive: ++row.client_arrivals; break;
      case SpanKind::kClientLeave: ++row.client_departures; break;
      case SpanKind::kKeyExchange:
        row.key_exchange_s += width;
        client_path = true;
        break;
      case SpanKind::kShareRecovery: ++row.share_recoveries; break;
      case SpanKind::kLocalStep: break;
    }
    if (client_path && e.actor >= 0) acc.client_s[e.actor] += width;
  }
  std::vector<RoundAttribution> out;
  out.reserve(rounds.size());
  for (auto& [round, acc] : rounds) {
    acc.attr.round = round;
    acc.attr.clients = static_cast<int>(acc.client_s.size());
    if (!acc.client_s.empty()) {
      std::vector<double> per_client;
      per_client.reserve(acc.client_s.size());
      for (const auto& [actor, s] : acc.client_s) per_client.push_back(s);
      std::sort(per_client.begin(), per_client.end());
      acc.attr.slowest_client_s = per_client.back();
      acc.attr.median_client_s = per_client[per_client.size() / 2];
    }
    out.push_back(acc.attr);
  }
  return out;
}

std::string render_round_table(const std::vector<TraceEvent>& events) {
  TablePrinter table({"round", "sim_s", "bcast_s", "train_s", "update_s",
                      "collective_s", "retry_s", "cuts", "crashes",
                      "link_fails"});
  for (const RoundAttribution& row : attribute_rounds(events)) {
    table.add_row({std::to_string(row.round),
                   TablePrinter::fmt(row.round_s, 4),
                   TablePrinter::fmt(row.broadcast_s, 4),
                   TablePrinter::fmt(row.local_train_s, 4),
                   TablePrinter::fmt(row.update_return_s, 4),
                   TablePrinter::fmt(row.collective_s, 4),
                   TablePrinter::fmt(row.retry_wait_s, 4),
                   std::to_string(row.straggler_cuts),
                   std::to_string(row.crashes),
                   std::to_string(row.link_fails)});
  }
  return table.render();
}

}  // namespace photon::obs
