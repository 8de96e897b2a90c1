#pragma once
// TunedSession: owns the observe -> decide -> apply loop around an
// Aggregator.
//
// At each round boundary (a quiescent point) the session reads the round's
// events from the tracer, feeds them to the RoundAutotuner, and pushes the
// resulting decision before the next round starts.  Reading copies: a
// caller's tracer keeps every span for the caller.  If the aggregator has
// no tracer, the session installs a private one so tuning works without
// the caller opting into observability, and drains only that one, after
// observing.  Under PHOTON_TRACE=OFF builds the tracer records nothing,
// digests come back empty, and the tuner deterministically holds its
// initial (static) configuration — tuning degrades, nothing breaks.

#include <memory>
#include <vector>

#include "core/aggregator.hpp"
#include "obs/trace.hpp"
#include "tune/autotuner.hpp"

namespace photon::tune {

class TunedSession {
 public:
  TunedSession(Aggregator& agg, TunerConfig config);
  ~TunedSession();

  TunedSession(const TunedSession&) = delete;
  TunedSession& operator=(const TunedSession&) = delete;

  /// Run one autotuned round: run_round(), then read the round's events,
  /// digest its record and apply the next decision.
  RoundRecord step();

  /// Re-apply the current decision after the aggregator restored a
  /// checkpoint (the restore path already rebuilt the decision history
  /// through the checkpoint's tuner-state field).
  void resume();

  RoundAutotuner& tuner() { return tuner_; }
  const RoundAutotuner& tuner() const { return tuner_; }

 private:
  Aggregator& agg_;
  RoundAutotuner tuner_;
  std::unique_ptr<obs::Tracer> owned_tracer_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace photon::tune
