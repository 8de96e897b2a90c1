#include "tune/session.hpp"

namespace photon::tune {

TunedSession::TunedSession(Aggregator& agg, TunerConfig config)
    : agg_(agg), tuner_(std::move(config)) {
  tracer_ = agg_.tracer();
  if (tracer_ == nullptr) {
    // No observability opted in: install a private tracer so the tuner has
    // spans to digest.  Per-round drains keep its rings bounded.
    owned_tracer_ = std::make_unique<obs::Tracer>();
    tracer_ = owned_tracer_.get();
    agg_.set_tracer(tracer_);
  }
  tuner_.bind_initial(agg_);  // also registers the checkpoint extension
}

TunedSession::~TunedSession() {
  agg_.set_state_extension(nullptr);
  if (owned_tracer_ != nullptr) agg_.set_tracer(nullptr);
}

RoundRecord TunedSession::step() {
  const RoundRecord record = agg_.run_round();
  // Round boundaries are quiescent: every worker the round used has joined.
  tuner_.observe(record, tracer_->round_events(record.round));
  if (owned_tracer_ != nullptr) (void)owned_tracer_->drain();
  tuner_.apply(agg_);
  return record;
}

void TunedSession::resume() { tuner_.apply(agg_); }

}  // namespace photon::tune
