#include "core/metrics.hpp"

#include <stdexcept>

namespace photon {

MetricDict aggregate_metrics(const std::vector<MetricDict>& metrics,
                             const std::vector<double>& weights) {
  if (metrics.size() != weights.size()) {
    throw std::invalid_argument("aggregate_metrics: size mismatch");
  }
  MetricDict sums;
  std::map<std::string, double> weight_totals;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double w = weights[i];
    if (w < 0.0) throw std::invalid_argument("aggregate_metrics: negative weight");
    for (const auto& [key, value] : metrics[i]) {
      sums[key] += w * value;
      weight_totals[key] += w;
    }
  }
  MetricDict out;
  for (const auto& [key, total] : sums) {
    const double wt = weight_totals[key];
    out[key] = wt > 0.0 ? total / wt : 0.0;
  }
  return out;
}

int TrainingHistory::first_round_reaching(double target_ppl) const {
  for (const auto& r : records_) {
    if (r.eval_perplexity >= 0.0 && r.eval_perplexity <= target_ppl) {
      return static_cast<int>(r.round);
    }
  }
  return -1;
}

double TrainingHistory::final_perplexity() const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->eval_perplexity >= 0.0) return it->eval_perplexity;
  }
  return -1.0;
}

}  // namespace photon
