#include "obs/metrics.hpp"

#include <cmath>

namespace photon::obs {

int HistogramData::bucket_of(double value) {
  if (value == 0.0) return 0;
  if (value < 0.0 || std::isnan(value)) return 1;
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5, 1)
  exp -= 1;                 // floor(log2(value)) for positive finite values
  if (exp < kMinExp) exp = kMinExp;
  if (exp > kMaxExp) exp = kMaxExp;
  return 2 + (exp - kMinExp);
}

void HistogramData::observe(double value) {
  counts[static_cast<std::size_t>(bucket_of(value))] += 1;
  total += 1;
  sum += value;
  if (value < min) min = value;
  if (value > max) max = value;
}

void HistogramData::merge(const HistogramData& other) {
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  total += other.total;
  sum += other.sum;
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
}

void Histogram::observe(double value) {
  const auto bucket = static_cast<std::size_t>(HistogramData::bucket_of(value));
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  double cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

HistogramData Histogram::snapshot() const {
  HistogramData d;
  for (std::size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  d.total = total_.load(std::memory_order_relaxed);
  d.sum = sum_.load(std::memory_order_relaxed);
  d.min = min_.load(std::memory_order_relaxed);
  d.max = max_.load(std::memory_order_relaxed);
  return d;
}

CounterHandle MetricsRegistry::counter(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& cell = counters_[name];
  if (cell == nullptr) cell = std::make_unique<std::atomic<std::uint64_t>>(0);
  return CounterHandle{cell.get()};
}

GaugeHandle MetricsRegistry::gauge(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& cell = gauges_[name];
  if (cell == nullptr) cell = std::make_unique<std::atomic<double>>(0.0);
  return GaugeHandle{cell.get()};
}

HistogramHandle MetricsRegistry::histogram(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& hist = histograms_[name];
  if (hist == nullptr) hist = std::make_unique<Histogram>();
  return HistogramHandle{hist.get()};
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::scoped_lock lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second->load(std::memory_order_relaxed)
                               : 0;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  std::scoped_lock lock(mu_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second->load(std::memory_order_relaxed)
                             : 0.0;
}

HistogramData MetricsRegistry::histogram_snapshot(
    const std::string& name) const {
  std::scoped_lock lock(mu_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second->snapshot() : HistogramData{};
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

void MetricsRegistry::reset() {
  std::scoped_lock lock(mu_);
  for (auto& [name, cell] : counters_) {
    cell->store(0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : gauges_) {
    cell->store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, hist] : histograms_) {
    hist->reset();
  }
}

}  // namespace photon::obs
