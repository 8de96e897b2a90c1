#pragma once
// Named metrics for the round path: counters, gauges, and histograms
// (DESIGN.md §9).
//
// Registration (name -> handle) is a cold-path mutex lookup done once at
// wiring time; the handle is then a raw pointer to the metric's storage,
// so a hot-path increment is a single relaxed atomic add with no lock, no
// hash, and no string.  Cells live in node-stable containers, so handles
// stay valid for the registry's lifetime.
//
// Histograms bucket by power-of-two magnitude (plus zero/negative buckets)
// and exist in two forms: the concurrent Histogram behind HistogramHandle,
// and the plain-value HistogramData snapshot whose merge() is associative
// and commutative (property-tested) — N per-thread histograms merged in
// any order equal the serial observation stream.

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace photon::obs {

/// Plain-value histogram: log2 magnitude buckets over |value|, with
/// dedicated buckets for zero and negative values.  Mergeable.
struct HistogramData {
  /// bucket 0: v == 0; bucket 1: v < 0; buckets 2..: floor(log2|v|)
  /// clamped into [kMinExp, kMaxExp].
  static constexpr int kMinExp = -32;
  static constexpr int kMaxExp = 31;
  static constexpr int kNumBuckets = 2 + (kMaxExp - kMinExp + 1);

  std::array<std::uint64_t, kNumBuckets> counts{};
  std::uint64_t total = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  static int bucket_of(double value);

  void observe(double value);

  /// Associative + commutative combine; (a.merge(b)).merge(c) equals
  /// a.merge(b.merge(c)) equals any permutation, bit-exact for counts and
  /// within one rounding of `sum` per merge order (counts/min/max exact).
  void merge(const HistogramData& other);

  double mean() const { return total > 0 ? sum / static_cast<double>(total) : 0.0; }

  bool operator==(const HistogramData& other) const {
    return counts == other.counts && total == other.total &&
           sum == other.sum && min == other.min && max == other.max;
  }
};

/// Concurrent histogram: relaxed atomic buckets, CAS-updated min/max.
class Histogram {
 public:
  void observe(double value);
  HistogramData snapshot() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, HistogramData::kNumBuckets> counts_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Typed handles: trivially copyable, validity = non-null, hot ops inline.
struct CounterHandle {
  std::atomic<std::uint64_t>* cell = nullptr;
  void add(std::uint64_t delta = 1) const {
    if (cell != nullptr) cell->fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return cell != nullptr ? cell->load(std::memory_order_relaxed) : 0;
  }
  explicit operator bool() const { return cell != nullptr; }
};

struct GaugeHandle {
  std::atomic<double>* cell = nullptr;
  void set(double value) const {
    if (cell != nullptr) cell->store(value, std::memory_order_relaxed);
  }
  double value() const {
    return cell != nullptr ? cell->load(std::memory_order_relaxed) : 0.0;
  }
  explicit operator bool() const { return cell != nullptr; }
};

struct HistogramHandle {
  Histogram* hist = nullptr;
  void observe(double value) const {
    if (hist != nullptr) hist->observe(value);
  }
  explicit operator bool() const { return hist != nullptr; }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; handles remain valid for the registry's lifetime.
  CounterHandle counter(const std::string& name);
  GaugeHandle gauge(const std::string& name);
  HistogramHandle histogram(const std::string& name);

  /// Read-side queries (0 / empty snapshot when unregistered).
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  HistogramData histogram_snapshot(const std::string& name) const;

  /// All registered counter names, sorted.
  std::vector<std::string> counter_names() const;

  /// Zero every counter/gauge and clear every histogram; names and handles
  /// stay registered and valid.
  void reset();

 private:
  mutable std::mutex mu_;  // registration + read-side; never on the hot path
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>> counters_;
  std::map<std::string, std::unique_ptr<std::atomic<double>>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace photon::obs
