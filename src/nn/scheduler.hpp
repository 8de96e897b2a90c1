#pragma once
// Cosine learning-rate schedule with linear warmup (paper §5.1 / Table 5).
//
// Photon's key recipe: the cosine decay period is computed for the *small
// hardware batch size* B_l, which stretches it by B/B_small relative to the
// centralized schedule (paper §3, "Exploiting Small Batches and High
// Learning Rates", and Appendix C.1 Eq. 8).  The minimum learning rate is
// alpha * eta_max.

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace photon {

/// alpha, Table 5: eta_min = alpha * eta_max.
inline constexpr float kMinLrFactor = 0.1f;

struct CosineScheduleConfig {
  float max_lr = 6e-4f;
  std::int64_t warmup_steps = 100;
  std::int64_t total_steps = 10000;  // cosine period T (includes warmup)
};

class CosineSchedule {
 public:
  explicit CosineSchedule(CosineScheduleConfig config) : config_(config) {
    if (config_.total_steps <= 0) {
      throw std::invalid_argument("CosineSchedule: total_steps must be > 0");
    }
    if (config_.warmup_steps < 0 || config_.warmup_steps > config_.total_steps) {
      throw std::invalid_argument("CosineSchedule: bad warmup_steps");
    }
  }

  /// Learning rate at (0-based) optimization step `step`.  Steps beyond the
  /// period hold at eta_min.
  float lr_at(std::int64_t step) const {
    const float min_lr = config_.max_lr * kMinLrFactor;
    if (step < config_.warmup_steps) {
      return config_.max_lr * static_cast<float>(step + 1) /
             static_cast<float>(config_.warmup_steps);
    }
    if (step >= config_.total_steps) return min_lr;
    const double progress =
        static_cast<double>(step - config_.warmup_steps) /
        static_cast<double>(config_.total_steps - config_.warmup_steps);
    const double cosine = 0.5 * (1.0 + std::cos(M_PI * progress));
    return static_cast<float>(min_lr + (config_.max_lr - min_lr) * cosine);
  }

  const CosineScheduleConfig& config() const { return config_; }

  /// Photon's schedule stretching (Appendix C.1): given a centralized recipe
  /// with period T_cent at batch size B_cent, a client running batch B_local
  /// uses period T_cent * B_cent / B_local so the total token budget under
  /// decay is preserved.
  static std::int64_t stretched_period(std::int64_t cent_steps,
                                       std::int64_t cent_batch,
                                       std::int64_t local_batch) {
    if (local_batch <= 0) throw std::invalid_argument("local_batch <= 0");
    return cent_steps * cent_batch / local_batch;
  }

 private:
  CosineScheduleConfig config_;
};

}  // namespace photon
