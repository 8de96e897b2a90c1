#include "core/privacy.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "util/rng.hpp"

namespace photon::privacy {

double u01(std::uint64_t h) {
  // Top 53 bits, then +1: uniform over {1..2^53} * 2^-53 = (0, 1].
  return static_cast<double>((h >> 11) + 1) * 0x1.0p-53;
}

double stateless_gaussian(std::uint64_t key, std::uint64_t index) {
  const double u1 = u01(hash_combine(key, 2 * index));
  const double u2 = u01(hash_combine(key, 2 * index + 1));
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::size_t add_gaussian_noise(const kernels::KernelContext& ctx,
                               std::span<float> x, std::uint64_t key,
                               double stddev) {
  const auto& ops = ctx.simd();
  std::atomic<std::size_t> redone{0};
  // ~60 double ops and two counter hashes per element.
  ctx.parallel_shards(x.size(), ctx.grain_rows(64),
                      [&](std::size_t begin, std::size_t end) {
                        redone += ops.dp_noise_acc(
                            x.data() + begin, end - begin, key, begin, stddev,
                            &stateless_gaussian);
                      });
  return redone.load();
}

namespace {

// Standard moments-accountant grid: dense near 1 (tight for many rounds /
// small sigma), geometric above (tight for few rounds / large sigma).
constexpr double kAlphaGrid[] = {1.25, 1.5,  1.75, 2.0,  2.5,  3.0,   3.5,
                                 4.0,  5.0,  6.0,  8.0,  10.0, 12.0,  16.0,
                                 20.0, 24.0, 32.0, 48.0, 64.0, 128.0, 256.0,
                                 512.0, 1024.0};

}  // namespace

RdpAccountant::RdpAccountant(double noise_multiplier, double delta)
    : sigma_(noise_multiplier), delta_(delta) {
  if (!(noise_multiplier > 0.0)) {
    throw std::invalid_argument("RdpAccountant: noise_multiplier must be > 0");
  }
  if (!(delta > 0.0) || delta >= 1.0) {
    throw std::invalid_argument("RdpAccountant: delta must be in (0, 1)");
  }
}

double RdpAccountant::epsilon() const {
  if (rounds_ == 0) return 0.0;
  const double rdp_per_alpha =
      static_cast<double>(rounds_) / (2.0 * sigma_ * sigma_);
  const double log_inv_delta = std::log(1.0 / delta_);
  double best = std::numeric_limits<double>::infinity();
  for (const double alpha : kAlphaGrid) {
    const double eps = alpha * rdp_per_alpha + log_inv_delta / (alpha - 1.0);
    best = std::min(best, eps);
  }
  return best;
}

double RdpAccountant::closed_form_epsilon(double sigma, double delta,
                                          std::uint64_t rounds) {
  if (rounds == 0) return 0.0;
  const double r = static_cast<double>(rounds);
  return r / (2.0 * sigma * sigma) +
         std::sqrt(2.0 * r * std::log(1.0 / delta)) / sigma;
}

}  // namespace photon::privacy
