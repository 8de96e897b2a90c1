#pragma once
// Statistics helpers shared by the benches.

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace photon {

/// Linear-interpolated quantile, q in [0, 1].
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace photon
