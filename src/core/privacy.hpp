#pragma once
// Client-level differential privacy: stateless Gaussian noise and an RDP
// (moments) accountant (DESIGN.md §14).
//
// Mechanism: every participating client clips its pseudo-gradient to L2
// norm C (ClipStage) and adds N(0, (sigma*C)^2) per element (DpNoiseStage).
// Noise draws are a pure function of (client seed, round, element index) —
// no generator state — so replays, crash recovery, and any sharding
// reproduce the same noise bit for bit.
//
// Accounting: the subsampled-free worst case — a client participates in
// every round, each round is one Gaussian mechanism with noise multiplier
// sigma.  Renyi DP of a single mechanism at order alpha is alpha/(2 sigma^2);
// R-fold composition adds linearly; conversion to (eps, delta)-DP takes the
// minimum over the alpha grid of
//
//     eps(alpha) = R * alpha / (2 sigma^2) + log(1/delta) / (alpha - 1).
//
// The continuous minimum (reference for tests) is
//     eps = R/(2 sigma^2) + sqrt(2 R log(1/delta)) / sigma,
// attained at alpha* = 1 + sigma * sqrt(2 log(1/delta) / R); the grid value
// is within a few percent of it and always an upper bound.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/kernel_context.hpp"

namespace photon::privacy {

/// Unit-uniform in (0, 1] from a 64-bit hash (never 0, so log() is safe).
double u01(std::uint64_t h);

/// Stateless standard Gaussian draw: Box-Muller over the hash pair
/// (key, 2*index) / (key, 2*index + 1).  Deterministic per (key, index).
/// The reference expression of the noise: add_gaussian_noise reproduces it.
double stateless_gaussian(std::uint64_t key, std::uint64_t index);

/// x[i] += float(stddev * stateless_gaussian(key, i)) for every i, bit for
/// bit, sharded over `ctx` (the SIMD layer's dp_noise_acc: lane draws
/// without libm, and this function for any element the lanes' error bound
/// cannot settle; DESIGN.md §14).  Returns how many elements went through
/// stateless_gaussian.
std::size_t add_gaussian_noise(const kernels::KernelContext& ctx,
                               std::span<float> x, std::uint64_t key,
                               double stddev);

/// Renyi-DP accountant over a fixed alpha grid.
class RdpAccountant {
 public:
  /// `noise_multiplier` = sigma (noise stddev / clip norm), > 0.
  /// `delta` in (0, 1).
  RdpAccountant(double noise_multiplier, double delta);

  /// Compose `rounds` more Gaussian mechanisms.
  void account_rounds(std::uint64_t rounds = 1) { rounds_ += rounds; }
  std::uint64_t accounted_rounds() const { return rounds_; }

  /// Current (eps, delta)-DP guarantee: min over the alpha grid.
  /// 0 when no rounds have been accounted yet.
  double epsilon() const;

  double noise_multiplier() const { return sigma_; }
  double delta() const { return delta_; }

  /// Closed-form continuous-alpha optimum (the test reference; a lower
  /// bound on the grid epsilon for the same (sigma, delta, rounds)).
  static double closed_form_epsilon(double sigma, double delta,
                                    std::uint64_t rounds);

 private:
  double sigma_ = 0.0;
  double delta_ = 0.0;
  std::uint64_t rounds_ = 0;
};

}  // namespace photon::privacy
