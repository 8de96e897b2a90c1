#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace photon {
namespace {

// Elementwise optimizer updates cost ~16 scalar ops per parameter.
constexpr std::size_t kStepRowCost = 16;

}  // namespace

AdamW::AdamW(std::size_t num_params, AdamWConfig config)
    : config_(config), n_(num_params) {}

void AdamW::step_impl(const kernels::KernelContext& ctx,
                      std::span<float> params, std::span<const float> grads,
                      float lr, float gscale, bool last_step) {
  if (params.size() != n_ || grads.size() != n_) {
    throw std::invalid_argument("AdamW::step: size mismatch");
  }
  if (spent_) {
    throw std::logic_error("AdamW::step: a last step dropped the moments");
  }
  // The first step after construction or reset() takes the moments as
  // zero without reading them (reset() leaves them stale).  A last step
  // stores none; the first step that stores them allocates them.
  const bool zero_moments = t_ == 0;
  if (!last_step && m_.empty()) {
    m_.assign(n_, 0.0f);
    v_.assign(n_, 0.0f);
  }
  spent_ = last_step;
  ++t_;
  const float b1 = config_.beta1;
  const float b2 = config_.beta2;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  const float eps = config_.eps;
  const float wd = config_.weight_decay;
  const auto& ops = ctx.simd();
  float* p = params.data();
  // Null only for a zero-moment last step, which touches neither.
  float* m = m_.empty() ? nullptr : m_.data();
  float* v = v_.empty() ? nullptr : v_.data();
  const float* g = grads.data();
  ctx.parallel_shards(params.size(), ctx.grain_rows(kStepRowCost),
                      [&](std::size_t i0, std::size_t i1) {
                        ops.adamw(p + i0, m ? m + i0 : m, v ? v + i0 : v,
                                  g + i0, i1 - i0, gscale, lr, b1, b2, bc1,
                                  bc2, eps, wd, zero_moments, !last_step);
                      });
}

void AdamW::step(const kernels::KernelContext& ctx, std::span<float> params,
                 std::span<const float> grads, float lr) {
  step_impl(ctx, params, grads, lr, 1.0f, false);
}

double AdamW::step_clipped(const kernels::KernelContext& ctx,
                           std::span<float> params,
                           std::span<const float> grads, float lr,
                           double max_norm, bool last_step) {
  const double norm = kernels::l2_norm(ctx, grads.data(), grads.size());
  // gc = g * scale is the exact op sequence clip_grad_norm + step performs
  // (scale_inplace writes g*scale, the step then reads it back), so the
  // fused path is bit-identical while touching each grad once.
  const float gscale = (norm > max_norm && norm > 0.0)
                           ? static_cast<float>(max_norm / norm)
                           : 1.0f;
  step_impl(ctx, params, grads, lr, gscale, last_step);
  return norm;
}

void AdamW::reset() {
  t_ = 0;
  spent_ = false;
}

void AdamW::read_moments() {
  if (spent_) {
    throw std::logic_error("AdamW: a last step dropped the moments");
  }
  if (t_ != 0) return;
  m_.assign(n_, 0.0f);
  v_.assign(n_, 0.0f);
}

double clip_grad_norm(const kernels::KernelContext& ctx,
                      std::span<float> grads, double max_norm) {
  const double norm = kernels::l2_norm(ctx, grads.data(), grads.size());
  if (norm > max_norm && norm > 0.0) {
    const auto scale = static_cast<float>(max_norm / norm);
    kernels::scale_inplace(ctx, grads.data(), scale, grads.size());
  }
  return norm;
}

}  // namespace photon
