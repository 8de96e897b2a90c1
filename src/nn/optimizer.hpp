#pragma once
// Local (client-side) optimizers operating on flat parameter buffers.
//
// AdamW is the paper's ClientOpt (Table 4: betas 0.9/0.95, decoupled weight
// decay).  Photon keeps optimizer state *local and stateless across rounds*
// (Appendix A): reset() implements that policy.  DiLoCo's Nesterov OuterOpt
// is the server's NesterovOpt (core/server_opt.hpp).
//
// AdamW steps through the runtime-dispatched SIMD layer (tensor/simd.hpp)
// and shards elementwise over a KernelContext, so updates are bit-identical
// across scalar/AVX2/AVX-512 and any thread count.

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/kernel_context.hpp"

namespace photon {

struct AdamWConfig {
  float beta1 = 0.9f;
  float beta2 = 0.95f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;

  bool operator==(const AdamWConfig&) const = default;
};

class AdamW {
 public:
  AdamW(std::size_t num_params, AdamWConfig config = {});

  /// One update: params -= lr * (corrected m / (sqrt(corrected v) + eps)
  ///                             + weight_decay * params).
  void step(const kernels::KernelContext& ctx, std::span<float> params,
            std::span<const float> grads, float lr);

  /// Fused grad-clip + step: computes the global grad L2 norm, then applies
  /// the step with the clip ratio folded into the per-element grad read
  /// (gc = g * scale), so clipping costs no extra pass and `grads` is left
  /// unmodified.  Bit-identical to clip_grad_norm() followed by step().
  /// Returns the pre-clip norm.
  double step_clipped(const kernels::KernelContext& ctx,
                      std::span<float> params, std::span<const float> grads,
                      float lr, double max_norm);

  /// Drop all momenta and the step counter (Photon's stateless-per-round
  /// local optimization; avoids communicating 2x extra state).
  void reset();

  std::size_t step_count() const { return t_; }
  std::span<const float> exp_avg() const { return m_; }
  std::span<const float> exp_avg_sq() const { return v_; }

 private:
  void step_impl(const kernels::KernelContext& ctx, std::span<float> params,
                 std::span<const float> grads, float lr, float gscale);

  AdamWConfig config_;
  std::vector<float> m_;
  std::vector<float> v_;
  std::size_t t_ = 0;
};

/// Scale gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.  Prefer AdamW::step_clipped on the training
/// hot path — it folds the clip into the optimizer pass.
double clip_grad_norm(const kernels::KernelContext& ctx,
                      std::span<float> grads, double max_norm);

}  // namespace photon
