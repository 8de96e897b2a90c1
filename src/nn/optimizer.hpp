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
};

class AdamW {
 public:
  /// Allocates nothing: the moment buffers come with the first step that
  /// stores them, so an optimizer that only ever takes last steps holds
  /// none.
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
  ///
  /// With `last_step` the step stores only the params: it computes m and v
  /// in the same op sequence and drops them, so the params equal the full
  /// step's bit for bit.  Take it only where the next call is reset():
  /// until then the moments are gone, and exp_avg(), exp_avg_sq() and any
  /// further step throw std::logic_error.
  double step_clipped(const kernels::KernelContext& ctx,
                      std::span<float> params, std::span<const float> grads,
                      float lr, double max_norm, bool last_step = false);

  /// Drop all momenta and the step counter (Photon's stateless-per-round
  /// local optimization; avoids communicating 2x extra state).  Only the
  /// counter is written: the next step takes the moments as zero without
  /// reading them, so the step equals one on zeroed moments bit for bit.
  void reset();

  std::size_t step_count() const { return t_; }
  /// The moments, all zeros before the first step after construction or a
  /// reset (a read then zeroes what reset() left stale, allocating the
  /// buffers if no step stored them).  Throws std::logic_error after a
  /// last step, until reset().
  std::span<const float> exp_avg() {
    read_moments();
    return m_;
  }
  std::span<const float> exp_avg_sq() {
    read_moments();
    return v_;
  }

 private:
  void step_impl(const kernels::KernelContext& ctx, std::span<float> params,
                 std::span<const float> grads, float lr, float gscale,
                 bool last_step);
  void read_moments();

  AdamWConfig config_;
  std::size_t n_;
  std::vector<float> m_;  // empty until a step stores the moments
  std::vector<float> v_;
  std::size_t t_ = 0;
  bool spent_ = false;  // a last step dropped the moments; reset() first
};

/// Scale gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.  Prefer AdamW::step_clipped on the training
/// hot path — it folds the clip into the optimizer pass.
double clip_grad_norm(const kernels::KernelContext& ctx,
                      std::span<float> grads, double max_norm);

}  // namespace photon
