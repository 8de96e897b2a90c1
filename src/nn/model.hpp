#pragma once
// Decoder-only transformer (MPT-style: pre-LN blocks, ALiBi attention,
// GELU MLP with configurable expansion, tied embedding / LM head).
//
// The model owns two flat float buffers — parameters and gradients — plus an
// activation tape sized for the largest (batch, seq) it has processed.  The
// flat layout is what Photon communicates: a client update is literally
// `params_before - params_after` over this buffer, and all aggregation
// topologies (PS/AR/RAR) reduce it element-wise.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/config.hpp"

namespace photon::kernels {
class KernelContext;
}

namespace photon {

/// Named view into the flat parameter buffer (for tests and introspection).
struct ParamView {
  std::string name;
  std::size_t offset = 0;
  std::size_t size = 0;
};

class GptModel {
 public:
  /// Shape-only construction: the layout, param views and ALiBi slopes,
  /// with every parameter zero and no RNG draws.  For a model whose params
  /// load_params() overwrites before use (client replicas, eval models).
  explicit GptModel(const ModelConfig& config);
  /// Construct with GPT-2-style scaled initialization from the given seed.
  GptModel(const ModelConfig& config, std::uint64_t seed);
  ~GptModel();

  GptModel(const GptModel&) = delete;
  GptModel& operator=(const GptModel&) = delete;

  const ModelConfig& config() const { return config_; }
  std::size_t num_params() const { return params_.size(); }

  /// Intra-op parallelism context used by forward/backward kernels.
  /// nullptr (the default) means kernels::default_context().  The pointee
  /// must outlive the model; the model does not take ownership.
  void set_kernel_context(const kernels::KernelContext* ctx) { kctx_ = ctx; }

  std::span<float> params() { return params_; }
  std::span<const float> params() const { return params_; }
  std::span<float> grads() { return grads_; }
  std::span<const float> grads() const { return grads_; }
  const std::vector<ParamView>& param_views() const { return views_; }

  void zero_grad();

  /// Replace all parameters (size must match).
  void load_params(std::span<const float> src);

  /// Forward + backward over a (B, T) batch of token ids with next-token
  /// targets (target < 0 = ignored position).  Gradients are ACCUMULATED;
  /// call zero_grad() between optimizer steps.  Returns the mean loss over
  /// valid positions.
  float train_step_fb(std::span<const int> tokens, std::span<const int> targets,
                      int batch, int seq);

  /// Forward only; returns mean loss. Does not touch gradients.
  float eval_loss(std::span<const int> tokens, std::span<const int> targets,
                  int batch, int seq);

 private:
  struct Acts;  // activation tape (defined in model.cpp)

  void ensure_acts(int batch, int seq);
  float forward(const int* tokens, const int* targets, int batch, int seq);
  void backward(const int* tokens, const int* targets, int batch, int seq,
                float loss_scale);

  ModelConfig config_;
  std::vector<float> params_;
  std::vector<float> grads_;
  std::vector<ParamView> views_;

  // Offsets into the flat buffer for each logical tensor.
  struct Layout {
    std::size_t wte = 0;
    // Per-layer strided offsets: offset(l) = base + l * stride.
    std::size_t ln1_g = 0, ln1_b = 0;
    std::size_t qkv_w = 0, qkv_b = 0;
    std::size_t proj_w = 0, proj_b = 0;
    std::size_t ln2_g = 0, ln2_b = 0;
    std::size_t fc_w = 0, fc_b = 0;
    std::size_t fcproj_w = 0, fcproj_b = 0;
    std::size_t block_stride = 0;
    std::size_t lnf_g = 0, lnf_b = 0;
    std::size_t total = 0;
  } layout_;

  std::vector<float> alibi_;   // per-head slopes
  const kernels::KernelContext* kctx_ = nullptr;
  std::unique_ptr<Acts> acts_;
  int acts_batch_ = 0;
  int acts_seq_ = 0;

  // Parameter accessors.
  float* p(std::size_t base, int layer = 0) {
    return params_.data() + base + static_cast<std::size_t>(layer) * layout_.block_stride;
  }
  float* g(std::size_t base, int layer = 0) {
    return grads_.data() + base + static_cast<std::size_t>(layer) * layout_.block_stride;
  }
};

}  // namespace photon
