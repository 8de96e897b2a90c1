#include "nn/model.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "tensor/kernel_context.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"

namespace photon {

namespace k = kernels;

// Activation tape for one forward pass plus its gradients.  Buffers are
// allocated for the largest (B, T) seen and reused across steps.
struct GptModel::Acts {
  // forward
  std::vector<float> encoded;                         // (BT, C)
  std::vector<float> ln1, ln1_mean, ln1_rstd;         // (L*BT, C), (L*BT)
  std::vector<float> qkv;                             // (L*BT, 3C)
  std::vector<float> atty;                            // (L*BT, C)
  std::vector<float> preatt, att;                     // (L*B*NH, T, T)
  std::vector<float> attproj;                         // (L*BT, C)
  std::vector<float> res2;                            // (L*BT, C)
  std::vector<float> ln2, ln2_mean, ln2_rstd;         // (L*BT, C), (L*BT)
  std::vector<float> fch, fch_gelu;                   // (L*BT, EC)
  std::vector<float> fcproj;                          // (L*BT, C)
  std::vector<float> res3;                            // (L*BT, C)
  std::vector<float> lnf, lnf_mean, lnf_rstd;         // (BT, C), (BT)
  std::vector<float> logits, probs;                   // (BT, V)
  std::vector<float> losses;                          // (BT)
  // backward (activation grads)
  std::vector<float> d_encoded;
  std::vector<float> d_ln1, d_qkv, d_atty, d_preatt, d_att, d_attproj;
  std::vector<float> d_res2, d_ln2, d_fch, d_fch_gelu, d_fcproj, d_res3;
  std::vector<float> d_lnf, d_logits;
};

GptModel::~GptModel() = default;

GptModel::GptModel(const ModelConfig& config)
    : config_(config), acts_(std::make_unique<Acts>()) {
  const auto c = static_cast<std::size_t>(config_.d_model);
  const auto v = static_cast<std::size_t>(config_.vocab_size);
  const auto ec = static_cast<std::size_t>(config_.expansion_ratio) * c;
  const auto layers = static_cast<std::size_t>(config_.n_layers);

  // Flat layout: [wte | block_0 | block_1 | ... | lnf].
  std::size_t cursor = 0;
  auto claim = [&](std::size_t n) {
    const std::size_t off = cursor;
    cursor += n;
    return off;
  };
  layout_.wte = claim(v * c);
  const std::size_t block_base = cursor;
  layout_.ln1_g = claim(c);
  layout_.ln1_b = claim(c);
  layout_.qkv_w = claim(3 * c * c);
  layout_.qkv_b = claim(3 * c);
  layout_.proj_w = claim(c * c);
  layout_.proj_b = claim(c);
  layout_.ln2_g = claim(c);
  layout_.ln2_b = claim(c);
  layout_.fc_w = claim(ec * c);
  layout_.fc_b = claim(ec);
  layout_.fcproj_w = claim(c * ec);
  layout_.fcproj_b = claim(c);
  layout_.block_stride = cursor - block_base;
  cursor = block_base + layers * layout_.block_stride;
  layout_.lnf_g = claim(c);
  layout_.lnf_b = claim(c);
  layout_.total = cursor;

  params_.assign(layout_.total, 0.0f);
  grads_.assign(layout_.total, 0.0f);

  // Named views for introspection / tests.
  views_.push_back({"wte", layout_.wte, v * c});
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t s = l * layout_.block_stride;
    const std::string pre = "block" + std::to_string(l) + ".";
    views_.push_back({pre + "ln1.g", layout_.ln1_g + s, c});
    views_.push_back({pre + "ln1.b", layout_.ln1_b + s, c});
    views_.push_back({pre + "attn.qkv.w", layout_.qkv_w + s, 3 * c * c});
    views_.push_back({pre + "attn.qkv.b", layout_.qkv_b + s, 3 * c});
    views_.push_back({pre + "attn.proj.w", layout_.proj_w + s, c * c});
    views_.push_back({pre + "attn.proj.b", layout_.proj_b + s, c});
    views_.push_back({pre + "ln2.g", layout_.ln2_g + s, c});
    views_.push_back({pre + "ln2.b", layout_.ln2_b + s, c});
    views_.push_back({pre + "mlp.fc.w", layout_.fc_w + s, ec * c});
    views_.push_back({pre + "mlp.fc.b", layout_.fc_b + s, ec});
    views_.push_back({pre + "mlp.proj.w", layout_.fcproj_w + s, c * ec});
    views_.push_back({pre + "mlp.proj.b", layout_.fcproj_b + s, c});
  }
  views_.push_back({"lnf.g", layout_.lnf_g, c});
  views_.push_back({"lnf.b", layout_.lnf_b, c});

  alibi_.resize(static_cast<std::size_t>(config_.n_heads));
  k::alibi_slopes(alibi_.data(), config_.n_heads);
}

GptModel::GptModel(const ModelConfig& config, std::uint64_t seed)
    : GptModel(config) {
  const auto c = static_cast<std::size_t>(config_.d_model);
  const auto v = static_cast<std::size_t>(config_.vocab_size);
  const auto ec = static_cast<std::size_t>(config_.expansion_ratio) * c;
  const auto layers = static_cast<std::size_t>(config_.n_layers);

  // GPT-2 style init: N(0, 0.02), residual-projection weights scaled by
  // 1/sqrt(2L), LayerNorm gamma=1 beta=0, biases 0.
  Rng rng(seed);
  const float base_std = 0.02f;
  const float resid_std =
      base_std / std::sqrt(2.0f * static_cast<float>(config_.n_layers));
  auto init_normal = [&](std::size_t off, std::size_t n, float stddev) {
    for (std::size_t i = 0; i < n; ++i) {
      params_[off + i] = rng.gaussian(0.0f, stddev);
    }
  };
  init_normal(layout_.wte, v * c, base_std);
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t s = l * layout_.block_stride;
    for (std::size_t i = 0; i < c; ++i) params_[layout_.ln1_g + s + i] = 1.0f;
    for (std::size_t i = 0; i < c; ++i) params_[layout_.ln2_g + s + i] = 1.0f;
    init_normal(layout_.qkv_w + s, 3 * c * c, base_std);
    init_normal(layout_.proj_w + s, c * c, resid_std);
    init_normal(layout_.fc_w + s, ec * c, base_std);
    init_normal(layout_.fcproj_w + s, c * ec, resid_std);
  }
  for (std::size_t i = 0; i < c; ++i) params_[layout_.lnf_g + i] = 1.0f;
}

void GptModel::zero_grad() {
  std::memset(grads_.data(), 0, grads_.size() * sizeof(float));
}

void GptModel::load_params(std::span<const float> src) {
  if (src.size() != params_.size()) {
    throw std::invalid_argument("GptModel::load_params: size mismatch");
  }
  std::memcpy(params_.data(), src.data(), src.size() * sizeof(float));
}

void GptModel::ensure_acts(int batch, int seq) {
  // Element-wise high-water mark: buffer sizes are monotone in both batch
  // and seq, so anything within the mark fits as-is.  Allocating for the
  // per-dimension maxima (not just the request) keeps alternating shapes
  // (e.g. train batch vs eval batch) from reallocating every call.
  if (batch <= acts_batch_ && seq <= acts_seq_) return;
  batch = std::max(batch, acts_batch_);
  seq = std::max(seq, acts_seq_);
  const auto bt = static_cast<std::size_t>(batch) * seq;
  const auto c = static_cast<std::size_t>(config_.d_model);
  const auto v = static_cast<std::size_t>(config_.vocab_size);
  const auto ec = static_cast<std::size_t>(config_.expansion_ratio) * c;
  const auto layers = static_cast<std::size_t>(config_.n_layers);
  const auto nh = static_cast<std::size_t>(config_.n_heads);
  const auto att_size =
      layers * static_cast<std::size_t>(batch) * nh * seq * seq;

  Acts& a = *acts_;
  a.encoded.assign(bt * c, 0.0f);
  a.ln1.assign(layers * bt * c, 0.0f);
  a.ln1_mean.assign(layers * bt, 0.0f);
  a.ln1_rstd.assign(layers * bt, 0.0f);
  a.qkv.assign(layers * bt * 3 * c, 0.0f);
  a.atty.assign(layers * bt * c, 0.0f);
  a.preatt.assign(att_size, 0.0f);
  a.att.assign(att_size, 0.0f);
  a.attproj.assign(layers * bt * c, 0.0f);
  a.res2.assign(layers * bt * c, 0.0f);
  a.ln2.assign(layers * bt * c, 0.0f);
  a.ln2_mean.assign(layers * bt, 0.0f);
  a.ln2_rstd.assign(layers * bt, 0.0f);
  a.fch.assign(layers * bt * ec, 0.0f);
  a.fch_gelu.assign(layers * bt * ec, 0.0f);
  a.fcproj.assign(layers * bt * c, 0.0f);
  a.res3.assign(layers * bt * c, 0.0f);
  a.lnf.assign(bt * c, 0.0f);
  a.lnf_mean.assign(bt, 0.0f);
  a.lnf_rstd.assign(bt, 0.0f);
  a.logits.assign(bt * v, 0.0f);
  a.probs.assign(bt * v, 0.0f);
  a.losses.assign(bt, 0.0f);

  a.d_encoded.assign(bt * c, 0.0f);
  a.d_ln1.assign(bt * c, 0.0f);
  a.d_qkv.assign(bt * 3 * c, 0.0f);
  a.d_atty.assign(bt * c, 0.0f);
  a.d_preatt.assign(static_cast<std::size_t>(batch) * nh * seq * seq, 0.0f);
  a.d_att.assign(static_cast<std::size_t>(batch) * nh * seq * seq, 0.0f);
  a.d_attproj.assign(bt * c, 0.0f);
  a.d_res2.assign(bt * c, 0.0f);
  a.d_ln2.assign(bt * c, 0.0f);
  a.d_fch.assign(bt * ec, 0.0f);
  a.d_fch_gelu.assign(bt * ec, 0.0f);
  a.d_fcproj.assign(bt * c, 0.0f);
  a.d_res3.assign(bt * c, 0.0f);
  a.d_lnf.assign(bt * c, 0.0f);
  a.d_logits.assign(bt * v, 0.0f);

  acts_batch_ = batch;
  acts_seq_ = seq;
}

float GptModel::forward(const int* tokens, const int* targets, int batch,
                        int seq) {
  ensure_acts(batch, seq);
  const int c = config_.d_model;
  const int v = config_.vocab_size;
  const int ec = config_.expansion_ratio * c;
  const int nh = config_.n_heads;
  const int bt = batch * seq;
  const auto btc = static_cast<std::size_t>(bt) * c;
  const auto btec = static_cast<std::size_t>(bt) * ec;
  const auto att_stride =
      static_cast<std::size_t>(batch) * nh * seq * seq;
  Acts& a = *acts_;
  const k::KernelContext& kc =
      kctx_ != nullptr ? *kctx_ : k::default_context();

  for (int i = 0; i < bt; ++i) {
    if (tokens[i] < 0 || tokens[i] >= v) {
      throw std::out_of_range("GptModel::forward: token id out of range");
    }
  }

  k::embedding_forward(kc, a.encoded.data(), tokens, p(layout_.wte), bt, c);

  const float* residual = a.encoded.data();
  for (int l = 0; l < config_.n_layers; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    float* ln1 = a.ln1.data() + ls * btc;
    float* qkv = a.qkv.data() + ls * static_cast<std::size_t>(bt) * 3 * c;
    float* atty = a.atty.data() + ls * btc;
    float* preatt = a.preatt.data() + ls * att_stride;
    float* att = a.att.data() + ls * att_stride;
    float* attproj = a.attproj.data() + ls * btc;
    float* res2 = a.res2.data() + ls * btc;
    float* ln2 = a.ln2.data() + ls * btc;
    float* fch = a.fch.data() + ls * btec;
    float* fch_gelu = a.fch_gelu.data() + ls * btec;
    float* fcproj = a.fcproj.data() + ls * btc;
    float* res3 = a.res3.data() + ls * btc;

    k::layernorm_forward(kc, ln1, a.ln1_mean.data() + ls * bt,
                         a.ln1_rstd.data() + ls * bt, residual,
                         p(layout_.ln1_g, l), p(layout_.ln1_b, l), bt, c);
    k::linear_forward(kc, qkv, ln1, p(layout_.qkv_w, l), p(layout_.qkv_b, l),
                      bt, c, 3 * c);
    k::attention_forward(kc, atty, preatt, att, qkv, alibi_.data(), batch, seq,
                         c, nh);
    k::linear_forward(kc, attproj, atty, p(layout_.proj_w, l),
                      p(layout_.proj_b, l), bt, c, c);
    k::residual_forward(kc, res2, residual, attproj, btc);
    k::layernorm_forward(kc, ln2, a.ln2_mean.data() + ls * bt,
                         a.ln2_rstd.data() + ls * bt, res2,
                         p(layout_.ln2_g, l), p(layout_.ln2_b, l), bt, c);
    // MLP up-projection with the bias folded into the GELU pass: fch holds
    // the bias-FREE pre-activation and bias_gelu applies gelu(fch + b) in
    // the same sweep.  Because the linear forward adds the bias after its
    // dot fold, gelu(dot + b) here is bit-identical to the unfused
    // linear-with-bias followed by gelu.
    k::linear_forward(kc, fch, ln2, p(layout_.fc_w, l), nullptr, bt, c, ec);
    k::bias_gelu_forward(kc, fch_gelu, fch, p(layout_.fc_b, l), bt, ec);
    k::linear_forward(kc, fcproj, fch_gelu, p(layout_.fcproj_w, l),
                      p(layout_.fcproj_b, l), bt, ec, c);
    k::residual_forward(kc, res3, res2, fcproj, btc);
    residual = res3;
  }

  k::layernorm_forward(kc, a.lnf.data(), a.lnf_mean.data(), a.lnf_rstd.data(),
                       residual, p(layout_.lnf_g), p(layout_.lnf_b), bt, c);
  // LM head tied with wte: logits = lnf @ wte^T.
  k::linear_forward(kc, a.logits.data(), a.lnf.data(), p(layout_.wte), nullptr,
                    bt, c, v);

  k::softmax_xent_forward(kc, a.losses.data(), a.probs.data(), a.logits.data(),
                          targets, bt, v);
  double total = 0.0;
  int valid = 0;
  for (int i = 0; i < bt; ++i) {
    if (targets[i] >= 0) {
      total += a.losses[static_cast<std::size_t>(i)];
      ++valid;
    }
  }
  return valid > 0 ? static_cast<float>(total / valid) : 0.0f;
}

void GptModel::backward(const int* tokens, const int* targets, int batch,
                        int seq, float loss_scale) {
  const int c = config_.d_model;
  const int v = config_.vocab_size;
  const int ec = config_.expansion_ratio * c;
  const int nh = config_.n_heads;
  const int bt = batch * seq;
  const auto btc = static_cast<std::size_t>(bt) * c;
  const auto btec = static_cast<std::size_t>(bt) * ec;
  const auto att_stride = static_cast<std::size_t>(batch) * nh * seq * seq;
  Acts& a = *acts_;
  const k::KernelContext& kc =
      kctx_ != nullptr ? *kctx_ : k::default_context();

  auto zero = [](std::vector<float>& buf) {
    std::memset(buf.data(), 0, buf.size() * sizeof(float));
  };
  zero(a.d_logits);
  zero(a.d_lnf);
  zero(a.d_res3);
  zero(a.d_encoded);

  k::softmax_xent_backward(kc, a.d_logits.data(), a.probs.data(), targets, bt,
                           v, loss_scale);
  // LM head (tied): dlnf += dlogits @ wte ; dwte += dlogits^T @ lnf.
  k::linear_backward(kc, a.d_lnf.data(), g(layout_.wte), nullptr,
                     a.d_logits.data(), a.lnf.data(), p(layout_.wte), bt, c,
                     v);

  // Final LayerNorm; its input is res3 of the last layer (or encoded if L=0).
  const float* lnf_in = config_.n_layers > 0
                            ? a.res3.data() +
                                  static_cast<std::size_t>(config_.n_layers - 1) * btc
                            : a.encoded.data();
  float* d_lnf_in = config_.n_layers > 0 ? a.d_res3.data() : a.d_encoded.data();
  k::layernorm_backward(kc, d_lnf_in, g(layout_.lnf_g), g(layout_.lnf_b),
                        a.d_lnf.data(), lnf_in, p(layout_.lnf_g),
                        a.lnf_mean.data(), a.lnf_rstd.data(), bt, c);

  // d_res3 currently holds the gradient flowing into the top of the last
  // block's output.  Walk blocks in reverse, producing the gradient for the
  // previous residual stream in-place.
  for (int l = config_.n_layers - 1; l >= 0; --l) {
    const auto ls = static_cast<std::size_t>(l);
    const float* res_in =
        l > 0 ? a.res3.data() + (ls - 1) * btc : a.encoded.data();
    float* d_res_in = l > 0 ? a.d_res3.data() : a.d_encoded.data();

    const float* ln1 = a.ln1.data() + ls * btc;
    const float* qkv = a.qkv.data() + ls * static_cast<std::size_t>(bt) * 3 * c;
    const float* atty = a.atty.data() + ls * btc;
    const float* att = a.att.data() + ls * att_stride;
    const float* res2 = a.res2.data() + ls * btc;
    const float* ln2 = a.ln2.data() + ls * btc;
    const float* fch = a.fch.data() + ls * btec;
    const float* fch_gelu = a.fch_gelu.data() + ls * btec;

    zero(a.d_res2);
    zero(a.d_fcproj);
    zero(a.d_fch_gelu);
    zero(a.d_fch);
    zero(a.d_ln2);
    zero(a.d_attproj);
    zero(a.d_atty);
    zero(a.d_att);
    zero(a.d_preatt);
    zero(a.d_qkv);
    zero(a.d_ln1);

    // res3 = res2 + fcproj.
    k::residual_backward(kc, a.d_res2.data(), a.d_fcproj.data(),
                         a.d_res3.data(), btc);
    // fcproj = fch_gelu @ fcproj_w^T + b.
    k::linear_backward(kc, a.d_fch_gelu.data(), g(layout_.fcproj_w, l),
                       g(layout_.fcproj_b, l), a.d_fcproj.data(), fch_gelu,
                       p(layout_.fcproj_w, l), bt, ec, c);
    // fch is bias-free (see forward); re-adds the bias while computing
    // gelu'.  The fc bias gradient still falls out of linear_backward below
    // as the column sum of d_fch.
    k::bias_gelu_backward(kc, a.d_fch.data(), fch, p(layout_.fc_b, l),
                          a.d_fch_gelu.data(), bt, ec);
    // fch = ln2 @ fc_w^T + b.
    k::linear_backward(kc, a.d_ln2.data(), g(layout_.fc_w, l),
                       g(layout_.fc_b, l), a.d_fch.data(), ln2,
                       p(layout_.fc_w, l), bt, c, ec);
    k::layernorm_backward(kc, a.d_res2.data(), g(layout_.ln2_g, l),
                          g(layout_.ln2_b, l), a.d_ln2.data(), res2,
                          p(layout_.ln2_g, l), a.ln2_mean.data() + ls * bt,
                          a.ln2_rstd.data() + ls * bt, bt, c);
    // res2 = res_in + attproj: both branches receive d_res2, so d_res2 is
    // used directly as the attention-projection gradient below and added to
    // d_res_in at the end of the block.
    // attproj = atty @ proj_w^T + b.
    k::linear_backward(kc, a.d_atty.data(), g(layout_.proj_w, l),
                       g(layout_.proj_b, l), a.d_res2.data(), atty,
                       p(layout_.proj_w, l), bt, c, c);
    k::attention_backward(kc, a.d_qkv.data(), a.d_preatt.data(),
                          a.d_att.data(), a.d_atty.data(), qkv, att, batch,
                          seq, c, nh);
    // qkv = ln1 @ qkv_w^T + b.
    k::linear_backward(kc, a.d_ln1.data(), g(layout_.qkv_w, l),
                       g(layout_.qkv_b, l), a.d_qkv.data(), ln1,
                       p(layout_.qkv_w, l), bt, c, 3 * c);
    // ln1 input is res_in.  d(res_in) = d_res2 (skip) + layernorm backward.
    if (l > 0) {
      // Overwrite d_res3 with this layer's d_res_in before accumulating.
      std::memcpy(a.d_res3.data(), a.d_res2.data(), btc * sizeof(float));
      k::layernorm_backward(kc, a.d_res3.data(), g(layout_.ln1_g, l),
                            g(layout_.ln1_b, l), a.d_ln1.data(), res_in,
                            p(layout_.ln1_g, l), a.ln1_mean.data() + ls * bt,
                            a.ln1_rstd.data() + ls * bt, bt, c);
    } else {
      kc.simd().acc(d_res_in, a.d_res2.data(), btc);
      k::layernorm_backward(kc, d_res_in, g(layout_.ln1_g, l),
                            g(layout_.ln1_b, l), a.d_ln1.data(), res_in,
                            p(layout_.ln1_g, l), a.ln1_mean.data() + ls * bt,
                            a.ln1_rstd.data() + ls * bt, bt, c);
    }
  }

  k::embedding_backward(kc, g(layout_.wte), tokens, a.d_encoded.data(), bt,
                        c);
}

float GptModel::train_step_fb(std::span<const int> tokens,
                              std::span<const int> targets, int batch,
                              int seq) {
  const auto bt = static_cast<std::size_t>(batch) * seq;
  if (tokens.size() < bt || targets.size() < bt) {
    throw std::invalid_argument("GptModel::train_step_fb: batch too small");
  }
  const float loss = forward(tokens.data(), targets.data(), batch, seq);
  int valid = 0;
  for (std::size_t i = 0; i < bt; ++i) {
    if (targets[i] >= 0) ++valid;
  }
  if (valid == 0) return loss;
  backward(tokens.data(), targets.data(), batch, seq,
           1.0f / static_cast<float>(valid));
  return loss;
}

float GptModel::eval_loss(std::span<const int> tokens,
                          std::span<const int> targets, int batch, int seq) {
  const auto bt = static_cast<std::size_t>(batch) * seq;
  if (tokens.size() < bt || targets.size() < bt) {
    throw std::invalid_argument("GptModel::eval_loss: batch too small");
  }
  return forward(tokens.data(), targets.data(), batch, seq);
}

}  // namespace photon
