#pragma once
// Raw compute kernels for the training engine.
//
// All kernels operate on contiguous row-major float buffers with explicit
// dimensions (llm.c style).  Conventions:
//   * Linear weights are stored (OC, C) and applied as out = inp @ W^T + b,
//     matching the PyTorch nn.Linear layout used by the paper's MPT models.
//   * Backward kernels ACCUMULATE into d* buffers (callers zero grads once
//     per step), which is what makes gradient accumulation free.
//   * Attention uses ALiBi relative-position biases (MPT architecture),
//     so the model has no positional-embedding parameters.
//
// Every kernel takes the kernels::KernelContext it runs on as its first
// argument and shards its work over it; callers without a context of their
// own pass default_context() (env-configured; serial on one core).
// Sharding is race-free by construction — rows, (batch, head) pairs, or
// elementwise chunks — and every kernel is bit-identical at ANY thread
// count: reductions that cross shard boundaries shard over the *output*
// dimension instead (linear_backward dweight/dbias over output channels,
// layernorm_backward dgamma/dbeta over columns) or reduce over fixed-size
// blocks folded in block order (l2_norm), so no summation order ever
// depends on the shard layout.
//
// All arithmetic goes through the runtime-dispatched SIMD layer
// (tensor/simd.hpp) via KernelContext::simd(); the scalar, AVX2, and
// AVX-512 variants are bit-identical by construction, so results do not
// depend on the host ISA or the PHOTON_SIMD override either.

#include <cstddef>

#include "obs/metrics.hpp"
#include "tensor/kernel_context.hpp"

namespace photon::kernels {

/// Attribute per-kernel FLOPs to `registry` ("kernels.flops.matmul",
/// "kernels.flops.linear_fwd", "kernels.flops.linear_bwd"); nullptr (the
/// default) disables.  One relaxed atomic add per kernel *call* — never per
/// element — so the enabled cost is invisible next to the kernel itself.
/// Process-wide; call at startup, not while kernels are running.
void set_kernel_metrics(obs::MetricsRegistry* registry);

// ---------------------------------------------------------------- matmul --
/// out(m,n) = a(m,k) @ b(k,n).  Cache-blocked over k; row-parallel over m.
void matmul(const KernelContext& ctx, float* out, const float* a,
            const float* b, int m, int k, int n);

/// Linear forward: out(BT, OC) = inp(BT, C) @ weight(OC, C)^T + bias(OC).
/// bias may be nullptr.  Row-parallel over BT.
void linear_forward(const KernelContext& ctx, float* out, const float* inp,
                    const float* weight, const float* bias, int bt, int c,
                    int oc);

/// Linear backward. dinp(BT,C), dweight(OC,C), dbias(OC) are accumulated.
/// Any of dinp/dweight/dbias may be nullptr to skip that term.
/// dinp is row-parallel; dweight/dbias shard over output channels, each of
/// which accumulates all BT rows in order — bit-exact at any thread count.
void linear_backward(const KernelContext& ctx, float* dinp, float* dweight,
                     float* dbias, const float* dout, const float* inp,
                     const float* weight, int bt, int c, int oc);

// -------------------------------------------------------------- layernorm --
/// LayerNorm forward over the last dim. mean/rstd are (BT) caches for bwd.
/// Row-parallel over BT (bit-exact).
void layernorm_forward(const KernelContext& ctx, float* out, float* mean,
                       float* rstd, const float* inp, const float* gamma,
                       const float* beta, int bt, int c);

/// dinp is row-parallel; dgamma/dbeta shard over columns, each of which
/// accumulates all BT rows in order — bit-exact at any thread count.
void layernorm_backward(const KernelContext& ctx, float* dinp, float* dgamma,
                        float* dbeta, const float* dout, const float* inp,
                        const float* gamma, const float* mean,
                        const float* rstd, int bt, int c);

// ------------------------------------------------------------------- gelu --
/// Exact GELU via erf (matches PyTorch's default; tanh approx drifts in fp32).
void gelu_forward(const KernelContext& ctx, float* out, const float* inp,
                  std::size_t n);
void gelu_backward(const KernelContext& ctx, float* dinp, const float* inp,
                   const float* dout, std::size_t n);

/// Fused bias + GELU: out(BT,C) = gelu(inp + bias) in one pass, where inp is
/// a bias-free linear output (linear_forward with bias=nullptr).  Because
/// float addition commutes bit-exactly, gelu(dot + bias) equals the unfused
/// gelu(linear_forward-with-bias) output bit for bit.  Row-parallel.
void bias_gelu_forward(const KernelContext& ctx, float* out, const float* inp,
                       const float* bias, int bt, int c);
/// dinp(BT,C) += dout * gelu'(inp + bias), recomputing the biased
/// pre-activation instead of materializing it.  The bias gradient is the
/// column sum of dinp — exactly what linear_backward's dbias produces when
/// handed this dinp as dout.  Row-parallel.
void bias_gelu_backward(const KernelContext& ctx, float* dinp,
                        const float* inp, const float* bias, const float* dout,
                        int bt, int c);

// --------------------------------------------------------------- residual --
void residual_forward(const KernelContext& ctx, float* out, const float* a,
                      const float* b, std::size_t n);
/// Residual backward: both branches receive dout (accumulated).
void residual_backward(const KernelContext& ctx, float* da, float* db,
                       const float* dout, std::size_t n);

// -------------------------------------------------------------- attention --
/// Causal multi-head self-attention with ALiBi biases.
///   qkv:    (B, T, 3C) packed as [q | k | v] per token
///   preatt: (B, NH, T, T) raw logits cache
///   att:    (B, NH, T, T) post-softmax cache
///   out:    (B, T, C)
///   slopes: (NH) ALiBi slopes
/// Parallel over (batch, head) pairs, which are fully independent
/// (bit-exact).
void attention_forward(const KernelContext& ctx, float* out, float* preatt,
                       float* att, const float* qkv, const float* slopes,
                       int b, int t, int c, int nh);

void attention_backward(const KernelContext& ctx, float* dqkv, float* dpreatt,
                        float* datt, const float* dout, const float* qkv,
                        const float* att, int b, int t, int c, int nh);

/// Standard ALiBi slope for head h of nh heads: 2^(-8(h+1)/nh).
void alibi_slopes(float* slopes, int nh);

// -------------------------------------------------------------- embedding --
/// out(BT, C) = table[tokens[i]] for each position.  Row-parallel.
void embedding_forward(const KernelContext& ctx, float* out, const int* tokens,
                       const float* table, int bt, int c);
/// Scatter-add with possible token collisions across rows; stays serial
/// (the context supplies only the SIMD table).
void embedding_backward(const KernelContext& ctx, float* dtable,
                        const int* tokens, const float* dout, int bt, int c);

// --------------------------------------------- fused softmax cross-entropy --
/// Computes per-position losses(BT) and probs(BT, V) for targets(BT).
/// Positions with target < 0 are ignored (loss 0).  Row-parallel.
void softmax_xent_forward(const KernelContext& ctx, float* losses,
                          float* probs, const float* logits,
                          const int* targets, int bt, int v);

/// dlogits(BT, V) accumulated with (probs - onehot(target)) * scale.
/// Ignored positions contribute zero gradient.  Row-parallel.
void softmax_xent_backward(const KernelContext& ctx, float* dlogits,
                           const float* probs, const int* targets, int bt,
                           int v, float scale);

// ------------------------------------------------------------------- misc --
void scale_inplace(const KernelContext& ctx, float* x, float s, std::size_t n);
/// y += a*x.
void axpy(const KernelContext& ctx, float* y, float a, const float* x,
          std::size_t n);
/// out = a - b elementwise (pseudo-gradient deltas on the round path).
void sub(const KernelContext& ctx, float* out, const float* a, const float* b,
         std::size_t n);
/// Fixed 32768-element blocks reduced in block order: bit-identical at any
/// thread count (blocks, not shards, define the summation grouping).
double l2_norm(const KernelContext& ctx, const float* x, std::size_t n);

}  // namespace photon::kernels
