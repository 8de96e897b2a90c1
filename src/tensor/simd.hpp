#pragma once
// Runtime-dispatched SIMD layer for the tensor kernels (DESIGN.md §10).
//
// Three implementations of the same op table — scalar, AVX2, AVX-512 — are
// compiled into every binary (each in its own translation unit with the
// matching -m flags) and one is selected once at startup from CPUID, or
// forced with PHOTON_SIMD=avx512|avx2|scalar (an unsupported request
// degrades to the best supported variant).  Kernels reach the table through
// KernelContext::simd(), so call sites pick up the choice with no signature
// churn.
//
// Determinism contract — all three variants produce BIT-IDENTICAL results
// for every op, at any thread count:
//   * Each op is written once (simd_kernels.inl) against an emulated
//     16-lane vector type; the scalar variant executes the same IEEE op
//     sequence lane by lane, so lane arithmetic is identical everywhere.
//   * Reductions use a fixed 16-lane scheme: element i accumulates into
//     lane (i mod 16), and lanes fold through the fixed tree
//     s8[j]=l[j]+l[j+8], s4[j]=s8[j]+s8[j+4], s2[j]=s4[j]+s4[j+2],
//     s2[0]+s2[1] — never a variant-width shuffle.
//   * Final partial blocks are padded with the op identity (0 for sums,
//     -inf for max) or masked after the transform where the identity does
//     not survive it (exp, squared deviation).  Each variant TU supplies
//     the tail primitives: masked loads/stores on AVX-512 and AVX2 (they
//     never touch memory past the live lanes), a lane-buffer copy on scalar.
//   * Linear kernels are register-tiled with per-variant tile shapes;
//     tiling only changes which outputs share a load, never the op sequence
//     of one output, so every shape yields the same bits.
//   * No FMA: every variant TU and kernels.cpp compile with
//     -ffp-contract=off and the vector paths use explicit mul+add
//     intrinsics, so scalar and vector rounding agree.
//
// The strided-loop helper the op bodies share (PHOTON_SIMD_1D_LOOP in
// simd_kernels.inl) walks [0, n) in 16-lane strides in the spirit of
// quick-mlp's grid-stride KERNEL_1D_LOOP, leaving the tail to the masked
// epilogue.

#include <cstddef>
#include <cstdint>

namespace photon::simd {

enum class Variant : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Function-pointer table filled by one variant TU.  All pointers are
/// always valid.  Reduction-bearing ops follow the fixed 16-lane scheme
/// described above; elementwise ops mirror the exact scalar expression
/// noted next to each pointer.
struct Ops {
  Variant variant = Variant::kScalar;

  // ----------------------------------------------------------- elementwise
  void (*add)(float* out, const float* a, const float* b, std::size_t n);
  void (*sub)(float* out, const float* a, const float* b, std::size_t n);
  void (*acc)(float* dst, const float* src, std::size_t n);  // dst += src
  void (*scale)(float* x, std::size_t n, float s);           // x *= s
  void (*axpy)(float* y, const float* x, std::size_t n, float a);  // y += a*x

  // ------------------------------------------ reductions (fixed 16-lane) --
  float (*dot)(const float* a, const float* b, std::size_t n);
  float (*reduce_max)(const float* x, std::size_t n);  // n >= 1
  float (*max_abs)(const float* x, std::size_t n);
  double (*sum_pd)(const float* x, std::size_t n);
  double (*sumsq_pd)(const float* x, std::size_t n);
  // sum over i of (double(x[i]) - mean)^2
  double (*sumsq_dev_pd)(const float* x, std::size_t n, double mean);

  // ------------------------------------------------------------ linear ----
  // Row range [0, rows): y[r*oc+o] = (bias ? bias[o] : 0) + dot(x_r, w_o)
  // with x_r = x + r*c, w_o = w + o*c — each output is exactly dot()'s
  // sequence, whatever register tile computes it.
  void (*linear_fwd_rows)(float* y, const float* x, const float* w,
                          const float* bias, std::size_t rows, std::size_t c,
                          std::size_t oc);
  // Row range [0, rows): dx[r*c+p] += dy[r*oc+o] * w[o*c+p], one rounded
  // add per o, o ascending for every element.
  void (*linear_bwd_dx_rows)(float* dx, const float* dy, const float* w,
                             std::size_t rows, std::size_t c, std::size_t oc);
  // Column-sharded dW/db: for o in [o0, o1): dw[o*c+p] += dy[t*oc+o]*x[t*c+p]
  // and db[o] += dy[t*oc+o], accumulating t = 0..bt-1 in order for every
  // output — bit-identical for any [o0, o1) split.  db may be nullptr.
  void (*linear_bwd_wb)(float* dw, float* db, const float* x, const float* dy,
                        std::size_t bt, std::size_t c, std::size_t oc,
                        std::size_t o0, std::size_t o1);

  // --------------------------------------------------------- layernorm ----
  // y[p] = (x[p] - mean) * rstd * gamma[p] + beta[p]
  void (*ln_apply_row)(float* y, const float* x, const float* gamma,
                       const float* beta, std::size_t c, float mean,
                       float rstd);
  // s1 = sum(gamma*dy), s2 = sum((gamma*dy) * ((x-mean)*rstd)), both as
  // double sums of float products (16-lane).
  void (*ln_bwd_reduce_row)(const float* dy, const float* gamma,
                            const float* x, std::size_t c, float mean,
                            float rstd, double* s1, double* s2);
  // dx[p] += (dnorm - dnm - norm*dnnm) * rstd
  void (*ln_bwd_dx_row)(float* dx, const float* dy, const float* gamma,
                        const float* x, std::size_t c, float mean, float rstd,
                        float dnm, float dnnm);
  // Column range [c0, c1): dg[p] += dy[t,p]*norm, db[p] += dy[t,p], rows in
  // order — bit-identical for any column split.
  void (*ln_bwd_dgb_cols)(float* dgamma, float* dbeta, const float* dy,
                          const float* x, const float* means,
                          const float* rstds, std::size_t bt, std::size_t c,
                          std::size_t c0, std::size_t c1);

  // ------------------------------------------------------- activations ----
  // y = 0.5*x*(1 + erf(x/sqrt(2)))  (vectorized erf, identical per variant)
  void (*gelu_fwd)(float* y, const float* x, std::size_t n);
  // dx += dy * (cdf + x*pdf)
  void (*gelu_bwd)(float* dx, const float* x, const float* dy, std::size_t n);
  // y = gelu(x + bias) over rows x c (fused bias add)
  void (*bias_gelu_fwd)(float* y, const float* x, const float* bias,
                        std::size_t rows, std::size_t c);
  // dx += dy * gelu'(x + bias)
  void (*bias_gelu_bwd)(float* dx, const float* x, const float* bias,
                        const float* dy, std::size_t rows, std::size_t c);

  // ------------------------------------------------- softmax / attention --
  // pre[t2] = dot(q, k_t2)*scale - slope*(ti - t2) for t2 in [0, count);
  // returns the running max.
  float (*attn_scores_row)(float* pre, const float* q, const float* kbase,
                           std::size_t kstride, std::size_t hs,
                           std::size_t count, float scale, float slope,
                           std::size_t ti);
  // x[i] = exp(x[i] - maxv); returns the float 16-lane sum.
  float (*exp_sum_f)(float* x, std::size_t n, float maxv);
  // probs[i] = exp(logits[i] - maxv); returns the double 16-lane sum.
  double (*exp_sum_pd)(float* probs, const float* logits, std::size_t n,
                       float maxv);
  // o[p] = sum over t2 of att[t2] * v_t2[p] (o zeroed first, t2 in order)
  void (*attn_av_row)(float* o, const float* att, const float* vbase,
                      std::size_t vstride, std::size_t hs, std::size_t count);
  // datt[t2] += dot(v_t2, doh); dv_t2[p] += att[t2]*doh[p]
  void (*attn_bwd_av_row)(float* datt, float* dvbase, const float* att,
                          const float* vbase, const float* doh,
                          std::size_t vstride, std::size_t hs,
                          std::size_t count);
  // dpre[t2] += att[t2] * (datt[t2] - dot(att, datt))
  void (*softmax_bwd_row)(float* dpre, const float* att, const float* datt,
                          std::size_t count);
  // g = dpre[t2]*scale; dq[p] += g*k_t2[p]; dk_t2[p] += g*q[p]
  void (*attn_bwd_qk_row)(float* dq, float* dkbase, const float* dpre,
                          const float* kbase, const float* q,
                          std::size_t kstride, std::size_t hs,
                          std::size_t count, float scale);

  // ---------------------------------------------------------- optimizer --
  // Fused AdamW step over pre-clipped grads g*gscale:
  //   gc = g*gscale; m = b1*m + (1-b1)*gc; v = b2*v + ((1-b2)*gc)*gc;
  //   p -= lr*((m/bc1)/(sqrt(v/bc2)+eps) + wd*p)
  void (*adamw)(float* p, float* m, float* v, const float* g, std::size_t n,
                float gscale, float lr, float beta1, float beta2, float bc1,
                float bc2, float eps, float wd);
  // buf = mu*buf + g; p -= lr*buf
  void (*momentum)(float* p, float* buf, const float* g, std::size_t n,
                   float lr, float mu);
  // buf = mu*buf + g; p -= lr*(g + mu*buf)
  void (*nesterov)(float* p, float* buf, const float* g, std::size_t n,
                   float lr, float mu);

  // -------------------------------------------------------- aggregation --
  // m = float(sum_r double(rows[r][i]) * inv) written back to every row
  void (*mean_rows_pd)(float* const* rows, std::size_t k, std::size_t n,
                       double inv);

  // ------------------------------------------------------- quantization --
  // codes[i] = int8(clamp(round_nearest_even(x[i]*inv), -127, 127))
  void (*quant_i8)(std::int8_t* codes, const float* x, std::size_t n,
                   float inv);
  // out[i] = float(codes[i]) * factor
  void (*dequant_i8)(float* out, const std::int8_t* codes, std::size_t n,
                     float factor);
  // Fused quantize + error-feedback residual (wire codec path):
  //   codes[i] = int8(clamp(round_nearest_even(x[i]*inv), -127, 127))
  //   res[i]   = x[i] - float(codes[i])*factor
  // i.e. the exact reconstruction error the q8/q4 codec will leave on the
  // wire, captured in one pass so the client can carry it into the next
  // round's pseudo-gradient.
  void (*quant_i8_ef)(std::int8_t* codes, float* res, const float* x,
                      std::size_t n, float inv, float factor);
  // Fused dequantize + fp64 weighted accumulate (streamed fan-in):
  //   acc[i] += w * double(float(codes[i]) * factor)
  // i.e. dequant_i8 followed by the aggregator's fp64 fold, bit for bit.
  void (*dequant_i8_acc_pd)(double* acc, const std::int8_t* codes,
                            std::size_t n, float factor, double w);

  // ------------------------------------------------------------ DP noise --
  // Client-level DP noise (DESIGN.md §14), with gaussian =
  // privacy::stateless_gaussian:
  //   x[i] += float(stddev * gaussian(key, base + i))
  // The draws run on the lanes with no libm call (the same counter hashes,
  // uniforms and Box-Muller; in-tree log and cos).  A lane whose float sum
  // the error bound cannot settle is recomputed through `gaussian` itself,
  // so x matches the scalar loop bit for bit.  Returns how many elements
  // were recomputed.
  std::size_t (*dp_noise_acc)(float* x, std::size_t n, std::uint64_t key,
                              std::uint64_t base, double stddev,
                              double (*gaussian)(std::uint64_t key,
                                                 std::uint64_t index));

  // -------------------------------------------- secure aggregation ring --
  // Fixed-point encode + pairwise-mask accumulate (DESIGN.md §14):
  //   acc[i] += u64(i64(llrint(double(x[i]) * scale)))
  //           + sum_p signs[p] * hash(seeds[p], base + i)      (mod 2^64)
  // Stateless per element (counter-based PRG keyed on the absolute index),
  // so shards across threads/variants are bit-identical; the wrapping u64
  // ring makes pairwise masks cancel exactly.  Blocks of 16 elements take
  // every pair in turn; the encode is a lane conversion equal to llrint
  // under the default rounding mode (scalar llrint where |x*scale| >= 2^51
  // or x*scale is not finite).
  void (*secagg_mask_accum)(std::uint64_t* acc, const float* x, double scale,
                            const std::uint64_t* seeds,
                            const std::int8_t* signs, std::size_t n_pairs,
                            std::uint64_t base, std::size_t n);
  // acc[i] += sign * hash(seed, base + i)  (mod 2^64) — dropout-mask strip.
  void (*secagg_prg_accum)(std::uint64_t* acc, std::uint64_t seed,
                           std::int8_t sign, std::uint64_t base,
                           std::size_t n);
  // out[i] = float(double(i64(acc[i])) * inv) — ring sum back to fp mean.
  void (*secagg_decode)(float* out, const std::uint64_t* acc, double inv,
                        std::size_t n);
};

/// The active op table (startup CPUID detection + PHOTON_SIMD override).
const Ops& ops();

/// A specific variant's table (for tests/benches).  Check supported(v)
/// before calling through an AVX table on a non-AVX host.
const Ops& ops(Variant v);

Variant active_variant();
bool supported(Variant v);
const char* variant_name(Variant v);

/// Force the active table (tests/benches).  Unsupported variants degrade to
/// the best supported one.  Returns the variant actually installed.  Call
/// at startup or between runs, not while kernels are executing.
Variant set_active_variant(Variant v);

namespace detail {
Ops make_ops_scalar();
Ops make_ops_avx2();
Ops make_ops_avx512();
}  // namespace detail

}  // namespace photon::simd
