// SIMD dispatch layer (DESIGN.md §10): the determinism contract and the
// fusion equivalences the training/wire hot paths rely on.
//
//  * Every variant (scalar / AVX2 / AVX-512, whichever the host supports)
//    must produce BIT-IDENTICAL results for every op, at any thread count.
//  * Every fused kernel (bias+GELU, clip+AdamW step, quantize, copy+CRC)
//    must match its unfused composition bit for bit — fusion is a pure
//    performance transform, never a numerics change.
//  * The privacy kernels (DP noise, SecAgg masks) and the wire kernels
//    (quantize, error-feedback residual, dequantize-accumulate) must match
//    the scalar loops they replaced bit for bit.
//
// Comparisons use memcmp, not tolerances: the contract is exactness.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "comm/quantization.hpp"
#include "core/privacy.hpp"
#include "nn/config.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "tensor/kernel_context.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

namespace k = kernels;

std::vector<simd::Variant> supported_variants() {
  std::vector<simd::Variant> v;
  for (auto cand : {simd::Variant::kScalar, simd::Variant::kAvx2,
                    simd::Variant::kAvx512}) {
    if (simd::supported(cand)) v.push_back(cand);
  }
  return v;
}

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed,
                                float sigma = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.gaussian(0.0f, sigma);
  return v;
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ----------------------------------------------- cross-variant op identity --

template <class T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// Every op that consumes a partial 16-lane block, on every variant against
// scalar, at every tail width: each width alone (n < 16), behind two full
// blocks, and behind 256 full blocks (n = 4099).  Buffers are exact-size,
// so a sanitizer build reports any access past the live lanes — the scalar
// path copies tails with memcpy, which ASan checks.
TEST(SimdVariants, OpsBitIdenticalToScalar) {
  std::vector<std::size_t> lengths{4099};
  for (std::size_t tail = 1; tail < 16; ++tail) {
    lengths.push_back(tail);
    lengths.push_back(32 + tail);
  }
  const auto& ref = simd::ops(simd::Variant::kScalar);
  constexpr std::size_t kRows = 3;  // rows of the row-batched ops
  for (auto v : supported_variants()) {
    const auto& ops = simd::ops(v);
    EXPECT_EQ(ops.variant, v);
    for (const std::size_t n : lengths) {
      SCOPED_TRACE(std::string(simd::variant_name(v)) +
                   " n=" + std::to_string(n));
      const auto x = gaussian_vec(n, 100 + n);
      const auto y = gaussian_vec(n, 200 + n);
      const auto z = gaussian_vec(n, 300 + n);

      // Runs the same in-place op on a copy per table and memcmps.
      const auto same_inplace = [&](const std::vector<float>& init,
                                    const char* what, const auto& fn) {
        auto a = init, b = init;
        fn(ref, a.data());
        fn(ops, b.data());
        EXPECT_TRUE(bytes_equal(a, b)) << what;
      };

      // ---- elementwise (partial stores) ----
      same_inplace(x, "add", [&](const simd::Ops& o, float* out) {
        o.add(out, y.data(), z.data(), n);
      });
      same_inplace(x, "sub", [&](const simd::Ops& o, float* out) {
        o.sub(out, y.data(), z.data(), n);
      });
      same_inplace(x, "acc", [&](const simd::Ops& o, float* out) {
        o.acc(out, y.data(), n);
      });
      same_inplace(x, "scale", [&](const simd::Ops& o, float* out) {
        o.scale(out, n, 0.37f);
      });
      same_inplace(x, "axpy", [&](const simd::Ops& o, float* out) {
        o.axpy(out, y.data(), n, -1.7f);
      });

      // ---- reductions (0 / -inf pads, d_keep) ----
      EXPECT_TRUE(same_bits(ref.dot(x.data(), y.data(), n),
                            ops.dot(x.data(), y.data(), n)))
          << "dot";
      // All-negative input: a 0 pad instead of -inf would win the max.
      std::vector<float> neg(n);
      for (std::size_t i = 0; i < n; ++i) neg[i] = -1.0f - std::fabs(x[i]);
      const float max_ref = ref.reduce_max(neg.data(), n);
      EXPECT_TRUE(same_bits(max_ref, ops.reduce_max(neg.data(), n)))
          << "reduce_max";
      float max_expect = neg[0];
      for (const float e : neg) max_expect = e > max_expect ? e : max_expect;
      EXPECT_TRUE(same_bits(max_expect, max_ref)) << "reduce_max pad";
      EXPECT_TRUE(same_bits(ref.max_abs(x.data(), n),
                            ops.max_abs(x.data(), n)))
          << "max_abs";
      EXPECT_TRUE(same_bits(ref.sum_pd(x.data(), n), ops.sum_pd(x.data(), n)))
          << "sum_pd";
      EXPECT_TRUE(same_bits(ref.sumsq_pd(x.data(), n),
                            ops.sumsq_pd(x.data(), n)))
          << "sumsq_pd";
      // Non-zero mean: (0 - mean)^2 in a dead lane is not the identity.
      EXPECT_TRUE(same_bits(ref.sumsq_dev_pd(x.data(), n, 0.3),
                            ops.sumsq_dev_pd(x.data(), n, 0.3)))
          << "sumsq_dev_pd";

      // ---- layernorm ----
      same_inplace(x, "ln_apply_row", [&](const simd::Ops& o, float* out) {
        o.ln_apply_row(out, y.data(), z.data(), x.data(), n, 0.1f, 1.3f);
      });
      double s1_ref = 0, s2_ref = 0, s1 = 0, s2 = 0;
      ref.ln_bwd_reduce_row(x.data(), y.data(), z.data(), n, 0.1f, 1.3f,
                            &s1_ref, &s2_ref);
      ops.ln_bwd_reduce_row(x.data(), y.data(), z.data(), n, 0.1f, 1.3f, &s1,
                            &s2);
      EXPECT_TRUE(same_bits(s1_ref, s1) && same_bits(s2_ref, s2))
          << "ln_bwd_reduce_row";
      same_inplace(x, "ln_bwd_dx_row", [&](const simd::Ops& o, float* out) {
        o.ln_bwd_dx_row(out, y.data(), z.data(), x.data(), n, 0.1f, 1.3f,
                        0.2f, -0.4f);
      });
      {
        const auto dy = gaussian_vec(kRows * n, 400 + n);
        const auto xs = gaussian_vec(kRows * n, 500 + n);
        const std::vector<float> means{0.1f, -0.2f, 0.3f};
        const std::vector<float> rstds{1.1f, 0.9f, 1.4f};
        auto g_ref = x, b_ref = y, g = x, b = y;
        // Columns [1, n): a shard whose chunks start mid-row.
        ref.ln_bwd_dgb_cols(g_ref.data(), b_ref.data(), dy.data(), xs.data(),
                            means.data(), rstds.data(), kRows, n, 1, n);
        ops.ln_bwd_dgb_cols(g.data(), b.data(), dy.data(), xs.data(),
                            means.data(), rstds.data(), kRows, n, 1, n);
        EXPECT_TRUE(bytes_equal(g_ref, g) && bytes_equal(b_ref, b))
            << "ln_bwd_dgb_cols";
      }

      // ---- activations ----
      same_inplace(x, "gelu_fwd", [&](const simd::Ops& o, float* out) {
        o.gelu_fwd(out, y.data(), n);
      });
      same_inplace(x, "gelu_bwd", [&](const simd::Ops& o, float* out) {
        o.gelu_bwd(out, y.data(), z.data(), n);
      });
      {
        const auto pre = gaussian_vec(kRows * n, 600 + n);
        const auto dy = gaussian_vec(kRows * n, 700 + n);
        same_inplace(pre, "bias_gelu_fwd", [&](const simd::Ops& o,
                                               float* out) {
          o.bias_gelu_fwd(out, dy.data(), x.data(), kRows, n);
        });
        same_inplace(pre, "bias_gelu_bwd", [&](const simd::Ops& o,
                                               float* out) {
          o.bias_gelu_bwd(out, pre.data(), x.data(), dy.data(), kRows, n);
        });
      }

      // ---- softmax (f_keep) ----
      const float maxv = ref.reduce_max(x.data(), n);
      {
        auto a = x, b = x;
        const float sum_ref = ref.exp_sum_f(a.data(), n, maxv);
        const float sum = ops.exp_sum_f(b.data(), n, maxv);
        EXPECT_TRUE(bytes_equal(a, b) && same_bits(sum_ref, sum))
            << "exp_sum_f";
      }
      {
        std::vector<float> a(n), b(n);
        const double sum_ref = ref.exp_sum_pd(a.data(), x.data(), n, maxv);
        const double sum = ops.exp_sum_pd(b.data(), x.data(), n, maxv);
        EXPECT_TRUE(bytes_equal(a, b) && same_bits(sum_ref, sum))
            << "exp_sum_pd";
      }
      same_inplace(x, "softmax_bwd_row", [&](const simd::Ops& o,
                                             float* out) {
        o.softmax_bwd_row(out, y.data(), z.data(), n);
      });

      // ---- attention rows: head size n, rows packed back to back ----
      {
        const std::size_t hs = n;
        const auto kv = gaussian_vec(kRows * hs, 800 + n);
        const auto att = gaussian_vec(kRows, 900 + n);
        std::vector<float> pre_ref(kRows), pre(kRows);
        const float m_ref =
            ref.attn_scores_row(pre_ref.data(), x.data(), kv.data(), hs, hs,
                                kRows, 0.25f, 0.5f, kRows - 1);
        const float m = ops.attn_scores_row(pre.data(), x.data(), kv.data(),
                                            hs, hs, kRows, 0.25f, 0.5f,
                                            kRows - 1);
        EXPECT_TRUE(bytes_equal(pre_ref, pre) && same_bits(m_ref, m))
            << "attn_scores_row";
        same_inplace(x, "attn_av_row", [&](const simd::Ops& o, float* out) {
          o.attn_av_row(out, att.data(), kv.data(), hs, hs, kRows);
        });
        const auto dv0 = gaussian_vec(kRows * hs, 1000 + n);
        auto datt_ref = att, datt = att, dv_ref = dv0, dv = dv0;
        ref.attn_bwd_av_row(datt_ref.data(), dv_ref.data(), att.data(),
                            kv.data(), x.data(), hs, hs, kRows);
        ops.attn_bwd_av_row(datt.data(), dv.data(), att.data(), kv.data(),
                            x.data(), hs, hs, kRows);
        EXPECT_TRUE(bytes_equal(datt_ref, datt) && bytes_equal(dv_ref, dv))
            << "attn_bwd_av_row";
        auto dq_ref = y, dq = y, dk_ref = dv0, dk = dv0;
        ref.attn_bwd_qk_row(dq_ref.data(), dk_ref.data(), att.data(),
                            kv.data(), x.data(), hs, hs, kRows, 0.25f);
        ops.attn_bwd_qk_row(dq.data(), dk.data(), att.data(), kv.data(),
                            x.data(), hs, hs, kRows, 0.25f);
        EXPECT_TRUE(bytes_equal(dq_ref, dq) && bytes_equal(dk_ref, dk))
            << "attn_bwd_qk_row";
      }

      // ---- optimizers ----
      {
        std::vector<float> m0(n), v0(n);
        for (std::size_t i = 0; i < n; ++i) {
          m0[i] = 0.1f * y[i];
          v0[i] = 0.01f * z[i] * z[i];
        }
        auto p_ref = x, p = x, m_ref = m0, m = m0, vv_ref = v0, vv = v0;
        ref.adamw(p_ref.data(), m_ref.data(), vv_ref.data(), y.data(), n,
                  0.5f, 1e-3f, 0.9f, 0.95f, 0.1f, 0.05f, 1e-8f, 0.01f, false,
                  true);
        ops.adamw(p.data(), m.data(), vv.data(), y.data(), n, 0.5f, 1e-3f,
                  0.9f, 0.95f, 0.1f, 0.05f, 1e-8f, 0.01f, false, true);
        EXPECT_TRUE(bytes_equal(p_ref, p) && bytes_equal(m_ref, m) &&
                    bytes_equal(vv_ref, vv))
            << "adamw";
        auto q_ref = x, q = x, buf_ref = m0, buf = m0;
        ref.momentum(q_ref.data(), buf_ref.data(), y.data(), n, 0.1f, 0.9f);
        ops.momentum(q.data(), buf.data(), y.data(), n, 0.1f, 0.9f);
        EXPECT_TRUE(bytes_equal(q_ref, q) && bytes_equal(buf_ref, buf))
            << "momentum";
        ref.nesterov(q_ref.data(), buf_ref.data(), z.data(), n, 0.1f, 0.9f);
        ops.nesterov(q.data(), buf.data(), z.data(), n, 0.1f, 0.9f);
        EXPECT_TRUE(bytes_equal(q_ref, q) && bytes_equal(buf_ref, buf))
            << "nesterov";
      }

      // ---- aggregation ----
      {
        auto a0 = x, a1 = y, b0 = x, b1 = y;
        float* ra[] = {a0.data(), a1.data()};
        float* rb[] = {b0.data(), b1.data()};
        ref.mean_rows_pd(ra, 2, n, 0.5);
        ops.mean_rows_pd(rb, 2, n, 0.5);
        EXPECT_TRUE(bytes_equal(a0, b0) && bytes_equal(a1, b1))
            << "mean_rows_pd";
      }

      // ---- quantization ----
      {
        std::vector<std::int8_t> c_ref(n), c(n);
        ref.quant_i8(c_ref.data(), x.data(), n, 40.0f);
        ops.quant_i8(c.data(), x.data(), n, 40.0f);
        EXPECT_EQ(c_ref, c) << "quant_i8";
        std::vector<float> d_ref(n), d(n);
        ref.dequant_i8(d_ref.data(), c_ref.data(), n, 0.025f);
        ops.dequant_i8(d.data(), c_ref.data(), n, 0.025f);
        EXPECT_TRUE(bytes_equal(d_ref, d)) << "dequant_i8";
        std::vector<float> r_ref(n), r(n);
        ref.quant_i8_ef(c_ref.data(), r_ref.data(), x.data(), n, 40.0f,
                        0.025f);
        ops.quant_i8_ef(c.data(), r.data(), x.data(), n, 40.0f, 0.025f);
        EXPECT_TRUE(c_ref == c && bytes_equal(r_ref, r)) << "quant_i8_ef";
      }
    }
  }
}

// ------------------------------------- tiled linears vs plain loops ----

// Plain-loop reference for the linear kernels, one output element at a
// time.  The SIMD layer's register tiles must reproduce it bit for bit.
// Cross-variant tests cannot catch a reordered sum (every variant would
// reorder alike), so this is the guard on the per-output op order.
// (This file compiles with -ffp-contract=off: no FMA contraction here.)

// Fixed fold tree of simd.hpp.
float ref_fold16(const float* l) {
  float s8[8], s4[4], s2[2];
  for (int j = 0; j < 8; ++j) s8[j] = l[j] + l[j + 8];
  for (int j = 0; j < 4; ++j) s4[j] = s8[j] + s8[j + 4];
  for (int j = 0; j < 2; ++j) s2[j] = s4[j] + s4[j + 2];
  return s2[0] + s2[1];
}

// Element i accumulates into lane i % 16 from zero; the zero-padded tail
// block adds 0*0 to its dead lanes; then the fold.
float ref_dot16(const float* a, const float* b, std::size_t n) {
  float lane[16] = {};
  for (std::size_t i = 0; i < n; ++i) lane[i % 16] = lane[i % 16] + a[i] * b[i];
  if (n % 16 != 0) {
    for (std::size_t j = n % 16; j < 16; ++j) lane[j] = lane[j] + 0.0f * 0.0f;
  }
  return ref_fold16(lane);
}

void ref_linear_forward(float* y, const float* x, const float* w,
                        const float* bias, int rows, int c, int oc) {
  for (int r = 0; r < rows; ++r) {
    for (int o = 0; o < oc; ++o) {
      y[r * oc + o] = (bias != nullptr ? bias[o] : 0.0f) +
                      ref_dot16(x + r * c, w + o * c, c);
    }
  }
}

// dx = dx + dy[o]*w[o] for o ascending; dW = dW + dy[t,o]*x[t] and
// db = db + dy[t,o] for t ascending.
void ref_linear_backward(float* dx, float* dw, float* db, const float* dy,
                         const float* x, const float* w, int rows, int c,
                         int oc) {
  for (int r = 0; r < rows; ++r) {
    for (int o = 0; o < oc; ++o) {
      for (int p = 0; p < c; ++p) {
        dx[r * c + p] = dx[r * c + p] + dy[r * oc + o] * w[o * c + p];
      }
    }
  }
  for (int o = 0; o < oc; ++o) {
    for (int t = 0; t < rows; ++t) {
      for (int p = 0; p < c; ++p) {
        dw[o * c + p] = dw[o * c + p] + dy[t * oc + o] * x[t * c + p];
      }
      db[o] = db[o] + dy[t * oc + o];
    }
  }
}

TEST(SimdVariants, TiledLinearsMatchPlainLoopReference) {
  ThreadPool pool(8);
  for (const int rows : {1, 3, 4, 5, 7, 9}) {
    for (const int c : {12, 16, 20, 80, 83}) {
      for (const int oc : {1, 3, 4, 7, 240}) {
        const std::uint64_t seed = 1000u + 97u * rows + 13u * c + oc;
        const auto x = gaussian_vec(rows * c, seed);
        const auto w = gaussian_vec(oc * c, seed + 1);
        const auto bias = gaussian_vec(oc, seed + 2);
        const auto dy = gaussian_vec(rows * oc, seed + 3);
        // Backward accumulates: start from non-zero grads.
        const auto dx0 = gaussian_vec(rows * c, seed + 4);
        const auto dw0 = gaussian_vec(oc * c, seed + 5);
        const auto db0 = gaussian_vec(oc, seed + 6);

        std::vector<float> y_ref(rows * oc), y_nb_ref(rows * oc);
        ref_linear_forward(y_ref.data(), x.data(), w.data(), bias.data(), rows,
                           c, oc);
        ref_linear_forward(y_nb_ref.data(), x.data(), w.data(), nullptr, rows,
                           c, oc);
        auto dx_ref = dx0, dw_ref = dw0, db_ref = db0;
        ref_linear_backward(dx_ref.data(), dw_ref.data(), db_ref.data(),
                            dy.data(), x.data(), w.data(), rows, c, oc);

        for (auto v : supported_variants()) {
          for (const int threads : {1, 8}) {
            SCOPED_TRACE(std::string(simd::variant_name(v)) + " threads=" +
                         std::to_string(threads) + " rows=" +
                         std::to_string(rows) + " c=" + std::to_string(c) +
                         " oc=" + std::to_string(oc));
            // Grain 64 makes shards a few rows/outputs wide, so shard
            // boundaries cut through register tiles.
            k::KernelContext ctx(threads > 1 ? &pool : nullptr, threads,
                                 /*grain=*/64);
            ctx.set_simd(&simd::ops(v));

            std::vector<float> y(rows * oc), y_nb(rows * oc);
            k::linear_forward(ctx, y.data(), x.data(), w.data(), bias.data(),
                              rows, c, oc);
            k::linear_forward(ctx, y_nb.data(), x.data(), w.data(), nullptr,
                              rows, c, oc);
            EXPECT_TRUE(bytes_equal(y_ref, y)) << "forward";
            EXPECT_TRUE(bytes_equal(y_nb_ref, y_nb)) << "forward, no bias";

            auto dx = dx0, dw = dw0, db = db0;
            k::linear_backward(ctx, dx.data(), dw.data(), db.data(), dy.data(),
                               x.data(), w.data(), rows, c, oc);
            EXPECT_TRUE(bytes_equal(dx_ref, dx)) << "dx";
            EXPECT_TRUE(bytes_equal(dw_ref, dw)) << "dW";
            EXPECT_TRUE(bytes_equal(db_ref, db)) << "db";
          }
        }
      }
    }
  }
}

TEST(SimdVariants, EnvOverrideNamesResolve) {
  // set_active_variant degrades unsupported requests to the best supported
  // table and reports what it installed; restore the original afterwards.
  const simd::Variant before = simd::active_variant();
  for (auto v : {simd::Variant::kScalar, simd::Variant::kAvx2,
                 simd::Variant::kAvx512}) {
    const simd::Variant got = simd::set_active_variant(v);
    EXPECT_TRUE(simd::supported(got));
    if (simd::supported(v)) {
      EXPECT_EQ(got, v);
    }
    EXPECT_EQ(simd::active_variant(), got);
    EXPECT_NE(std::string(simd::variant_name(got)), "");
  }
  simd::set_active_variant(before);
  EXPECT_EQ(simd::active_variant(), before);
}

// --------------------------------------------------- fused versus unfused --

TEST(FusedKernels, BiasGeluMatchesLinearBiasThenGelu) {
  constexpr int kBt = 37, kC = 24, kOc = 40;
  const auto inp = gaussian_vec(kBt * kC, 21);
  const auto w = gaussian_vec(kOc * kC, 22);
  const auto bias = gaussian_vec(kOc, 23);

  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    k::KernelContext ctx;
    ctx.set_simd(&simd::ops(v));

    // Unfused: linear WITH bias, then standalone GELU.
    std::vector<float> with_bias(kBt * kOc), gelu_ref(kBt * kOc);
    k::linear_forward(ctx, with_bias.data(), inp.data(), w.data(), bias.data(),
                      kBt, kC, kOc);
    k::gelu_forward(ctx, gelu_ref.data(), with_bias.data(), with_bias.size());

    // Fused: bias-free linear, then bias+GELU in one pass.
    std::vector<float> no_bias(kBt * kOc), gelu_fused(kBt * kOc);
    k::linear_forward(ctx, no_bias.data(), inp.data(), w.data(), nullptr, kBt,
                      kC, kOc);
    k::bias_gelu_forward(ctx, gelu_fused.data(), no_bias.data(), bias.data(),
                         kBt, kOc);
    EXPECT_TRUE(bytes_equal(gelu_ref, gelu_fused));

    // Backward: d/dx gelu(x + b) == gelu_backward evaluated at x + b.
    const auto dout = gaussian_vec(kBt * kOc, 24);
    std::vector<float> dx_ref(kBt * kOc, 0.0f), dx_fused(kBt * kOc, 0.0f);
    k::gelu_backward(ctx, dx_ref.data(), with_bias.data(), dout.data(),
                     dout.size());
    k::bias_gelu_backward(ctx, dx_fused.data(), no_bias.data(), bias.data(),
                          dout.data(), kBt, kOc);
    EXPECT_TRUE(bytes_equal(dx_ref, dx_fused));
  }
}

TEST(FusedKernels, StepClippedMatchesClipThenStep) {
  const std::size_t n = 8191;
  const auto grads = gaussian_vec(n, 31, 0.5f);
  const auto params0 = gaussian_vec(n, 32);
  AdamWConfig cfg;
  cfg.weight_decay = 0.01f;

  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    k::KernelContext ctx;
    ctx.set_simd(&simd::ops(v));

    // Unfused reference: scale grads in place, then plain step.
    auto p_ref = params0;
    auto g_ref = grads;
    AdamW ref(n, cfg);
    const double norm_ref = clip_grad_norm(k::default_context(), g_ref,
                                           /*max_norm=*/0.25);
    ref.step(ctx, p_ref, g_ref, 1e-3f);

    // Fused: one pass, grads must come back untouched.
    auto p_fused = params0;
    auto g_fused = grads;
    AdamW fused(n, cfg);
    const double norm_fused =
        fused.step_clipped(ctx, p_fused, g_fused, 1e-3f, 0.25);
    EXPECT_EQ(norm_ref, norm_fused);
    EXPECT_TRUE(bytes_equal(p_ref, p_fused));
    EXPECT_TRUE(bytes_equal(grads, g_fused)) << "grads were modified";

    // Second step from the same state: momenta must have advanced equally.
    const double n2_ref = clip_grad_norm(k::default_context(),
                                         g_ref = grads, 0.25);
    ref.step(ctx, p_ref, g_ref, 1e-3f);
    const double n2_fused = fused.step_clipped(ctx, p_fused, grads, 1e-3f, 0.25);
    EXPECT_EQ(n2_ref, n2_fused);
    EXPECT_TRUE(bytes_equal(p_ref, p_fused));
  }
}

TEST(FusedKernels, QuantizeMatchesScalarReference) {
  // The fused scale+round+clamp+narrow must equal the written-out scalar
  // expression (round-to-nearest-even via nearbyint in default mode).
  const std::size_t n = 2053;
  const auto x = gaussian_vec(n, 41, 0.02f);
  const float max_abs = simd::ops(simd::Variant::kScalar).max_abs(x.data(), n);
  const float inv = 127.0f / (max_abs > 0.0f ? max_abs : 1.0f);

  std::vector<std::int8_t> expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float r = std::nearbyint(x[i] * inv);
    expect[i] = static_cast<std::int8_t>(
        r < -127.0f ? -127.0f : (r > 127.0f ? 127.0f : r));
  }
  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    std::vector<std::int8_t> got(n);
    simd::ops(v).quant_i8(got.data(), x.data(), n, inv);
    EXPECT_EQ(0, std::memcmp(expect.data(), got.data(), n));
  }

  // End-to-end through the q8 wire codec: identical bytes for every variant.
  const simd::Variant before = simd::active_variant();
  const Codec* q8 = codec_by_name("q8");
  const std::span<const std::uint8_t> raw(
      reinterpret_cast<const std::uint8_t*>(x.data()), n * sizeof(float));
  std::vector<std::vector<std::uint8_t>> wires;
  for (auto v : supported_variants()) {
    simd::set_active_variant(v);
    wires.push_back(q8->compress(raw));
  }
  simd::set_active_variant(before);
  for (std::size_t i = 1; i < wires.size(); ++i) EXPECT_EQ(wires[0], wires[i]);
}

// The wire kernels against the scalar loops they replaced, on inputs that
// reach the ±127 clamp and land exactly on .5 rounding ties, at every tail
// length alone and behind full blocks.  (x*inv of a gaussian scaled by 40
// never reaches the clamp.)
TEST(WireKernels, QuantAndDequantAccumulateMatchTheScalarLoops) {
  constexpr float kInv = 2.0f;
  constexpr float kFactor = 0.37f;
  constexpr double kW = 0.3;
  std::vector<std::size_t> lengths{256, 4099};
  for (std::size_t tail = 1; tail < 16; ++tail) {
    lengths.push_back(tail);
    lengths.push_back(32 + tail);
  }
  std::size_t clamped = 0;
  std::size_t ties = 0;
  for (const std::size_t n : lengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Every third x*inv is a tie k + 0.5 for k in [-141, 141] (exact:
    // halving and doubling are exact); the rest are gaussians of sigma 100.
    Rng rng(600 + n);
    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = i % 3 == 0
                 ? (static_cast<float>(static_cast<int>((i / 3) % 283) - 141) +
                    0.5f) / kInv
                 : rng.gaussian(0.0f, 100.0f);
      const float q = x[i] * kInv;
      clamped += std::fabs(q) > 127.5f ? 1 : 0;
      ties += q == std::floor(q) + 0.5f ? 1 : 0;
    }
    std::vector<double> acc0(n);
    for (auto& a : acc0) a = rng.next_gaussian();

    // The replaced loops: round to nearest even, clamp, narrow; the
    // residual and the aggregator's fp64 fold of the dequantized float.
    std::vector<std::int8_t> codes_ref(n);
    std::vector<float> res_ref(n);
    std::vector<double> acc_ref = acc0;
    for (std::size_t i = 0; i < n; ++i) {
      std::int32_t t = static_cast<std::int32_t>(std::lrintf(x[i] * kInv));
      t = t < -127 ? -127 : (t > 127 ? 127 : t);
      codes_ref[i] = static_cast<std::int8_t>(t);
      res_ref[i] = x[i] - static_cast<float>(t) * kFactor;
      acc_ref[i] += kW * static_cast<double>(static_cast<float>(t) * kFactor);
    }
    for (auto v : supported_variants()) {
      SCOPED_TRACE(simd::variant_name(v));
      const auto& ops = simd::ops(v);
      std::vector<std::int8_t> codes(n);
      ops.quant_i8(codes.data(), x.data(), n, kInv);
      EXPECT_EQ(codes_ref, codes) << "quant_i8";
      std::vector<std::int8_t> codes_ef(n);
      std::vector<float> res(n);
      ops.quant_i8_ef(codes_ef.data(), res.data(), x.data(), n, kInv, kFactor);
      EXPECT_EQ(codes_ref, codes_ef) << "quant_i8_ef codes";
      EXPECT_TRUE(bytes_equal(res_ref, res)) << "quant_i8_ef residual";
      std::vector<double> acc = acc0;
      ops.dequant_i8_acc_pd(acc.data(), codes_ref.data(), n, kFactor, kW);
      EXPECT_EQ(0, std::memcmp(acc_ref.data(), acc.data(), n * sizeof(double)))
          << "dequant_i8_acc_pd";
    }
  }
  EXPECT_GT(clamped, 100u);
  EXPECT_GT(ties, 100u);
}

// A NaN anywhere makes max_abs NaN on every variant, at every lane of a full
// 16-lane block and of a masked tail.  encode_chunk reads that max-abs as
// its finiteness check, so the chunk must go out raw (mode 1), leave a zero
// residual, and carry the same bytes on every variant.
TEST(WireKernels, NaNAtAnyLaneSendsTheChunkRaw) {
  constexpr std::size_t kN = 1000;  // 62 full 16-lane blocks, an 8-lane tail
  std::vector<std::size_t> at;
  for (std::size_t p = 0; p < 16; ++p) at.push_back(p);
  for (std::size_t p = kN - 24; p < kN; ++p) at.push_back(p);
  const simd::Variant before = simd::active_variant();
  for (const std::size_t p : at) {
    SCOPED_TRACE("NaN at " + std::to_string(p));
    std::vector<float> x(kN, 0.01f);
    x[p] = std::numeric_limits<float>::quiet_NaN();
    for (const std::size_t n : {std::size_t{16}, std::size_t{25}, kN}) {
      if (p >= n) continue;
      for (auto v : supported_variants()) {
        EXPECT_TRUE(std::isnan(simd::ops(v).max_abs(x.data(), n)))
            << "n=" << n << " variant " << simd::variant_name(v);
      }
    }
    const std::span<const std::uint8_t> raw(
        reinterpret_cast<const std::uint8_t*>(x.data()), kN * sizeof(float));
    for (const char* name : {"q8", "q4"}) {
      const Codec* codec = codec_by_name(name);
      const int bits = codec->quant_bits();
      std::vector<std::vector<std::uint8_t>> wires;
      for (auto v : supported_variants()) {
        simd::set_active_variant(v);
        std::vector<std::uint8_t> chunk;
        EXPECT_FALSE(wire_quant::encode_chunk(x.data(), kN, bits, chunk))
            << name << " variant " << simd::variant_name(v);
        std::vector<float> res(kN, -1.0f);
        wire_quant::residual_of(x.data(), res.data(), kN, bits);
        EXPECT_TRUE(bytes_equal(res, std::vector<float>(kN, 0.0f)))
            << name << " variant " << simd::variant_name(v);
        wires.push_back(codec->compress(raw));
      }
      simd::set_active_variant(before);
      for (std::size_t i = 1; i < wires.size(); ++i) {
        EXPECT_EQ(wires[0], wires[i]) << name;
      }
      std::vector<float> back(kN);
      codec->decompress_into(
          wires[0], {reinterpret_cast<std::uint8_t*>(back.data()),
                     kN * sizeof(float)});
      EXPECT_TRUE(bytes_equal(back, x)) << name;
    }
  }
}

// The update walk (wire_quant::UpdateWalk) on every variant against the
// kernels it fuses, run one after another on the scalar table: sub, acc,
// then per 256-float block max_abs and quant_i8_ef, at every 16-lane tail
// width and across block edges.  The walk writes the chunk's mode-0 layout,
// so the codes are read back from it.
TEST(WireKernels, UpdateWalkMatchesTheComposedKernelsAtEveryTail) {
  constexpr std::size_t kB = wire_quant::kBlockFloats;
  std::vector<std::size_t> lengths{255, 256, 257, 511, 513, 4099};
  for (std::size_t tail = 1; tail < 16; ++tail) {
    lengths.push_back(tail);
    lengths.push_back(kB + 32 + tail);
  }
  const simd::Ops& ref = simd::ops(simd::Variant::kScalar);
  const simd::Variant before = simd::active_variant();
  for (const std::size_t n : lengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto received = gaussian_vec(n, 700 + n, 0.05f);
    const auto params = gaussian_vec(n, 800 + n, 0.05f);
    const auto residual = gaussian_vec(n, 900 + n, 1e-3f);
    // The composition: delta, error feedback, then each block's scale,
    // codes and residual.
    auto x_ref = received;
    auto res_ref = residual;
    ref.sub(x_ref.data(), x_ref.data(), params.data(), n);
    ref.acc(x_ref.data(), res_ref.data(), n);
    std::vector<float> scales;
    std::vector<std::int8_t> codes_ref(n);
    for (std::size_t off = 0; off < n; off += kB) {
      const std::size_t len = std::min(kB, n - off);
      const float m = ref.max_abs(x_ref.data() + off, len);
      scales.push_back(m > 0.0f ? m : 1.0f);
      ref.quant_i8_ef(codes_ref.data() + off, res_ref.data() + off,
                      x_ref.data() + off, len, 127.0f / scales.back(),
                      scales.back() / 127.0f);
    }
    for (auto v : supported_variants()) {
      SCOPED_TRACE(simd::variant_name(v));
      simd::set_active_variant(v);
      auto x = params;
      auto res = residual;
      std::vector<std::uint8_t> chunk;
      wire_quant::UpdateWalk walk(
          x.data(), reinterpret_cast<const std::uint8_t*>(received.data()),
          res.data(), n, 8);
      walk.write_chunk(0, chunk);
      ASSERT_EQ(chunk.size(), wire_quant::encoded_bytes(n, 8));
      EXPECT_EQ(chunk[0], 0);
      EXPECT_EQ(0, std::memcmp(chunk.data() + 5, scales.data(),
                               scales.size() * sizeof(float)))
          << "scales";
      EXPECT_EQ(0, std::memcmp(chunk.data() + 5 + 4 * scales.size(),
                               codes_ref.data(), n))
          << "codes";
      EXPECT_TRUE(bytes_equal(x_ref, x)) << "received";
      EXPECT_TRUE(bytes_equal(res_ref, res)) << "residual";
      const double norm = walk.residual_norm();
      const double norm_ref = std::sqrt(ref.sumsq_pd(res_ref.data(), n));
      EXPECT_TRUE(same_bits(norm_ref, norm)) << "residual norm";
    }
    simd::set_active_variant(before);
  }
}

// AdamW's first step after a reset reads no moment: each enters as +0.  On
// every variant and tail width, the zero_moments step over stale moments
// (NaN, so any read would show) must equal the step over memset-zero
// moments bit for bit, in p, m and v.  The grads include -0 and values
// whose gc or (1-b1)*gc is -0, where b1*0 + (1-b1)*gc must still give +0.
TEST(AdamWKernel, ZeroMomentStepEqualsStepOnZeroedMoments) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::size_t> lengths{4099};
  for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto p0 = gaussian_vec(n, 1100 + n);
    auto g = gaussian_vec(n, 1200 + n);
    for (std::size_t i = 0; i < n; i += 3) {
      g[i] = (i / 3) % 3 == 0 ? -0.0f : -denorm * static_cast<float>(i % 2 + 1);
    }
    for (const float gscale : {1.0f, 0.5f}) {
      for (auto v : supported_variants()) {
        SCOPED_TRACE(simd::variant_name(v));
        const auto& ops = simd::ops(v);
        auto p_ref = p0, m_ref = std::vector<float>(n, 0.0f),
             v_ref = std::vector<float>(n, 0.0f);
        ops.adamw(p_ref.data(), m_ref.data(), v_ref.data(), g.data(), n,
                  gscale, 1e-3f, 0.9f, 0.95f, 0.1f, 0.05f, 1e-8f, 0.01f,
                  false, true);
        auto p = p0, m = std::vector<float>(n, nan),
             vv = std::vector<float>(n, nan);
        ops.adamw(p.data(), m.data(), vv.data(), g.data(), n, gscale, 1e-3f,
                  0.9f, 0.95f, 0.1f, 0.05f, 1e-8f, 0.01f, true, true);
        EXPECT_TRUE(bytes_equal(p_ref, p)) << "p";
        EXPECT_TRUE(bytes_equal(m_ref, m)) << "m";
        EXPECT_TRUE(bytes_equal(v_ref, vv)) << "v";
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_FALSE(std::signbit(m[i]) && m[i] == 0.0f) << "-0 m at " << i;
        }
      }
    }
  }
}

// The same contract through AdamW itself: a step after reset(), which
// leaves the moments stale, equals the step an optimizer makes on
// memset-zero moments, on every variant; the moments read as zeros after
// the reset.
TEST(AdamWKernel, StepAfterResetEqualsStepOnZeroedMoments) {
  constexpr std::size_t kN = 4099;
  const auto p0 = gaussian_vec(kN, 1300);
  auto g = gaussian_vec(kN, 1400);
  for (std::size_t i = 0; i < kN; i += 5) g[i] = -0.0f;
  const auto g_first = gaussian_vec(kN, 1500);
  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    k::KernelContext ctx(nullptr, 1, 64);
    ctx.set_simd(&simd::ops(v));
    AdamW opt(kN);
    std::vector<float> p = p0;
    opt.step_clipped(ctx, p, g_first, 1e-3f, 1.0);
    opt.reset();
    p = p0;
    opt.step_clipped(ctx, p, g, 1e-3f, 1.0);

    // Memset-zero moments through the reading path, with the step's own
    // bias corrections and clip scale.
    const double norm = k::l2_norm(ctx, g.data(), kN);
    const float gscale =
        norm > 1.0 ? static_cast<float>(1.0 / norm) : 1.0f;
    std::vector<float> p_ref = p0, m_ref(kN, 0.0f), v_ref(kN, 0.0f);
    simd::ops(v).adamw(p_ref.data(), m_ref.data(), v_ref.data(), g.data(),
                       kN, gscale, 1e-3f, 0.9f, 0.95f,
                       1.0f - std::pow(0.9f, 1.0f),
                       1.0f - std::pow(0.95f, 1.0f), 1e-8f, 0.0f, false,
                       true);
    EXPECT_TRUE(bytes_equal(p_ref, p)) << "params";
    const auto m = opt.exp_avg();
    const auto vv = opt.exp_avg_sq();
    EXPECT_EQ(0, std::memcmp(m_ref.data(), m.data(), kN * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(v_ref.data(), vv.data(), kN * sizeof(float)));
    opt.reset();
    for (const float x : opt.exp_avg()) ASSERT_EQ(0.0f, x);
  }
}

// A last step stores only p: the new m and v stay in registers.  On every
// variant and tail width its p must equal the storing step's bit for bit,
// at t = 1 (zero moments, null m and v) and at t > 1 (moments read), with
// the grads of ZeroMomentStepEqualsStepOnZeroedMoments.  Moment buffers
// keep their exact bits: NaN at t = 1, where nothing may read them, and
// the read moments at t > 1.
TEST(AdamWKernel, LastStepStoresOnlyTheFullStepsParams) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::size_t> lengths{4099};
  for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto p0 = gaussian_vec(n, 1600 + n);
    auto g = gaussian_vec(n, 1700 + n);
    for (std::size_t i = 0; i < n; i += 3) {
      g[i] = (i / 3) % 3 == 0 ? -0.0f : -denorm * static_cast<float>(i % 2 + 1);
    }
    const auto m0 = gaussian_vec(n, 1800 + n, 0.1f);
    auto v0 = gaussian_vec(n, 1900 + n, 0.1f);
    for (float& x : v0) x *= x;
    const std::vector<float> nans(n, nan);
    for (const float gscale : {1.0f, 0.5f}) {
      for (auto v : supported_variants()) {
        SCOPED_TRACE(simd::variant_name(v));
        const auto& ops = simd::ops(v);
        for (const bool first : {true, false}) {
          SCOPED_TRACE(first ? "t=1" : "t=2");
          const float bc1 = first ? 0.1f : 0.19f;
          const float bc2 = first ? 0.05f : 0.0975f;
          auto p_ref = p0;
          auto m_ref = first ? std::vector<float>(n, 0.0f) : m0;
          auto v_ref = first ? std::vector<float>(n, 0.0f) : v0;
          ops.adamw(p_ref.data(), m_ref.data(), v_ref.data(), g.data(), n,
                    gscale, 1e-3f, 0.9f, 0.95f, bc1, bc2, 1e-8f, 0.01f,
                    first, true);
          auto p = p0;
          auto m = first ? nans : m0;
          auto vv = first ? nans : v0;
          ops.adamw(p.data(), m.data(), vv.data(), g.data(), n, gscale, 1e-3f,
                    0.9f, 0.95f, bc1, bc2, 1e-8f, 0.01f, first, false);
          EXPECT_TRUE(bytes_equal(p_ref, p)) << "p";
          EXPECT_TRUE(bytes_equal(first ? nans : m0, m)) << "m";
          EXPECT_TRUE(bytes_equal(first ? nans : v0, vv)) << "v";
          if (first) {
            p = p0;
            ops.adamw(p.data(), nullptr, nullptr, g.data(), n, gscale, 1e-3f,
                      0.9f, 0.95f, bc1, bc2, 1e-8f, 0.01f, true, false);
            EXPECT_TRUE(bytes_equal(p_ref, p)) << "p, null moments";
          }
        }
      }
    }
  }
}

TEST(FusedKernels, Crc32CopyMatchesMemcpyPlusCrc32) {
  Rng rng(51);
  // Sizes straddle the PCLMUL head threshold (64) and every tail residue.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{15}, std::size_t{16}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{100}, std::size_t{255},
                              std::size_t{256}, std::size_t{1000},
                              std::size_t{4096}, std::size_t{4097}}) {
    std::vector<std::uint8_t> src(n);
    for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_below(256));
    std::vector<std::uint8_t> dst(n + 1, 0xAB);  // +1 canary
    const std::uint32_t fused = crc32_copy(dst.data(), src);
    EXPECT_EQ(fused, crc32(src)) << "n=" << n;
    EXPECT_TRUE(n == 0 || std::memcmp(dst.data(), src.data(), n) == 0);
    EXPECT_EQ(dst[n], 0xAB) << "copy overran n=" << n;
  }
}

TEST(Crc32, MatchesBitwiseReference) {
  // Bit-at-a-time reflected CRC-32 (poly 0xEDB88320): the ground truth both
  // the table path (n < 64 or no PCLMUL) and the fold-by-4 path must match.
  auto reference = [](const std::vector<std::uint8_t>& data) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::uint8_t byte : data) {
      crc ^= byte;
      for (int b = 0; b < 8; ++b) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  Rng rng(52);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{9},
        std::size_t{31}, std::size_t{63}, std::size_t{64}, std::size_t{79},
        std::size_t{80}, std::size_t{127}, std::size_t{128}, std::size_t{513},
        std::size_t{2048}, std::size_t{2049}}) {
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(crc32(data), reference(data)) << "n=" << n;
  }
  // Known-answer check ("123456789" -> 0xCBF43926).
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

// ------------------------------------- end-to-end training determinism ----

// Trains `mc` under every (variant, thread count) combination and memcmps
// final parameters, momenta and losses against the first combination.
void check_model_state_across_variants(const ModelConfig& mc) {
  constexpr int kBatch = 2, kSteps = 3;
  const int seq = mc.seq_len;

  Rng rng(61);
  std::vector<int> tokens(kBatch * seq), targets(kBatch * seq);
  for (auto& t : tokens) t = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(mc.vocab_size)));
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) targets[i] = tokens[i + 1];
  targets.back() = -1;

  ThreadPool pool(8);
  struct Combo {
    simd::Variant v;
    int threads;
  };
  std::vector<Combo> combos;
  for (auto v : supported_variants()) {
    combos.push_back({v, 1});
    combos.push_back({v, 8});
  }

  std::vector<float> ref_params, ref_m;
  std::vector<float> ref_losses;
  for (const auto& combo : combos) {
    SCOPED_TRACE(std::string(simd::variant_name(combo.v)) + " threads=" +
                 std::to_string(combo.threads));
    k::KernelContext ctx(combo.threads > 1 ? &pool : nullptr, combo.threads,
                         /*grain=*/64);
    ctx.set_simd(&simd::ops(combo.v));

    GptModel model(mc, /*seed=*/7);
    model.set_kernel_context(&ctx);
    AdamW opt(model.num_params());
    std::vector<float> losses;
    for (int s = 0; s < kSteps; ++s) {
      model.zero_grad();
      losses.push_back(model.train_step_fb(tokens, targets, kBatch, seq));
      opt.step_clipped(ctx, model.params(), model.grads(), 1e-3f,
                       /*max_norm=*/1.0);
    }

    const std::vector<float> params(model.params().begin(),
                                    model.params().end());
    const std::vector<float> m(opt.exp_avg().begin(), opt.exp_avg().end());
    if (ref_params.empty()) {
      ref_params = params;
      ref_m = m;
      ref_losses = losses;
    } else {
      EXPECT_TRUE(bytes_equal(ref_params, params)) << "params diverged";
      EXPECT_TRUE(bytes_equal(ref_m, m)) << "momenta diverged";
      EXPECT_TRUE(bytes_equal(ref_losses, losses)) << "losses diverged";
    }
  }
}

// Train the same tiny model under every (variant, thread count) combination
// through the real hot path — forward/backward, fused clip+AdamW — and
// demand byte-identical final parameters and optimizer momenta.  nano()'s
// head size 16 and width 32 never take a partial lane, so two configs add
// tails: small()'s width 80 with head size 20, and head size 12.
TEST(SimdVariants, ModelStateBitIdenticalAcrossVariantsAndThreads) {
  for (const ModelConfig& mc :
       {ModelConfig::nano(), ModelConfig{2, 80, 4, 256, 32, 4},
        ModelConfig{2, 96, 8, 2048, 16, 4}}) {
    SCOPED_TRACE(testing::Message() << "L" << mc.n_layers << " d"
                                    << mc.d_model << " h" << mc.n_heads);
    check_model_state_across_variants(mc);
  }
}

// ------------------------------------------------------ DP noise kernel ----

// x[i] += float(stddev * stateless_gaussian(key, base + i)): the loop the
// lane kernel replaced, and the reference for every element.
std::vector<float> noise_reference(std::vector<float> x, std::uint64_t key,
                                   std::uint64_t base, double stddev) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += static_cast<float>(stddev *
                               privacy::stateless_gaussian(key, base + i));
  }
  return x;
}

// Inputs with signed zeros among them: -0.0f + (+0.0f) is +0.0f, so the
// sign of a zero draw shows.
std::vector<float> noise_input(std::size_t n, std::uint64_t seed) {
  auto x = gaussian_vec(n, seed, 1e-2f);
  for (std::size_t i = 0; i < n; i += 3) x[i] = i % 2 == 0 ? -0.0f : 0.0f;
  return x;
}

constexpr double kNoiseStddevs[] = {5e-3, 1e-3, 0.5, 1.0, 2.0};

TEST(DpNoiseKernel, MatchesTheReferenceLoopOnEveryVariantAndThreadCount) {
  ThreadPool pool(4);
  const std::uint64_t key = 0x5EEDD9B4E5ULL;
  const std::uint64_t far_base = (std::uint64_t{1} << 40) + 3;
  std::vector<std::size_t> lengths{420001};
  for (std::size_t n = 1; n <= 100; ++n) lengths.push_back(n);
  for (const double stddev : kNoiseStddevs) {
    for (const std::size_t n : lengths) {
      SCOPED_TRACE("stddev=" + std::to_string(stddev) +
                   " n=" + std::to_string(n));
      const auto x0 = noise_input(n, 40 + n);
      const auto ref = noise_reference(x0, key, 0, stddev);
      const auto ref_far = noise_reference(x0, key, far_base, stddev);
      for (auto v : supported_variants()) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(std::string(simd::variant_name(v)) +
                       " threads=" + std::to_string(threads));
          // Grain 64: four shards that start mid-block at small n too.
          k::KernelContext ctx(threads > 1 ? &pool : nullptr, threads, 64);
          ctx.set_simd(&simd::ops(v));
          auto x = x0;
          privacy::add_gaussian_noise(ctx, x, key, stddev);
          EXPECT_TRUE(bytes_equal(ref, x));
        }
        if (n <= 100) {  // a block base far from 0
          auto x = x0;
          simd::ops(v).dp_noise_acc(x.data(), n, key, far_base, stddev,
                                    &privacy::stateless_gaussian);
          EXPECT_TRUE(bytes_equal(ref_far, x))
              << simd::variant_name(v) << " base 2^40+3";
        }
      }
    }
  }
}

// Inverse of splitmix64's finalizer (util/rng.hpp): x ^= x >> s undoes by
// repeated substitution, and the odd multipliers have inverses mod 2^64.
std::uint64_t unxorshift(std::uint64_t y, int s) {
  std::uint64_t x = y;
  for (int k = 0; k < 64 / s + 1; ++k) x = y ^ (x >> s);
  return x;
}
std::uint64_t inverse_mod_2_64(std::uint64_t c) {
  std::uint64_t x = c;  // Newton: each step doubles the correct low bits
  for (int k = 0; k < 6; ++k) x *= 2 - c * x;
  return x;
}

// An element index whose hash_combine(key, 2*index + parity) has the top 53
// bits M - 1, so its uniform is M * 2^-53: parity 0 sets u1, 1 sets u2.
std::uint64_t index_with_uniform(std::uint64_t key, unsigned parity,
                                 std::uint64_t m) {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t low = 0; low < 2048; ++low) {
    const std::uint64_t h = ((m - 1) << 11) | low;
    std::uint64_t z = unxorshift(h, 31);
    z *= inverse_mod_2_64(0x94d049bb133111ebULL);
    z = unxorshift(z, 27);
    z *= inverse_mod_2_64(0xbf58476d1ce4e5b9ULL);
    z = unxorshift(z, 30);
    const std::uint64_t b =
        ((z - kGolden) ^ key) - kGolden - (key << 6) - (key >> 2);
    if ((b & 1) == parity) return b >> 1;
  }
  ADD_FAILURE() << "no index for m=" << m;
  return 0;
}

// The uniform -> noise step at its edges: u1 = 1 (log 0, a signed-zero
// draw), u1 = 2^-53 (the largest draw), and t = 2*pi*u2 at or next to a
// multiple of pi/2, where cos is near 0 or the reduced angle is tiny.
TEST(DpNoiseKernel, UniformEdgesMatchTheReference) {
  constexpr std::uint64_t k51 = std::uint64_t{1} << 51;
  struct Edge {
    const char* what;
    unsigned parity;
    std::uint64_t m;
    bool tiny_angle;
  };
  const Edge edges[] = {
      {"m1 = 2^53 (u1 = 1)", 0, 4 * k51, false},
      {"m1 = 1", 0, 1, false},
      {"m2 = 2^53 (t = 2 pi)", 1, 4 * k51, true},
      {"m2 = 2^51 (t = pi/2)", 1, k51, true},
      {"m2 = 2^51 - 1", 1, k51 - 1, true},
      {"m2 = 2^51 + 1", 1, k51 + 1, true},
      {"m2 = 2^52 (t = pi)", 1, 2 * k51, true},
      {"m2 = 2^52 - 1", 1, 2 * k51 - 1, true},
      {"m2 = 2^52 + 1", 1, 2 * k51 + 1, true},
      {"m2 = 3 * 2^51 (t = 3 pi/2)", 1, 3 * k51, true},
      {"m2 = 3 * 2^51 - 1", 1, 3 * k51 - 1, true},
      {"m2 = 3 * 2^51 + 1", 1, 3 * k51 + 1, true},
  };
  const std::uint64_t key = 0x0DDBA11ULL;
  for (const Edge& e : edges) {
    SCOPED_TRACE(e.what);
    const std::uint64_t idx = index_with_uniform(key, e.parity, e.m);
    ASSERT_EQ((hash_combine(key, 2 * idx + e.parity) >> 11) + 1, e.m);
    for (const double stddev : kNoiseStddevs) {
      for (const float x0 : {-0.0f, 0.0f, 0.25f}) {
        const float ref = noise_reference({x0}, key, idx, stddev)[0];
        for (auto v : supported_variants()) {
          SCOPED_TRACE(simd::variant_name(v));
          const auto& ops = simd::ops(v);
          float x = x0;
          const std::size_t redone = ops.dp_noise_acc(
              &x, 1, key, idx, stddev, &privacy::stateless_gaussian);
          EXPECT_TRUE(same_bits(ref, x)) << "stddev " << stddev;
          if (e.tiny_angle) {
            EXPECT_EQ(redone, 1u);
          }
          // The same element as lane 7 of a full 16-lane block.
          std::vector<float> xs(16, x0);
          ops.dp_noise_acc(xs.data(), xs.size(), key, idx - 7, stddev,
                           &privacy::stateless_gaussian);
          EXPECT_TRUE(same_bits(ref, xs[7])) << "lane 7, stddev " << stddev;
        }
      }
    }
  }
}

// The share of elements the guard sends back to stateless_gaussian.  The
// bound leaves about 3 in a million open; a guard that flags everything, or
// a bound far wider than the error, fails here.
TEST(DpNoiseKernel, RecomputesUnderOneElementInAThousand) {
  constexpr std::size_t kDraws = 1000000;
  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    k::KernelContext ctx;
    ctx.set_simd(&simd::ops(v));
    std::vector<float> x(kDraws, 0.0f);
    const std::size_t redone =
        privacy::add_gaussian_noise(ctx, x, /*key=*/77, /*stddev=*/1.0);
    EXPECT_LT(redone, kDraws / 1000);
  }
}

// ------------------------------------------------- SecAgg mask kernels ----

// The per-element loop the blocked kernel replaced, kept as its oracle.
void mask_accum_oracle(std::uint64_t* acc, const float* x, double scale,
                       const std::uint64_t* seeds, const std::int8_t* signs,
                       std::size_t n_pairs, std::uint64_t base,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const long long q = std::llrint(static_cast<double>(x[i]) * scale);
    std::uint64_t v = static_cast<std::uint64_t>(static_cast<std::int64_t>(q));
    const std::uint64_t idx = base + i;
    for (std::size_t p = 0; p < n_pairs; ++p) {
      const std::uint64_t m = hash_combine(seeds[p], idx);
      v += signs[p] >= 0 ? m : 0ULL - m;
    }
    acc[i] += v;
  }
}

// Every third element is special for the fixed-point encode: |x * 2^32| at
// or past 2^51 (the lane conversion's limit), past 2^63, +-Inf, NaN, +-0,
// and exact halves, which llrint rounds to even.
std::vector<float> mask_input(std::size_t n, std::uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {
      0x1p19f,        -0x1p19f,     0x1.fffffep18f, -0x1.fffffep18f,
      1e10f,          -1e10f,       inf,            -inf,
      std::numeric_limits<float>::quiet_NaN(),      0.0f,
      -0.0f,          0x1.8p-32f,   0x1.4p-31f,     -0x1.8p-32f,
      -0x1.4p-31f,    0x1p-33f,     3e38f,          0x1.000002p19f};
  auto x = gaussian_vec(n, seed, 1e-3f);
  constexpr std::size_t kSpecials = std::size(specials);
  for (std::size_t i = 0; i < n; i += 3) x[i] = specials[(i / 3) % kSpecials];
  return x;
}

TEST(SecAggMaskKernel, BlockedMaskMatchesThePerElementLoopWordForWord) {
  constexpr double kScale = 0x1p32;  // the engine's fixed point
  std::vector<std::uint64_t> seeds;
  std::vector<std::int8_t> signs;
  for (std::size_t p = 0; p < 9; ++p) {
    seeds.push_back(hash_combine(0xA5, p));
    signs.push_back(p % 3 == 1 ? -1 : (p == 4 ? 0 : 1));  // 0 adds, as +1
  }
  for (const std::size_t n : {1, 15, 16, 17, 1000, 420001}) {
    const auto x = mask_input(n, 70 + n);
    Rng rng(80 + n);
    std::vector<std::uint64_t> acc0(n);
    for (auto& a : acc0) a = rng.next_u64();
    for (const std::uint64_t base :
         {std::uint64_t{0}, (std::uint64_t{1} << 40) + 3}) {
      for (std::size_t n_pairs = 0; n_pairs <= seeds.size(); ++n_pairs) {
        SCOPED_TRACE("n=" + std::to_string(n) + " base=" +
                     std::to_string(base) +
                     " pairs=" + std::to_string(n_pairs));
        auto ref = acc0;
        mask_accum_oracle(ref.data(), x.data(), kScale, seeds.data(),
                          signs.data(), n_pairs, base, n);
        for (auto v : supported_variants()) {
          auto acc = acc0;
          simd::ops(v).secagg_mask_accum(acc.data(), x.data(), kScale,
                                         seeds.data(), signs.data(), n_pairs,
                                         base, n);
          EXPECT_EQ(ref, acc) << simd::variant_name(v);
        }
      }
      // The dropout strip shares the pair loop: acc[i] += sign * hash.
      for (const std::int8_t sign : {std::int8_t{1}, std::int8_t{-1}}) {
        auto ref = acc0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t m = hash_combine(seeds[0], base + i);
          ref[i] += sign >= 0 ? m : 0ULL - m;
        }
        for (auto v : supported_variants()) {
          auto acc = acc0;
          simd::ops(v).secagg_prg_accum(acc.data(), seeds[0], sign, base, n);
          EXPECT_EQ(ref, acc) << simd::variant_name(v) << " prg sign "
                              << int{sign};
        }
      }
    }
  }
}

}  // namespace
}  // namespace photon
