#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/simd.hpp"

// This translation unit compiles with -ffp-contract=off (see the top-level
// CMakeLists): the few arithmetic expressions still written inline here must
// round exactly like the SIMD layer's explicit mul+add sequences.

namespace photon::kernels {

namespace {

// k-dimension block for matmul: kKBlock rows of b (kKBlock * n floats) stay
// hot in cache while every row of the shard streams over them.
constexpr int kKBlock = 64;

// l2_norm reduces over fixed-size blocks folded in block order, so the
// summation grouping never depends on the shard layout (thread count).
// One block is one unit of shardable work (== default grain).
constexpr std::size_t kNormBlock = 32768;

// Per-kernel FLOPs counters (set_kernel_metrics).  Null handles no-op, so
// the un-wired cost is one branch per kernel call.
struct {
  obs::CounterHandle matmul;
  obs::CounterHandle linear_fwd;
  obs::CounterHandle linear_bwd;
} g_flops;

}  // namespace

void set_kernel_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    g_flops = {};
    return;
  }
  g_flops.matmul = registry->counter("kernels.flops.matmul");
  g_flops.linear_fwd = registry->counter("kernels.flops.linear_fwd");
  g_flops.linear_bwd = registry->counter("kernels.flops.linear_bwd");
  registry->gauge("kernels.simd_variant")
      .set(static_cast<double>(static_cast<int>(simd::active_variant())));
}

void matmul(const KernelContext& ctx, float* out, const float* a,
            const float* b, int m, int k, int n) {
  g_flops.matmul.add(2ull * static_cast<std::uint64_t>(m) *
                     static_cast<std::uint64_t>(k) *
                     static_cast<std::uint64_t>(n));
  const simd::Ops& ops = ctx.simd();
  const std::size_t row_cost =
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
  ctx.parallel_shards(
      static_cast<std::size_t>(m), ctx.grain_rows(row_cost),
      [&](int, std::size_t i0, std::size_t i1) {
        std::memset(out + i0 * n, 0, sizeof(float) * (i1 - i0) * n);
        for (int p0 = 0; p0 < k; p0 += kKBlock) {
          const int p1 = std::min(k, p0 + kKBlock);
          for (std::size_t i = i0; i < i1; ++i) {
            const float* arow = a + i * k;
            float* orow = out + i * n;
            // ikj loop order: each p streams one row of b into orow via
            // axpy.  No zero-skip branch: it silently changes the FLOPs
            // MFU accounting assumes.
            for (int p = p0; p < p1; ++p) {
              ops.axpy(orow, b + static_cast<std::size_t>(p) * n,
                       static_cast<std::size_t>(n), arow[p]);
            }
          }
        }
      });
}

void linear_forward(const KernelContext& ctx, float* out, const float* inp,
                    const float* weight, const float* bias, int bt, int c,
                    int oc) {
  g_flops.linear_fwd.add(2ull * static_cast<std::uint64_t>(bt) *
                         static_cast<std::uint64_t>(c) *
                         static_cast<std::uint64_t>(oc));
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t ocs = static_cast<std::size_t>(oc);
  ctx.parallel_shards(static_cast<std::size_t>(bt), ctx.grain_rows(cs * ocs),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.linear_fwd_rows(out + i0 * ocs, inp + i0 * cs,
                                            weight, bias, i1 - i0, cs, ocs);
                      });
}

void linear_backward(const KernelContext& ctx, float* dinp, float* dweight,
                     float* dbias, const float* dout, const float* inp,
                     const float* weight, int bt, int c, int oc) {
  if (g_flops.linear_bwd) {
    const std::uint64_t mm = 2ull * static_cast<std::uint64_t>(bt) *
                             static_cast<std::uint64_t>(c) *
                             static_cast<std::uint64_t>(oc);
    std::uint64_t flops = 0;
    if (dinp != nullptr) flops += mm;
    if (dweight != nullptr) flops += mm;
    if (dbias != nullptr) {
      flops += static_cast<std::uint64_t>(bt) * static_cast<std::uint64_t>(oc);
    }
    g_flops.linear_bwd.add(flops);
  }
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t ocs = static_cast<std::size_t>(oc);
  const std::size_t bts = static_cast<std::size_t>(bt);
  if (dinp != nullptr) {
    // dinp = dout @ W  (dout: (BT,OC), W: (OC,C)).  Each row of dinp is
    // owned by exactly one shard: race-free and bit-exact.
    ctx.parallel_shards(bts, ctx.grain_rows(cs * ocs),
                        [&](int, std::size_t i0, std::size_t i1) {
                          ops.linear_bwd_dx_rows(dinp + i0 * cs,
                                                 dout + i0 * ocs, weight,
                                                 i1 - i0, cs, ocs);
                        });
  }
  if (dweight != nullptr) {
    // dW = dout^T @ inp and db = colsum(dout) reduce over BT rows; sharding
    // over output channels gives every element a fixed row-ascending
    // accumulation order — bit-exact at any thread count, no scratch.
    ctx.parallel_shards(ocs, ctx.grain_rows(2 * bts * cs),
                        [&](int, std::size_t o0, std::size_t o1) {
                          ops.linear_bwd_wb(dweight, dbias, inp, dout, bts, cs,
                                            ocs, o0, o1);
                        });
  } else if (dbias != nullptr) {
    // Bias-only backward (no weight grad): plain column sums of dout.
    ctx.parallel_shards(ocs, ctx.grain_rows(bts),
                        [&](int, std::size_t o0, std::size_t o1) {
                          for (std::size_t o = o0; o < o1; ++o) {
                            float acc = dbias[o];
                            for (std::size_t i = 0; i < bts; ++i) {
                              acc += dout[i * ocs + o];
                            }
                            dbias[o] = acc;
                          }
                        });
  }
}

void layernorm_forward(const KernelContext& ctx, float* out, float* mean,
                       float* rstd, const float* inp, const float* gamma,
                       const float* beta, int bt, int c) {
  constexpr float kEps = 1e-5f;
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  ctx.parallel_shards(
      static_cast<std::size_t>(bt), ctx.grain_rows(4 * cs),
      [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float* x = inp + i * cs;
          const double m = ops.sum_pd(x, cs) / c;
          const double v = ops.sumsq_dev_pd(x, cs, m) / c;
          const float mf = static_cast<float>(m);
          const float rs = static_cast<float>(1.0 / std::sqrt(v + kEps));
          ops.ln_apply_row(out + i * cs, x, gamma, beta, cs, mf, rs);
          mean[i] = mf;
          rstd[i] = rs;
        }
      });
}

void layernorm_backward(const KernelContext& ctx, float* dinp, float* dgamma,
                        float* dbeta, const float* dout, const float* inp,
                        const float* gamma, const float* mean,
                        const float* rstd, int bt, int c) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t bts = static_cast<std::size_t>(bt);
  // Pass 1 — dinp, row-sharded: two row reductions feed the elementwise
  // update.  Each row is owned by one shard: bit-exact.
  ctx.parallel_shards(
      bts, ctx.grain_rows(6 * cs), [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float* x = inp + i * cs;
          const float* dy = dout + i * cs;
          double s1 = 0.0;
          double s2 = 0.0;
          ops.ln_bwd_reduce_row(dy, gamma, x, cs, mean[i], rstd[i], &s1, &s2);
          const float dnm = static_cast<float>(s1 / c);
          const float dnnm = static_cast<float>(s2 / c);
          ops.ln_bwd_dx_row(dinp + i * cs, dy, gamma, x, cs, mean[i], rstd[i],
                            dnm, dnnm);
        }
      });
  // Pass 2 — dgamma/dbeta, column-sharded: every column accumulates all BT
  // rows in order, so the result is bit-exact at any thread count.
  ctx.parallel_shards(cs, ctx.grain_rows(4 * bts),
                      [&](int, std::size_t c0, std::size_t c1) {
                        ops.ln_bwd_dgb_cols(dgamma, dbeta, dout, inp, mean,
                                            rstd, bts, cs, c0, c1);
                      });
}

void gelu_forward(const KernelContext& ctx, float* out, const float* inp,
                  std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.gelu_fwd(out + i0, inp + i0, i1 - i0);
                      });
}

void gelu_backward(const KernelContext& ctx, float* dinp, const float* inp,
                   const float* dout, std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.gelu_bwd(dinp + i0, inp + i0, dout + i0, i1 - i0);
                      });
}

void bias_gelu_forward(const KernelContext& ctx, float* out, const float* inp,
                       const float* bias, int bt, int c) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  ctx.parallel_shards(static_cast<std::size_t>(bt), ctx.grain_rows(2 * cs),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.bias_gelu_fwd(out + i0 * cs, inp + i0 * cs, bias,
                                          i1 - i0, cs);
                      });
}

void bias_gelu_backward(const KernelContext& ctx, float* dinp,
                        const float* inp, const float* bias, const float* dout,
                        int bt, int c) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  ctx.parallel_shards(static_cast<std::size_t>(bt), ctx.grain_rows(3 * cs),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.bias_gelu_bwd(dinp + i0 * cs, inp + i0 * cs, bias,
                                          dout + i0 * cs, i1 - i0, cs);
                      });
}

void residual_forward(const KernelContext& ctx, float* out, const float* a,
                      const float* b, std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.add(out + i0, a + i0, b + i0, i1 - i0);
                      });
}

void residual_backward(const KernelContext& ctx, float* da, float* db,
                       const float* dout, std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.acc(da + i0, dout + i0, i1 - i0);
                        ops.acc(db + i0, dout + i0, i1 - i0);
                      });
}

void alibi_slopes(float* slopes, int nh) {
  for (int h = 0; h < nh; ++h) {
    slopes[h] = std::exp2(-8.0f * static_cast<float>(h + 1) / static_cast<float>(nh));
  }
}

void attention_forward(const KernelContext& ctx, float* out, float* preatt,
                       float* att, const float* qkv, const float* slopes,
                       int b, int t, int c, int nh) {
  const int hs = c / nh;  // head size
  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  const std::size_t tt = static_cast<std::size_t>(t) * t;
  const std::size_t pairs = static_cast<std::size_t>(b) * nh;
  const std::size_t pair_cost = tt * static_cast<std::size_t>(hs);
  const std::size_t c3 = 3 * static_cast<std::size_t>(c);
  const simd::Ops& ops = ctx.simd();

  // (batch, head) pairs are fully independent: each owns disjoint slices of
  // preatt/att/out, so sharding over them is race-free and bit-exact.
  ctx.parallel_shards(pairs, ctx.grain_rows(pair_cost), [&](int, std::size_t b0,
                                                            std::size_t b1) {
    for (std::size_t bh = b0; bh < b1; ++bh) {
      const int bi = static_cast<int>(bh) / nh;
      const int h = static_cast<int>(bh) % nh;
      const float slope = slopes[h];
      const std::size_t head_off = static_cast<std::size_t>(h) * hs;
      const float* qkv_b = qkv + static_cast<std::size_t>(bi) * t * c3;
      const float* kbase = qkv_b + c + head_off;
      const float* vbase = qkv_b + 2 * c + head_off;
      float* pre_h = preatt + (static_cast<std::size_t>(bi) * nh + h) * tt;
      float* att_h = att + (static_cast<std::size_t>(bi) * nh + h) * tt;
      for (int ti = 0; ti < t; ++ti) {
        const std::size_t count = static_cast<std::size_t>(ti) + 1;
        const float* q = qkv_b + static_cast<std::size_t>(ti) * c3 + head_off;
        float* pre_row = pre_h + static_cast<std::size_t>(ti) * t;
        float* att_row = att_h + static_cast<std::size_t>(ti) * t;

        // Fused scores + running max: logits with ALiBi bias
        // -slope*(ti - t2), causal mask beyond ti.
        const float maxv =
            ops.attn_scores_row(pre_row, q, kbase, c3, hs, count, scale,
                                slope, static_cast<std::size_t>(ti));
        // Fused exp + sum over the causal prefix (att keeps the exps).
        std::memcpy(att_row, pre_row, count * sizeof(float));
        const float sum = ops.exp_sum_f(att_row, count, maxv);
        const float inv = sum > 0.0f ? 1.0f / sum : 0.0f;
        ops.scale(att_row, count, inv);
        std::memset(pre_row + count, 0,
                    (static_cast<std::size_t>(t) - count) * sizeof(float));
        std::memset(att_row + count, 0,
                    (static_cast<std::size_t>(t) - count) * sizeof(float));

        // Weighted sum of values.
        float* o = out + (static_cast<std::size_t>(bi) * t + ti) * c +
                   head_off;
        ops.attn_av_row(o, att_row, vbase, c3, hs, count);
      }
    }
  });
}

void attention_backward(const KernelContext& ctx, float* dqkv, float* dpreatt,
                        float* datt, const float* dout, const float* qkv,
                        const float* att, int b, int t, int c, int nh) {
  const int hs = c / nh;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  const std::size_t tt = static_cast<std::size_t>(t) * t;
  const std::size_t pairs = static_cast<std::size_t>(b) * nh;
  const std::size_t pair_cost = 2 * tt * static_cast<std::size_t>(hs);
  const std::size_t c3 = 3 * static_cast<std::size_t>(c);
  const simd::Ops& ops = ctx.simd();

  // Like the forward: a (batch, head) pair only ever touches the head-h
  // slice of its own batch's dqkv rows, so pairs never alias.
  ctx.parallel_shards(pairs, ctx.grain_rows(pair_cost), [&](int, std::size_t b0,
                                                            std::size_t b1) {
    for (std::size_t bh = b0; bh < b1; ++bh) {
      const int bi = static_cast<int>(bh) / nh;
      const int h = static_cast<int>(bh) % nh;
      const std::size_t head_off = static_cast<std::size_t>(h) * hs;
      const float* qkv_b = qkv + static_cast<std::size_t>(bi) * t * c3;
      float* dqkv_b = dqkv + static_cast<std::size_t>(bi) * t * c3;
      const float* kbase = qkv_b + c + head_off;
      const float* vbase = qkv_b + 2 * c + head_off;
      float* dkbase = dqkv_b + c + head_off;
      float* dvbase = dqkv_b + 2 * c + head_off;
      const float* att_h = att + (static_cast<std::size_t>(bi) * nh + h) * tt;
      float* datt_h = datt + (static_cast<std::size_t>(bi) * nh + h) * tt;
      float* dpre_h = dpreatt + (static_cast<std::size_t>(bi) * nh + h) * tt;
      for (int ti = 0; ti < t; ++ti) {
        const std::size_t count = static_cast<std::size_t>(ti) + 1;
        const float* att_row = att_h + static_cast<std::size_t>(ti) * t;
        float* datt_row = datt_h + static_cast<std::size_t>(ti) * t;
        float* dpre_row = dpre_h + static_cast<std::size_t>(ti) * t;
        const float* q = qkv_b + static_cast<std::size_t>(ti) * c3 + head_off;
        float* dq = dqkv_b + static_cast<std::size_t>(ti) * c3 + head_off;
        const float* doh = dout +
                           (static_cast<std::size_t>(bi) * t + ti) * c +
                           head_off;

        // Backward through out = att @ V (datt and dV in one pass).
        ops.attn_bwd_av_row(datt_row, dvbase, att_row, vbase, doh, c3, hs,
                            count);
        // Backward through softmax: dpre = att * (datt - sum(att*datt)).
        ops.softmax_bwd_row(dpre_row, att_row, datt_row, count);
        // Backward through q.k^T * scale (ALiBi bias is constant: no grad).
        ops.attn_bwd_qk_row(dq, dkbase, dpre_row, kbase, q, c3, hs, count,
                            scale);
      }
    }
  });
}

void embedding_forward(const KernelContext& ctx, float* out, const int* tokens,
                       const float* table, int bt, int c) {
  ctx.parallel_shards(
      static_cast<std::size_t>(bt), ctx.grain_rows(static_cast<std::size_t>(c)),
      [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float* row = table + static_cast<std::size_t>(tokens[i]) * c;
          std::memcpy(out + i * c, row,
                      sizeof(float) * static_cast<std::size_t>(c));
        }
      });
}

void embedding_backward(const KernelContext& ctx, float* dtable,
                        const int* tokens, const float* dout, int bt, int c) {
  // Scatter-add: different rows can hit the same token id, so this stays
  // serial (it is a tiny fraction of the step anyway).
  const simd::Ops& ops = ctx.simd();
  for (int i = 0; i < bt; ++i) {
    float* drow = dtable + static_cast<std::size_t>(tokens[i]) * c;
    const float* dy = dout + static_cast<std::size_t>(i) * c;
    ops.acc(drow, dy, static_cast<std::size_t>(c));
  }
}

void softmax_xent_forward(const KernelContext& ctx, float* losses,
                          float* probs, const float* logits,
                          const int* targets, int bt, int v) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t vs = static_cast<std::size_t>(v);
  ctx.parallel_shards(
      static_cast<std::size_t>(bt), ctx.grain_rows(3 * vs),
      [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float* z = logits + i * vs;
          float* p = probs + i * vs;
          // Fused max / exp+sum / normalize: three passes over the row
          // instead of the unfused five (max, sub, exp, sum, div).
          const float maxv = ops.reduce_max(z, vs);
          const double sum = ops.exp_sum_pd(p, z, vs, maxv);
          const float inv = static_cast<float>(1.0 / sum);
          ops.scale(p, vs, inv);
          const int target = targets[i];
          if (target < 0) {
            losses[i] = 0.0f;
          } else {
            losses[i] = -std::log(std::max(p[target], 1e-12f));
          }
        }
      });
}

void softmax_xent_backward(const KernelContext& ctx, float* dlogits,
                           const float* probs, const int* targets, int bt,
                           int v, float scale) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t vs = static_cast<std::size_t>(v);
  ctx.parallel_shards(
      static_cast<std::size_t>(bt), ctx.grain_rows(vs),
      [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const int target = targets[i];
          if (target < 0) continue;
          float* dz = dlogits + i * vs;
          // dz += probs*scale for the whole row, then fix up the target
          // column's -scale: one vector pass plus one scalar op.
          ops.axpy(dz, probs + i * vs, vs, scale);
          dz[target] -= scale;
        }
      });
}

void scale_inplace(const KernelContext& ctx, float* x, float s,
                   std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.scale(x + i0, i1 - i0, s);
                      });
}

void axpy(const KernelContext& ctx, float* y, float a, const float* x,
          std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.axpy(y + i0, x + i0, i1 - i0, a);
                      });
}

void sub(const KernelContext& ctx, float* out, const float* a, const float* b,
         std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.sub(out + i0, a + i0, b + i0, i1 - i0);
                      });
}

double l2_norm(const KernelContext& ctx, const float* x, std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t nb = (n + kNormBlock - 1) / kNormBlock;
  std::vector<double> partials(nb, 0.0);
  ctx.parallel_shards(nb, 1, [&](int, std::size_t b0, std::size_t b1) {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      const std::size_t off = blk * kNormBlock;
      partials[blk] = ops.sumsq_pd(x + off, std::min(kNormBlock, n - off));
    }
  });
  double total = 0.0;
  for (const double p : partials) total += p;
  return std::sqrt(total);
}

}  // namespace photon::kernels
