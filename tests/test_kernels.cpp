// Kernel-level correctness: each forward/backward pair is validated against
// finite differences or a hand-computed reference.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "tensor/kernel_context.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace photon::kernels {
namespace {

TEST(Matmul, MatchesManualReference) {
  // (2,3) x (3,2)
  const std::vector<float> a{1, 2, 3, 4, 5, 6};
  const std::vector<float> b{7, 8, 9, 10, 11, 12};
  std::vector<float> out(4, -1.0f);
  matmul(default_context(), out.data(), a.data(), b.data(), 2, 3, 2);
  EXPECT_FLOAT_EQ(out[0], 58.0f);
  EXPECT_FLOAT_EQ(out[1], 64.0f);
  EXPECT_FLOAT_EQ(out[2], 139.0f);
  EXPECT_FLOAT_EQ(out[3], 154.0f);
}

TEST(LinearForward, MatchesManualReference) {
  // inp (1,2), weight (3,2) -> out (1,3): out_o = x . w_o + b_o.
  const std::vector<float> inp{1.0f, 2.0f};
  const std::vector<float> w{1, 0, 0, 1, 1, 1};
  const std::vector<float> bias{0.5f, -0.5f, 0.0f};
  std::vector<float> out(3);
  linear_forward(default_context(), out.data(), inp.data(), w.data(),
                 bias.data(), 1, 2, 3);
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_FLOAT_EQ(out[1], 1.5f);
  EXPECT_FLOAT_EQ(out[2], 3.0f);
}

TEST(LinearBackward, MatchesFiniteDifferences) {
  constexpr int kBt = 3, kC = 4, kOc = 5;
  Rng rng(7);
  std::vector<float> inp(kBt * kC), w(kOc * kC), bias(kOc), dout(kBt * kOc);
  for (auto& x : inp) x = rng.gaussian(0, 1);
  for (auto& x : w) x = rng.gaussian(0, 1);
  for (auto& x : bias) x = rng.gaussian(0, 1);
  for (auto& x : dout) x = rng.gaussian(0, 1);

  auto objective = [&](const std::vector<float>& in_,
                       const std::vector<float>& w_,
                       const std::vector<float>& b_) {
    std::vector<float> out(kBt * kOc);
    linear_forward(default_context(), out.data(), in_.data(), w_.data(),
                   b_.data(), kBt, kC, kOc);
    double s = 0.0;
    for (int i = 0; i < kBt * kOc; ++i) s += out[i] * dout[i];
    return s;
  };

  std::vector<float> dinp(kBt * kC, 0.0f), dw(kOc * kC, 0.0f), db(kOc, 0.0f);
  linear_backward(default_context(), dinp.data(), dw.data(), db.data(),
                  dout.data(), inp.data(), w.data(), kBt, kC, kOc);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < inp.size(); ++i) {
    auto p = inp, m = inp;
    p[i] += eps;
    m[i] -= eps;
    const double num = (objective(p, w, bias) - objective(m, w, bias)) / (2 * eps);
    EXPECT_NEAR(dinp[i], num, 2e-2) << "dinp[" << i << "]";
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    auto p = w, m = w;
    p[i] += eps;
    m[i] -= eps;
    const double num = (objective(inp, p, bias) - objective(inp, m, bias)) / (2 * eps);
    EXPECT_NEAR(dw[i], num, 2e-2) << "dw[" << i << "]";
  }
  for (std::size_t i = 0; i < bias.size(); ++i) {
    auto p = bias, m = bias;
    p[i] += eps;
    m[i] -= eps;
    const double num = (objective(inp, w, p) - objective(inp, w, m)) / (2 * eps);
    EXPECT_NEAR(db[i], num, 2e-2) << "db[" << i << "]";
  }
}

TEST(LayerNorm, ForwardNormalizesRows) {
  constexpr int kBt = 2, kC = 8;
  Rng rng(11);
  std::vector<float> inp(kBt * kC), gamma(kC, 1.0f), beta(kC, 0.0f);
  for (auto& x : inp) x = rng.gaussian(1.0f, 3.0f);
  std::vector<float> out(kBt * kC), mean(kBt), rstd(kBt);
  layernorm_forward(default_context(), out.data(), mean.data(), rstd.data(),
                    inp.data(), gamma.data(), beta.data(), kBt, kC);
  for (int i = 0; i < kBt; ++i) {
    double m = 0.0, v = 0.0;
    for (int p = 0; p < kC; ++p) m += out[i * kC + p];
    m /= kC;
    for (int p = 0; p < kC; ++p) {
      const double d = out[i * kC + p] - m;
      v += d * d;
    }
    v /= kC;
    EXPECT_NEAR(m, 0.0, 1e-5);
    EXPECT_NEAR(v, 1.0, 1e-3);
  }
}

TEST(LayerNorm, BackwardMatchesFiniteDifferences) {
  constexpr int kBt = 2, kC = 6;
  Rng rng(13);
  std::vector<float> inp(kBt * kC), gamma(kC), beta(kC), dout(kBt * kC);
  for (auto& x : inp) x = rng.gaussian(0, 1);
  for (auto& x : gamma) x = rng.gaussian(1, 0.2f);
  for (auto& x : beta) x = rng.gaussian(0, 0.2f);
  for (auto& x : dout) x = rng.gaussian(0, 1);

  auto objective = [&](const std::vector<float>& in_,
                       const std::vector<float>& g_,
                       const std::vector<float>& b_) {
    std::vector<float> out(kBt * kC), mean(kBt), rstd(kBt);
    layernorm_forward(default_context(), out.data(), mean.data(), rstd.data(),
                      in_.data(), g_.data(), b_.data(), kBt, kC);
    double s = 0.0;
    for (int i = 0; i < kBt * kC; ++i) s += out[i] * dout[i];
    return s;
  };

  std::vector<float> out(kBt * kC), mean(kBt), rstd(kBt);
  layernorm_forward(default_context(), out.data(), mean.data(), rstd.data(),
                    inp.data(), gamma.data(), beta.data(), kBt, kC);
  std::vector<float> dinp(kBt * kC, 0.0f), dgamma(kC, 0.0f), dbeta(kC, 0.0f);
  layernorm_backward(default_context(), dinp.data(), dgamma.data(),
                     dbeta.data(), dout.data(), inp.data(), gamma.data(),
                     mean.data(), rstd.data(), kBt, kC);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < inp.size(); ++i) {
    auto p = inp, m = inp;
    p[i] += eps;
    m[i] -= eps;
    const double num =
        (objective(p, gamma, beta) - objective(m, gamma, beta)) / (2 * eps);
    EXPECT_NEAR(dinp[i], num, 3e-2) << "dinp[" << i << "]";
  }
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    auto p = gamma, m = gamma;
    p[i] += eps;
    m[i] -= eps;
    const double num =
        (objective(inp, p, beta) - objective(inp, m, beta)) / (2 * eps);
    EXPECT_NEAR(dgamma[i], num, 3e-2) << "dgamma[" << i << "]";
  }
}

TEST(Gelu, MatchesErfDefinitionAndGradient) {
  const std::vector<float> xs{-3.0f, -1.0f, -0.1f, 0.0f, 0.5f, 2.0f};
  std::vector<float> out(xs.size());
  gelu_forward(default_context(), out.data(), xs.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expected =
        0.5 * xs[i] * (1.0 + std::erf(xs[i] / std::sqrt(2.0)));
    EXPECT_NEAR(out[i], expected, 1e-6);
  }
  // Gradient vs finite differences.
  std::vector<float> dout(xs.size(), 1.0f), dinp(xs.size(), 0.0f);
  gelu_backward(default_context(), dinp.data(), xs.data(), dout.data(),
                xs.size());
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<float> xp(xs), xm(xs);
    xp[i] += eps;
    xm[i] -= eps;
    std::vector<float> op(xs.size()), om(xs.size());
    gelu_forward(default_context(), op.data(), xp.data(), xs.size());
    gelu_forward(default_context(), om.data(), xm.data(), xs.size());
    EXPECT_NEAR(dinp[i], (op[i] - om[i]) / (2 * eps), 1e-3);
  }
}

TEST(Attention, CausalMaskRespected) {
  // Changing a FUTURE token's q/k/v must not change an earlier output.
  constexpr int kB = 1, kT = 4, kC = 8, kNh = 2;
  Rng rng(3);
  std::vector<float> qkv(kB * kT * 3 * kC);
  for (auto& x : qkv) x = rng.gaussian(0, 1);
  std::vector<float> slopes(kNh);
  alibi_slopes(slopes.data(), kNh);
  std::vector<float> out1(kB * kT * kC), pre(kB * kNh * kT * kT),
      att(kB * kNh * kT * kT);
  attention_forward(default_context(), out1.data(), pre.data(), att.data(),
                    qkv.data(), slopes.data(), kB, kT, kC, kNh);
  // Perturb all of token 3's qkv.
  auto qkv2 = qkv;
  for (int j = 0; j < 3 * kC; ++j) qkv2[3 * 3 * kC + j] += 10.0f;
  std::vector<float> out2(kB * kT * kC);
  attention_forward(default_context(), out2.data(), pre.data(), att.data(),
                    qkv2.data(), slopes.data(), kB, kT, kC, kNh);
  for (int t = 0; t < 3; ++t) {
    for (int c = 0; c < kC; ++c) {
      EXPECT_FLOAT_EQ(out1[t * kC + c], out2[t * kC + c])
          << "future token leaked into t=" << t;
    }
  }
}

TEST(Attention, AlibiPenalizesDistance) {
  // With identical q/k, attention should weight recent positions higher
  // because of the ALiBi distance penalty.
  constexpr int kB = 1, kT = 6, kC = 4, kNh = 1;
  std::vector<float> qkv(kB * kT * 3 * kC, 1.0f);
  std::vector<float> slopes(kNh);
  alibi_slopes(slopes.data(), kNh);
  std::vector<float> out(kB * kT * kC), pre(kT * kT), att(kT * kT);
  attention_forward(default_context(), out.data(), pre.data(), att.data(),
                    qkv.data(), slopes.data(), kB, kT, kC, kNh);
  // Last row: weights strictly increase towards the most recent position.
  for (int t2 = 1; t2 < kT; ++t2) {
    EXPECT_GT(att[(kT - 1) * kT + t2], att[(kT - 1) * kT + t2 - 1]);
  }
}

TEST(Attention, BackwardMatchesFiniteDifferences) {
  constexpr int kB = 1, kT = 3, kC = 4, kNh = 2;
  Rng rng(17);
  std::vector<float> qkv(kB * kT * 3 * kC);
  for (auto& x : qkv) x = rng.gaussian(0, 0.5f);
  std::vector<float> slopes(kNh);
  alibi_slopes(slopes.data(), kNh);
  std::vector<float> dout(kB * kT * kC);
  for (auto& x : dout) x = rng.gaussian(0, 1);

  auto objective = [&](const std::vector<float>& q) {
    std::vector<float> out(kB * kT * kC), pre(kB * kNh * kT * kT),
        att(kB * kNh * kT * kT);
    attention_forward(default_context(), out.data(), pre.data(), att.data(),
                      q.data(), slopes.data(), kB, kT, kC, kNh);
    double s = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) s += out[i] * dout[i];
    return s;
  };

  std::vector<float> out(kB * kT * kC), pre(kB * kNh * kT * kT),
      att(kB * kNh * kT * kT);
  attention_forward(default_context(), out.data(), pre.data(), att.data(),
                    qkv.data(), slopes.data(), kB, kT, kC, kNh);
  std::vector<float> dqkv(qkv.size(), 0.0f), dpre(pre.size(), 0.0f),
      datt(att.size(), 0.0f);
  attention_backward(default_context(), dqkv.data(), dpre.data(), datt.data(),
                     dout.data(), qkv.data(), att.data(), kB, kT, kC, kNh);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < qkv.size(); ++i) {
    auto p = qkv, m = qkv;
    p[i] += eps;
    m[i] -= eps;
    const double num = (objective(p) - objective(m)) / (2 * eps);
    EXPECT_NEAR(dqkv[i], num, 3e-2) << "dqkv[" << i << "]";
  }
}

TEST(Embedding, ForwardBackwardRoundTrip) {
  constexpr int kBt = 3, kC = 2, kV = 4;
  const std::vector<int> tokens{1, 3, 1};
  std::vector<float> table(kV * kC);
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = static_cast<float>(i);
  std::vector<float> out(kBt * kC);
  embedding_forward(default_context(), out.data(), tokens.data(), table.data(),
                    kBt, kC);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
  EXPECT_FLOAT_EQ(out[2], 6.0f);

  std::vector<float> dtable(kV * kC, 0.0f);
  const std::vector<float> dout{1, 1, 1, 1, 1, 1};
  embedding_backward(default_context(), dtable.data(), tokens.data(),
                     dout.data(), kBt, kC);
  EXPECT_FLOAT_EQ(dtable[1 * kC + 0], 2.0f);  // token 1 hit twice
  EXPECT_FLOAT_EQ(dtable[3 * kC + 0], 1.0f);
  EXPECT_FLOAT_EQ(dtable[0], 0.0f);
}

TEST(SoftmaxXent, LossAndGradient) {
  constexpr int kBt = 2, kV = 3;
  const std::vector<float> logits{1.0f, 2.0f, 3.0f, 0.0f, 0.0f, 0.0f};
  const std::vector<int> targets{2, -1};  // second position ignored
  std::vector<float> losses(kBt), probs(kBt * kV);
  softmax_xent_forward(default_context(), losses.data(), probs.data(),
                       logits.data(), targets.data(), kBt, kV);
  // Row 0 softmax with max-subtraction.
  const double z = std::exp(-2.0) + std::exp(-1.0) + 1.0;
  EXPECT_NEAR(losses[0], -std::log(1.0 / z), 1e-5);
  EXPECT_FLOAT_EQ(losses[1], 0.0f);

  std::vector<float> dlogits(kBt * kV, 0.0f);
  softmax_xent_backward(default_context(), dlogits.data(), probs.data(),
                        targets.data(), kBt, kV, 1.0f);
  // Gradient sums to zero on the valid row, zero on the ignored row.
  EXPECT_NEAR(dlogits[0] + dlogits[1] + dlogits[2], 0.0, 1e-6);
  EXPECT_FLOAT_EQ(dlogits[3], 0.0f);
  EXPECT_FLOAT_EQ(dlogits[4], 0.0f);
  EXPECT_FLOAT_EQ(dlogits[5], 0.0f);
  EXPECT_LT(dlogits[2], 0.0f);  // target logit pushed up
}

// ---------------------------------------------------------------------------
// Parallel kernels vs the serial reference.  Row-/pair-sharded kernels must
// be bit-exact (each output element is computed by exactly one shard with
// identical code); kernels that fold per-shard partial accumulators
// (linear_backward dweight/dbias, layernorm_backward dgamma/dbeta, l2_norm)
// get a tight tolerance but must be deterministic across repeated runs at a
// fixed thread count.  grain=1 forces sharding even at the odd tiny sizes
// (n < threads, n % shards != 0, bt == 1).

class ParallelKernels : public ::testing::Test {
 protected:
  ParallelKernels() : pool_(4), par_(&pool_, 4, /*grain=*/1) {}

  std::vector<float> randn(std::size_t n, float stddev = 1.0f) {
    std::vector<float> v(n);
    for (auto& x : v) x = rng_.gaussian(0.0f, stddev);
    return v;
  }

  ThreadPool pool_;
  KernelContext par_;
  const KernelContext& ser_ = KernelContext::serial();
  Rng rng_{123};
};

TEST_F(ParallelKernels, MatmulBitExactAcrossOddSizes) {
  for (const auto& [m, k, n] : {std::tuple{1, 5, 4}, {3, 7, 2}, {4, 4, 4},
                                {17, 23, 9}, {5, 129, 3}}) {
    const auto a = randn(static_cast<std::size_t>(m) * k);
    const auto b = randn(static_cast<std::size_t>(k) * n);
    std::vector<float> out_s(static_cast<std::size_t>(m) * n),
        out_p(out_s.size());
    matmul(ser_, out_s.data(), a.data(), b.data(), m, k, n);
    matmul(par_, out_p.data(), a.data(), b.data(), m, k, n);
    for (std::size_t i = 0; i < out_s.size(); ++i) {
      EXPECT_EQ(out_s[i], out_p[i]) << "m=" << m << " i=" << i;
    }
  }
}

TEST_F(ParallelKernels, LinearForwardBitExact) {
  for (const int bt : {1, 3, 5, 17}) {
    constexpr int kC = 6, kOc = 9;
    const auto inp = randn(static_cast<std::size_t>(bt) * kC);
    const auto w = randn(kOc * kC);
    const auto bias = randn(kOc);
    std::vector<float> out_s(static_cast<std::size_t>(bt) * kOc),
        out_p(out_s.size());
    linear_forward(ser_, out_s.data(), inp.data(), w.data(), bias.data(), bt,
                   kC, kOc);
    linear_forward(par_, out_p.data(), inp.data(), w.data(), bias.data(), bt,
                   kC, kOc);
    for (std::size_t i = 0; i < out_s.size(); ++i) {
      EXPECT_EQ(out_s[i], out_p[i]) << "bt=" << bt << " i=" << i;
    }
  }
}

TEST_F(ParallelKernels, LinearBackwardMatchesSerialAndIsDeterministic) {
  for (const int bt : {1, 3, 13}) {
    constexpr int kC = 5, kOc = 7;
    const auto inp = randn(static_cast<std::size_t>(bt) * kC);
    const auto w = randn(kOc * kC);
    const auto dout = randn(static_cast<std::size_t>(bt) * kOc);
    std::vector<float> dinp_s(inp.size(), 0.f), dw_s(w.size(), 0.f),
        db_s(kOc, 0.f);
    linear_backward(ser_, dinp_s.data(), dw_s.data(), db_s.data(), dout.data(),
                    inp.data(), w.data(), bt, kC, kOc);
    std::vector<float> dinp_p(inp.size(), 0.f), dw_p(w.size(), 0.f),
        db_p(kOc, 0.f);
    linear_backward(par_, dinp_p.data(), dw_p.data(), db_p.data(), dout.data(),
                    inp.data(), w.data(), bt, kC, kOc);
    // dinp rows are shard-owned: bit-exact.
    for (std::size_t i = 0; i < dinp_s.size(); ++i) {
      EXPECT_EQ(dinp_s[i], dinp_p[i]) << "bt=" << bt;
    }
    // dweight/dbias fold shard partials: tight tolerance.
    for (std::size_t i = 0; i < dw_s.size(); ++i) {
      EXPECT_NEAR(dw_s[i], dw_p[i], 1e-5 * (1.0 + std::fabs(dw_s[i])));
    }
    for (std::size_t i = 0; i < db_s.size(); ++i) {
      EXPECT_NEAR(db_s[i], db_p[i], 1e-5 * (1.0 + std::fabs(db_s[i])));
    }
    // ...and must be bit-reproducible run-to-run at a fixed thread count.
    std::vector<float> dinp_q(inp.size(), 0.f), dw_q(w.size(), 0.f),
        db_q(kOc, 0.f);
    linear_backward(par_, dinp_q.data(), dw_q.data(), db_q.data(), dout.data(),
                    inp.data(), w.data(), bt, kC, kOc);
    EXPECT_EQ(dw_p, dw_q);
    EXPECT_EQ(db_p, db_q);
  }
}

TEST_F(ParallelKernels, LayerNormMatchesSerialAndIsDeterministic) {
  for (const int bt : {1, 2, 11}) {
    constexpr int kC = 8;
    const auto inp = randn(static_cast<std::size_t>(bt) * kC);
    const auto gamma = randn(kC, 0.3f);
    const auto beta = randn(kC, 0.3f);
    const auto dout = randn(static_cast<std::size_t>(bt) * kC);
    std::vector<float> out_s(inp.size()), out_p(inp.size()), mean(bt),
        rstd(bt);
    layernorm_forward(ser_, out_s.data(), mean.data(), rstd.data(), inp.data(),
                      gamma.data(), beta.data(), bt, kC);
    layernorm_forward(par_, out_p.data(), mean.data(), rstd.data(), inp.data(),
                      gamma.data(), beta.data(), bt, kC);
    EXPECT_EQ(out_s, out_p);

    std::vector<float> dx_s(inp.size(), 0.f), dg_s(kC, 0.f), db_s(kC, 0.f);
    layernorm_backward(ser_, dx_s.data(), dg_s.data(), db_s.data(),
                       dout.data(), inp.data(), gamma.data(), mean.data(),
                       rstd.data(), bt, kC);
    std::vector<float> dx_p(inp.size(), 0.f), dg_p(kC, 0.f), db_p(kC, 0.f);
    layernorm_backward(par_, dx_p.data(), dg_p.data(), db_p.data(),
                       dout.data(), inp.data(), gamma.data(), mean.data(),
                       rstd.data(), bt, kC);
    EXPECT_EQ(dx_s, dx_p);  // rows shard-owned
    for (int p = 0; p < kC; ++p) {
      EXPECT_NEAR(dg_s[p], dg_p[p], 1e-5 * (1.0 + std::fabs(dg_s[p])));
      EXPECT_NEAR(db_s[p], db_p[p], 1e-5 * (1.0 + std::fabs(db_s[p])));
    }
    std::vector<float> dx_q(inp.size(), 0.f), dg_q(kC, 0.f), db_q(kC, 0.f);
    layernorm_backward(par_, dx_q.data(), dg_q.data(), db_q.data(),
                       dout.data(), inp.data(), gamma.data(), mean.data(),
                       rstd.data(), bt, kC);
    EXPECT_EQ(dg_p, dg_q);
    EXPECT_EQ(db_p, db_q);
  }
}

TEST_F(ParallelKernels, AttentionBitExact) {
  constexpr int kB = 2, kT = 5, kC = 12, kNh = 3;
  const auto qkv = randn(kB * kT * 3 * kC, 0.5f);
  std::vector<float> slopes(kNh);
  alibi_slopes(slopes.data(), kNh);
  std::vector<float> out_s(kB * kT * kC), out_p(kB * kT * kC);
  std::vector<float> pre_s(kB * kNh * kT * kT), att_s(pre_s.size());
  std::vector<float> pre_p(pre_s.size()), att_p(pre_s.size());
  attention_forward(ser_, out_s.data(), pre_s.data(), att_s.data(), qkv.data(),
                    slopes.data(), kB, kT, kC, kNh);
  attention_forward(par_, out_p.data(), pre_p.data(), att_p.data(), qkv.data(),
                    slopes.data(), kB, kT, kC, kNh);
  EXPECT_EQ(out_s, out_p);
  EXPECT_EQ(att_s, att_p);

  const auto dout = randn(kB * kT * kC);
  std::vector<float> dqkv_s(qkv.size(), 0.f), dqkv_p(qkv.size(), 0.f);
  std::vector<float> dpre(pre_s.size(), 0.f), datt(att_s.size(), 0.f);
  attention_backward(ser_, dqkv_s.data(), dpre.data(), datt.data(),
                     dout.data(), qkv.data(), att_s.data(), kB, kT, kC, kNh);
  std::fill(dpre.begin(), dpre.end(), 0.f);
  std::fill(datt.begin(), datt.end(), 0.f);
  attention_backward(par_, dqkv_p.data(), dpre.data(), datt.data(),
                     dout.data(), qkv.data(), att_s.data(), kB, kT, kC, kNh);
  EXPECT_EQ(dqkv_s, dqkv_p);
}

TEST_F(ParallelKernels, SoftmaxXentBitExact) {
  constexpr int kBt = 7, kV = 11;
  const auto logits = randn(kBt * kV);
  std::vector<int> targets(kBt);
  for (int i = 0; i < kBt; ++i) targets[i] = i % 3 == 0 ? -1 : i % kV;
  std::vector<float> losses_s(kBt), probs_s(kBt * kV), losses_p(kBt),
      probs_p(kBt * kV);
  softmax_xent_forward(ser_, losses_s.data(), probs_s.data(), logits.data(),
                       targets.data(), kBt, kV);
  softmax_xent_forward(par_, losses_p.data(), probs_p.data(), logits.data(),
                       targets.data(), kBt, kV);
  EXPECT_EQ(losses_s, losses_p);
  EXPECT_EQ(probs_s, probs_p);

  std::vector<float> dz_s(kBt * kV, 0.f), dz_p(kBt * kV, 0.f);
  softmax_xent_backward(ser_, dz_s.data(), probs_s.data(), targets.data(),
                        kBt, kV, 0.25f);
  softmax_xent_backward(par_, dz_p.data(), probs_p.data(), targets.data(),
                        kBt, kV, 0.25f);
  EXPECT_EQ(dz_s, dz_p);
}

TEST_F(ParallelKernels, ElementwiseBitExact) {
  const std::size_t n = 10007;  // not a multiple of any shard count
  const auto a = randn(n), b = randn(n);
  std::vector<float> out_s(n), out_p(n);
  gelu_forward(ser_, out_s.data(), a.data(), n);
  gelu_forward(par_, out_p.data(), a.data(), n);
  EXPECT_EQ(out_s, out_p);

  std::vector<float> di_s(n, 0.f), di_p(n, 0.f);
  gelu_backward(ser_, di_s.data(), a.data(), b.data(), n);
  gelu_backward(par_, di_p.data(), a.data(), b.data(), n);
  EXPECT_EQ(di_s, di_p);

  residual_forward(ser_, out_s.data(), a.data(), b.data(), n);
  residual_forward(par_, out_p.data(), a.data(), b.data(), n);
  EXPECT_EQ(out_s, out_p);

  std::vector<float> y_s(a), y_p(a);
  axpy(ser_, y_s.data(), 0.5f, b.data(), n);
  axpy(par_, y_p.data(), 0.5f, b.data(), n);
  EXPECT_EQ(y_s, y_p);
  scale_inplace(ser_, y_s.data(), 1.25f, n);
  scale_inplace(par_, y_p.data(), 1.25f, n);
  EXPECT_EQ(y_s, y_p);

  std::vector<float> emb_s(5 * 4), emb_p(5 * 4);
  const auto table = randn(3 * 4);
  const std::vector<int> tokens{0, 2, 1, 2, 0};
  embedding_forward(ser_, emb_s.data(), tokens.data(), table.data(), 5, 4);
  embedding_forward(par_, emb_p.data(), tokens.data(), table.data(), 5, 4);
  EXPECT_EQ(emb_s, emb_p);
}

TEST_F(ParallelKernels, L2NormMatchesSerialAndIsDeterministic) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{4096}, std::size_t{10007}}) {
    const auto x = randn(n);
    const double s = l2_norm(ser_, x.data(), n);
    const double p = l2_norm(par_, x.data(), n);
    EXPECT_NEAR(p, s, 1e-9 * (1.0 + s)) << "n=" << n;
    EXPECT_EQ(p, l2_norm(par_, x.data(), n));  // deterministic
  }
}

TEST_F(ParallelKernels, NestedCallFromPoolWorkerDegradesToSerial) {
  // A kernel invoked from a pool worker (the federated client fan-out
  // pattern) must run serial — and still produce the same result.
  constexpr int kM = 6, kK = 7, kN = 5;
  const auto a = randn(kM * kK), b = randn(kK * kN);
  std::vector<float> want(kM * kN);
  matmul(ser_, want.data(), a.data(), b.data(), kM, kK, kN);

  // submit() always lands on a worker thread.
  std::vector<std::vector<float>> got(4, std::vector<float>(kM * kN));
  std::vector<std::future<void>> futs;
  for (std::size_t i = 0; i < got.size(); ++i) {
    futs.push_back(pool_.submit([&, i] {
      EXPECT_TRUE(ThreadPool::in_parallel_section());
      EXPECT_EQ(par_.effective_threads(), 1);
      matmul(par_, got[i].data(), a.data(), b.data(), kM, kK, kN);
    }));
  }
  for (auto& f : futs) f.get();
  for (const auto& g : got) EXPECT_EQ(g, want);
}

TEST_F(ParallelKernels, CallersOwnChunkIsNestedButALoneChunkIsNot) {
  // The caller works the last chunk beside the workers' chunks, so a
  // section entered there runs inline and a pooled context sees one
  // thread; a one-chunk section marks nothing, so a lone client (an async
  // single-client wave) still shards its kernels over the pool.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> nested_elsewhere{0};
  std::atomic<int> caller_threads{0};
  std::atomic<int> caller_chunks{0};
  pool_.parallel_for(4, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) return;
    caller_chunks.fetch_add(1);
    pool_.parallel_for(64, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) nested_elsewhere.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
    caller_threads.store(par_.effective_threads());
  });
  EXPECT_EQ(nested_elsewhere.load(), 0);
  EXPECT_EQ(caller_threads.load(), 1);
  EXPECT_EQ(caller_chunks.load(), 1);

  int lone_threads = 0;
  pool_.parallel_for(1, [&](std::size_t) {
    EXPECT_FALSE(ThreadPool::in_parallel_section());
    lone_threads = par_.effective_threads();
  });
  EXPECT_EQ(lone_threads, 4);
  EXPECT_FALSE(ThreadPool::in_parallel_section());
}

TEST_F(ParallelKernels, ThrowingShardIsRethrownAfterEverySiblingFinished) {
  // The caller works the last shard and throws at once while its siblings
  // still run against this frame, so the rethrow must wait for them all.
  constexpr std::size_t kN = 4;
  ASSERT_EQ(par_.shard_count(kN, 1), 4);
  std::atomic<int> finished{0};
  const KernelContext::ShardFn shard = [&](std::size_t begin,
                                           std::size_t end) {
    if (end == kN) throw std::runtime_error("last shard");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    finished.fetch_add(static_cast<int>(end - begin));
  };
  EXPECT_THROW(par_.parallel_shards(kN, 1, shard), std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
  // Should the rethrow come early, let the siblings finish before
  // `finished` and `shard` go out of scope.
  for (int i = 0; i < 200 && finished.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(AlibiSlopes, GeometricSequence) {
  std::vector<float> slopes(8);
  alibi_slopes(slopes.data(), 8);
  EXPECT_NEAR(slopes[0], 0.5f, 1e-6);
  EXPECT_NEAR(slopes[7], 1.0f / 256.0f, 1e-8);
  for (int h = 1; h < 8; ++h) {
    EXPECT_NEAR(slopes[h] / slopes[h - 1], 0.5f, 1e-6);
  }
}

}  // namespace
}  // namespace photon::kernels
