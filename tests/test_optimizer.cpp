// Optimizers and scheduler: closed-form single-step checks, state reset,
// clipping, cosine schedule shape, and the Photon period stretching.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/server_opt.hpp"
#include "nn/optimizer.hpp"
#include "nn/scheduler.hpp"

namespace photon {
namespace {

TEST(AdamW, FirstStepClosedForm) {
  // After one step from zero state: m=(1-b1)g, v=(1-b2)g^2; bias correction
  // makes mhat=g, vhat=g^2, so update = lr * g/(|g|+eps) + lr*wd*p.
  AdamWConfig cfg;
  cfg.weight_decay = 0.1f;
  AdamW opt(2, cfg);
  std::vector<float> params{1.0f, -2.0f};
  const std::vector<float> grads{0.5f, -0.25f};
  opt.step(kernels::default_context(), params, grads, 0.1f);
  const float e = cfg.eps;
  EXPECT_NEAR(params[0], 1.0f - 0.1f * (0.5f / (0.5f + e) + 0.1f * 1.0f), 1e-6);
  EXPECT_NEAR(params[1], -2.0f - 0.1f * (-0.25f / (0.25f + e) + 0.1f * -2.0f),
              1e-6);
  EXPECT_EQ(opt.step_count(), 1u);
}

TEST(AdamW, ResetClearsState) {
  AdamW opt(2);
  std::vector<float> params{0.0f, 0.0f};
  opt.step(kernels::default_context(), params, std::vector<float>{1.0f, 1.0f},
           0.1f);
  opt.reset();
  EXPECT_EQ(opt.step_count(), 0u);
  EXPECT_FLOAT_EQ(opt.exp_avg()[0], 0.0f);
  EXPECT_FLOAT_EQ(opt.exp_avg_sq()[1], 0.0f);
}

TEST(AdamW, StatelessRestartMatchesFreshOptimizer) {
  // reset() must make the optimizer behave exactly like a new one — the
  // property Photon's stateless rounds depend on.
  AdamW a(1), b(1);
  std::vector<float> pa{1.0f}, pb{1.0f};
  a.step(kernels::default_context(), pa, std::vector<float>{0.3f}, 0.01f);
  a.reset();
  pa[0] = 1.0f;
  a.step(kernels::default_context(), pa, std::vector<float>{0.7f}, 0.01f);
  b.step(kernels::default_context(), pb, std::vector<float>{0.7f}, 0.01f);
  EXPECT_FLOAT_EQ(pa[0], pb[0]);
}

TEST(AdamW, LastStepDropsTheMomentsUntilReset) {
  // A last step moves the params as a full step does but keeps no moments:
  // exp_avg(), exp_avg_sq() and another step throw until reset(), after
  // which the moments read as zeros and the next step is a fresh
  // optimizer's.  Checked as the first step (t = 1) and the second.
  const auto& ctx = kernels::default_context();
  const std::vector<float> p0{1.0f, -2.0f, 0.5f, 3.0f, -0.0f};
  const std::vector<float> g0{0.3f, -0.1f, 0.0f, 2.0f, -1.5f};
  const std::vector<float> g1{-0.2f, 0.4f, -0.0f, 1.0f, 0.25f};
  for (const int before : {0, 1}) {
    SCOPED_TRACE("steps before: " + std::to_string(before));
    AdamW full(p0.size()), last(p0.size());
    std::vector<float> pf = p0, pl = p0;
    for (int s = 0; s < before; ++s) {
      full.step_clipped(ctx, pf, g0, 0.1f, 1.0);
      last.step_clipped(ctx, pl, g0, 0.1f, 1.0);
    }
    EXPECT_EQ(full.step_clipped(ctx, pf, g1, 0.1f, 1.0),
              last.step_clipped(ctx, pl, g1, 0.1f, 1.0, /*last_step=*/true));
    EXPECT_EQ(0, std::memcmp(pf.data(), pl.data(), pf.size() * sizeof(float)));
    EXPECT_EQ(last.step_count(), full.step_count());
    EXPECT_THROW((void)last.exp_avg(), std::logic_error);
    EXPECT_THROW((void)last.exp_avg_sq(), std::logic_error);
    EXPECT_THROW(last.step_clipped(ctx, pl, g1, 0.1f, 1.0), std::logic_error);
    EXPECT_THROW(last.step(ctx, pl, g1, 0.1f), std::logic_error);

    last.reset();
    for (const float x : last.exp_avg()) EXPECT_EQ(0.0f, x);
    for (const float x : last.exp_avg_sq()) EXPECT_EQ(0.0f, x);
    AdamW fresh(p0.size());
    std::vector<float> pr = p0, pn = p0;
    last.step_clipped(ctx, pr, g1, 0.1f, 1.0);
    fresh.step_clipped(ctx, pn, g1, 0.1f, 1.0);
    EXPECT_EQ(0, std::memcmp(pr.data(), pn.data(), pr.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(last.exp_avg().data(), fresh.exp_avg().data(),
                             pr.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(last.exp_avg_sq().data(),
                             fresh.exp_avg_sq().data(),
                             pr.size() * sizeof(float)));
  }
}

TEST(AdamW, SizeMismatchThrows) {
  AdamW opt(3);
  std::vector<float> params{1.0f, 2.0f};
  EXPECT_THROW(opt.step(kernels::default_context(), params,
                        std::vector<float>{1.0f, 1.0f}, 0.1f),
               std::invalid_argument);
}

TEST(AdamW, ConvergesOnQuadratic) {
  // minimize f(x) = (x - 3)^2 -> grad = 2(x-3).
  AdamW opt(1);
  std::vector<float> x{0.0f};
  for (int i = 0; i < 500; ++i) {
    const std::vector<float> g{2.0f * (x[0] - 3.0f)};
    opt.step(kernels::default_context(), x, g, 0.05f);
  }
  EXPECT_NEAR(x[0], 3.0f, 0.05f);
}

// DiLoCo's Nesterov OuterOpt is the server's NesterovOpt.
TEST(SgdNesterov, MatchesTorchFormula) {
  // torch SGD(nesterov): first step buf=g, update=g+mu*buf=(1+mu)g.
  NesterovOpt opt(0.1f, 0.9f);
  std::vector<float> params{1.0f};
  opt.apply(params, std::vector<float>{0.5f});
  EXPECT_NEAR(params[0], 1.0f - 0.1f * (0.5f + 0.9f * 0.5f), 1e-6);
  // second step: buf=0.9*0.5+g, update=g+0.9*buf.
  const float buf2 = 0.9f * 0.5f + 0.2f;
  const float expected = params[0] - 0.1f * (0.2f + 0.9f * buf2);
  opt.apply(params, std::vector<float>{0.2f});
  EXPECT_NEAR(params[0], expected, 1e-6);
}

TEST(SgdNesterov, ResetRestartsMomentum) {
  NesterovOpt opt(0.1f, 0.9f);
  std::vector<float> p{0.0f};
  opt.apply(p, std::vector<float>{1.0f});
  opt.reset();
  p[0] = 0.0f;
  opt.apply(p, std::vector<float>{1.0f});
  EXPECT_NEAR(p[0], -0.1f * 1.9f, 1e-6);
}

TEST(ClipGradNorm, ScalesOnlyWhenAboveThreshold) {
  std::vector<float> g{3.0f, 4.0f};  // norm 5
  const double pre = clip_grad_norm(kernels::default_context(), g, 10.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_FLOAT_EQ(g[0], 3.0f);  // unchanged

  const double pre2 = clip_grad_norm(kernels::default_context(), g, 1.0);
  EXPECT_NEAR(pre2, 5.0, 1e-6);
  EXPECT_NEAR(std::sqrt(g[0] * g[0] + g[1] * g[1]), 1.0, 1e-5);
}

TEST(CosineSchedule, WarmupAndDecayShape) {
  CosineScheduleConfig cfg;
  cfg.max_lr = 1.0f;
  cfg.warmup_steps = 10;
  cfg.total_steps = 110;
  CosineSchedule sched(cfg);

  // Linear warmup hits max at the end of warmup.
  EXPECT_NEAR(sched.lr_at(0), 0.1f, 1e-6);
  EXPECT_NEAR(sched.lr_at(9), 1.0f, 1e-6);
  // Midpoint of cosine: halfway between max and min.
  EXPECT_NEAR(sched.lr_at(60), (1.0f + 0.1f) / 2.0f, 1e-3);
  // End of schedule and beyond: min_lr.
  EXPECT_NEAR(sched.lr_at(110), 0.1f, 1e-5);
  EXPECT_NEAR(sched.lr_at(100000), 0.1f, 1e-6);
  // Monotone decreasing after warmup.
  for (int s = 10; s < 109; ++s) {
    EXPECT_GE(sched.lr_at(s) + 1e-7f, sched.lr_at(s + 1));
  }
}

TEST(CosineSchedule, StretchedPeriodMatchesAppendixC1) {
  // T_local = T_cent * B_cent / B_local: batch 256 -> 32 stretches 8x.
  EXPECT_EQ(CosineSchedule::stretched_period(5120, 256, 32), 40960);
  EXPECT_EQ(CosineSchedule::stretched_period(100, 64, 64), 100);
  EXPECT_THROW(CosineSchedule::stretched_period(100, 64, 0),
               std::invalid_argument);
}

TEST(CosineSchedule, ValidatesConfig) {
  CosineScheduleConfig bad;
  bad.total_steps = 0;
  EXPECT_THROW(CosineSchedule{bad}, std::invalid_argument);
  CosineScheduleConfig bad2;
  bad2.warmup_steps = 200;
  bad2.total_steps = 100;
  EXPECT_THROW(CosineSchedule{bad2}, std::invalid_argument);
}

}  // namespace
}  // namespace photon
