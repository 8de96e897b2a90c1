// sim/: hardware catalog, paper federation (Table 1 / Fig. 2), batch
// autotuner, strategy selection heuristic, MFU estimation.

#include <gtest/gtest.h>

#include "comm/message.hpp"
#include "nn/config.hpp"
#include "sim/autotuner.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/hardware.hpp"
#include "sim/mfu.hpp"
#include "sim/strategy.hpp"

namespace photon {
namespace {

TEST(ModelConfigPresets, PaperParamCountsMatchTable4Scales) {
  // Table 4 sizes are nominal; our exact counts must land near them.
  EXPECT_NEAR(static_cast<double>(ModelConfig::paper_125m().num_params()),
              125e6, 35e6);
  EXPECT_NEAR(static_cast<double>(ModelConfig::paper_350m().num_params()),
              350e6, 60e6);
  EXPECT_NEAR(static_cast<double>(ModelConfig::paper_1_3b().num_params()),
              1.3e9, 0.25e9);
  EXPECT_NEAR(static_cast<double>(ModelConfig::paper_3b().num_params()), 3e9,
              0.5e9);
  EXPECT_NEAR(static_cast<double>(ModelConfig::paper_7b().num_params()), 7e9,
              1.0e9);
}

TEST(ModelConfigPresets, StandInsOrderedBySize) {
  EXPECT_LT(ModelConfig::nano().num_params(), ModelConfig::micro().num_params());
  EXPECT_LT(ModelConfig::micro().num_params(), ModelConfig::small().num_params());
}

TEST(GpuSpec, CatalogSane) {
  const GpuSpec h100 = GpuSpec::h100();
  EXPECT_DOUBLE_EQ(h100.vram_gb, 80.0);
  EXPECT_GT(h100.bf16_tflops, 900.0);
  EXPECT_GT(GpuSpec::a100().bf16_tflops, GpuSpec::rtx4090().bf16_tflops);
}

TEST(ClientSpec, Aggregates) {
  ClientSpec c;
  c.nodes.push_back({GpuSpec::h100(), 4, 400.0});
  c.nodes.push_back({GpuSpec::h100(), 4, 400.0});
  EXPECT_EQ(c.total_gpus(), 8);
  EXPECT_TRUE(c.nodes[0].has_rdma());
}

TEST(PaperFederation, Table1ClientAndGpuCounts) {
  // 7B: 4 clients x 8 H100.
  const Federation f7 = paper_federation(PaperScale::k7B);
  EXPECT_EQ(f7.clients.size(), 4u);
  for (const auto& c : f7.clients) EXPECT_EQ(c.total_gpus(), 8);
  EXPECT_EQ(f7.aggregator_region, "England");

  // 3B: 4 clients x 4 H100.
  const Federation f3 = paper_federation(PaperScale::k3B);
  EXPECT_EQ(f3.clients.size(), 4u);
  for (const auto& c : f3.clients) EXPECT_EQ(c.total_gpus(), 4);

  // 1B row: 1x2 + 2x2 + 2x2 + 2x4 + 1x4 = 8 clients, 22 GPUs.
  const Federation f1 = paper_federation(PaperScale::k1_3B);
  EXPECT_EQ(f1.clients.size(), 8u);
  int gpus = 0;
  for (const auto& c : f1.clients) gpus += c.total_gpus();
  EXPECT_EQ(gpus, 22);

  // 125M: 10 clients x 1 H100.
  const Federation f125 = paper_federation(PaperScale::k125M);
  EXPECT_EQ(f125.clients.size(), 10u);
  for (const auto& c : f125.clients) EXPECT_EQ(c.total_gpus(), 1);
}

TEST(PaperFederation, Fig2BottlenecksReproduced) {
  const Federation fed = paper_federation(PaperScale::k7B);
  // RAR bottleneck: Quebec <-> Maharashtra is the slowest ring link.
  const auto quebec = fed.fabric.site_index("Quebec");
  const auto maharashtra = fed.fabric.site_index("Maharashtra");
  EXPECT_DOUBLE_EQ(fed.fabric.slowest_ring_link_gbps(),
                   fed.fabric.bandwidth(quebec, maharashtra));
  // All cross-region links inside the paper's stated 0.8-40 Gbps range.
  for (std::size_t i = 0; i < fed.fabric.num_sites(); ++i) {
    for (std::size_t j = 0; j < fed.fabric.num_sites(); ++j) {
      if (i == j) continue;
      const double bw = fed.fabric.bandwidth(i, j);
      EXPECT_GE(bw, 0.8);
      EXPECT_LE(bw, 40.0);
    }
  }
  // PS hub England: slowest star link well-defined.
  const auto england = fed.fabric.site_index("England");
  EXPECT_GT(fed.fabric.slowest_star_link_gbps(england), 0.0);
}

TEST(Autotuner, LargerModelsGetSmallerBatches) {
  BatchSizeAutotuner tuner;
  const GpuSpec h100 = GpuSpec::h100();
  const auto b125 = tuner.tune_gpu(ModelConfig::paper_125m(), h100);
  const auto b1b = tuner.tune_gpu(ModelConfig::paper_1_3b(), h100);
  EXPECT_TRUE(b125.fits);
  EXPECT_TRUE(b1b.fits);
  EXPECT_GT(b125.micro_batch_per_gpu, b1b.micro_batch_per_gpu);
  // Power-of-two batches only.
  EXPECT_EQ(b125.micro_batch_per_gpu & (b125.micro_batch_per_gpu - 1), 0);
}

TEST(Autotuner, SevenBDoesNotFitOneGpuButFitsWithFsdp) {
  BatchSizeAutotuner tuner;
  const ModelConfig m7 = ModelConfig::paper_7b();
  const auto single = tuner.tune_gpu(m7, GpuSpec::h100());
  EXPECT_FALSE(single.fits);  // 7B AdamW states ~ 112 GB > 80 GB

  ClientSpec eight;
  eight.nodes.push_back({GpuSpec::h100(), 8, 400.0});
  const auto sharded = tuner.tune_client(m7, eight, /*fsdp_sharding=*/true);
  EXPECT_TRUE(sharded.fits);
  EXPECT_EQ(sharded.device_batch, sharded.micro_batch_per_gpu * 8);
}

TEST(StrategySelector, FollowsThePaperHeuristic) {
  StrategySelector selector;

  // 1 GPU + small model -> dedicated GPU.
  ClientSpec single;
  single.nodes.push_back({GpuSpec::h100(), 1, 0.0});
  EXPECT_EQ(selector.select(ModelConfig::paper_125m(), single).strategy,
            LocalStrategy::kSingleGpu);

  // multi-GPU + model fits one GPU -> DDP.
  ClientSpec multi;
  multi.nodes.push_back({GpuSpec::h100(), 4, 400.0});
  EXPECT_EQ(selector.select(ModelConfig::paper_1_3b(), multi).strategy,
            LocalStrategy::kDdp);

  // multi-GPU + model exceeds one GPU -> FSDP.
  ClientSpec eight;
  eight.nodes.push_back({GpuSpec::h100(), 8, 400.0});
  EXPECT_EQ(selector.select(ModelConfig::paper_7b(), eight).strategy,
            LocalStrategy::kFsdp);

  // multi-node without RDMA -> nested sub-federation.
  ClientSpec cluster;
  cluster.nodes.push_back({GpuSpec::rtx4090(), 2, 10.0});
  cluster.nodes.push_back({GpuSpec::rtx4090(), 2, 10.0});
  EXPECT_EQ(selector.select(ModelConfig::paper_125m(), cluster).strategy,
            LocalStrategy::kSubFederation);

  // Way too big -> does not fit.
  ClientSpec tiny;
  tiny.nodes.push_back({GpuSpec::rtx4090(), 1, 0.0});
  EXPECT_EQ(selector.select(ModelConfig::paper_7b(), tiny).strategy,
            LocalStrategy::kDoesNotFit);
}

TEST(Mfu, ReasonableRangeForPaperNumbers) {
  // 1.3B federated: nu = 0.147 b/s at batch 512 on 2xH100-equivalent...
  // rather than asserting paper MFU exactly, check monotonicity and range.
  const ModelConfig m = ModelConfig::paper_1_3b();
  const double mfu = model_flops_utilization(m, 0.147, 512, 8 * 989.0);
  EXPECT_GT(mfu, 0.0);
  EXPECT_LT(mfu, 1.5);  // sanity: cannot exceed peak by much even w/ approx
  // Doubling throughput doubles MFU.
  EXPECT_NEAR(model_flops_utilization(m, 0.294, 512, 8 * 989.0), 2.0 * mfu,
              1e-9);
}

TEST(Mfu, PaperThroughputTablesExposed) {
  EXPECT_DOUBLE_EQ(paper_throughput_125m().federated_bps, 2.0);
  EXPECT_DOUBLE_EQ(paper_throughput_7b().federated_bps, 0.032);
  EXPECT_DOUBLE_EQ(paper_throughput_7b().centralized_bps, 0.120);
  EXPECT_EQ(paper_batch_125m().federated, 32);
  EXPECT_EQ(paper_batch_125m().centralized, 256);
  EXPECT_EQ(paper_batch_7b().federated, 1024);
}

// --------------------------------------------------------- fault injector --
TEST(FaultInjector, DecisionsArePureFunctionsOfThePlan) {
  FaultPlan plan;
  plan.seed = 99;
  plan.crash_prob = 0.3;
  plan.straggle_prob = 0.4;
  plan.link_drop_prob = 0.2;
  plan.corrupt_prob = 0.2;
  const FaultInjector a(plan), b(plan);
  Message m;
  m.round = 7;
  m.sender = 0;
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (int client = 0; client < 6; ++client) {
      const auto fa = a.client_fault(round, client, 0);
      const auto fb = b.client_fault(round, client, 0);
      EXPECT_EQ(fa.crash, fb.crash);
      EXPECT_EQ(fa.straggle_factor, fb.straggle_factor);  // bit-equal
      m.round = round;
      for (int attempt = 1; attempt <= 3; ++attempt) {
        const auto la = a.link_fault(client, m, attempt);
        const auto lb = b.link_fault(client, m, attempt);
        EXPECT_EQ(la.drop, lb.drop);
        EXPECT_EQ(la.corrupt, lb.corrupt);
      }
    }
  }
}

TEST(FaultInjector, ProbabilitiesHitTheirTargets) {
  FaultPlan plan;
  plan.crash_prob = 0.25;
  plan.straggle_prob = 0.5;
  plan.straggle_factor_min = 2.0;
  plan.straggle_factor_max = 4.0;
  const FaultInjector inj(plan);
  int crashes = 0, stragglers = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const auto f = inj.client_fault(static_cast<std::uint32_t>(t), t % 13, 0);
    crashes += f.crash ? 1 : 0;
    if (f.straggle_factor > 1.0) {
      ++stragglers;
      EXPECT_GE(f.straggle_factor, 2.0);
      EXPECT_LE(f.straggle_factor, 4.0);
    }
  }
  EXPECT_NEAR(crashes, trials * 0.25, 120);
  EXPECT_NEAR(stragglers, trials * 0.5, 140);
}

TEST(FaultInjector, RoundWindowGatesAllFaults) {
  FaultPlan plan;
  plan.crash_prob = 1.0;
  plan.link_drop_prob = 1.0;
  plan.first_round = 5;
  plan.last_round = 6;
  const FaultInjector inj(plan);
  Message m;
  for (std::uint32_t round : {0u, 4u, 7u, 100u}) {
    EXPECT_FALSE(inj.client_fault(round, 0, 0).crash);
    m.round = round;
    EXPECT_FALSE(inj.link_fault(0, m, 1).drop);
  }
  for (std::uint32_t round : {5u, 6u}) {
    EXPECT_TRUE(inj.client_fault(round, 0, 0).crash);
    m.round = round;
    EXPECT_TRUE(inj.link_fault(0, m, 1).drop);
  }
}

TEST(FaultInjector, BroadcastFaultsDecorrelateAcrossClients) {
  // The model broadcast has sender 0 for every client; link faults must
  // still be keyed per client, not per message, or every cohort member
  // would fail together.
  FaultPlan plan;
  plan.link_drop_prob = 0.5;
  const FaultInjector inj(plan);
  Message broadcast;
  broadcast.round = 3;
  broadcast.sender = 0;
  bool any_drop = false, any_clean = false;
  for (int client = 0; client < 32; ++client) {
    (inj.link_fault(client, broadcast, 1).drop ? any_drop : any_clean) = true;
  }
  EXPECT_TRUE(any_drop);
  EXPECT_TRUE(any_clean);
}

TEST(FaultInjector, ValidatesThePlan) {
  FaultPlan bad;
  bad.crash_prob = 1.5;
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
  FaultPlan factors;
  factors.straggle_factor_min = 0.5;  // would *speed up* a straggler
  EXPECT_THROW(FaultInjector{factors}, std::invalid_argument);
  FaultPlan inverted;
  inverted.straggle_factor_min = 4.0;
  inverted.straggle_factor_max = 2.0;
  EXPECT_THROW(FaultInjector{inverted}, std::invalid_argument);
}

}  // namespace
}  // namespace photon
