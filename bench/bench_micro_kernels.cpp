// Microbenchmarks for the compute and communication substrate.
//
// Default mode times every hot kernel at one thread, the way each client
// runs them inside the round's client fan-out, and prints seconds per call
// and GFLOP/s per kernel shape, then the train-step MFU before and after
// SIMD.  Timings come from bench_common.hpp's sampler; the real-clock
// record of a workload's kernels is bench_e2e's per-layer view.
//
//   bench_micro_kernels [--gbench [google-benchmark args...]]
//
// --gbench      additionally run the google-benchmark suites (train step,
//               collectives, codecs, message framing)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/collective.hpp"
#include "comm/compression.hpp"
#include "comm/message.hpp"
#include "data/corpus.hpp"
#include "obs/metrics.hpp"
#include "tensor/simd.hpp"
#include "data/stream.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "tensor/kernel_context.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace photon;
namespace k = kernels;

// ------------------------------------------------------- kernel timings --

std::vector<float> gaussian(Rng& rng, std::size_t n, float stddev = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.gaussian(0.0f, stddev);
  return v;
}

/// Times every kernel; returns the best GFLOP/s, the MFU peak proxy.
double run_kernels() {
  Rng rng(42);
  double peak = 0.0;
  // Times one kernel under the serial context and prints its line.
  const auto run = [&](const std::string& name, const std::string& shape,
                       double flops,
                       const std::function<void(const k::KernelContext&)>&
                           fn) {
    const double secs = bench::median_seconds_per_call(
        {[&] { fn(k::KernelContext::serial()); }})[0];
    const double gflops = flops / secs * 1e-9;
    std::printf("  %-22s %-28s %10.3f ms  %8.2f GFLOP/s\n", name.c_str(),
                shape.c_str(), secs * 1e3, gflops);
    peak = std::max(peak, gflops);
  };

  {  // matmul
    constexpr int kM = 192, kK = 192, kN = 192;
    const auto a = gaussian(rng, static_cast<std::size_t>(kM) * kK);
    const auto b = gaussian(rng, static_cast<std::size_t>(kK) * kN);
    std::vector<float> out(static_cast<std::size_t>(kM) * kN);
    run("matmul", "m=192,k=192,n=192", 2.0 * kM * kK * kN,
        [&](const k::KernelContext& ctx) {
          k::matmul(ctx, out.data(), a.data(), b.data(), kM, kK, kN);
        });
  }
  // Linear and attention run at two shapes each: a wide one, and
  // local_heavy's (ModelConfig::small() at batch 2).  There, width 80 is
  // not a multiple of the 64-column dx/dW register tile, and head size 20
  // leaves a 4-lane tail on every attention dot product.
  const auto add_linear = [&](const std::string& suffix, int bt, int c,
                              int oc) {
    Rng r2(7);
    const auto inp = gaussian(r2, static_cast<std::size_t>(bt) * c);
    const auto w = gaussian(r2, static_cast<std::size_t>(oc) * c);
    const auto bias = gaussian(r2, oc);
    const auto dout = gaussian(r2, static_cast<std::size_t>(bt) * oc);
    std::vector<float> out(static_cast<std::size_t>(bt) * oc);
    const std::string shape = "bt=" + std::to_string(bt) +
                              ",c=" + std::to_string(c) +
                              ",oc=" + std::to_string(oc);
    const double mm = 2.0 * bt * c * oc;
    run("linear_forward" + suffix, shape, mm,
        [&](const k::KernelContext& ctx) {
          k::linear_forward(ctx, out.data(), inp.data(), w.data(), bias.data(),
                            bt, c, oc);
        });
    std::vector<float> dinp(inp.size()), dw(w.size()), db(oc);
    run("linear_backward" + suffix, shape, 2.0 * mm,
        [&](const k::KernelContext& ctx) {
          std::memset(dinp.data(), 0, dinp.size() * sizeof(float));
          std::memset(dw.data(), 0, dw.size() * sizeof(float));
          std::memset(db.data(), 0, db.size() * sizeof(float));
          k::linear_backward(ctx, dinp.data(), dw.data(), db.data(),
                             dout.data(), inp.data(), w.data(), bt, c, oc);
        });
  };
  add_linear("", 256, 192, 768);
  add_linear("_c80", 128, 80, 320);

  const auto add_attention = [&](const std::string& suffix, int b, int t,
                                 int c, int nh) {
    const int hs = c / nh;
    Rng r2(11);
    const auto qkv =
        gaussian(r2, static_cast<std::size_t>(b) * t * 3 * c, 0.5f);
    std::vector<float> slopes(nh);
    k::alibi_slopes(slopes.data(), nh);
    std::vector<float> out(static_cast<std::size_t>(b) * t * c);
    std::vector<float> pre(static_cast<std::size_t>(b) * nh * t * t),
        att(pre.size());
    const std::string shape = "b=" + std::to_string(b) +
                              ",t=" + std::to_string(t) +
                              ",c=" + std::to_string(c) +
                              ",nh=" + std::to_string(nh);
    // ~half the (t, t2) pairs survive the causal mask; q.k and att.v are
    // 2*hs flops each.
    const double flops = 0.5 * b * nh * t * t * 4.0 * hs;
    run("attention_forward" + suffix, shape, flops,
        [&](const k::KernelContext& ctx) {
          k::attention_forward(ctx, out.data(), pre.data(), att.data(),
                               qkv.data(), slopes.data(), b, t, c, nh);
        });
    const auto dout = gaussian(r2, out.size());
    std::vector<float> dqkv(qkv.size()), dpre(pre.size()), datt(att.size());
    run("attention_backward" + suffix, shape, 2.0 * flops,
        [&](const k::KernelContext& ctx) {
          std::memset(dqkv.data(), 0, dqkv.size() * sizeof(float));
          std::memset(dpre.data(), 0, dpre.size() * sizeof(float));
          std::memset(datt.data(), 0, datt.size() * sizeof(float));
          k::attention_backward(ctx, dqkv.data(), dpre.data(), datt.data(),
                                dout.data(), qkv.data(), att.data(), b, t, c,
                                nh);
        });
  };
  add_attention("", 8, 64, 192, 6);
  add_attention("_hs20", 2, 64, 80, 4);
  {  // layernorm forward / backward
    constexpr int kBt = 4096, kC = 256;
    Rng r2(13);
    const auto inp = gaussian(r2, static_cast<std::size_t>(kBt) * kC);
    const auto gamma = gaussian(r2, kC), beta = gaussian(r2, kC);
    const auto dout = gaussian(r2, inp.size());
    std::vector<float> out(inp.size()), mean(kBt), rstd(kBt);
    run("layernorm_forward", "bt=4096,c=256", 5.0 * kBt * kC,
        [&](const k::KernelContext& ctx) {
          k::layernorm_forward(ctx, out.data(), mean.data(), rstd.data(),
                               inp.data(), gamma.data(), beta.data(), kBt, kC);
        });
    std::vector<float> dinp(inp.size()), dg(kC), db(kC);
    run("layernorm_backward", "bt=4096,c=256", 9.0 * kBt * kC,
        [&](const k::KernelContext& ctx) {
          std::memset(dinp.data(), 0, dinp.size() * sizeof(float));
          std::memset(dg.data(), 0, dg.size() * sizeof(float));
          std::memset(db.data(), 0, db.size() * sizeof(float));
          k::layernorm_backward(ctx, dinp.data(), dg.data(), db.data(),
                                dout.data(), inp.data(), gamma.data(),
                                mean.data(), rstd.data(), kBt, kC);
        });
  }
  {  // fused softmax cross-entropy
    constexpr int kBt = 256, kV = 2048;
    Rng r2(17);
    const auto logits = gaussian(r2, static_cast<std::size_t>(kBt) * kV);
    std::vector<int> targets(kBt);
    for (int i = 0; i < kBt; ++i) targets[i] = i % kV;
    std::vector<float> losses(kBt), probs(logits.size());
    run("softmax_xent_forward", "bt=256,v=2048", 4.0 * kBt * kV,
        [&](const k::KernelContext& ctx) {
          k::softmax_xent_forward(ctx, losses.data(), probs.data(),
                                  logits.data(), targets.data(), kBt, kV);
        });
  }
  {  // elementwise + reductions
    const std::size_t n = 1 << 21;
    Rng r2(19);
    const auto a = gaussian(r2, n), b = gaussian(r2, n);
    std::vector<float> out(n);
    run("gelu_forward", "n=2097152", 8.0 * static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          k::gelu_forward(ctx, out.data(), a.data(), n);
        });
    run("residual_forward", "n=2097152", static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          k::residual_forward(ctx, out.data(), a.data(), b.data(), n);
        });
    run("axpy", "n=2097152", 2.0 * static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          k::axpy(ctx, out.data(), 0.5f, a.data(), n);
        });
    run("l2_norm", "n=2097152", 2.0 * static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          benchmark::DoNotOptimize(k::l2_norm(ctx, a.data(), n));
        });
  }
  {  // fused clip + AdamW step (the optimizer hot path)
    const std::size_t n = 1 << 21;
    Rng r2(23);
    const auto grads = gaussian(r2, n, 0.02f);
    auto params = gaussian(r2, n);
    AdamW opt(n);
    // ~2n for the global norm + ~14n for the moment/step arithmetic.
    run("adamw_step_clipped", "n=2097152", 16.0 * static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          opt.step_clipped(ctx, params, grads, 1e-4f, 1.0);
        });
  }
  return peak;
}

// ------------------------------------------------------ MFU before/after --

// Model-FLOPs utilization of a full train step (forward/backward + fused
// clip+AdamW), with FLOPs counted by the kernel-attribution counters rather
// than estimated, against the measured dense-matmul rate as the peak proxy.
// Run once with the SIMD dispatch pinned to scalar ("before" — the
// pre-SIMD arithmetic) and once with the best supported variant ("after").
void print_train_mfu(simd::Variant v, double peak_gflops) {
  const simd::Variant prev = simd::active_variant();
  const simd::Variant installed = simd::set_active_variant(v);
  obs::MetricsRegistry reg;
  k::set_kernel_metrics(&reg);

  const ModelConfig cfg = ModelConfig::micro();
  GptModel model(cfg, 1);
  const k::KernelContext& ctx = k::KernelContext::serial();
  model.set_kernel_context(&ctx);
  CorpusConfig cc;
  cc.vocab_size = cfg.vocab_size;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  CorpusStreamSource stream(corpus, 3);
  AdamW opt(model.num_params());
  const Batch b = stream.next_batch(4, cfg.seq_len);
  auto step = [&] {
    model.zero_grad();
    const float loss =
        model.train_step_fb(b.tokens, b.targets, 4, cfg.seq_len);
    benchmark::DoNotOptimize(loss);
    opt.step_clipped(ctx, model.params(), model.grads(), 1e-3f, 1.0);
  };
  auto counted = [&] {
    return static_cast<double>(
        reg.counter_value("kernels.flops.matmul") +
        reg.counter_value("kernels.flops.linear_fwd") +
        reg.counter_value("kernels.flops.linear_bwd"));
  };
  const double flops_before = counted();
  step();
  const double flops_per_step = counted() - flops_before;
  const double secs = bench::median_seconds_per_call({step})[0];
  k::set_kernel_metrics(nullptr);
  simd::set_active_variant(prev);

  const double gflops = flops_per_step / secs * 1e-9;
  std::printf("  mfu[%-7s] %8.3f ms/step  %6.2f GFLOP/s  mfu %.3f\n",
              simd::variant_name(installed), secs * 1e3, gflops,
              peak_gflops > 0 ? gflops / peak_gflops : 0.0);
}

// ----------------------------------------------- google-benchmark suites --

void BM_TrainStep(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  ModelConfig cfg = scale == 0   ? ModelConfig{2, 24, 2, 64, 24, 4}
                    : scale == 1 ? ModelConfig::nano()
                                 : ModelConfig::micro();
  GptModel model(cfg, 1);
  CorpusConfig cc;
  cc.vocab_size = cfg.vocab_size;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  CorpusStreamSource stream(corpus, 3);
  AdamW opt(model.num_params());
  const Batch b = stream.next_batch(4, cfg.seq_len);
  for (auto _ : state) {
    model.zero_grad();
    const float loss = model.train_step_fb(b.tokens, b.targets, 4, cfg.seq_len);
    benchmark::DoNotOptimize(loss);
    clip_grad_norm(kernels::default_context(), model.grads(), 1.0);
    opt.step(kernels::default_context(), model.params(), model.grads(), 1e-3f);
  }
  state.SetItemsProcessed(state.iterations() * 4 * cfg.seq_len);
  state.counters["params"] = static_cast<double>(cfg.num_params());
}
BENCHMARK(BM_TrainStep)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.0f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 2.0f);
  std::vector<float> out(static_cast<std::size_t>(n) * n);
  for (auto _ : state) {
    kernels::matmul(kernels::default_context(), out.data(), a.data(), b.data(),
                    n, n, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_Collective(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto topo = static_cast<Topology>(state.range(1));
  std::vector<std::vector<float>> bufs(
      static_cast<std::size_t>(k), std::vector<float>(1 << 16, 1.0f));
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& b : bufs) std::fill(b.begin(), b.end(), 1.0f);
    std::vector<std::span<float>> spans;
    for (auto& b : bufs) spans.emplace_back(b);
    state.ResumeTiming();
    collective_mean(topo, spans);
    benchmark::DoNotOptimize(bufs.front().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * k * (1 << 18));
}
BENCHMARK(BM_Collective)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({16, 2})
    ->Unit(benchmark::kMillisecond);

void BM_Codec(benchmark::State& state) {
  const char* names[] = {"rle0"};
  const Codec* codec = codec_by_name(names[state.range(0)]);
  Rng rng(5);
  std::vector<std::uint8_t> input(1 << 16);
  for (auto& b : input) {
    b = rng.next_bool(0.5) ? 0 : static_cast<std::uint8_t>(rng.next_below(256));
  }
  for (auto _ : state) {
    const auto compressed = codec->compress(input);
    benchmark::DoNotOptimize(compressed.data());
  }
  state.SetBytesProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_Codec)->Arg(0);

void BM_MessageRoundTrip(benchmark::State& state) {
  Message m;
  m.payload.assign(1 << 15, 0.25f);
  m.metadata["loss"] = 1.0;
  for (auto _ : state) {
    const auto wire = m.encode();
    const Message back = Message::decode(wire);
    benchmark::DoNotOptimize(back.payload.data());
  }
  state.SetBytesProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_MessageRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  std::vector<char*> gbench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gbench") == 0) {
      gbench = true;
    } else {
      gbench_args.push_back(argv[i]);
    }
  }

  std::printf("kernels at one thread\n");
  // Peak proxy: the best measured GFLOP/s across the kernel sweep with the
  // active (best) SIMD variant — not a theoretical number, so MFU compares
  // like with like on this host.
  const double peak_gflops = run_kernels();
  std::printf("train-step MFU (model=micro, peak ref %.2f GFLOP/s)\n",
              peak_gflops);
  print_train_mfu(simd::Variant::kScalar, peak_gflops);
  print_train_mfu(simd::active_variant(), peak_gflops);

  if (gbench) {
    int gargc = static_cast<int>(gbench_args.size());
    benchmark::Initialize(&gargc, gbench_args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
