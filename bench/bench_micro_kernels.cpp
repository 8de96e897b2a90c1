// Microbenchmarks for the compute and communication substrate.
//
// Default mode runs the kernel thread-scaling harness: every hot kernel is
// timed under a serial KernelContext and at 1/2/4/N threads, and the
// results — seconds per call, GFLOP/s, and speedup vs the serial baseline —
// are written as machine-readable JSON (BENCH_kernels.json) so later PRs
// have a perf trajectory to compare against.
//
//   bench_micro_kernels [--json=PATH] [--gbench [google-benchmark args...]]
//
// --json=PATH   where to write the JSON report (default: BENCH_kernels.json)
// --gbench      additionally run the google-benchmark suites (train step,
//               collectives, codecs, message framing)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
#include "util/threadpool.hpp"

namespace {

using namespace photon;
namespace k = kernels;

// ------------------------------------------------------- scaling harness --

struct ThreadResult {
  int threads = 1;
  double seconds_per_call = 0.0;
  double gflops = 0.0;
  double speedup_vs_serial = 1.0;
};

struct KernelReport {
  std::string name;
  std::string shape;
  double flops_per_call = 0.0;
  std::vector<ThreadResult> results;
};

/// Median-of-3 timing; each sample repeats the kernel until >= 20 ms.
double time_seconds_per_call(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up (faults pages, warms caches)
  std::vector<double> samples;
  for (int s = 0; s < 3; ++s) {
    int reps = 1;
    for (;;) {
      const auto t0 = clock::now();
      for (int r = 0; r < reps; ++r) fn();
      const double secs =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (secs >= 0.02 || reps >= (1 << 20)) {
        samples.push_back(secs / reps);
        break;
      }
      reps *= 2;
    }
  }
  std::sort(samples.begin(), samples.end());
  return samples[1];
}

std::vector<int> thread_counts() {
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> counts{1, 2, 4, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

KernelReport run_scaling(
    ThreadPool& pool, const std::string& name, const std::string& shape,
    double flops_per_call,
    const std::function<void(const k::KernelContext&)>& fn) {
  KernelReport report{name, shape, flops_per_call, {}};
  double serial_secs = 0.0;
  for (const int threads : thread_counts()) {
    const k::KernelContext ctx(&pool, threads);
    const double secs = time_seconds_per_call([&] { fn(ctx); });
    if (threads == 1) serial_secs = secs;
    ThreadResult r;
    r.threads = threads;
    r.seconds_per_call = secs;
    r.gflops = flops_per_call > 0 ? flops_per_call / secs * 1e-9 : 0.0;
    r.speedup_vs_serial = serial_secs > 0 ? serial_secs / secs : 1.0;
    report.results.push_back(r);
    std::printf("  %-22s %-28s t=%-2d %10.3f ms  %8.2f GFLOP/s  %5.2fx\n",
                name.c_str(), shape.c_str(), threads, secs * 1e3, r.gflops,
                r.speedup_vs_serial);
  }
  return report;
}

std::vector<float> gaussian(Rng& rng, std::size_t n, float stddev = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.gaussian(0.0f, stddev);
  return v;
}

std::vector<KernelReport> run_kernel_scaling(ThreadPool& pool) {
  Rng rng(42);
  std::vector<KernelReport> reports;

  {  // matmul
    constexpr int kM = 192, kK = 192, kN = 192;
    const auto a = gaussian(rng, static_cast<std::size_t>(kM) * kK);
    const auto b = gaussian(rng, static_cast<std::size_t>(kK) * kN);
    std::vector<float> out(static_cast<std::size_t>(kM) * kN);
    reports.push_back(run_scaling(
        pool, "matmul", "m=192,k=192,n=192", 2.0 * kM * kK * kN,
        [&](const k::KernelContext& ctx) {
          k::matmul(ctx, out.data(), a.data(), b.data(), kM, kK, kN);
        }));
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
    reports.push_back(run_scaling(
        pool, "linear_forward" + suffix, shape, mm,
        [&](const k::KernelContext& ctx) {
          k::linear_forward(ctx, out.data(), inp.data(), w.data(), bias.data(),
                            bt, c, oc);
        }));
    std::vector<float> dinp(inp.size()), dw(w.size()), db(oc);
    reports.push_back(run_scaling(
        pool, "linear_backward" + suffix, shape, 2.0 * mm,
        [&](const k::KernelContext& ctx) {
          std::memset(dinp.data(), 0, dinp.size() * sizeof(float));
          std::memset(dw.data(), 0, dw.size() * sizeof(float));
          std::memset(db.data(), 0, db.size() * sizeof(float));
          k::linear_backward(ctx, dinp.data(), dw.data(), db.data(),
                             dout.data(), inp.data(), w.data(), bt, c, oc);
        }));
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
    reports.push_back(run_scaling(
        pool, "attention_forward" + suffix, shape, flops,
        [&](const k::KernelContext& ctx) {
          k::attention_forward(ctx, out.data(), pre.data(), att.data(),
                               qkv.data(), slopes.data(), b, t, c, nh);
        }));
    const auto dout = gaussian(r2, out.size());
    std::vector<float> dqkv(qkv.size()), dpre(pre.size()), datt(att.size());
    reports.push_back(run_scaling(
        pool, "attention_backward" + suffix, shape, 2.0 * flops,
        [&](const k::KernelContext& ctx) {
          std::memset(dqkv.data(), 0, dqkv.size() * sizeof(float));
          std::memset(dpre.data(), 0, dpre.size() * sizeof(float));
          std::memset(datt.data(), 0, datt.size() * sizeof(float));
          k::attention_backward(ctx, dqkv.data(), dpre.data(), datt.data(),
                                dout.data(), qkv.data(), att.data(), b, t, c,
                                nh);
        }));
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
    reports.push_back(run_scaling(
        pool, "layernorm_forward", "bt=4096,c=256", 5.0 * kBt * kC,
        [&](const k::KernelContext& ctx) {
          k::layernorm_forward(ctx, out.data(), mean.data(), rstd.data(),
                               inp.data(), gamma.data(), beta.data(), kBt, kC);
        }));
    std::vector<float> dinp(inp.size()), dg(kC), db(kC);
    reports.push_back(run_scaling(
        pool, "layernorm_backward", "bt=4096,c=256", 9.0 * kBt * kC,
        [&](const k::KernelContext& ctx) {
          std::memset(dinp.data(), 0, dinp.size() * sizeof(float));
          std::memset(dg.data(), 0, dg.size() * sizeof(float));
          std::memset(db.data(), 0, db.size() * sizeof(float));
          k::layernorm_backward(ctx, dinp.data(), dg.data(), db.data(),
                                dout.data(), inp.data(), gamma.data(),
                                mean.data(), rstd.data(), kBt, kC);
        }));
  }
  {  // fused softmax cross-entropy
    constexpr int kBt = 256, kV = 2048;
    Rng r2(17);
    const auto logits = gaussian(r2, static_cast<std::size_t>(kBt) * kV);
    std::vector<int> targets(kBt);
    for (int i = 0; i < kBt; ++i) targets[i] = i % kV;
    std::vector<float> losses(kBt), probs(logits.size());
    reports.push_back(run_scaling(
        pool, "softmax_xent_forward", "bt=256,v=2048", 4.0 * kBt * kV,
        [&](const k::KernelContext& ctx) {
          k::softmax_xent_forward(ctx, losses.data(), probs.data(),
                                  logits.data(), targets.data(), kBt, kV);
        }));
  }
  {  // elementwise + reductions
    const std::size_t n = 1 << 21;
    Rng r2(19);
    const auto a = gaussian(r2, n), b = gaussian(r2, n);
    std::vector<float> out(n);
    reports.push_back(run_scaling(
        pool, "gelu_forward", "n=2097152", 8.0 * static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          k::gelu_forward(ctx, out.data(), a.data(), n);
        }));
    reports.push_back(run_scaling(
        pool, "residual_forward", "n=2097152", static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          k::residual_forward(ctx, out.data(), a.data(), b.data(), n);
        }));
    reports.push_back(run_scaling(
        pool, "axpy", "n=2097152", 2.0 * static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          k::axpy(ctx, out.data(), 0.5f, a.data(), n);
        }));
    reports.push_back(run_scaling(
        pool, "l2_norm", "n=2097152", 2.0 * static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          benchmark::DoNotOptimize(k::l2_norm(ctx, a.data(), n));
        }));
  }
  {  // fused clip + AdamW step (the optimizer hot path)
    const std::size_t n = 1 << 21;
    Rng r2(23);
    const auto grads = gaussian(r2, n, 0.02f);
    auto params = gaussian(r2, n);
    AdamW opt(n);
    // ~2n for the global norm + ~14n for the moment/step arithmetic.
    reports.push_back(run_scaling(
        pool, "adamw_step_clipped", "n=2097152", 16.0 * static_cast<double>(n),
        [&](const k::KernelContext& ctx) {
          opt.step_clipped(ctx, params, grads, 1e-4f, 1.0);
        }));
  }
  return reports;
}

// ------------------------------------------------------ MFU before/after --

// Model-FLOPs utilization of a full train step (forward/backward + fused
// clip+AdamW), with FLOPs counted by the kernel-attribution counters rather
// than estimated, against the measured dense-matmul rate as the peak proxy.
// Run once with the SIMD dispatch pinned to scalar ("before" — the
// pre-SIMD arithmetic) and once with the best supported variant ("after").
struct MfuPoint {
  std::string variant;
  double seconds_per_step = 0.0;
  double gflops = 0.0;
  double mfu = 0.0;
};

MfuPoint measure_train_mfu(ThreadPool& pool, simd::Variant v,
                           double peak_gflops, double* flops_per_step_out) {
  const simd::Variant prev = simd::active_variant();
  const simd::Variant installed = simd::set_active_variant(v);
  obs::MetricsRegistry reg;
  k::set_kernel_metrics(&reg);

  const ModelConfig cfg = ModelConfig::micro();
  GptModel model(cfg, 1);
  const k::KernelContext ctx(&pool, 1);
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
  const double secs = time_seconds_per_call(step);
  k::set_kernel_metrics(nullptr);
  simd::set_active_variant(prev);

  MfuPoint p;
  p.variant = simd::variant_name(installed);
  p.seconds_per_step = secs;
  p.gflops = flops_per_step / secs * 1e-9;
  p.mfu = peak_gflops > 0 ? p.gflops / peak_gflops : 0.0;
  if (flops_per_step_out != nullptr) *flops_per_step_out = flops_per_step;
  std::printf("  mfu[%-7s] %8.3f ms/step  %6.2f GFLOP/s  mfu %.3f\n",
              p.variant.c_str(), secs * 1e3, p.gflops, p.mfu);
  return p;
}

bool write_json(const std::string& path,
                const std::vector<KernelReport>& reports,
                const MfuPoint& mfu_before, const MfuPoint& mfu_after,
                double peak_gflops, double mfu_flops_per_step) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"photon.bench_kernels.v2\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"default_grain\": %zu,\n",
               k::KernelContext::kDefaultGrain);
  std::fprintf(f, "  \"simd_variant\": \"%s\",\n",
               simd::variant_name(simd::active_variant()));
  auto mfu_entry = [&](const char* key, const MfuPoint& p, const char* tail) {
    std::fprintf(f,
                 "    \"%s\": {\"variant\": \"%s\", "
                 "\"seconds_per_step\": %.9g, \"gflops\": %.4g, "
                 "\"mfu\": %.4g}%s\n",
                 key, p.variant.c_str(), p.seconds_per_step, p.gflops, p.mfu,
                 tail);
  };
  std::fprintf(f,
               "  \"mfu\": {\n    \"model\": \"micro\", \"batch\": 4, "
               "\"counted_flops_per_step\": %.0f, "
               "\"peak_gflops_ref\": %.4g,\n",
               mfu_flops_per_step, peak_gflops);
  mfu_entry("before", mfu_before, ",");
  mfu_entry("after", mfu_after, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& kr = reports[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", "
                 "\"flops_per_call\": %.0f, \"results\": [\n",
                 kr.name.c_str(), kr.shape.c_str(), kr.flops_per_call);
    for (std::size_t j = 0; j < kr.results.size(); ++j) {
      const auto& r = kr.results[j];
      std::fprintf(f,
                   "      {\"threads\": %d, \"seconds_per_call\": %.9g, "
                   "\"gflops\": %.4g, \"speedup_vs_serial\": %.4g}%s\n",
                   r.threads, r.seconds_per_call, r.gflops,
                   r.speedup_vs_serial, j + 1 < kr.results.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
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
    clip_grad_norm(model.grads(), 1.0);
    opt.step(model.params(), model.grads(), 1e-3f);
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
    kernels::matmul(out.data(), a.data(), b.data(), n, n, n);
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
    const auto report = collective_mean(topo, spans, 1250.0);
    benchmark::DoNotOptimize(report.total_bytes);
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
  std::string json_path = "BENCH_kernels.json";
  bool gbench = false;
  std::vector<char*> gbench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--gbench") == 0) {
      gbench = true;
    } else {
      gbench_args.push_back(argv[i]);
    }
  }

  std::printf("kernel thread-scaling (hardware_concurrency=%u)\n",
              std::thread::hardware_concurrency());
  const auto counts = thread_counts();
  ThreadPool pool(static_cast<std::size_t>(counts.back()));
  const auto reports = run_kernel_scaling(pool);

  // Peak proxy: the best measured serial GFLOP/s across the kernel sweep
  // with the active (best) SIMD variant — not a theoretical number, so MFU
  // compares like with like on this host.
  double peak_gflops = 0.0;
  for (const auto& kr : reports) {
    if (!kr.results.empty()) {
      peak_gflops = std::max(peak_gflops, kr.results.front().gflops);
    }
  }
  std::printf("train-step MFU (model=micro, peak ref %.2f GFLOP/s)\n",
              peak_gflops);
  double mfu_flops = 0.0;
  const MfuPoint mfu_before =
      measure_train_mfu(pool, simd::Variant::kScalar, peak_gflops, &mfu_flops);
  const MfuPoint mfu_after =
      measure_train_mfu(pool, simd::active_variant(), peak_gflops, nullptr);

  if (!write_json(json_path, reports, mfu_before, mfu_after, peak_gflops,
                  mfu_flops)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (gbench) {
    int gargc = static_cast<int>(gbench_args.size());
    benchmark::Initialize(&gargc, gbench_args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
