// Standalone ThreadSanitizer stress for the threaded kernel layer.  Built
// with -fsanitize=thread (no gtest: the sanitizer only instruments what it
// compiles) and run as a tier-1 ctest test.  Exercises the racy-by-design
// surfaces: nested parallel_for, chunked parallel_for, and every parallel
// kernel — including the per-shard partial-accumulator reductions — and
// cross-checks results against the serial context.
//
// Exit code 0 = clean; TSan itself aborts with a report on any data race.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "comm/collective.hpp"
#include "comm/link.hpp"
#include "comm/message.hpp"
#include "comm/secure_agg.hpp"
#include "core/aggregator.hpp"
#include "core/client.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/optimizer.hpp"
#include "sim/faults.hpp"
#include "tensor/kernel_context.hpp"
#include "tensor/kernels.hpp"
#include "util/threadpool.hpp"

namespace {

using photon::ThreadPool;
namespace k = photon::kernels;

std::uint64_t g_lcg = 0x9E3779B97F4A7C15ull;
float frand() {
  g_lcg = g_lcg * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<float>((g_lcg >> 40) & 0xFFFF) / 65536.0f - 0.5f;
}

std::vector<float> randvec(std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = frand();
  return v;
}

bool close(const std::vector<float>& a, const std::vector<float>& b,
           double tol, const char* what) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom = std::max(1.0, std::fabs(static_cast<double>(b[i])));
    if (std::fabs(static_cast<double>(a[i]) - b[i]) / denom > tol) {
      std::fprintf(stderr, "FAIL %s[%zu]: %g vs %g\n", what, i,
                   static_cast<double>(a[i]), static_cast<double>(b[i]));
      return false;
    }
  }
  return true;
}

bool nested_parallel_for(ThreadPool& pool) {
  std::atomic<int> count{0};
  for (int rep = 0; rep < 20; ++rep) {
    pool.parallel_for(8, [&](std::size_t) {
      // Nested call from a worker thread: must run inline, not deadlock.
      pool.parallel_for(16, [&](std::size_t) { count.fetch_add(1); });
    });
  }
  if (count.load() != 20 * 8 * 16) {
    std::fprintf(stderr, "FAIL nested parallel_for count %d\n", count.load());
    return false;
  }
  std::atomic<int> covered{0};
  pool.parallel_for(1000, 64, [&](std::size_t b, std::size_t e) {
    covered.fetch_add(static_cast<int>(e - b));
  });
  if (covered.load() != 1000) {
    std::fprintf(stderr, "FAIL chunked parallel_for coverage\n");
    return false;
  }
  return true;
}

bool kernels_race_free(ThreadPool& pool) {
  const k::KernelContext par(&pool, 4, /*grain=*/1);
  const k::KernelContext& ser = k::KernelContext::serial();
  constexpr int kBt = 37, kC = 24, kOc = 40;  // odd sizes, bt % shards != 0

  const auto inp = randvec(kBt * kC), w = randvec(kOc * kC), bias = randvec(kOc);
  const auto dout = randvec(kBt * kOc);

  std::vector<float> out_p(kBt * kOc), out_s(kBt * kOc);
  k::linear_forward(par, out_p.data(), inp.data(), w.data(), bias.data(), kBt,
                    kC, kOc);
  k::linear_forward(ser, out_s.data(), inp.data(), w.data(), bias.data(), kBt,
                    kC, kOc);
  if (!close(out_p, out_s, 1e-6, "linear_forward")) return false;

  std::vector<float> dinp_p(kBt * kC, 0.f), dw_p(kOc * kC, 0.f), db_p(kOc, 0.f);
  std::vector<float> dinp_s(kBt * kC, 0.f), dw_s(kOc * kC, 0.f), db_s(kOc, 0.f);
  k::linear_backward(par, dinp_p.data(), dw_p.data(), db_p.data(), dout.data(),
                     inp.data(), w.data(), kBt, kC, kOc);
  k::linear_backward(ser, dinp_s.data(), dw_s.data(), db_s.data(), dout.data(),
                     inp.data(), w.data(), kBt, kC, kOc);
  if (!close(dinp_p, dinp_s, 1e-6, "linear_backward dinp")) return false;
  if (!close(dw_p, dw_s, 1e-5, "linear_backward dweight")) return false;
  if (!close(db_p, db_s, 1e-5, "linear_backward dbias")) return false;

  std::vector<float> ln_p(kBt * kC), ln_s(kBt * kC), mean(kBt), rstd(kBt);
  const auto gamma = randvec(kC), beta = randvec(kC), dln = randvec(kBt * kC);
  k::layernorm_forward(par, ln_p.data(), mean.data(), rstd.data(), inp.data(),
                       gamma.data(), beta.data(), kBt, kC);
  k::layernorm_forward(ser, ln_s.data(), mean.data(), rstd.data(), inp.data(),
                       gamma.data(), beta.data(), kBt, kC);
  if (!close(ln_p, ln_s, 1e-6, "layernorm_forward")) return false;
  std::vector<float> dx_p(kBt * kC, 0.f), dg_p(kC, 0.f), dbt_p(kC, 0.f);
  std::vector<float> dx_s(kBt * kC, 0.f), dg_s(kC, 0.f), dbt_s(kC, 0.f);
  k::layernorm_backward(par, dx_p.data(), dg_p.data(), dbt_p.data(), dln.data(),
                        inp.data(), gamma.data(), mean.data(), rstd.data(),
                        kBt, kC);
  k::layernorm_backward(ser, dx_s.data(), dg_s.data(), dbt_s.data(), dln.data(),
                        inp.data(), gamma.data(), mean.data(), rstd.data(),
                        kBt, kC);
  if (!close(dx_p, dx_s, 1e-6, "layernorm_backward dinp")) return false;
  if (!close(dg_p, dg_s, 1e-5, "layernorm_backward dgamma")) return false;
  if (!close(dbt_p, dbt_s, 1e-5, "layernorm_backward dbeta")) return false;

  constexpr int kM = 19, kK = 23, kN = 17;
  const auto ma = randvec(kM * kK), mb = randvec(kK * kN);
  std::vector<float> mo_p(kM * kN), mo_s(kM * kN);
  k::matmul(par, mo_p.data(), ma.data(), mb.data(), kM, kK, kN);
  k::matmul(ser, mo_s.data(), ma.data(), mb.data(), kM, kK, kN);
  if (!close(mo_p, mo_s, 1e-6, "matmul")) return false;

  constexpr int kB = 3, kT = 9, kAc = 16, kNh = 4;
  const auto qkv = randvec(kB * kT * 3 * kAc);
  std::vector<float> slopes(kNh);
  k::alibi_slopes(slopes.data(), kNh);
  std::vector<float> ao_p(kB * kT * kAc), ao_s(kB * kT * kAc);
  std::vector<float> pre(kB * kNh * kT * kT), att(kB * kNh * kT * kT);
  k::attention_forward(par, ao_p.data(), pre.data(), att.data(), qkv.data(),
                       slopes.data(), kB, kT, kAc, kNh);
  k::attention_forward(ser, ao_s.data(), pre.data(), att.data(), qkv.data(),
                       slopes.data(), kB, kT, kAc, kNh);
  if (!close(ao_p, ao_s, 1e-6, "attention_forward")) return false;
  const auto datty = randvec(kB * kT * kAc);
  std::vector<float> dqkv_p(qkv.size(), 0.f), dqkv_s(qkv.size(), 0.f);
  std::vector<float> dpre(pre.size(), 0.f), datt(att.size(), 0.f);
  k::attention_backward(par, dqkv_p.data(), dpre.data(), datt.data(),
                        datty.data(), qkv.data(), att.data(), kB, kT, kAc,
                        kNh);
  std::fill(dpre.begin(), dpre.end(), 0.f);
  std::fill(datt.begin(), datt.end(), 0.f);
  k::attention_backward(ser, dqkv_s.data(), dpre.data(), datt.data(),
                        datty.data(), qkv.data(), att.data(), kB, kT, kAc,
                        kNh);
  if (!close(dqkv_p, dqkv_s, 1e-6, "attention_backward")) return false;

  const auto big = randvec(10007);
  const double n_p = k::l2_norm(par, big.data(), big.size());
  const double n_s = k::l2_norm(ser, big.data(), big.size());
  if (std::fabs(n_p - n_s) / std::max(1.0, n_s) > 1e-9) {
    std::fprintf(stderr, "FAIL l2_norm %g vs %g\n", n_p, n_s);
    return false;
  }
  return true;
}

// Chunked message encode/decode on the pool must be race-free and produce
// the same bytes as the serial path; concurrent SimLink transmits (the
// parallel client fan-out) must each round-trip exactly.
bool comm_race_free(ThreadPool& pool) {
  photon::set_wire_chunk_bytes(1024);  // many chunks -> many pool tasks
  const auto payload = randvec(20000);

  photon::Message m;
  m.codec = "rle0";
  m.payload = payload;
  photon::WireScratch ser_scratch, par_scratch;
  const auto ser = m.encode_into(ser_scratch, nullptr);
  const auto par = m.encode_into(par_scratch, &pool);
  if (ser.size() != par.size() ||
      std::memcmp(ser.data(), par.data(), ser.size()) != 0) {
    std::fprintf(stderr, "FAIL parallel encode bytes differ\n");
    return false;
  }
  photon::Message out;
  photon::Message::decode_into(par, out, &pool);
  if (out.payload != payload) {
    std::fprintf(stderr, "FAIL parallel decode payload\n");
    return false;
  }

  // Concurrent transmits across distinct links, like the client fan-out.
  std::vector<photon::SimLink> links;
  for (int i = 0; i < 4; ++i) links.emplace_back("l" + std::to_string(i), 10.0);
  std::vector<photon::Message> rx(links.size());
  std::atomic<bool> ok{true};
  photon::Message broadcast;
  broadcast.codec = "";
  broadcast.payload_view = payload;  // one shared buffer, all links
  for (int rep = 0; rep < 5; ++rep) {
    pool.parallel_for(links.size(), [&](std::size_t i) {
      links[i].transmit(broadcast, rx[i]);
      if (rx[i].payload != payload) ok.store(false);
    });
  }
  if (!ok.load()) {
    std::fprintf(stderr, "FAIL concurrent transmit round-trip\n");
    return false;
  }
  return true;
}

// Parallel collectives must match the serial context
// bit-for-bit while TSan watches the sharded element ranges.
bool collectives_race_free(ThreadPool& pool) {
  const k::KernelContext par(&pool, 4, /*grain=*/1);
  const k::KernelContext ser;
  for (const int workers : {3, 4}) {
    const std::size_t n = 4099;
    std::vector<std::vector<float>> base(workers);
    for (auto& b : base) b = randvec(n);
    for (const auto topo :
         {photon::Topology::kParameterServer, photon::Topology::kAllReduce,
          photon::Topology::kRingAllReduce}) {
      auto s = base;
      auto p = base;
      auto spans = [](std::vector<std::vector<float>>& v) {
        std::vector<std::span<float>> out;
        for (auto& b : v) out.emplace_back(b);
        return out;
      };
      photon::collective_mean(topo, spans(s), ser);
      photon::collective_mean(topo, spans(p), par);
      for (int w = 0; w < workers; ++w) {
        if (std::memcmp(s[w].data(), p[w].data(), n * sizeof(float)) != 0) {
          std::fprintf(stderr, "FAIL collective topo=%d w=%d\n",
                       static_cast<int>(topo), w);
          return false;
        }
      }
    }
  }
  return true;
}

// Fused hot-path kernels added with the SIMD layer: bias+GELU and the
// clip+AdamW step shard elementwise over the pool and must match the serial
// context bit-for-bit (the clip's global norm is a sharded reduction).
bool fused_paths_race_free(ThreadPool& pool) {
  const k::KernelContext par(&pool, 4, /*grain=*/1);
  const k::KernelContext ser;

  constexpr int kBt = 37, kOc = 48;
  const auto x = randvec(kBt * kOc), bias = randvec(kOc);
  const auto dout = randvec(kBt * kOc);
  std::vector<float> y_p(kBt * kOc), y_s(kBt * kOc);
  photon::kernels::bias_gelu_forward(par, y_p.data(), x.data(), bias.data(),
                                     kBt, kOc);
  photon::kernels::bias_gelu_forward(ser, y_s.data(), x.data(), bias.data(),
                                     kBt, kOc);
  if (std::memcmp(y_p.data(), y_s.data(), y_p.size() * sizeof(float)) != 0) {
    std::fprintf(stderr, "FAIL bias_gelu_forward\n");
    return false;
  }
  std::vector<float> dx_p(kBt * kOc, 0.f), dx_s(kBt * kOc, 0.f);
  photon::kernels::bias_gelu_backward(par, dx_p.data(), x.data(), bias.data(),
                                      dout.data(), kBt, kOc);
  photon::kernels::bias_gelu_backward(ser, dx_s.data(), x.data(), bias.data(),
                                      dout.data(), kBt, kOc);
  if (std::memcmp(dx_p.data(), dx_s.data(), dx_p.size() * sizeof(float)) != 0) {
    std::fprintf(stderr, "FAIL bias_gelu_backward\n");
    return false;
  }

  const std::size_t n = 12289;
  const auto grads = randvec(n);
  auto p_par = randvec(n);
  auto p_ser = p_par;
  photon::AdamW opt_par(n), opt_ser(n);
  for (int step = 0; step < 3; ++step) {
    const double np = opt_par.step_clipped(par, p_par, grads, 1e-3f, 0.25);
    const double ns = opt_ser.step_clipped(ser, p_ser, grads, 1e-3f, 0.25);
    if (np != ns) {
      std::fprintf(stderr, "FAIL step_clipped norm %g vs %g\n", np, ns);
      return false;
    }
  }
  if (std::memcmp(p_par.data(), p_ser.data(), n * sizeof(float)) != 0) {
    std::fprintf(stderr, "FAIL step_clipped params\n");
    return false;
  }
  return true;
}

// Elastic async federation under churn (DESIGN.md §12): the full engine —
// parallel dispatch waves, streamed dequant-accumulate, admission deferral,
// crash/straggle/drop faults, and join/leave churn — runs with TSan
// watching every frame, and the pool-parallel drains must stay bit-exact
// against a serial twin.  With `secure` set, the same churn scenario runs
// through the pairwise-masked SecAgg wave path (DESIGN.md §14): mask PRG,
// Shamir share reconstruction for crashed members, and the fixed-point
// decode all execute under the pool with TSan watching.
bool async_churn_race_free(bool secure) {
  photon::ModelConfig model;
  model.n_layers = 1;
  model.d_model = 16;
  model.n_heads = 2;
  model.vocab_size = 64;
  model.seq_len = 16;
  model.expansion_ratio = 2;

  auto build = [&](bool parallel) {
    photon::CorpusConfig cc;
    cc.vocab_size = 64;
    auto corpus =
        std::make_shared<photon::MarkovSource>(cc, photon::c4_style());
    std::vector<std::unique_ptr<photon::LLMClient>> clients;
    for (int i = 0; i < 8; ++i) {
      photon::ClientTrainConfig ctc;
      ctc.model = model;
      ctc.local_batch = 1;
      ctc.schedule.max_lr = 5e-3f;
      ctc.schedule.warmup_steps = 2;
      ctc.schedule.total_steps = 1000;
      clients.push_back(std::make_unique<photon::LLMClient>(
          i, ctc,
          std::make_unique<photon::CorpusStreamSource>(corpus, 100 + i), 7));
    }
    photon::AggregatorConfig ac;
    ac.local_steps = 1;
    ac.parallel_clients = parallel;
    ac.async.enabled = true;
    ac.async.buffer_goal = 3;
    ac.async.max_in_flight = 5;
    ac.secure_aggregation = secure;
    ac.seed = 33;
    return std::make_unique<photon::Aggregator>(
        model, ac, photon::make_server_opt("fedavg", 0.5f, 0.9f),
        std::move(clients), 55);
  };

  photon::FaultPlan plan;
  plan.crash_prob = 0.1;
  plan.straggle_prob = 0.3;
  plan.link_drop_prob = 0.05;
  plan.corrupt_prob = 0.05;
  plan.membership.initial_population = 6;
  plan.membership.arrive_prob = 0.3;
  plan.membership.leave_prob = 0.05;
  photon::FaultInjector injector(plan);

  auto serial = build(false);
  auto parallel = build(true);
  injector.install(*serial);
  injector.install(*parallel);
  for (int r = 0; r < 3; ++r) {
    const photon::RoundRecord rs = serial->run_round();
    const photon::RoundRecord rp = parallel->run_round();
    if (rs.participants != rp.participants ||
        std::memcmp(serial->global_params().data(),
                    parallel->global_params().data(),
                    serial->global_params().size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "FAIL async churn twin divergence at drain %d%s\n",
                   r, secure ? " (secagg)" : "");
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int churn_reps = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--churn-reps=", 13) == 0) {
      churn_reps = std::atoi(argv[i] + 13);
    }
  }
  ThreadPool pool(4);
  bool ok = true;
  ok = nested_parallel_for(pool) && ok;
  for (int rep = 0; rep < 5; ++rep) ok = kernels_race_free(pool) && ok;
  for (int rep = 0; rep < 5; ++rep) ok = comm_race_free(pool) && ok;
  for (int rep = 0; rep < 5; ++rep) ok = collectives_race_free(pool) && ok;
  for (int rep = 0; rep < 5; ++rep) ok = fused_paths_race_free(pool) && ok;
  for (int rep = 0; rep < churn_reps; ++rep) {
    ok = async_churn_race_free(/*secure=*/false) && ok;
    ok = async_churn_race_free(/*secure=*/true) && ok;
  }
  if (!ok) return 1;
  std::printf("tsan stress ok\n");
  return 0;
}
