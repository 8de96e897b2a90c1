#include "comm/collective.hpp"

#include <cstring>
#include <stdexcept>

namespace photon {
namespace {

void validate(const std::vector<std::span<float>>& buffers) {
  if (buffers.empty()) throw std::invalid_argument("collective: no buffers");
  const std::size_t n = buffers.front().size();
  if (n == 0) throw std::invalid_argument("collective: empty buffers");
  for (const auto& b : buffers) {
    if (b.size() != n) {
      throw std::invalid_argument("collective: buffer size mismatch");
    }
  }
}

// Element-wise mean written back to every buffer, fused into a single pass
// (no O(n) double accumulator buffer).  Per element: accumulate the buffers
// in index order into a double, then write float(acc / k) to all of them —
// the exact arithmetic of the old two-pass implementation, and independent
// per element, so sharding over `ctx` cannot change a single bit.
void mean_into_all(std::vector<std::span<float>>& buffers,
                   const kernels::KernelContext& ctx) {
  const std::size_t k = buffers.size();
  const std::size_t n = buffers.front().size();
  const double inv = 1.0 / static_cast<double>(k);
  std::vector<float*> rows(k);
  for (std::size_t r = 0; r < k; ++r) rows[r] = buffers[r].data();
  const auto& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain_rows(2 * k),
                      [&](int, std::size_t begin, std::size_t end) {
                        std::vector<float*> shifted(k);
                        for (std::size_t r = 0; r < k; ++r) {
                          shifted[r] = rows[r] + begin;
                        }
                        ops.mean_rows_pd(shifted.data(), k, end - begin, inv);
                      });
}

// Ring-AllReduce: reduce-scatter then all-gather with K chunks, the actual
// chunked dataflow, accumulating in float in ring order.
void ring_mean(std::vector<std::span<float>>& buffers,
               const kernels::KernelContext& ctx) {
  const int k = static_cast<int>(buffers.size());
  const std::size_t n = buffers.front().size();
  if (k == 1) return;  // the mean of one buffer is itself

  // Chunk boundaries: chunk c covers [starts[c], starts[c+1]).
  std::vector<std::size_t> starts(static_cast<std::size_t>(k) + 1);
  for (int c = 0; c <= k; ++c) {
    starts[static_cast<std::size_t>(c)] =
        n * static_cast<std::size_t>(c) / static_cast<std::size_t>(k);
  }
  auto chunk = [&](int worker, int c) {
    const int cc = ((c % k) + k) % k;
    return buffers[static_cast<std::size_t>(worker)].subspan(
        starts[static_cast<std::size_t>(cc)],
        starts[static_cast<std::size_t>(cc) + 1] -
            starts[static_cast<std::size_t>(cc)]);
  };
  // Per-worker transfers within a step touch disjoint memory, so they can
  // run in any order — or concurrently — without staging buffers: in
  // reduce-scatter step s, worker x is read at chunk (x - s) and written at
  // chunk (x - 1 - s); in all-gather step s it is read at chunk (x + 1 - s)
  // and written at chunk (x - s).  Both pairs are distinct mod k for k >= 2,
  // so the unstaged result is bit-identical to simultaneous-send semantics.
  const std::size_t worker_grain =
      ctx.grain_rows(std::max<std::size_t>(1, n / static_cast<std::size_t>(k)));

  // Reduce-scatter: in step s, worker w sends chunk (w - s) to worker w+1,
  // which accumulates it.  After k-1 steps worker w owns the full sum of
  // chunk (w + 1).
  for (int s = 0; s < k - 1; ++s) {
    ctx.parallel_shards(
        static_cast<std::size_t>(k), worker_grain,
        [&](int, std::size_t wb, std::size_t we) {
          for (std::size_t wi = wb; wi < we; ++wi) {
            const int w = static_cast<int>(wi);
            const int dst = (w + 1) % k;
            const auto src = chunk(w, w - s);
            auto dst_chunk = chunk(dst, w - s);
            ctx.simd().acc(dst_chunk.data(), src.data(), dst_chunk.size());
          }
        });
  }

  // All-gather: worker w owns the fully reduced chunk (w + 1); circulate.
  for (int s = 0; s < k - 1; ++s) {
    ctx.parallel_shards(
        static_cast<std::size_t>(k), worker_grain,
        [&](int, std::size_t wb, std::size_t we) {
          for (std::size_t wi = wb; wi < we; ++wi) {
            const int w = static_cast<int>(wi);
            const int dst = (w + 1) % k;
            const auto src = chunk(w, w + 1 - s);
            auto dst_chunk = chunk(dst, w + 1 - s);
            if (!src.empty()) {
              std::memcpy(dst_chunk.data(), src.data(),
                          src.size() * sizeof(float));
            }
          }
        });
  }

  // Mean (element-wise, so sharding is exact).
  const float inv = 1.0f / static_cast<float>(k);
  ctx.parallel_shards(n, ctx.grain_rows(static_cast<std::size_t>(k)),
                      [&](int, std::size_t begin, std::size_t end) {
                        for (auto& b : buffers) {
                          ctx.simd().scale(b.data() + begin, end - begin, inv);
                        }
                      });
}

}  // namespace

CollectiveReport collective_cost(Topology topology, int workers,
                                 std::uint64_t bytes, double bandwidth_mbps) {
  const TrafficRatio ratio = traffic_ratio(topology, workers);
  CollectiveReport r;
  r.bottleneck_bytes = bytes * ratio.num / ratio.den;
  // The fabric carries the bottleneck twice for PS (K updates in, K means
  // out) and once per worker for AR and RAR.
  const std::uint64_t copies = topology == Topology::kParameterServer
                                   ? 2
                                   : static_cast<std::uint64_t>(workers);
  r.total_bytes = copies * r.bottleneck_bytes;
  r.seconds = static_cast<double>(r.bottleneck_bytes) /
              (bandwidth_mbps * 1024.0 * 1024.0);
  return r;
}

void collective_mean(Topology topology, std::vector<std::span<float>> buffers,
                     const kernels::KernelContext& ctx) {
  validate(buffers);
  switch (topology) {
    case Topology::kParameterServer:
    case Topology::kAllReduce:
      // The server's accumulate-and-broadcast and every worker's local
      // reduction of all K buffers compute the same per-element mean.
      mean_into_all(buffers, ctx);
      return;
    case Topology::kRingAllReduce:
      ring_mean(buffers, ctx);
      return;
  }
  throw std::invalid_argument("collective_mean: bad topology");
}

}  // namespace photon
