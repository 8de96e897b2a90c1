#include "tensor/kernel_context.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "util/threadpool.hpp"

namespace photon::kernels {

KernelContext::KernelContext(ThreadPool* pool, int threads, std::size_t grain)
    : pool_(threads > 1 ? pool : nullptr),
      threads_(std::max(1, threads)),
      grain_(std::max<std::size_t>(1, grain)) {}

const KernelContext& KernelContext::serial() {
  static const KernelContext ctx;
  return ctx;
}

int KernelContext::effective_threads() const {
  if (pool_ == nullptr || threads_ <= 1) return 1;
  if (ThreadPool::in_parallel_section()) return 1;
  return threads_;
}

std::size_t KernelContext::grain_rows(std::size_t row_cost) const {
  return std::max<std::size_t>(1, grain_ / std::max<std::size_t>(1, row_cost));
}

int KernelContext::shard_count(std::size_t n, std::size_t min_grain) const {
  if (n == 0) return 1;
  min_grain = std::max<std::size_t>(1, min_grain);
  const std::size_t by_grain = (n + min_grain - 1) / min_grain;
  const std::size_t cap = static_cast<std::size_t>(effective_threads());
  return static_cast<int>(std::min(cap, by_grain));
}

void KernelContext::parallel_shards(std::size_t n, std::size_t min_grain,
                                    const ShardFn& fn) const {
  if (n == 0) return;
  const auto shards = static_cast<std::size_t>(shard_count(n, min_grain));
  if (shards <= 1) {
    fn(0, n);
    return;
  }
  // One parallel_for index per shard keeps the boundaries a function of
  // (n, shards) alone, even on a pool smaller than the context's threads.
  const std::size_t base = n / shards;
  const std::size_t rem = n % shards;
  pool_->parallel_for(shards, [&](std::size_t s) {
    const std::size_t begin = s * base + std::min(s, rem);
    fn(begin, begin + base + (s < rem ? 1 : 0));
  });
}

const KernelContext& default_context() {
  static const KernelContext ctx = [] {
    int threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    if (const char* env = std::getenv("PHOTON_NUM_THREADS")) {
      threads = std::max(1, std::atoi(env));
    }
    std::size_t grain = KernelContext::kDefaultGrain;
    if (const char* env = std::getenv("PHOTON_KERNEL_GRAIN")) {
      const long g = std::atol(env);
      if (g > 0) grain = static_cast<std::size_t>(g);
    }
    return KernelContext(threads > 1 ? &global_pool() : nullptr, threads,
                         grain);
  }();
  return ctx;
}

}  // namespace photon::kernels
