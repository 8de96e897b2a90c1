#include "tensor/kernel_context.hpp"

#include <algorithm>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

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
  if (ThreadPool::on_worker_thread()) return 1;
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
  const int shards = shard_count(n, min_grain);
  if (shards <= 1) {
    fn(0, 0, n);
    return;
  }
  const std::size_t base = n / static_cast<std::size_t>(shards);
  const std::size_t rem = n % static_cast<std::size_t>(shards);
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(shards) - 1);
  std::size_t begin = 0;
  for (int s = 0; s < shards; ++s) {
    const std::size_t end =
        begin + base + (static_cast<std::size_t>(s) < rem ? 1 : 0);
    if (s + 1 == shards) {
      fn(s, begin, end);  // caller thread works the last shard
    } else {
      futures.push_back(
          pool_->submit([&fn, s, begin, end] { fn(s, begin, end); }));
    }
    begin = end;
  }
  for (auto& f : futures) f.get();
}

KernelContext& default_context() {
  static KernelContext ctx = [] {
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

void set_default_grain(std::size_t grain) {
  const int threads = default_context().threads();
  default_context() = KernelContext(threads > 1 ? &global_pool() : nullptr,
                                    threads, grain);
}

}  // namespace photon::kernels
