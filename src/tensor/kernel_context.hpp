#pragma once
// Intra-op parallelism context for the tensor kernels.
//
// A KernelContext bundles a ThreadPool handle with a thread count and a
// grain size (minimum scalar work per shard).  Kernels shard their row/pair
// loops over it via parallel_shards().  Key properties:
//
//   * Deterministic sharding: shard boundaries depend only on
//     (n, grain, threads) — never on runtime scheduling — so every kernel
//     is bit-identical run-to-run at a fixed thread count.
//   * Serial fallback: threads == 1, a null pool, or n too small for the
//     grain all collapse to plain inline execution with zero overhead.
//   * Nesting safety: inside a parallel section (a pool worker, or the
//     caller on its own chunk of a federated round's client fan-out),
//     effective_threads() is 1 and the kernel runs serial on that thread
//     instead of deadlocking on the shared queue or oversubscribing.
//
// The library default context is configured from the environment:
//   PHOTON_NUM_THREADS   intra-op threads (default: hardware concurrency)
//   PHOTON_KERNEL_GRAIN  min scalar ops per shard (default: 32768)

#include <cstddef>
#include <functional>

#include "tensor/simd.hpp"

namespace photon {
class ThreadPool;
}

namespace photon::kernels {

class KernelContext {
 public:
  /// Minimum scalar operations a shard must amortize before forking pays.
  static constexpr std::size_t kDefaultGrain = 32768;

  /// Serial context: every kernel runs inline on the caller.
  KernelContext() = default;

  KernelContext(ThreadPool* pool, int threads,
                std::size_t grain = kDefaultGrain);

  /// Shared immutable serial context.
  static const KernelContext& serial();

  int threads() const { return threads_; }
  std::size_t grain() const { return grain_; }

  /// SIMD op table the kernels dispatch through: the process-wide active
  /// variant (CPUID + PHOTON_SIMD, see simd.hpp) unless a specific table was
  /// pinned with set_simd().  All variants are bit-identical, so pinning
  /// only matters for benchmarks and cross-variant tests.
  const simd::Ops& simd() const {
    return simd_ != nullptr ? *simd_ : simd::ops();
  }
  void set_simd(const simd::Ops* ops) { simd_ = ops; }

  /// Threads usable *right now*: 1 when serial, when no pool is attached,
  /// or inside a parallel section (ThreadPool::in_parallel_section).
  int effective_threads() const;

  /// Minimum rows per shard for rows costing ~`row_cost` scalar ops each.
  std::size_t grain_rows(std::size_t row_cost) const;

  /// Number of shards [0, n) splits into given `min_grain` items per shard.
  /// Depends only on (n, min_grain, effective threads) — deterministic.
  int shard_count(std::size_t n, std::size_t min_grain) const;

  using ShardFn = std::function<void(std::size_t begin, std::size_t end)>;

  /// Partition [0, n) into shard_count(n, min_grain) contiguous shards and
  /// run fn(begin, end) for each through ThreadPool::parallel_for, so the
  /// caller works the last shard and a throwing shard is rethrown only
  /// after every other shard has finished.  Runs fn(0, n) inline when only
  /// one shard results.
  void parallel_shards(std::size_t n, std::size_t min_grain,
                       const ShardFn& fn) const;

 private:
  ThreadPool* pool_ = nullptr;
  int threads_ = 1;
  std::size_t grain_ = kDefaultGrain;
  const simd::Ops* simd_ = nullptr;
};

/// Mutable library-default context (env-configured on first use): the one
/// callers pass to kernels and optimizer steps when they own no context.
KernelContext& default_context();

/// Reconfigure the default context's grain — minimum scalar ops per shard
/// (threads preserved).  The autotuner's thread-grain knob: safe to move
/// between rounds because shard boundaries only affect work partitioning,
/// never reduction results (the per-shard fold order is fixed).  Call at a
/// quiescent point, not while kernels are running.
void set_default_grain(std::size_t grain);

}  // namespace photon::kernels
