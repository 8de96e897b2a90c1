#pragma once
// Fixed-size thread pool used to run LLM clients of a federated round in
// parallel (paper Alg. 1, line 5: "for k in C do in parallel") and, through
// kernels::KernelContext, to shard individual tensor kernels.
//
// parallel_for is the one parallel loop, with one nesting rule: a thread
// that runs a chunk beside other chunks — a pool worker, or the caller on
// its own chunk — is inside a parallel section, and any section entered
// there runs inline, so each client of a round's fan-out runs its kernels
// serially instead of queueing them behind busy workers.  A one-chunk
// section marks nothing: a lone client still shards over the pool.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace photon {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// True on a worker of any ThreadPool, and on a caller while it works its
  /// own chunk of a multi-chunk parallel_for: a parallel section entered
  /// here runs inline.
  static bool in_parallel_section();

  /// Enqueue a task; returns a future for its completion.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::scoped_lock lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for all to finish.
  /// Indices are batched into at most size() contiguous chunks (one task per
  /// chunk, not one per index).  An exception thrown by fn is captured,
  /// every other chunk still runs to completion (joined before returning),
  /// and the exception of the lowest-index failing chunk is rethrown on the
  /// caller — deterministic at any thread count.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunked overload: partitions [0, n) into at most size() contiguous
  /// ranges of at least `grain` indices each and runs fn(begin, end) across
  /// the pool; the caller works the last chunk itself.  Runs fn(0, n)
  /// inline when that makes one chunk or when called inside a parallel
  /// section.
  void parallel_for(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Pool sized to the host; shared by simulation drivers and the default
/// kernel context.
ThreadPool& global_pool();

}  // namespace photon
