#include "util/threadpool.hpp"

#include <algorithm>

namespace photon {

namespace {
// Set on every worker thread, and on a caller while it works its own chunk
// of a multi-chunk section: a section entered where it is set runs inline.
thread_local bool t_in_section = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_parallel_section() { return t_in_section; }

void ThreadPool::worker_loop() {
  t_in_section = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for(n, 1, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks =
      std::min(workers_.size(), (n + grain - 1) / grain);
  if (chunks <= 1 || t_in_section) {
    fn(0, n);
    return;
  }
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  // Exception safety: every chunk (worker or caller) traps into its own
  // slot, all chunks are joined before returning — no task may outlive the
  // locals it references — and the lowest-index exception is rethrown, so
  // "which error wins" never depends on thread scheduling.
  std::vector<std::exception_ptr> errors(chunks);
  const auto guarded = [&fn, &errors](std::size_t c, std::size_t chunk_begin,
                                      std::size_t chunk_end) {
    try {
      fn(chunk_begin, chunk_end);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t end = begin + base + (c < rem ? 1 : 0);
    if (c + 1 == chunks) {
      // The caller works the last chunk itself, beside the workers' chunks,
      // so it is inside the section too; guarded never throws.
      t_in_section = true;
      guarded(c, begin, end);
      t_in_section = false;
    } else {
      futures.push_back(
          submit([&guarded, c, begin, end] { guarded(c, begin, end); }));
    }
    begin = end;
  }
  for (auto& f : futures) f.get();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace photon
