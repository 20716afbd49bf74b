// ccmm/util/thread_pool.hpp
//
// A small fixed-size thread pool with a parallel_for helper. Used by the
// enumeration engine and the constructibility fixpoint, where the work is
// embarrassingly parallel across computations in the universe.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ccmm {

class ThreadPool {
 public:
  /// Spawn `nthreads` workers. 0 means: the CCMM_THREADS environment
  /// variable if set to an integer in [1, 1024], else
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t nthreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; tasks must not throw (std::terminate otherwise).
  /// Must not be called from one of this pool's own workers: a worker
  /// that submits and then blocks in wait_idle() (as parallel_for does)
  /// can deadlock the pool once every worker is blocked the same way.
  /// Debug builds assert on such reentrant submission instead of
  /// deadlocking silently.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Run f(i) for i in [0, n), blocking. Work-stealing schedule: workers
  /// repeatedly claim the next grain-sized index range off a shared
  /// atomic counter, so skewed per-index costs rebalance instead of
  /// serializing on the unluckiest static block. Degenerate cases (n <=
  /// 1, single-worker pools) and calls from this pool's own workers run
  /// inline on the caller; at most min(n, size()) tasks are ever
  /// spawned, none with an empty range.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& f);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Global pool sized to the machine; lazily constructed, never destroyed
/// before main() returns.
ThreadPool& global_pool();

}  // namespace ccmm
