#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "util/check.hpp"

namespace ccmm {
namespace {

/// Worker count from the CCMM_THREADS environment variable, or 0 when
/// unset/invalid. Values outside [1, 1024] are ignored rather than
/// trusted (a typo'd export should not spawn a million threads).
std::size_t threads_from_env() {
  const char* s = std::getenv("CCMM_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || v < 1 || v > 1024) return 0;
  return static_cast<std::size_t>(v);
}

/// The pool whose worker loop the current thread is running, if any.
/// Used to catch reentrant submission (see ThreadPool::submit).
thread_local const ThreadPool* tls_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t nthreads) {
  if (nthreads == 0) nthreads = threads_from_env();
  if (nthreads == 0) {
    nthreads = std::thread::hardware_concurrency();
    if (nthreads == 0) nthreads = 2;
  }
  workers_.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // A worker submitting to its own pool and then waiting (parallel_for)
  // deadlocks once all workers block in wait_idle: the queued tasks have
  // no thread left to run on. Fail loudly in debug builds.
  CCMM_ASSERT(tls_worker_of != this);
  {
    std::lock_guard lk(mu_);
    CCMM_CHECK(!stop_, "submit after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& f) {
  if (n == 0) return;
  // Degenerate shapes run inline: a single index (or a single worker)
  // gains nothing from the queue, and running on the caller avoids
  // spawning tasks whose claimed range would be empty. A call from one
  // of this pool's own workers runs inline too: its tasks could
  // otherwise wait on workers that are all blocked the same way.
  if (n == 1 || size() <= 1 || tls_worker_of == this) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  // Work stealing by atomic chunk claiming: every task loops grabbing
  // the next `grain` indices until the counter runs past n. Fast
  // workers simply claim more chunks, so one pathologically expensive
  // index (skewed judge costs in the fixpoint engine) delays only the
  // worker that drew it. The grain targets ~8 claims per task to keep
  // counter traffic negligible while still rebalancing. The caller
  // claims too instead of sleeping until the workers wake, so a short
  // call does not wait out their wake-up.
  const std::size_t ntasks = std::min(size(), n);
  const std::size_t grain = std::max<std::size_t>(1, n / (ntasks * 8));
  std::atomic<std::size_t> next{0};
  const auto claim = [&, n, grain] {
    for (;;) {
      const std::size_t lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= n) return;
      const std::size_t hi = std::min(n, lo + grain);
      for (std::size_t i = lo; i < hi; ++i) f(i);
    }
  };
  for (std::size_t t = 0; t < ntasks; ++t) submit(claim);
  try {
    claim();
  } catch (...) {
    wait_idle();  // the tasks still read `next` and `f`
    throw;
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  tls_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lk(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ccmm
