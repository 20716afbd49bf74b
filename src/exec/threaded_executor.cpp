#include "exec/threaded_executor.hpp"

#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

#include "util/rng.hpp"

namespace ccmm {
namespace {

struct WorkerDeque {
  std::mutex mu;
  std::deque<NodeId> q;

  void push(NodeId u) {
    std::lock_guard lk(mu);
    q.push_back(u);
  }
  [[nodiscard]] bool pop_bottom(NodeId& u) {
    std::lock_guard lk(mu);
    if (q.empty()) return false;
    u = q.back();
    q.pop_back();
    return true;
  }
  [[nodiscard]] bool steal_top(NodeId& u) {
    std::lock_guard lk(mu);
    if (q.empty()) return false;
    u = q.front();
    q.pop_front();
    return true;
  }
};

}  // namespace

ExecutionResult run_threaded(const Computation& c, std::size_t nthreads,
                             MemorySystem& memory,
                             std::vector<ProcId>* proc_of_out) {
  CCMM_CHECK(nthreads >= 1, "need at least one thread");
  const std::size_t n = c.node_count();
  c.dag().ensure_closure();  // freeze caches before sharing across threads
  memory.bind(c, nthreads);

  ExecutionResult result;
  result.phi = ObserverFunction(n);
  const std::vector<Location> locs = c.written_locations();

  std::vector<std::atomic<std::size_t>> remaining(n);
  for (NodeId u = 0; u < n; ++u)
    remaining[u].store(c.dag().pred(u).size(), std::memory_order_relaxed);

  std::vector<WorkerDeque> deques(nthreads);
  for (NodeId u = 0; u < n; ++u)
    if (c.dag().pred(u).empty()) deques[0].push(u);

  std::vector<ProcId> proc_of(n, 0);
  std::mutex memory_mu;  // serializes memory ops, phi, and the trace
  std::vector<BinaryTraceEvent> events;
  events.reserve(n);
  std::atomic<std::size_t> done{0};
  std::atomic<std::uint64_t> seq{0};

  auto execute_node = [&](ProcId p, NodeId u) {
    {
      std::lock_guard lk(memory_mu);
      proc_of[u] = p;
      for (const NodeId v : c.dag().pred(u)) {
        const ProcId q = proc_of[v];  // v finished: assignment is final
        if (q != p) memory.sync_edge(q, v, p, u);
      }
      const Op o = c.op(u);
      NodeId observed = kBottom;
      if (o.is_read())
        observed = memory.read(p, u, o.loc);
      else if (o.is_write())
        memory.write(p, u, o.loc);
      for (const Location l : locs) {
        NodeId v;
        if (o.writes(l))
          v = u;
        else if (o.reads(l))
          v = observed;
        else
          v = memory.peek(p, u, l);
        if (v != kBottom) result.phi.set(l, u, v);
      }
      const std::uint64_t s = seq.fetch_add(1, std::memory_order_relaxed);
      events.push_back({s, s, p, u, observed});
    }
    // Release children outside the memory lock.
    for (const NodeId v : c.dag().succ(u)) {
      if (remaining[v].fetch_sub(1, std::memory_order_acq_rel) == 1)
        deques[p].push(v);
    }
    done.fetch_add(1, std::memory_order_release);
  };

  auto worker = [&](ProcId p) {
    Rng rng(0x5eedull * (p + 1));
    while (done.load(std::memory_order_acquire) < n) {
      NodeId u;
      if (deques[p].pop_bottom(u)) {
        execute_node(p, u);
        continue;
      }
      const auto victim = static_cast<ProcId>(rng.below(nthreads));
      if (victim != p && deques[victim].steal_top(u)) {
        execute_node(p, u);
        continue;
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (ProcId p = 0; p < nthreads; ++p) threads.emplace_back(worker, p);
  for (auto& t : threads) t.join();

  result.trace = Trace(std::move(events));
  result.memory_stats = memory.stats();
  if (proc_of_out != nullptr) *proc_of_out = std::move(proc_of);
  return result;
}

}  // namespace ccmm
