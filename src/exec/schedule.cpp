#include "exec/schedule.hpp"

#include <algorithm>
#include <deque>
#include <optional>

namespace ccmm {
namespace {

std::uint64_t duration_of(const std::vector<std::uint64_t>& durations,
                          NodeId u) {
  if (durations.empty()) return 1;
  CCMM_ASSERT(u < durations.size());
  CCMM_ASSERT(durations[u] > 0);
  return durations[u];
}

void sort_entries(Schedule& s) {
  std::stable_sort(s.entries.begin(), s.entries.end(),
                   [](const ScheduleEntry& a, const ScheduleEntry& b) {
                     return a.start < b.start;
                   });
}

}  // namespace

bool Schedule::valid_for(const Computation& c) const {
  if (entries.size() != c.node_count()) return false;
  if (proc_of.size() != c.node_count()) return false;
  std::vector<const ScheduleEntry*> by_node(c.node_count(), nullptr);
  for (const auto& e : entries) {
    if (e.node >= c.node_count() || e.proc >= nprocs) return false;
    if (by_node[e.node] != nullptr) return false;  // duplicate
    if (e.finish <= e.start) return false;
    by_node[e.node] = &e;
  }
  for (NodeId u = 0; u < c.node_count(); ++u)
    for (const NodeId v : c.dag().succ(u))
      if (by_node[u]->finish > by_node[v]->start) return false;
  // Per-processor serialization.
  std::vector<std::vector<const ScheduleEntry*>> per_proc(nprocs);
  for (const auto& e : entries) per_proc[e.proc].push_back(&e);
  for (auto& v : per_proc) {
    std::sort(v.begin(), v.end(),
              [](const ScheduleEntry* a, const ScheduleEntry* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < v.size(); ++i)
      if (v[i - 1]->finish > v[i]->start) return false;
  }
  return true;
}

Schedule serial_schedule(const Computation& c,
                         const std::vector<std::uint64_t>& durations) {
  Schedule s;
  s.nprocs = 1;
  s.proc_of.assign(c.node_count(), 0);
  std::uint64_t t = 0;
  for (const NodeId u : c.dag().topological_order()) {
    const std::uint64_t d = duration_of(durations, u);
    s.entries.push_back({u, 0, t, t + d});
    t += d;
  }
  s.makespan = t;
  return s;
}

Schedule greedy_schedule(const Computation& c, std::size_t nprocs,
                         const std::vector<std::uint64_t>& durations) {
  CCMM_CHECK(nprocs >= 1, "need at least one processor");
  Schedule s;
  s.nprocs = nprocs;
  s.proc_of.assign(c.node_count(), 0);

  const std::size_t n = c.node_count();
  std::vector<std::size_t> indeg(n);
  for (NodeId u = 0; u < n; ++u) indeg[u] = c.dag().pred(u).size();
  std::vector<NodeId> ready;
  for (NodeId u = 0; u < n; ++u)
    if (indeg[u] == 0) ready.push_back(u);

  // Event-driven: running jobs keyed by finish time.
  struct Running {
    std::uint64_t finish;
    NodeId node;
    ProcId proc;
  };
  std::vector<Running> running;
  std::vector<bool> proc_busy(nprocs, false);
  std::uint64_t now = 0;
  std::size_t done = 0;

  while (done < n) {
    // Start as many ready nodes as idle processors allow (smallest node
    // id first for determinism).
    std::sort(ready.begin(), ready.end());
    std::size_t ri = 0;
    for (ProcId p = 0; p < nprocs && ri < ready.size(); ++p) {
      if (proc_busy[p]) continue;
      const NodeId u = ready[ri++];
      const std::uint64_t d = duration_of(durations, u);
      s.entries.push_back({u, p, now, now + d});
      s.proc_of[u] = p;
      running.push_back({now + d, u, p});
      proc_busy[p] = true;
    }
    ready.erase(ready.begin(), ready.begin() + static_cast<std::ptrdiff_t>(ri));

    CCMM_CHECK(!running.empty(), "greedy scheduler deadlock (cyclic graph?)");
    // Advance to the earliest finish.
    std::uint64_t next = UINT64_MAX;
    for (const auto& r : running) next = std::min(next, r.finish);
    now = next;
    for (std::size_t i = 0; i < running.size();) {
      if (running[i].finish == now) {
        const NodeId u = running[i].node;
        proc_busy[running[i].proc] = false;
        ++done;
        for (const NodeId v : c.dag().succ(u))
          if (--indeg[v] == 0) ready.push_back(v);
        running[i] = running.back();
        running.pop_back();
      } else {
        ++i;
      }
    }
  }
  s.makespan = now;
  sort_entries(s);
  return s;
}

Schedule work_stealing_schedule(const Computation& c, std::size_t nprocs,
                                Rng& rng,
                                const std::vector<std::uint64_t>& durations) {
  CCMM_CHECK(nprocs >= 1, "need at least one processor");
  Schedule s;
  s.nprocs = nprocs;
  s.proc_of.assign(c.node_count(), 0);

  const std::size_t n = c.node_count();
  std::vector<std::size_t> indeg(n);
  for (NodeId u = 0; u < n; ++u) indeg[u] = c.dag().pred(u).size();

  std::vector<std::deque<NodeId>> deques(nprocs);
  // Seed all sources into processor 0's deque (the "root thread").
  for (NodeId u = 0; u < n; ++u)
    if (indeg[u] == 0) deques[0].push_back(u);

  struct Running {
    std::uint64_t finish;
    NodeId node;
  };
  std::vector<std::optional<Running>> running(nprocs);
  std::uint64_t now = 0;
  std::size_t done = 0;

  auto try_start = [&](ProcId p) {
    NodeId u;
    if (!deques[p].empty()) {
      u = deques[p].back();  // pop own deque from the bottom (LIFO)
      deques[p].pop_back();
    } else {
      // Steal from the top of a random victim (FIFO end).
      const auto victim = static_cast<ProcId>(rng.below(nprocs));
      if (victim == p || deques[victim].empty()) return;
      u = deques[victim].front();
      deques[victim].pop_front();
      ++s.steals;
    }
    const std::uint64_t d = duration_of(durations, u);
    s.entries.push_back({u, p, now, now + d});
    s.proc_of[u] = p;
    running[p] = Running{now + d, u};
  };

  while (done < n) {
    for (ProcId p = 0; p < nprocs; ++p)
      if (!running[p].has_value()) try_start(p);

    // Advance to the earliest finish among running jobs; if nothing is
    // running (all processors whiffed their steals), retry at now+1.
    std::uint64_t next = UINT64_MAX;
    for (const auto& r : running)
      if (r.has_value()) next = std::min(next, r->finish);
    if (next == UINT64_MAX) {
      ++now;
      continue;
    }
    now = next;
    for (ProcId p = 0; p < nprocs; ++p) {
      if (!running[p].has_value() || running[p]->finish != now) continue;
      const NodeId u = running[p]->node;
      running[p].reset();
      ++done;
      for (const NodeId v : c.dag().succ(u))
        if (--indeg[v] == 0) deques[p].push_back(v);
    }
  }
  s.makespan = now;
  sort_entries(s);
  return s;
}

WorkSpan work_span(const Computation& c,
                   const std::vector<std::uint64_t>& durations) {
  WorkSpan ws;
  std::vector<std::uint64_t> depth(c.node_count(), 0);
  for (const NodeId u : c.dag().topological_order()) {
    const std::uint64_t d = duration_of(durations, u);
    ws.work += d;
    std::uint64_t best = 0;
    for (const NodeId p : c.dag().pred(u)) best = std::max(best, depth[p]);
    depth[u] = best + d;
    ws.span = std::max(ws.span, depth[u]);
  }
  return ws;
}

}  // namespace ccmm
