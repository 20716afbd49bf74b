#include "proc/locks.hpp"

#include <algorithm>
#include <map>

namespace ccmm::proc {
namespace {

void validate(const LockedComputation& lc) {
  std::map<LockId, std::vector<char>> seen;
  for (const auto& s : lc.sections) {
    auto& marks = seen[s.lock];
    marks.resize(lc.c.node_count(), 0);
    CCMM_CHECK(!s.nodes.empty(), "empty critical section");
    for (const NodeId u : s.nodes) {
      CCMM_CHECK(u < lc.c.node_count(), "section node out of range");
      CCMM_CHECK(!marks[u], "node appears in two sections of one lock");
      marks[u] = 1;
    }
  }
}

/// Recursively pick a permutation of each lock's sections; emit the
/// serialized computation when all locks are ordered and acyclic.
struct Serializer {
  const LockedComputation& lc;
  const std::function<bool(const Computation&)>& visit;
  std::vector<std::pair<LockId, std::vector<std::size_t>>> groups;

  bool emit(const std::vector<std::vector<std::size_t>>& orders) {
    const Dag& base = lc.c.dag();
    DagBuilder dag(base.node_count());
    for (NodeId u = 0; u < base.node_count(); ++u)
      for (const NodeId v : base.succ(u)) dag.add_edge(u, v);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& order = orders[g];
      for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        const auto& a = lc.sections[order[i]];
        const auto& b = lc.sections[order[i + 1]];
        for (const NodeId x : a.nodes)
          for (const NodeId y : b.nodes) {
            if (x != y) dag.add_edge(x, y);
          }
      }
    }
    Dag serialized = dag.build();
    // A cycle makes this serialization infeasible.
    if (!serialized.is_acyclic()) return true;
    return visit(Computation(std::move(serialized), lc.c.ops()));
  }

  bool recurse(std::size_t g, std::vector<std::vector<std::size_t>>& orders) {
    if (g == groups.size()) return emit(orders);
    std::vector<std::size_t> perm = groups[g].second;
    std::sort(perm.begin(), perm.end());
    do {
      orders[g] = perm;
      if (!recurse(g + 1, orders)) return false;
    } while (std::next_permutation(perm.begin(), perm.end()));
    return true;
  }
};

}  // namespace

bool for_each_serialization(
    const LockedComputation& lc,
    const std::function<bool(const Computation&)>& visit) {
  validate(lc);
  Serializer s{lc, visit, {}};
  std::map<LockId, std::vector<std::size_t>> by_lock;
  for (std::size_t i = 0; i < lc.sections.size(); ++i)
    by_lock[lc.sections[i].lock].push_back(i);
  for (auto& [lock, idxs] : by_lock) s.groups.emplace_back(lock, idxs);
  std::vector<std::vector<std::size_t>> orders(s.groups.size());
  return s.recurse(0, orders);
}

bool lock_aware_contains(const MemoryModel& model, const LockedComputation& lc,
                         const ObserverFunction& phi) {
  bool found = false;
  for_each_serialization(lc, [&](const Computation& serialized) {
    if (model.contains(serialized, phi)) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

}  // namespace ccmm::proc
