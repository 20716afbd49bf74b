#include "dag/topsort.hpp"

#include <algorithm>
#include <unordered_map>

namespace ccmm {

bool is_topological_sort(const Dag& dag, const std::vector<NodeId>& order) {
  if (order.size() != dag.node_count()) return false;
  std::vector<std::size_t> pos(dag.node_count(), SIZE_MAX);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= dag.node_count()) return false;
    if (pos[order[i]] != SIZE_MAX) return false;  // duplicate
    pos[order[i]] = i;
  }
  for (NodeId u = 0; u < dag.node_count(); ++u)
    for (const NodeId v : dag.succ(u))
      if (pos[u] >= pos[v]) return false;
  return true;
}

std::vector<std::size_t> position_index(const std::vector<NodeId>& order) {
  std::vector<std::size_t> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  return pos;
}

namespace {

/// Backtracking enumeration state shared across the recursion.
struct EnumState {
  const Dag& dag;
  std::vector<std::size_t> indeg;
  std::vector<NodeId> order;
  const std::function<bool(const std::vector<NodeId>&)>& visit;

  bool run() {
    if (order.size() == dag.node_count()) return visit(order);
    // Iterate candidates in increasing id for a deterministic order.
    for (NodeId u = 0; u < dag.node_count(); ++u) {
      if (indeg[u] != 0) continue;
      indeg[u] = SIZE_MAX;  // mark placed
      order.push_back(u);
      for (const NodeId v : dag.succ(u)) --indeg[v];
      const bool keep_going = run();
      for (const NodeId v : dag.succ(u)) ++indeg[v];
      order.pop_back();
      indeg[u] = 0;
      if (!keep_going) return false;
    }
    return true;
  }
};

/// Memoized completion counting over downsets (placed sets).
class TopsortCounter {
 public:
  explicit TopsortCounter(const Dag& dag, std::uint64_t cap)
      : dag_(dag), cap_(cap) {}

  std::uint64_t count_from(const DynBitset& placed,
                           const std::vector<std::size_t>& indeg) {
    if (placed.count() == dag_.node_count()) return 1;
    if (const auto it = memo_.find(placed); it != memo_.end())
      return it->second;
    std::uint64_t total = 0;
    for (NodeId u = 0; u < dag_.node_count(); ++u) {
      if (placed.test(u) || indeg[u] != 0) continue;
      DynBitset next_placed = placed;
      next_placed.set(u);
      auto next_indeg = indeg;
      next_indeg[u] = SIZE_MAX;
      for (const NodeId v : dag_.succ(u)) --next_indeg[v];
      const std::uint64_t sub = count_from(next_placed, next_indeg);
      total = (total > cap_ - sub) ? cap_ : total + sub;
      if (total == cap_) break;
    }
    memo_.emplace(placed, total);
    return total;
  }

 private:
  const Dag& dag_;
  std::uint64_t cap_;
  std::unordered_map<DynBitset, std::uint64_t, DynBitsetHash> memo_;
};

std::vector<std::size_t> initial_indegrees(const Dag& dag) {
  std::vector<std::size_t> indeg(dag.node_count());
  for (NodeId u = 0; u < dag.node_count(); ++u) indeg[u] = dag.pred(u).size();
  return indeg;
}

}  // namespace

bool for_each_topological_sort(
    const Dag& dag,
    const std::function<bool(const std::vector<NodeId>&)>& visit) {
  CCMM_CHECK(dag.is_acyclic(), "enumeration requires an acyclic graph");
  EnumState st{dag, initial_indegrees(dag), {}, visit};
  st.order.reserve(dag.node_count());
  return st.run();
}

std::uint64_t count_topological_sorts(const Dag& dag, std::uint64_t cap) {
  CCMM_CHECK(dag.is_acyclic(), "counting requires an acyclic graph");
  TopsortCounter counter(dag, cap);
  return counter.count_from(DynBitset(dag.node_count()),
                            initial_indegrees(dag));
}

std::vector<NodeId> random_topological_sort(const Dag& dag, Rng& rng) {
  CCMM_CHECK(dag.is_acyclic(), "sampling requires an acyclic graph");
  const std::size_t n = dag.node_count();
  TopsortCounter counter(dag, UINT64_MAX);
  DynBitset placed(n);
  auto indeg = initial_indegrees(dag);
  std::vector<NodeId> order;
  order.reserve(n);
  while (order.size() < n) {
    // Weight each available node by the number of completions it leads to.
    std::vector<NodeId> avail;
    std::vector<std::uint64_t> weight;
    std::uint64_t total = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (placed.test(u) || indeg[u] != 0) continue;
      DynBitset p2 = placed;
      p2.set(u);
      auto d2 = indeg;
      d2[u] = SIZE_MAX;
      for (const NodeId v : dag.succ(u)) --d2[v];
      const std::uint64_t w = counter.count_from(p2, d2);
      avail.push_back(u);
      weight.push_back(w);
      total += w;
    }
    CCMM_ASSERT(total > 0);
    std::uint64_t pick = rng.below(total);
    NodeId chosen = avail.back();
    for (std::size_t i = 0; i < avail.size(); ++i) {
      if (pick < weight[i]) {
        chosen = avail[i];
        break;
      }
      pick -= weight[i];
    }
    placed.set(chosen);
    indeg[chosen] = SIZE_MAX;
    for (const NodeId v : dag.succ(chosen)) --indeg[v];
    order.push_back(chosen);
  }
  return order;
}

std::vector<NodeId> greedy_random_topological_sort(const Dag& dag, Rng& rng) {
  CCMM_CHECK(dag.is_acyclic(), "sampling requires an acyclic graph");
  const std::size_t n = dag.node_count();
  auto indeg = initial_indegrees(dag);
  std::vector<NodeId> avail;
  for (NodeId u = 0; u < n; ++u)
    if (indeg[u] == 0) avail.push_back(u);
  std::vector<NodeId> order;
  order.reserve(n);
  while (!avail.empty()) {
    const std::size_t i = rng.below(avail.size());
    const NodeId u = avail[i];
    avail[i] = avail.back();
    avail.pop_back();
    order.push_back(u);
    for (const NodeId v : dag.succ(u))
      if (--indeg[v] == 0) avail.push_back(v);
  }
  CCMM_ASSERT(order.size() == n);
  return order;
}

}  // namespace ccmm
