// The adjacency-list dag the library's CSR Dag replaced, kept as the
// definitional reference for the differentials in test_dag.cpp: one
// vector of successors and one of predecessors per node, grown edge by
// edge, with add_edge ignoring an edge it already holds. Reachability
// is a plain DFS; nothing here is meant to be fast.
#pragma once

#include <algorithm>
#include <queue>
#include <vector>

#include "dag/dag.hpp"

namespace ccmm::ref {

class ListDag {
 public:
  ListDag() = default;
  explicit ListDag(std::size_t n) : succ_(n), pred_(n) {}
  ListDag(std::size_t n, const std::vector<Edge>& edges) : ListDag(n) {
    for (const Edge& e : edges) add_edge(e.from, e.to);
  }

  [[nodiscard]] std::size_t node_count() const { return succ_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return nedges_; }

  NodeId add_nodes(std::size_t k = 1) {
    const auto first = static_cast<NodeId>(node_count());
    succ_.resize(node_count() + k);
    pred_.resize(succ_.size());
    return first;
  }

  void add_edge(NodeId u, NodeId v) {
    CCMM_CHECK(u < node_count() && v < node_count(),
               "edge endpoint out of range");
    CCMM_CHECK(u != v, "self-loop");
    if (has_edge(u, v)) return;
    succ_[u].push_back(v);
    pred_[v].push_back(u);
    ++nedges_;
  }

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    return std::find(succ_[u].begin(), succ_[u].end(), v) != succ_[u].end();
  }
  [[nodiscard]] const std::vector<NodeId>& succ(NodeId u) const {
    return succ_[u];
  }
  [[nodiscard]] const std::vector<NodeId>& pred(NodeId u) const {
    return pred_[u];
  }

  [[nodiscard]] std::vector<Edge> edges() const {
    std::vector<Edge> out;
    for (NodeId u = 0; u < node_count(); ++u)
      for (const NodeId v : succ_[u]) out.push_back({u, v});
    return out;
  }

  [[nodiscard]] bool ids_topological() const {
    for (NodeId u = 0; u < node_count(); ++u)
      for (const NodeId v : succ_[u])
        if (v < u) return false;
    return true;
  }

  /// Kahn, smallest id first; shorter than node_count() iff cyclic.
  [[nodiscard]] std::vector<NodeId> kahn_order() const {
    std::vector<std::size_t> indeg(node_count());
    for (NodeId u = 0; u < node_count(); ++u) indeg[u] = pred_[u].size();
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
    for (NodeId u = 0; u < node_count(); ++u)
      if (indeg[u] == 0) ready.push(u);
    std::vector<NodeId> order;
    while (!ready.empty()) {
      const NodeId u = ready.top();
      ready.pop();
      order.push_back(u);
      for (const NodeId v : succ_[u])
        if (--indeg[v] == 0) ready.push(v);
    }
    return order;
  }
  [[nodiscard]] bool is_acyclic() const {
    return kahn_order().size() == node_count();
  }

  [[nodiscard]] std::vector<NodeId> sources() const {
    std::vector<NodeId> out;
    for (NodeId u = 0; u < node_count(); ++u)
      if (pred_[u].empty()) out.push_back(u);
    return out;
  }
  [[nodiscard]] std::vector<NodeId> sinks() const {
    std::vector<NodeId> out;
    for (NodeId u = 0; u < node_count(); ++u)
      if (succ_[u].empty()) out.push_back(u);
    return out;
  }

  /// Strict descendants of u, by DFS.
  [[nodiscard]] std::vector<bool> reach(NodeId u) const {
    std::vector<bool> seen(node_count(), false);
    std::vector<NodeId> stack(succ_[u].begin(), succ_[u].end());
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      if (seen[v]) continue;
      seen[v] = true;
      for (const NodeId w : succ_[v]) stack.push_back(w);
    }
    return seen;
  }

  [[nodiscard]] ListDag induced(const std::vector<bool>& keep) const {
    std::vector<NodeId> map(node_count(), kBottom);
    NodeId next = 0;
    for (NodeId u = 0; u < node_count(); ++u)
      if (keep[u]) map[u] = next++;
    ListDag out(next);
    for (NodeId u = 0; u < node_count(); ++u) {
      if (map[u] == kBottom) continue;
      for (const NodeId v : succ_[u])
        if (map[v] != kBottom) out.add_edge(map[u], map[v]);
    }
    return out;
  }

  [[nodiscard]] ListDag transitive_reduction() const {
    ListDag out(node_count());
    for (NodeId u = 0; u < node_count(); ++u)
      for (const NodeId v : succ_[u]) {
        bool redundant = false;
        for (const NodeId w : succ_[u])
          if (w != v && reach(w)[v]) redundant = true;
        if (!redundant) out.add_edge(u, v);
      }
    return out;
  }

  [[nodiscard]] ListDag transitive_closure() const {
    ListDag out(node_count());
    for (NodeId u = 0; u < node_count(); ++u) {
      const std::vector<bool> r = reach(u);
      for (NodeId v = 0; v < node_count(); ++v)
        if (r[v]) out.add_edge(u, v);
    }
    return out;
  }

  [[nodiscard]] bool operator==(const ListDag& o) const {
    return succ_ == o.succ_;
  }

 private:
  std::vector<std::vector<NodeId>> succ_;
  std::vector<std::vector<NodeId>> pred_;
  std::size_t nedges_ = 0;
};

/// The rows of `d`, in order, as the reference holds them.
inline std::vector<std::vector<NodeId>> succ_rows(const Dag& d) {
  std::vector<std::vector<NodeId>> rows;
  for (NodeId u = 0; u < d.node_count(); ++u)
    rows.emplace_back(d.succ(u).begin(), d.succ(u).end());
  return rows;
}
inline std::vector<std::vector<NodeId>> pred_rows(const Dag& d) {
  std::vector<std::vector<NodeId>> rows;
  for (NodeId u = 0; u < d.node_count(); ++u)
    rows.emplace_back(d.pred(u).begin(), d.pred(u).end());
  return rows;
}
inline std::vector<std::vector<NodeId>> succ_rows(const ListDag& d) {
  std::vector<std::vector<NodeId>> rows;
  for (NodeId u = 0; u < d.node_count(); ++u) rows.push_back(d.succ(u));
  return rows;
}
inline std::vector<std::vector<NodeId>> pred_rows(const ListDag& d) {
  std::vector<std::vector<NodeId>> rows;
  for (NodeId u = 0; u < d.node_count(); ++u) rows.push_back(d.pred(u));
  return rows;
}

}  // namespace ccmm::ref
