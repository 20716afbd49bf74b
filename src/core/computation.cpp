#include "core/computation.hpp"

#include <algorithm>

#include "util/str.hpp"

namespace ccmm {

Computation::Computation(Dag dag, std::vector<Op> ops)
    : dag_(std::move(dag)), ops_(std::move(ops)) {
  CCMM_CHECK(dag_.node_count() == ops_.size(),
             "dag/op-label size mismatch");
  CCMM_CHECK(dag_.is_acyclic(), "a computation's graph must be acyclic");
}

std::vector<Location> Computation::written_locations() const {
  std::vector<Location> out;
  for (const auto& o : ops_)
    if (o.is_write()) out.push_back(o.loc);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Location> Computation::accessed_locations() const {
  std::vector<Location> out;
  for (const auto& o : ops_)
    if (!o.is_nop()) out.push_back(o.loc);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<NodeId> Computation::writers(Location l) const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < node_count(); ++u)
    if (ops_[u].writes(l)) out.push_back(u);
  return out;
}

std::vector<NodeId> Computation::readers(Location l) const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < node_count(); ++u)
    if (ops_[u].reads(l)) out.push_back(u);
  return out;
}

Computation Computation::induced(const DynBitset& keep,
                                 std::vector<NodeId>* old_to_new) const {
  std::vector<NodeId> map;
  Dag sub = dag_.induced(keep, &map);
  std::vector<Op> ops;
  ops.reserve(sub.node_count());
  for (NodeId u = 0; u < node_count(); ++u)
    if (map[u] != kBottom) ops.push_back(ops_[u]);
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return Computation(std::move(sub), std::move(ops));
}

bool Computation::is_prefix_of(const Computation& other) const {
  const std::size_t n = node_count();
  if (n > other.node_count()) return false;
  for (NodeId u = 0; u < n; ++u)
    if (ops_[u] != other.ops_[u]) return false;
  // Induced edges among 0..n-1 must agree, and no edge may enter 0..n-1
  // from nodes >= n (downward closure).
  for (NodeId u = 0; u < other.node_count(); ++u) {
    for (const NodeId v : other.dag().succ(u)) {
      if (v < n) {
        if (u >= n) return false;                 // not downward closed
        if (!dag_.has_edge(u, v)) return false;   // missing induced edge
      } else if (u < n && v < n) {
        if (!dag_.has_edge(u, v)) return false;
      }
    }
  }
  for (NodeId u = 0; u < n; ++u)
    for (const NodeId v : dag_.succ(u))
      if (!other.dag().has_edge(u, v)) return false;  // extra edge
  return true;
}

bool Computation::is_relaxation_of(const Computation& other) const {
  return ops_ == other.ops_ && dag_.is_relaxation_of(other.dag());
}

Computation Computation::extend(Op o, const std::vector<NodeId>& preds) const {
  DagBuilder dag(dag_);
  const NodeId z = dag.add_nodes(1);
  for (const NodeId p : preds) {
    CCMM_CHECK(p < z, "predecessor must be an existing node");
    dag.add_edge(p, z);
  }
  std::vector<Op> ops;
  ops.reserve(ops_.size() + 1);
  ops.assign(ops_.begin(), ops_.end());
  ops.push_back(o);
  return Computation(dag.build(), std::move(ops));
}

Computation Computation::augment(Op o) const {
  std::vector<NodeId> all(node_count());
  for (NodeId u = 0; u < node_count(); ++u) all[u] = u;
  return extend(o, all);
}

std::string Computation::to_string() const {
  std::string out = format("computation with %zu node(s)\n", node_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    out += format("  %u: %s <-", u, ops_[u].to_string().c_str());
    for (const NodeId p : dag_.pred(u)) out += format(" %u", p);
    out += '\n';
  }
  return out;
}

}  // namespace ccmm
