// ccmm/dag/dag.hpp
//
// Finite directed acyclic graphs with cached reachability, the graph
// substrate for computations (Definition 1 of the paper). Nodes are dense
// ids 0..n-1.
//
// A Dag does not change once built. Its successor and predecessor lists
// are compressed sparse rows (uint32 offsets plus one target array per
// direction), which the edge-sweeping kernels read in place. DagBuilder
// freezes an edge list into a Dag in one O(n + m) counting pass; rows
// keep insertion order, and a repeated edge keeps its first occurrence.
// Reachability rows are bitsets, which makes the u ≺ v ≺ w triple
// queries of the dag-consistency checkers word-parallel.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "util/bitset.hpp"
#include "util/check.hpp"

namespace ccmm {

using NodeId = std::uint32_t;

/// Sentinel for "no node" / the ⊥ element of observer functions.
inline constexpr NodeId kBottom = static_cast<NodeId>(-1);

/// The most edges a Dag holds: row offsets are 32-bit.
inline constexpr std::size_t kMaxDagEdges =
    std::numeric_limits<std::uint32_t>::max();

struct Edge {
  NodeId from;
  NodeId to;
  [[nodiscard]] bool operator==(const Edge&) const = default;
};

/// A finite dag, immutable once built (see DagBuilder). The reachability
/// closure is built on first query; freeze it with ensure_closure()
/// before sharing a Dag across threads read-only.
class Dag {
 public:
  Dag() = default;
  /// `n` isolated nodes.
  explicit Dag(std::size_t n) : Dag(n, std::span<const Edge>{}) {}

  /// Build from an explicit edge list over nodes 0..n-1 in O(n + m).
  /// Rows list their edges in list order and a repeated edge keeps its
  /// first occurrence. Throws on an endpoint out of range, a self-loop,
  /// or more than kMaxDagEdges edges.
  Dag(std::size_t n, std::span<const Edge> edges);
  Dag(std::size_t n, std::initializer_list<Edge> edges)
      : Dag(n, std::span<const Edge>(edges.begin(), edges.size())) {}

  // The atomic freshness flag deletes the implicit copy/move operations;
  // copies carry the closure along when the source is already frozen
  // (rebuilding it would dwarf the copy itself). A moved-from dag is
  // empty.
  Dag(const Dag& o);
  Dag(Dag&& o) noexcept;
  Dag& operator=(const Dag& o);
  Dag& operator=(Dag&& o) noexcept;

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return m_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// O(out-degree of u).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  [[nodiscard]] std::span<const NodeId> succ(NodeId u) const {
    CCMM_ASSERT(u < node_count());
    return {succ_tgt_.data() + succ_off_[u], succ_off_[u + 1] - succ_off_[u]};
  }
  [[nodiscard]] std::span<const NodeId> pred(NodeId u) const {
    CCMM_ASSERT(u < node_count());
    return {pred_tgt_.data() + pred_off_[u], pred_off_[u + 1] - pred_off_[u]};
  }

  /// One direction's rows as the flat arrays they are stored in, for
  /// kernels that walk every edge: the neighbours of u are
  /// tgt[off[u] .. off[u + 1]).
  struct Rows {
    const std::uint32_t* off = nullptr;
    const NodeId* tgt = nullptr;
  };
  [[nodiscard]] Rows succ_rows() const noexcept {
    return {succ_off_.data(), succ_tgt_.data()};
  }
  [[nodiscard]] Rows pred_rows() const noexcept {
    return {pred_off_.data(), pred_tgt_.data()};
  }

  /// Every edge, row by row in succ order.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// True iff every edge goes id-upward (u < v), i.e. 0..n-1 is already
  /// a topological order. Holds for everything the enumeration,
  /// relabeling and extension paths build; lets callers skip topological
  /// sorting entirely.
  [[nodiscard]] bool ids_topological() const noexcept {
    return edges_increase_;
  }

  /// True iff the graph has no directed cycle. O(1) for the common
  /// cases: graphs whose edges all go id-upward (everything the
  /// enumeration, relabeling and extension paths build) are acyclic by
  /// construction, and a positive answer on any other graph is
  /// memoized. Only genuinely unsorted graphs (random generators, parsed
  /// input) pay the Kahn scan, once.
  [[nodiscard]] bool is_acyclic() const;

  /// Strict precedence u ≺ v: a nonempty path from u to v. By the paper's
  /// convention ⊥ ≺ v for every real node v, and ⊥ ⊀ ⊥.
  [[nodiscard]] bool precedes(NodeId u, NodeId v) const;

  /// Reflexive precedence u ≼ v.
  [[nodiscard]] bool preceq(NodeId u, NodeId v) const {
    return u == v || precedes(u, v);
  }

  /// Bitset of strict descendants of u (nodes v with u ≺ v).
  [[nodiscard]] const DynBitset& descendants(NodeId u) const;
  /// Bitset of strict ancestors of u (nodes v with v ≺ u).
  [[nodiscard]] const DynBitset& ancestors(NodeId u) const;

  /// Nodes strictly between u and w: { v : u ≺ v ≺ w }.
  [[nodiscard]] DynBitset between(NodeId u, NodeId w) const;

  /// Nodes with no predecessors / successors.
  [[nodiscard]] std::vector<NodeId> sources() const;
  [[nodiscard]] std::vector<NodeId> sinks() const;

  /// One topological order (Kahn, smallest-id-first: deterministic).
  /// Requires acyclicity.
  [[nodiscard]] std::vector<NodeId> topological_order() const;

  /// True iff keep (a node subset, |keep| == node_count()) is closed under
  /// predecessors — the condition for the induced subgraph to be a prefix.
  [[nodiscard]] bool is_downward_closed(const DynBitset& keep) const;

  /// Induced subgraph on `keep`; old node i becomes the rank of i in keep.
  /// If old_to_new is non-null it receives the mapping (kBottom = dropped).
  [[nodiscard]] Dag induced(const DynBitset& keep,
                            std::vector<NodeId>* old_to_new = nullptr) const;

  /// True iff this dag is a relaxation of `other`: same node set and
  /// E(this) ⊆ E(other).
  [[nodiscard]] bool is_relaxation_of(const Dag& other) const;

  /// Transitive reduction (unique for dags).
  [[nodiscard]] Dag transitive_reduction() const;
  /// Transitive closure as a dag (edge for every u ≺ v).
  [[nodiscard]] Dag transitive_closure() const;

  /// Force the reachability cache to be built now (requires acyclicity).
  void ensure_closure() const;

  /// True iff the reachability cache is built and valid. Parallel stages
  /// assert this on every dag they fan out over: the lazy build is NOT
  /// thread-safe, so a shared dag must be frozen (ensure_closure) before
  /// worker threads may query precedence on it.
  [[nodiscard]] bool closure_frozen() const noexcept {
    return closure_valid_.load(std::memory_order_acquire);
  }

  /// Same nodes and the same successor rows, in order.
  [[nodiscard]] bool operator==(const Dag& o) const {
    return n_ == o.n_ && succ_off_ == o.succ_off_ && succ_tgt_ == o.succ_tgt_;
  }

 private:
  friend class DagBuilder;

  /// The counting pass behind every constructor: `base`'s rows (when
  /// given) come first in each row, then `extra` in list order.
  Dag(std::size_t n, const Dag* base, std::span<const Edge> extra);

  /// Kahn's drain, FIFO: a topological order, cut short by a cycle.
  [[nodiscard]] std::vector<NodeId> drain_order() const;

  void invalidate() noexcept {
    closure_valid_.store(false, std::memory_order_release);
  }

  std::size_t n_ = 0;
  std::size_t m_ = 0;
  // n + 1 offsets and m targets per direction; all empty when n == 0.
  std::vector<std::uint32_t> succ_off_;
  std::vector<NodeId> succ_tgt_;
  std::vector<std::uint32_t> pred_off_;
  std::vector<NodeId> pred_tgt_;

  // Acyclicity bookkeeping for is_acyclic(): edges_increase_ records
  // whether every edge goes id-upward (trivially acyclic);
  // acyclic_known_ caches a positive Kahn result.
  bool edges_increase_ = true;
  mutable bool acyclic_known_ = false;

  // Reachability cache (strict): desc_[u] bit v <=> u ≺ v. The flag is
  // atomic so a frozen dag can be probed from any thread; building the
  // rows themselves is still single-threaded (see closure_frozen()).
  mutable std::vector<DynBitset> desc_;
  mutable std::vector<DynBitset> anc_;
  mutable std::atomic<bool> closure_valid_{false};
};

/// Collects nodes and edges, then freezes them into a Dag in one
/// O(n + m) pass. add_edge is O(1): a repeated edge is dropped by
/// build(), which keeps its first occurrence.
class DagBuilder {
 public:
  DagBuilder() = default;
  explicit DagBuilder(std::size_t n) : n_(n) {}
  /// Start from `base`, which must outlive the builder: the built dag
  /// keeps base's rows, in order, ahead of every edge added here.
  explicit DagBuilder(const Dag& base)
      : base_(&base), n_(base.node_count()) {}

  /// Append `k` fresh isolated nodes; returns the id of the first.
  NodeId add_nodes(std::size_t k = 1) {
    const auto first = static_cast<NodeId>(n_);
    n_ += k;
    return first;
  }

  /// Add edge u -> v. Acyclicity is not checked here (see is_acyclic).
  void add_edge(NodeId u, NodeId v) {
    CCMM_CHECK(u < n_ && v < n_, "edge endpoint out of range");
    CCMM_CHECK(u != v, "self-loop");
    edges_.push_back({u, v});
  }

  [[nodiscard]] Dag build() const { return Dag(n_, base_, edges_); }

 private:
  const Dag* base_ = nullptr;
  std::size_t n_ = 0;
  std::vector<Edge> edges_;
};

/// The ancestor closure of `seeds` (seeds included), computed by a
/// reverse BFS over the predecessor lists — no reachability cache, so
/// it is safe on million-node dags where the O(n²)-bit closure is not.
/// Returns nullopt as soon as the closure exceeds `node_cap` nodes,
/// making it usable as a bounded witness-shrinking primitive: callers
/// that need "the minimal prefix containing these nodes, if small" pay
/// O(cap + edges touched) regardless of dag size.
[[nodiscard]] std::optional<DynBitset> bounded_ancestor_closure(
    const Dag& dag, const std::vector<NodeId>& seeds, std::size_t node_cap);

}  // namespace ccmm
