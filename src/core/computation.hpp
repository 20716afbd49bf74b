// ccmm/core/computation.hpp
//
// Definition 1 of the paper: a computation C = (G, op) is a finite dag
// together with an instruction label per node. This file also implements
// the structural operations the theory needs: prefixes, relaxations,
// extensions by one instruction, and the augmented computation aug_o(C)
// of Definition 11.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/op.hpp"
#include "core/sp_structure.hpp"
#include "dag/dag.hpp"

namespace ccmm {

class Computation {
 public:
  /// The empty computation ε.
  Computation() = default;

  /// A computation over `dag` with one op per node.
  Computation(Dag dag, std::vector<Op> ops);

  [[nodiscard]] const Dag& dag() const noexcept { return dag_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }

  [[nodiscard]] Op op(NodeId u) const {
    CCMM_ASSERT(u < node_count());
    return ops_[u];
  }
  [[nodiscard]] const std::vector<Op>& ops() const noexcept { return ops_; }

  /// Strict precedence in the computation's dag (⊥ ≺ every real node).
  [[nodiscard]] bool precedes(NodeId u, NodeId v) const {
    return dag_.precedes(u, v);
  }

  /// Replace the op labels in place, keeping the dag — and its cached
  /// reachability closure, which op labels cannot affect. The label
  /// count must match the dag. Bulk enumerators (one dag, many
  /// labelings) use this to share a single dag copy and closure across
  /// every labeling. Drops any SP annotation, like every mutation.
  void set_ops(const std::vector<Op>& ops) {
    CCMM_CHECK(ops.size() == dag_.node_count(),
               "set_ops must keep one op per dag node");
    ops_ = ops;  // copy-assign reuses the existing capacity
    sp_ = nullptr;
  }

  /// Locations written (resp. read) somewhere in the computation, sorted.
  [[nodiscard]] std::vector<Location> written_locations() const;
  [[nodiscard]] std::vector<Location> accessed_locations() const;

  /// Node ids that write (read) location l, in id order.
  [[nodiscard]] std::vector<NodeId> writers(Location l) const;
  [[nodiscard]] std::vector<NodeId> readers(Location l) const;

  /// The subcomputation induced by `keep`. If `keep` is downward closed
  /// this is a prefix of *this (paper's sense).
  [[nodiscard]] Computation induced(const DynBitset& keep,
                                    std::vector<NodeId>* old_to_new
                                    = nullptr) const;

  /// True iff *this is a prefix of `other` in canonical id layout: the
  /// nodes of *this are exactly 0..n-1 of `other`, carrying the same ops,
  /// the induced edges agree, and no edge of `other` enters 0..n-1 from
  /// outside (downward closure).
  [[nodiscard]] bool is_prefix_of(const Computation& other) const;

  /// True iff *this has the same nodes/ops as `other` and a subset of its
  /// edges (Definition: relaxation).
  [[nodiscard]] bool is_relaxation_of(const Computation& other) const;

  /// Extension of *this by op `o` with direct predecessor set `preds`
  /// (Definition: extension by o). The new node is node_count(); it has
  /// no successors, so *this is a prefix of the result. O(n + m).
  [[nodiscard]] Computation extend(Op o, const std::vector<NodeId>& preds) const;

  /// Definition 11: the augmented computation aug_o(C) — one new node
  /// labelled o that succeeds every existing node.
  [[nodiscard]] Computation augment(Op o) const;

  /// The id of final(C) in augment()'s result.
  [[nodiscard]] NodeId final_node_id() const {
    return static_cast<NodeId>(node_count());
  }

  /// Structural equality (the SP annotation below is advisory metadata
  /// and deliberately does not participate).
  [[nodiscard]] bool operator==(const Computation& o) const {
    return ops_ == o.ops_ && dag_ == o.dag_;
  }

  /// The series-parallel parse this computation unfolded from, when a
  /// front end (proc::CilkProgram) recorded one; nullptr otherwise.
  /// Carrying the parse lets trace::find_races use the near-linear
  /// SP-bags detector instead of the pairwise scan. Derived
  /// computations (extend, augment, induced) and set_ops drop the
  /// annotation, since the parse no longer describes them.
  [[nodiscard]] const SpStructurePtr& sp_structure() const noexcept {
    return sp_;
  }
  void set_sp_structure(SpStructurePtr sp) {
    CCMM_CHECK(sp == nullptr || sp->node_count == node_count(),
               "SP structure does not match this computation");
    sp_ = std::move(sp);
  }

  /// Human-readable multi-line dump (nodes, ops, edges).
  [[nodiscard]] std::string to_string() const;

 private:
  Dag dag_;
  std::vector<Op> ops_;
  SpStructurePtr sp_;
};

/// Builds a computation node by node; every node's predecessors are
/// given when it is added, so ids are a topological order. build()
/// freezes the graph in one O(n + m) pass.
class ComputationBuilder {
 public:
  /// Add a node labelled `o` whose direct predecessors are `preds`
  /// (existing nodes); returns its id.
  NodeId node(Op o, const std::vector<NodeId>& preds = {}) {
    const auto u = static_cast<NodeId>(ops_.size());
    for (const NodeId p : preds)
      CCMM_CHECK(p < u, "predecessor must be an existing node");
    dag_.add_nodes(1);
    ops_.push_back(o);
    for (const NodeId p : preds) dag_.add_edge(p, u);
    return u;
  }
  NodeId read(Location l, const std::vector<NodeId>& preds = {}) {
    return node(Op::read(l), preds);
  }
  NodeId write(Location l, const std::vector<NodeId>& preds = {}) {
    return node(Op::write(l), preds);
  }
  NodeId nop(const std::vector<NodeId>& preds = {}) {
    return node(Op::nop(), preds);
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return ops_.size();
  }

  [[nodiscard]] Computation build() && {
    return Computation(dag_.build(), std::move(ops_));
  }

 private:
  DagBuilder dag_;
  std::vector<Op> ops_;
};

}  // namespace ccmm
