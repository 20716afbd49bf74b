// ccmm/analyze/anomaly.hpp
//
// Model-anomaly classification. The paper's central theorem about races
// — race-free computations look identical under SC, LC and all four
// dag-consistent models, because every valid observer function is the
// last-writer function of every topological sort — means a race is
// exactly a *license* for the models to disagree. This pass turns that
// license into a verdict: for a racing pair it shrinks the computation
// to the minimal prefix containing the race (the ancestor closure of
// the two nodes), enumerates every valid observer function of that
// witness, evaluates all six models on each, and groups the models into
// behaviour classes (same accepted set = indistinguishable on this
// race). Two parallel writes nobody reads race, yet every model agrees;
// Figure 2's write-read pattern splits WW from NN. The lint reports the
// difference.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "analyze/diagnostics.hpp"
#include "models/compile.hpp"
#include "trace/race.hpp"

namespace ccmm::analyze {

struct AnomalyOptions {
  /// Give up on classification when the witness admits more valid
  /// observer functions than this (the enumeration is exponential).
  std::uint64_t observer_budget = 1u << 14;
  /// Give up when the witness has more nodes than this.
  std::size_t witness_node_cap = 12;
  /// Backtracking budget per serialization search (SC and the extras'
  /// global or scoped orders).
  std::size_t sc_budget = 200'000;
  /// Compiled spec models (models/compile.hpp) classified alongside the
  /// six core models: the split then also says which user models the
  /// race can tell apart. They are recompiled at sc_budget, keep their
  /// own entry even when named like a core model, and may number more
  /// than one registry holds. Their names and structural digests are
  /// folded into the classification cache key, so specs with different
  /// axioms never share an answer.
  std::vector<std::shared_ptr<const CompiledModel>> extra_models;
};

/// The minimal prefix of `c` exhibiting the race between `a` and `b`:
/// the induced subcomputation on ancestors(a) ∪ ancestors(b) ∪ {a, b}
/// (downward closed, hence a prefix in the paper's sense). A read/write
/// race carries its own observer; for a write/write race the witness
/// additionally keeps the earliest read of the raced location that does
/// not precede the race (plus that read's ancestors), since without an
/// observer two parallel writes are invisible to every model. `wa`/`wb`
/// receive the racing pair's ids inside the witness when non-null.
[[nodiscard]] Computation race_witness(const Computation& c, NodeId a,
                                       NodeId b, NodeId* wa = nullptr,
                                       NodeId* wb = nullptr);

/// race_witness with a node budget: nullopt as soon as the witness
/// closure would exceed `node_cap` nodes. Built by bounded reverse BFS
/// (dag/bounded_ancestor_closure) — no transitive closure — so shrunk
/// witnesses stay cheap on million-node computations where
/// Dag::ancestors() is unaffordable. race_witness delegates here with
/// an unbounded cap.
[[nodiscard]] std::optional<Computation> race_witness_capped(
    const Computation& c, NodeId a, NodeId b, std::size_t node_cap,
    NodeId* wa = nullptr, NodeId* wb = nullptr);

/// Classify how SC/LC/NN/NW/WN/WW split on the race's minimal witness.
/// Returns nullopt when the witness exceeds the options' caps.
[[nodiscard]] std::optional<ModelSplit> classify_race(
    const Computation& c, const Race& r, const AnomalyOptions& opt = {});

}  // namespace ccmm::analyze
