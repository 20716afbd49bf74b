// ccmm/models/sequential_consistency.hpp
//
// Definition 17: sequential consistency, computation-centrically:
//   SC = { (C, Φ) : ∃T ∈ TS(C) ∀l ∀u. Φ(l, u) = W_T(l, u) }
// One topological sort must explain every location at once.
//
// With a known observer function this is the VSC-read problem, which is
// NP-complete in general (Gibbons & Korach 1994), so membership is a
// backtracking search: we grow T one node at a time; a node is placeable
// iff its dag predecessors are placed and, for every location, its
// observed write equals the most recently placed writer. Dead
// (placed-set, current-writer-vector) states are memoized.
//
// The model is the compiled spec builtin_model(kSuiteSC)
// (models/compile.hpp), which lowers onto sc_check_prepared; sc_check
// and sc_check_with run that same checker on prepare_pair(c, phi).
#pragma once

#include <optional>

#include "core/memory_model.hpp"

namespace ccmm {

enum class SearchStatus : std::uint8_t { kYes, kNo, kExhausted };

struct ScResult {
  SearchStatus status = SearchStatus::kNo;
  /// Witnessing topological sort when status == kYes.
  std::optional<std::vector<NodeId>> witness;
  /// Search nodes expanded.
  std::size_t expanded = 0;
};

/// Tuning knobs, used by the ablation benchmark to quantify what the
/// memoization and the LC prefilter buy (both default on).
struct ScOptions {
  std::size_t budget = SIZE_MAX;
  bool memoize_dead_states = true;
  bool lc_prefilter = true;
};

/// Decide (c, phi) ∈ SC. `budget` bounds the number of search states
/// expanded; on exhaustion the status is kExhausted (answer unknown).
/// An invalid observer function is a kNo.
[[nodiscard]] ScResult sc_check(const Computation& c,
                                const ObserverFunction& phi,
                                std::size_t budget = SIZE_MAX);

/// Fully parameterized variant: sc_check_prepared(prepare_pair(c, phi),
/// options).
[[nodiscard]] ScResult sc_check_with(const Computation& c,
                                     const ObserverFunction& phi,
                                     const ScOptions& options);

/// Same answer on a PreparedPair: skips re-validation, reads the pair's
/// kernel LC bit as the prefilter, and runs serialization_check on the
/// active locations.
[[nodiscard]] ScResult sc_check_prepared(const PreparedPair& p,
                                         const ScOptions& options = {});

/// The scoped generalization the model compiler lowers partition
/// consistency onto: one topological sort must explain the columns of
/// exactly the locations in `locs` (other locations are unconstrained).
/// SC is the special case locs = phi.active_locations(). The search
/// core is the same backtracking engine as sc_check — it touches only
/// the dag's adjacency lists and the requested Φ columns, never the
/// transitive closure, which is what lets the streaming postmortem path
/// (trace/spec_check.hpp) run it on million-node traces.
/// Precondition: phi is a valid observer function for c (callers sit
/// behind a validity verdict; the LC prefilter option is ignored).
[[nodiscard]] ScResult serialization_check(const Computation& c,
                                           const ObserverFunction& phi,
                                           const std::vector<Location>& locs,
                                           const ScOptions& options = {});

/// Does the topological order `order` explain the columns of `locs` as
/// last-writer functions? A cheap O(n·|locs|) *verification* — the
/// streaming scoped check tries the trace's own execution order first,
/// which is always a witness for scope-consistent executions, before
/// paying for any search. Precondition: phi valid, `order` a
/// permutation of the nodes respecting the dag (not re-checked).
[[nodiscard]] bool order_explains(const Computation& c,
                                  const ObserverFunction& phi,
                                  const std::vector<Location>& locs,
                                  const std::vector<NodeId>& order);

[[nodiscard]] inline bool sequentially_consistent(const Computation& c,
                                                  const ObserverFunction& phi) {
  return sc_check(c, phi).status == SearchStatus::kYes;
}

}  // namespace ccmm
