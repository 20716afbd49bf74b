// ccmm/models/location_consistency.hpp
//
// Definition 18: location consistency (often called coherence).
//   LC = { (C, Φ) : ∀l ∃T ∈ TS(C) ∀u. Φ(l, u) = W_T(l, u) }
// Each location may be serialized by its own topological sort.
//
// Membership is decided in polynomial time by a block-quotient argument:
// for location l, Φ(l,·) partitions V into B_⊥ = Φ⁻¹(⊥) and B_x = Φ⁻¹(x)
// per observed write x. A witnessing T exists iff the quotient graph on
// blocks (edges inherited from the dag) is acyclic and B_⊥ can be placed
// first. Observer validity (2.2/2.3) guarantees each block's writer can
// lead its block, so no further condition is needed. See DESIGN.md.
//
// The model is the compiled spec builtin_model(kSuiteLC)
// (models/compile.hpp). The quotient test has one implementation, the
// per-location kernel's incremental Kahn (core/loc_incremental.hpp):
// location_consistent_prepared reads the LC bit a PreparedPair keeps,
// the one-shot names run it on prepare_pair, and lc_witness orders the
// blocks by the kernel's drain order.
#pragma once

#include <optional>

#include "core/memory_model.hpp"

namespace ccmm {

/// Is (c, phi) location consistent? location_consistent_prepared on
/// prepare_pair(c, phi); O(L·(V+E)) after closure.
[[nodiscard]] bool location_consistent(const Computation& c,
                                       const ObserverFunction& phi);

/// Same answer on a PreparedPair: its kernel LC bit (PreparedPair::violated).
[[nodiscard]] bool location_consistent_prepared(const PreparedPair& p);

/// Is location l of (c, phi) serializable? False for an invalid phi; true
/// for a location no node writes (its column is all ⊥).
[[nodiscard]] bool location_consistent_at(const Computation& c,
                                          const ObserverFunction& phi,
                                          Location l);

/// A topological sort T of c with W_T(l,·) = Φ(l,·), if one exists —
/// the per-location witness demanded by Definition 18. nullopt for an
/// invalid phi; the canonical topological order for a location no node
/// writes.
[[nodiscard]] std::optional<std::vector<NodeId>> lc_witness(
    const Computation& c, const ObserverFunction& phi, Location l);

}  // namespace ccmm
