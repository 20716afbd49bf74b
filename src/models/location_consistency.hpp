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
// (models/compile.hpp), which lowers onto location_consistent_prepared.
// The one-shot names below read the same PreparedPair block partition,
// built by prepare_pair.
#pragma once

#include <optional>

#include "core/memory_model.hpp"

namespace ccmm {

/// Is (c, phi) location consistent? location_consistent_prepared on
/// prepare_pair(c, phi); O(L·(V+E)) after closure.
[[nodiscard]] bool location_consistent(const Computation& c,
                                       const ObserverFunction& phi);

/// Same answer on a PreparedPair: reuses the pair's validity verdict and
/// Φ⁻¹ block partition instead of recomputing both.
[[nodiscard]] bool location_consistent_prepared(const PreparedPair& p);

/// Is location l of (c, phi) serializable? False for an invalid phi; true
/// for a location no node writes (its column is all ⊥).
[[nodiscard]] bool location_consistent_at(const Computation& c,
                                          const ObserverFunction& phi,
                                          Location l);

namespace detail {
/// Shared core of the LC test: does the quotient graph on blocks (node u
/// in block block_of[u]; block 0 = B_⊥) admit a topological order with
/// block 0 first? Isolated empty blocks are permitted and harmless.
[[nodiscard]] bool lc_quotient_sortable(const Computation& c,
                                        const std::uint32_t* block_of,
                                        std::size_t nblocks,
                                        std::vector<std::size_t>* order_out);
}  // namespace detail

/// A topological sort T of c with W_T(l,·) = Φ(l,·), if one exists —
/// the per-location witness demanded by Definition 18. nullopt for an
/// invalid phi; the canonical topological order for a location no node
/// writes.
[[nodiscard]] std::optional<std::vector<NodeId>> lc_witness(
    const Computation& c, const ObserverFunction& phi, Location l);

}  // namespace ccmm
