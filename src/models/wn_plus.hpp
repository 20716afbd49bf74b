// ccmm/models/wn_plus.hpp
//
// WN⁺: WN-dag consistency strengthened with a freshness axiom:
//   if some write to l precedes u in the dag, then Φ(l, u) ≠ ⊥.
// Motivation: under the paper's exact Definition 20, WN answers every
// one-node extension by valuing the new node at ⊥ (see EXPERIMENTS.md),
// which makes WN constructible — contradicting the paper's prose claim
// that only WW among the four dag models is constructible. The prose
// refers to the strengthened dag consistency of [BFJ+96a], which rules
// out "a read sees nothing although a write already happened before
// it". WN⁺ is that natural strengthening; ccmm uses it to study how
// the freshness axiom changes the constructibility landscape (bench
// fig4_nonconstructibility and open_problem_probe report on it).
//
// WN⁺ and NN⁺ (NN ∩ freshness, the strongest "fresh" dag model) are
// compiled specs: builtin_model(kSuiteWNPlus) and
// builtin_model(kSuiteNNPlus) (models/compile.hpp). The freshness axiom
// has one implementation, the per-location kernel's writer shadow
// (core/loc_incremental.hpp); observer_is_fresh_prepared reads the bit
// a PreparedPair keeps.
#pragma once

#include "models/qdag.hpp"

namespace ccmm {

/// The freshness axiom alone: ∀l, u: (∃ write w to l with w ≺ u) ⇒
/// Φ(l, u) ≠ ⊥. observer_is_fresh_prepared on prepare_pair(c, phi). An
/// invalid observer function is rejected.
[[nodiscard]] bool observer_is_fresh(const Computation& c,
                                     const ObserverFunction& phi);

/// Freshness on a PreparedPair: its kernel bit (PreparedPair::violated).
[[nodiscard]] bool observer_is_fresh_prepared(const PreparedPair& p);

/// Membership in WN⁺ = WN ∩ freshness: builtin_model(kSuiteWNPlus) on
/// (c, phi).
[[nodiscard]] bool wn_plus_consistent(const Computation& c,
                                      const ObserverFunction& phi);

}  // namespace ccmm
