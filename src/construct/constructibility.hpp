// ccmm/construct/constructibility.hpp
//
// Mechanical constructibility checking (Definition 6). A model is
// constructible iff every member pair can answer every one-node extension
// (Theorem 10 gives sufficiency of single extensions; failure on a single
// extension is a fortiori a failure of Definition 6). For monotonic
// models, Theorem 12 reduces the test to augmented computations only.
//
// On a bounded universe the checks are exhaustive up to the bound: a
// returned witness is a genuine disproof of constructibility; absence of
// a witness is evidence (and, for monotonic models whose behaviour is
// determined below the bound, proof) up to that size.
#pragma once

#include <optional>

#include "core/memory_model.hpp"
#include "enumerate/universe.hpp"

namespace ccmm {

/// A disproof of constructibility: (c, phi) ∈ Δ but no observer function
/// of `extension` extends phi within Δ.
struct NonconstructibilityWitness {
  Computation c;
  ObserverFunction phi;
  Computation extension;

  [[nodiscard]] std::string to_string() const;
};

/// Every search tests one extension per ancestor-closure class (sound
/// for ≺-invariant models, which all of ccmm's are).
struct WitnessSearchOptions {
  UniverseSpec spec;
  /// Only test augmented computations (valid for monotonic models,
  /// Theorem 12); much cheaper.
  bool augment_only = false;
  /// Scan one computation per isomorphism class instead of the whole
  /// labeled universe (enumerate/canonical.hpp). Unanswerability of an
  /// extension is isomorphism-invariant for the paper's models, so the
  /// quotient scan is complete: a witness exists iff one exists at a
  /// canonical representative. The returned witness may differ from the
  /// labeled scan's by a relabeling.
  bool quotient = true;
};

/// Search the bounded universe for a nonconstructibility witness.
/// nullopt means the model answered every extension — constructible as
/// far as the bound can see.
[[nodiscard]] std::optional<NonconstructibilityWitness>
find_nonconstructibility_witness(const MemoryModel& model,
                                 const WitnessSearchOptions& options);

/// The smallest witness (fewest nodes in c, then fewest edges), found by
/// exhausting sizes in increasing order. nullopt as above.
[[nodiscard]] std::optional<NonconstructibilityWitness>
find_minimal_nonconstructibility_witness(const MemoryModel& model,
                                         const WitnessSearchOptions& options);

}  // namespace ccmm
