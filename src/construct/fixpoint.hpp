// ccmm/construct/fixpoint.hpp
//
// The constructible version Δ* (Definition 8) computed as a greatest
// fixpoint on a bounded universe. Δ* equals the greatest X ⊆ Δ such that
// every member pair can answer every one-node extension within X (see
// DESIGN.md for the argument via Theorems 9/10). On a universe bounded
// at max_nodes, pairs at the ceiling are never pruned (no extension
// information), so the result OVER-approximates Δ* — tightly for sizes
// well below the ceiling. Theorem 23 (LC = NN*) is verified by combining
// this over-approximation with the certified inclusion LC ⊆ NN*: if the
// fixpoint collapses onto LC, equality holds on the bounded universe.
//
// One schedule computes it, the semi-naive worklist engine (see
// FixpointOptions); the definitional round-snapshot schedule lives on
// only as the test reference (tests/reference_fixpoint.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/memory_model.hpp"
#include "enumerate/universe.hpp"
#include "util/thread_pool.hpp"

namespace ccmm {

/// An extensional (finite) set of pairs, grouped by computation, with
/// per-pair liveness. Also usable as a MemoryModel over its universe.
///
/// Two storage modes share this type. The *labeled* mode (restrict_model)
/// holds every computation of the universe, keyed by encode_computation.
/// The *quotient* mode (restrict_model_quotient) holds one canonical
/// representative per isomorphism class, keyed by its canonical
/// encoding, with the orbit multiplicity on the entry; census queries
/// (live_count, compare_with_model) weight by multiplicity, and
/// contains_pair canonicalizes the query and transports the observer
/// onto the representative, so the quotient set answers for the whole
/// labeled universe.
class BoundedModelSet {
 public:
  struct Entry {
    Computation c;
    std::vector<ObserverFunction> phis;
    std::vector<char> alive;
    /// Orbit size of c's class in the labeled universe (1 in labeled
    /// mode).
    std::uint64_t multiplicity = 1;
  };

  /// Materialize model ∩ universe(spec). Member observers come from
  /// model.for_each_member_observer, so models with a pruned enumerator
  /// (the Q-dag family) skip the generate-and-test bulk.
  static BoundedModelSet restrict_model(const MemoryModel& model,
                                        const UniverseSpec& spec);

  /// Materialize the isomorphism quotient of model ∩ universe(spec):
  /// one entry per class, orbit multiplicities attached. With a pool,
  /// the per-labeling canonicalization and membership checks fan out
  /// across dag-class shards (classes never cross shards, so the merge
  /// is collision-free); the entry set is identical either way.
  static BoundedModelSet restrict_model_quotient(const MemoryModel& model,
                                                 const UniverseSpec& spec,
                                                 ThreadPool* pool = nullptr);

  [[nodiscard]] const UniverseSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool quotient() const noexcept { return quotient_; }

  /// Number of live pairs in the labeled universe (optionally only
  /// those with exactly n nodes). Quotient sets weight each live
  /// representative by its orbit multiplicity, so both modes report the
  /// same census.
  [[nodiscard]] std::size_t live_count() const;
  [[nodiscard]] std::size_t live_count_at_size(std::size_t n) const;

  /// Membership among live pairs. Pairs outside the universe are absent.
  /// On a quotient set, any labeled (c, phi) of the universe may be
  /// queried: the pair is canonicalized and transported first.
  [[nodiscard]] bool contains_pair(const Computation& c,
                                   const ObserverFunction& phi) const;

  /// Iterate live pairs; visit returns false to stop. On a quotient set
  /// this visits representatives only (once per class).
  void for_each_live(const std::function<bool(const Computation&,
                                              const ObserverFunction&)>& visit)
      const;

  /// Internal: the entry table (exposed for the fixpoint driver).
  [[nodiscard]] std::unordered_map<std::string, Entry>& entries() {
    return entries_;
  }
  [[nodiscard]] const std::unordered_map<std::string, Entry>& entries() const {
    return entries_;
  }

 private:
  UniverseSpec spec_;
  bool quotient_ = false;
  // key: encode_computation (labeled) / canonical encoding (quotient)
  std::unordered_map<std::string, Entry> entries_;
};

/// The one fixpoint schedule is the semi-naive worklist: one full
/// judging pass records a support edge per (pair, extension)
/// constraint, then only the dependents of killed pairs are re-judged,
/// repairing their support from another live answer before killing
/// them. Each pair is judged against one representative per
/// ancestor-closure class of its one-node extensions instead of all
/// |alphabet| * 2^|V| of them — sound because gfp liveness depends only
/// on the transitive closure (see DESIGN.md). tests/reference_fixpoint.hpp
/// keeps the definitional round-snapshot schedule over every extension
/// as the differential reference.
struct FixpointOptions {
  /// Nonzero: shuffle each kill-propagation wave with this seed before
  /// processing (kill-order-independence test hook).
  std::uint64_t scramble_seed = 0;
};

struct FixpointStats {
  std::size_t initial_pairs = 0;
  std::size_t final_pairs = 0;
  std::size_t rounds = 0;
  std::size_t pruned = 0;
  /// Support edges registered in the reverse dependency index over the
  /// whole run (initial pass + repairs). Constraints answered by a
  /// boundary pair need no edge (boundary pairs never die) and are not
  /// counted.
  std::size_t support_edges = 0;
  /// Re-judged constraints that found another live answer (and so did
  /// not propagate the kill).
  std::size_t repairs = 0;
  /// Constraint re-judges triggered by kill propagation.
  std::size_t rejudged_pairs = 0;
  /// Largest kill-propagation wave.
  std::size_t worklist_peak = 0;
  /// Judging volume per round: entry [0] is the initial full pass (all
  /// non-boundary pairs); later entries are the constraints re-judged
  /// per propagation wave.
  std::vector<std::size_t> judged_pairs_per_round;
};

/// Compute the bounded greatest fixpoint described above, starting from
/// model ∩ universe(spec). Pairs with max_nodes nodes are boundary pairs
/// and are never pruned.
[[nodiscard]] BoundedModelSet constructible_version(
    const MemoryModel& model, const UniverseSpec& spec,
    FixpointStats* stats = nullptr, const FixpointOptions& options = {});

/// Pool-parallel variant: the restriction's membership scan and the
/// extension/answer resolution fan out across the pool; kills apply
/// serially. Converges to the same greatest fixpoint.
[[nodiscard]] BoundedModelSet constructible_version_parallel(
    const MemoryModel& model, const UniverseSpec& spec, ThreadPool& pool,
    FixpointStats* stats = nullptr, const FixpointOptions& options = {});

/// Quotient fixpoint: one representative per isomorphism class, one-node
/// extension answers transported along the canonical relabelings
/// (support edges are likewise orbit-transported: they connect
/// representative pairs through the relabeling maps). The
/// greatest fixpoint is a union of orbits (answerability is
/// isomorphism-invariant), so the result is the exact quotient of the
/// labeled fixpoint: contains_pair / live_count / compare_with_model
/// agree with constructible_version on every labeled query. Stats count
/// labeled pairs (multiplicity-weighted); rounds may differ from the
/// labeled driver.
[[nodiscard]] BoundedModelSet constructible_version_quotient(
    const MemoryModel& model, const UniverseSpec& spec,
    FixpointStats* stats = nullptr, const FixpointOptions& options = {});

/// Pool-parallel variant of the quotient fixpoint (parallel restriction
/// and resolution; kills apply serially).
[[nodiscard]] BoundedModelSet constructible_version_quotient_parallel(
    const MemoryModel& model, const UniverseSpec& spec, ThreadPool& pool,
    FixpointStats* stats = nullptr, const FixpointOptions& options = {});

/// Compare a fixpoint result with a reference model, per size class:
/// returns for each n ≤ max_nodes the pair (live in fixpoint, member of
/// reference) counts and whether the two sets coincide at that size.
struct SizeClassComparison {
  std::size_t size = 0;
  std::size_t fixpoint_pairs = 0;
  std::size_t reference_pairs = 0;
  bool equal = false;
};
[[nodiscard]] std::vector<SizeClassComparison> compare_with_model(
    const BoundedModelSet& fixpoint, const MemoryModel& reference);

}  // namespace ccmm
