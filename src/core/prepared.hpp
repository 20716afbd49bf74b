// ccmm/core/prepared.hpp
//
// Shared preparation for membership checking. The batch consumers
// (FIG1/CUBE sweeps, BoundedModelSet censuses, the Δ* fixpoint's answer
// judging, analyze's model split) evaluate the SAME (C, Φ) pair under
// many models, so the shared work is paid once here and reused through
// the two-level MemoryModel API (contains_prepared): the Definition 2
// verdict, the frozen dag reachability, the writer lists, and the
// verdicts of the per-location kernel (core/loc_incremental.hpp) that
// the streaming engines run — LC, NN/NW/WN/WW and freshness — kept per
// location, so every question after a bit's first is a lookup.
//
// A PreparedPair is a non-owning view: the computation and observer
// function must outlive it. It is meant to be consumed on one thread;
// build one per task when fanning out.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/loc_incremental.hpp"
#include "core/observer.hpp"

namespace ccmm {

class CheckContext;

/// The per-(C, Φ) bundle every checker shares: the validity verdict (with
/// the diagnostic ValidityResult detail, not just the bool), frozen dag
/// reachability (ensure_closure() is called eagerly so parallel stages
/// never race the lazy build), per-location writer lists and kernel
/// verdicts, and the canonical last-writer function.
class PreparedPair {
 public:
  /// One written location: its writers — the kernel's Φ-block b ≥ 1 is
  /// the block of writers[b-1], block 0 is B_⊥ — and the suite bits the
  /// kernel has decided there, and found violated.
  struct LocationPrep {
    Location loc = 0;
    std::vector<NodeId> writers;  // id order
    std::uint32_t decided = 0;
    std::uint32_t violated = 0;   // ⊆ decided
  };

  [[nodiscard]] const Computation& computation() const { return *c_; }
  [[nodiscard]] const ObserverFunction& observer() const { return *phi_; }
  [[nodiscard]] std::size_t node_count() const { return c_->node_count(); }

  /// Definition 2 verdict, with the failure diagnostic preserved.
  [[nodiscard]] const ValidityResult& validity() const { return validity_; }
  [[nodiscard]] bool valid() const { return validity_.ok; }

  /// One LocationPrep per written location, sorted by location — for a
  /// valid Φ exactly its active locations. Empty when the observer is
  /// invalid (checkers reject first).
  [[nodiscard]] const std::vector<LocationPrep>& locations() const {
    return locs_;
  }
  /// The prep for location l, or nullptr if nothing writes l.
  [[nodiscard]] const LocationPrep* location(Location l) const;

  /// The bits among `bits` (⊆ kLargeCheckExt) that some written
  /// location violates, location by location (violated_at), stopping
  /// once every requested bit is seen violated. An invalid pair
  /// violates every bit.
  [[nodiscard]] std::uint32_t violated(std::uint32_t bits) const;

  /// The bits among `bits` that location `lp` of this valid pair
  /// violates. A kernel run decides the bits of the location's first
  /// request, and a second run every other bit; later requests read
  /// the verdicts kept in `lp`.
  [[nodiscard]] std::uint32_t violated_at(const LocationPrep& lp,
                                          std::uint32_t bits) const;

  /// Run the kernel over one written location of this valid pair for
  /// `bits` (⊆ kLargeCheckAll | kSuiteFresh) and return the context's
  /// state, valid until its next run — for the diagnostics that read a
  /// witness or LC's block order.
  [[nodiscard]] const LocState& run_kernel(const LocationPrep& lp,
                                           std::uint32_t bits) const;

  /// The canonical topological order of the dag (cached on first use).
  [[nodiscard]] const std::vector<NodeId>& topological_order() const;
  /// W_T for that order — the paper's last-writer function (cached).
  [[nodiscard]] const ObserverFunction& canonical_last_writer() const;

 private:
  friend class CheckContext;
  PreparedPair() = default;

  const Computation* c_ = nullptr;
  const ObserverFunction* phi_ = nullptr;
  CheckContext* ctx_ = nullptr;
  ValidityResult validity_;
  // Lazy, single-thread caches (a PreparedPair is not shared); the
  // kernel verdicts live in locs_.
  mutable std::vector<LocationPrep> locs_;
  mutable std::vector<NodeId> topo_;
  mutable bool topo_valid_ = false;
  mutable std::optional<ObserverFunction> last_writer_;
};

/// Factory for PreparedPairs plus the per-location kernel's state, arena
/// and node maps, recycled pair to pair instead of reallocated per
/// check. One context per thread; prepare() and the kernel runs are not
/// reentrant across threads.
class CheckContext {
 public:
  CheckContext() = default;
  CheckContext(const CheckContext&) = delete;
  CheckContext& operator=(const CheckContext&) = delete;

  /// Validate Φ, freeze the dag's reachability closure, and list the
  /// written locations' writers. The returned pair borrows c, phi and
  /// this context.
  [[nodiscard]] PreparedPair prepare(const Computation& c,
                                     const ObserverFunction& phi);

  struct Stats {
    std::uint64_t prepared = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  friend class PreparedPair;
  /// Run the kernel over the whole of location `lp` of valid pair `p`
  /// for `bits` (⊆ kLargeCheckAll | kSuiteFresh).
  LocState& run(const PreparedPair& p, const PreparedPair::LocationPrep& lp,
                std::uint32_t bits);

  LocKernelCtx kctx_;
  LocState state_;
  LocArena arena_;
  std::vector<std::uint32_t> wblock_, wloc_, pos_of_;
  std::vector<NodeId> ids_;  // 0, 1, 2, …: the scan order of id-sorted dags
  Stats stats_;
};

/// Prepare with a per-thread CheckContext — the convenience the base
/// MemoryModel::contains() bridge uses.
[[nodiscard]] PreparedPair prepare_pair(const Computation& c,
                                        const ObserverFunction& phi);

}  // namespace ccmm
