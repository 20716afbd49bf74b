// ccmm/analyze/race_oracle.hpp
//
// The oracle-backed general-dag race engine: exact race detection at
// million-node scale without the O(n²)-bit transitive closure the
// pairwise engine leans on. Three phases, sharded per location across
// the ThreadPool (the trace/large_check idiom):
//
//  1. Total-order fast path. Sort a location's accessors by topological
//     rank and ask the precedence oracle (dag/precedence_oracle.hpp)
//     for (a) the writer chain w₁ ≺ w₂ ≺ … ≺ w_k and (b) each reader's
//     sandwich between its rank-neighbouring writers. Both hold ⇔ the
//     location is race-free, and the proof costs O(writers + accessors)
//     O(1) oracle queries. Because topological rank refutes the reverse
//     direction for free, any failed query is itself a concrete race.
//  2. Racy locations with few candidate pairs enumerate them directly
//     against the oracle — the same i < j walk as the pairwise engine,
//     so the output order needs no massaging.
//  3. Heavy racy locations fall back to 256-anchor reach-mask sweeps
//     (dag/sweep.hpp — the runtime-dispatched AVX2/scalar W=4 kernels):
//     anchors are the racy locations' writers, 256 per chunk spanning
//     locations; one forward + one backward O(n + m) sweep per chunk
//     leaves, at each accessor v, the mask of anchor writers
//     incomparable with v — the racing partners — with zero oracle
//     queries. Anchor bits are preset straight into the mask rows, the
//     chunks run on O(threads) shards that each reuse one fwd/bwd
//     arena, and writer/writer pairs dedupe by emitting only partners
//     with smaller node id.
//
// The merged result is sorted by (a, b, loc) and deduplicated:
// byte-identical to find_races_pairwise (differentially tested).
//
// summarize_races is the output-sensitive form both lints run: the
// exact race count and the k smallest races, never the whole set.
// Under the SP-order oracle a racy location needs no pair walk at all:
// the oracle's two linear extensions E and H disagree exactly on the
// incomparable pairs, so the location's race count is an inversion
// count (a Fenwick tree over H ranks, O(A log A) for A accessors); a
// descending-id walk with prefix-max/suffix-min trees over E ranks
// flags each accessor that races with a larger id, and only flagged
// accessors enumerate partners until k races are taken (O(k·A)).
// Under the closure or chain oracle phases 2 and 3 count instead of
// collect — popcounts of the candidate masks and the direct pairs —
// and materialize only candidates that can still enter the top k.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/computation.hpp"
#include "dag/precedence_oracle.hpp"
#include "trace/race.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ccmm::analyze {

struct RaceScanOptions {
  /// Oracle selection for precedence queries (kAuto: SP labels when the
  /// computation carries a parse, closure when small, chains otherwise).
  OracleOptions oracle;
  /// A racy location whose writers·(accessors−1) candidate-pair count is
  /// at most this enumerates pairs directly against the oracle; larger
  /// locations go to the mask sweeps. 0 forces every racy location onto
  /// the sweeps, SIZE_MAX forces direct enumeration (both are exercised
  /// by the differential tests).
  std::size_t direct_pair_threshold = 4096;
  /// Shard per-location work across this pool (nullptr = global_pool()).
  ThreadPool* pool = nullptr;
  bool parallel = true;
  /// find_races_oracle stops collecting once this many races have been
  /// merged; the scan stays exact below the cap and
  /// RaceScanStats::truncated reports a hit. summarize_races always
  /// counts exactly; the lints clamp the count they report here
  /// (analyze/passes.hpp).
  std::size_t max_races = SIZE_MAX;
  /// Force a kernel level for the mask sweeps (nullopt = the process
  /// dispatch). Scalar and SIMD are bit-identical by construction;
  /// differential tests pin both in one process through this.
  std::optional<SimdLevel> simd;
};

struct RaceScanStats {
  std::string oracle_kind;
  std::size_t oracle_memory_bytes = 0;
  double oracle_build_millis = 0.0;
  double scan_millis = 0.0;
  std::size_t locations = 0;       // locations with a writer + ≥2 accessors
  std::size_t racy_locations = 0;  // fast-path failures
  std::size_t order_locations = 0;  // counted by SP-order inversions
  std::size_t direct_locations = 0;
  std::size_t mask_locations = 0;
  std::size_t mask_groups = 0;  // 256-anchor sweep chunks run
  std::size_t oracle_queries = 0;
  std::size_t races = 0;
  bool truncated = false;  // max_races cap hit

  // Data-plane accounting: the kernel level the sweeps dispatch to,
  // the location index with its slices, and the widest per-shard sweep
  // arena (fwd/bwd mask rows) or, under summarize_races' SP-order
  // count, the widest per-location rank and tree scratch. The sweeps
  // read the dag's own edge arrays.
  std::string simd;
  std::size_t groups_bytes = 0;
  std::size_t scratch_peak_bytes = 0;

  [[nodiscard]] std::string to_string() const;
};

/// All races, ordered by (a, b, loc), deduplicated — the same contract
/// as find_races_pairwise, without ever materializing a closure (under
/// kAuto the oracle layer may still pick the closure for small dags).
[[nodiscard]] std::vector<Race> find_races_oracle(
    const Computation& c, const RaceScanOptions& options = {},
    RaceScanStats* stats = nullptr);

/// The exact race count and the races that sort first by (a, b, loc).
struct RaceSummary {
  std::size_t count = 0;
  std::vector<Race> smallest;  // min(k, count) races, (a, b, loc) order
};

/// find_races_oracle's size and its first k races, without
/// materializing the rest: O(A log A + k·A) per racy location of A
/// accessors under the SP-order oracle, phases 1–3 with counting sweeps
/// otherwise. RaceScanOptions::max_races does not apply (the count is
/// exact) and RaceScanStats::races is the count.
[[nodiscard]] RaceSummary summarize_races(const Computation& c, std::size_t k,
                                          const RaceScanOptions& options = {},
                                          RaceScanStats* stats = nullptr);

/// The phase-1 fast path alone: the lexicographically least (a, b, loc)
/// racing pair among the per-location first findings, or nullopt when
/// race-free. O(accessors) oracle queries total — this is also the
/// verification pass behind the DRF certificate.
[[nodiscard]] std::optional<Race> find_first_race(
    const Computation& c, const RaceScanOptions& options = {},
    RaceScanStats* stats = nullptr);

/// True iff c has at least one race; stops at the first fast-path
/// failure.
[[nodiscard]] bool has_race_oracle(const Computation& c,
                                   const RaceScanOptions& options = {});

}  // namespace ccmm::analyze
