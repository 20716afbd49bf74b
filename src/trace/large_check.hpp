// ccmm/trace/large_check.hpp
//
// Streaming post-mortem checking for large traces. The classic pipeline
// (CheckContext::prepare → contains_prepared) runs the same
// per-location kernel but leans on the O(n²)-bit transitive closure,
// which caps verify_execution at toy sizes. large_check() decides the
// per-location-decomposable memberships — LC and the four dag
// consistency models NN/NW/WN/WW — by streaming the computation in
// topological order:
//
//  * observer validity (Definition 2) with the precedence-oracle layer
//    (dag/precedence_oracle.hpp): one O(1) point query per observation
//    instead of a closure row;
//  * observer validity runs its 2.2 point queries through the oracle's
//    batched entry point (precedes_batch), 4096 pairs at a time, which
//    the SP-labels oracle answers with AVX2 gathers;
//  * LC via the block-quotient Kahn scan, O(n+m) per location, built as
//    a counting CSR straight into reused scratch (no edge sort);
//  * NN/NW/WN/WW via three per-node block masks computed in one forward
//    and one backward sweep per batch of 256 Φ⁻¹ blocks — A[v] (blocks
//    with a member strictly before v), D[v] (blocks with a member
//    strictly after v) and W[v] (blocks whose writer is strictly before
//    v) — which re-express the Q(l,u,v,w) violation scan with zero
//    precedence queries (see DESIGN.md for the derivation). The sweeps
//    are the dag/sweep.hpp kernels: 4-word rows, runtime-dispatched
//    AVX2 with a bit-identical scalar fallback;
//  * locations packed onto O(threads) shards (longest-processing-time
//    order), each shard owning ONE reusable scratch arena — block maps,
//    quotient CSR, mask rows — so a run makes O(shards) allocations,
//    not O(locations). Peak memory is O(n) words per shard, never
//    O(n²) bits, and the report carries the measured bytes-per-node.
//
// Both entry points are thin callers of the one checking engine,
// CheckSession (trace/session_kernel.hpp): large_check_trace feeds it
// the trace's records as they lie, kChunkNodes at a time, and
// large_check points its states at Φ's stored columns and advances
// over every position. Online and batch verdicts agree because they
// run the same code. A trace location whose every read saw the latest
// write in trace order is witnessed by that order and never reaches
// the kernel: its row is the clean row, in O(events) for all such
// locations together. large_check_trace is the only route from a trace
// to a verdict (the lint pipeline and spec_check_trace call it).
// large_check(c, Φ) runs the kernel on every location, so it stays the
// independent reference for the stream entries. tests/test_large_check.cpp
// pins its verdicts to the paper's definitions
// (tests/reference_models.hpp).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/loc_incremental.hpp"
#include "core/suite.hpp"
#include "dag/precedence_oracle.hpp"
#include "trace/trace.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ccmm {

// kLargeCheckAll / kLargeCheckPlus / kLargeCheckExt and LocationCheck
// live in core/loc_incremental.hpp with the per-location kernel; the
// names are re-exported through this include unchanged.

struct LargeCheckOptions {
  /// Which models to decide (subset of kLargeCheckExt).
  std::uint32_t models = kSuiteLC;
  /// Oracle selection for the validity point queries (kAuto: SP labels
  /// when the computation carries a parse, closure when small, chains
  /// otherwise).
  OracleOptions oracle;
  /// Shard per-location work across this pool (nullptr = global_pool())
  /// when a span is large enough to pay for it; parallel = false keeps
  /// everything on the caller thread.
  ThreadPool* pool = nullptr;
  bool parallel = true;
  /// Force a kernel level for the mask sweeps (nullopt = the process
  /// dispatch from active_simd_level()). The scalar and SIMD kernels
  /// are bit-identical by construction; this exists so differential
  /// tests can run both in one process.
  std::optional<SimdLevel> simd;
  /// Called after each consumed chunk with (positions consumed, total
  /// node count) — the CLI's live progress line. Invoked from the
  /// calling thread between chunks; must be cheap (it is never called
  /// concurrently with itself). On a trace out of seq order that
  /// large_check_trace checks a second time (see there), the count
  /// starts over from 0.
  std::function<void(std::size_t, std::size_t)> progress;
};

struct LargeCheckReport {
  bool valid_observer = false;
  std::uint32_t checked = 0;    // the requested model mask
  std::uint32_t satisfied = 0;  // subset of `checked` that hold
  std::string detail;           // first failure across locations
  std::string oracle_kind;
  std::size_t oracle_memory_bytes = 0;
  double oracle_build_millis = 0.0;
  double total_millis = 0.0;
  std::vector<LocationCheck> locations;  // sorted by location

  // Data-plane accounting: which kernel level ran, how the
  // per-location work was sharded, and the bytes the check itself held
  // — the writer CSR plus the widest per-shard scratch arena plus the
  // auxiliary maps and the oracle — divided by the node count. The
  // kernels borrow the computation's own edge arrays, so they add
  // nothing here. peak_rss_bytes is the whole-process high-water
  // mark (getrusage), so it includes the computation and observer too.
  std::string simd;                      // "scalar" | "neon" | "avx2"
  std::size_t shards = 0;                // scratch arenas allocated
  std::size_t groups_bytes = 0;          // writer CSR (0: none materialized)
  std::size_t scratch_peak_bytes = 0;    // max per-shard arena + states
  std::size_t aux_bytes = 0;             // index, maps, scan order, ...
  std::size_t peak_rss_bytes = 0;        // process peak RSS after check
  double bytes_per_node = 0.0;           // check-owned bytes / node

  // Stage breakdown of the streaming scan (--trace in ccmm_check).
  // Spans that ran on the pool charge their slowest shard.
  double ingest_millis = 0.0;       // feed pass, column fill, reruns
  double group_build_millis = 0.0;  // index at setup + writer CSR, maps
  double kernel_millis = 0.0;       // LocState::advance over all spans
  double report_millis = 0.0;       // finalize_into + verdict fold
  bool pipelined = false;           // some span ran sharded on the pool
  std::string numa;                 // topology summary ("1 node" etc.)

  /// Same meaning as MemoryModel::contains for the given suite bit:
  /// valid observer and no location violates the model.
  [[nodiscard]] bool in_model(std::uint32_t bit) const {
    return valid_observer && (checked & bit) != 0 && (satisfied & bit) != 0;
  }

  /// The detail of the first location violating one of `bits`.
  [[nodiscard]] const std::string& violation_detail(std::uint32_t bits) const;

  /// Multi-line human summary (overall verdicts + per-location table).
  [[nodiscard]] std::string to_string() const;
};

/// Decide the requested models for (c, phi) without materializing the
/// transitive closure. Agrees with validate_observer + the models'
/// contains() on every input (differentially tested).
[[nodiscard]] LargeCheckReport large_check(const Computation& c,
                                           const ObserverFunction& phi,
                                           const LargeCheckOptions& options
                                           = {});

/// The total observer a trace induces: every read observes its recorded
/// write (⊥ included — the machine really saw no write), every write
/// observes itself (condition 2.3 forces this), and every unrecorded
/// slot observes the last write to that location the trace ran strictly
/// before the node's event (⊥ if none). The completion is what makes
/// membership meaningful — the paper's Φ is total, and leaving
/// unrecorded slots at ⊥ would order every block after B_⊥'s stragglers
/// and fail LC even on a serial SC execution. Because the trace order
/// is a linear extension of the dag, the completed entries always
/// satisfy condition 2.2.
///
/// A trace verdict is therefore the verdict of this completion, not of
/// the observer the machine had: the two agree where a node recorded
/// its observation, and the completion fills every other slot from
/// trace order. The verdict is exact for the machine when every read
/// saw the latest write in trace order (then the trace order is a
/// witness, and every model holds). Otherwise it may report a
/// violation the machine's own Φ does not have: the machine's Φ gives
/// an unrecorded slot the view of the processor that ran the node, the
/// completion the latest write in trace order. Check the machine's Φ
/// with large_check when it is at hand.
[[nodiscard]] ObserverFunction observer_from_trace(const Computation& c,
                                                   const Trace& trace);

/// Trace entry point: check the event count, then feed the trace to the
/// engine in stable seq order. The first defective event in that order
/// (unknown node or observation, duplicate, flipped dag edge)
/// fails the check with "trace does not fit the computation"; otherwise
/// the verdict is large_check over observer_from_trace(c, trace).
///
/// Simulator and binary traces are already in seq order, so the records
/// are fed as they lie, with no ordering pass, and feed()'s validator
/// checks the order. When that session rejects a trace whose records
/// are not in seq order, a fresh session checks it again in stable seq
/// order and its report is returned (the first session's time is
/// charged to its ingest stage, and progress starts over).
[[nodiscard]] LargeCheckReport large_check_trace(const Computation& c,
                                                 const Trace& trace,
                                                 const LargeCheckOptions&
                                                     options = {});

}  // namespace ccmm
