// ccmm/trace/session_kernel.hpp
//
// The checking engine: the one piece of code that sets up, shards,
// advances and reports the incremental per-location kernel
// (core/loc_incremental.hpp). A CheckSession is a feed()/check()/
// finish() state machine over an event stream; the batch entry points
// are the same engine fed the whole input (large_check_trace feeds the
// trace's records in chunks as they lie, whoever owns them, and leaves
// the seq-order check to feed(); large_check points the states at an
// observer's columns), and ccmm_serve runs one per open session.
//
// Events arrive append-only as validated 32-byte records — the
// BinaryTraceEvent a Trace, a .tbin file and a kEvents frame all hold —
// in nondecreasing seq order (the stream IS the execution order), and
// every written location is in one of two states:
//
//   witnessed     every arrived record agreed with the location's
//                 carried write (writes always agree, a read agrees
//                 when it observed the last write before it in
//                 arrival order, ⊥ before the first). The arrival
//                 order is a linear extension of the dag, so it
//                 witnesses every model the engine decides there:
//                 the location holds one carried write, no column
//                 and no kernel state, and its row is the clean row
//                 over any consumed prefix (DESIGN.md proves it).
//   materialized  from the first record that disagrees: the dense
//                 column observer_from_trace's completion rule fills
//                 (rebuilt from the arrival order the session keeps,
//                 one node id per arrival) plus a LocState replayed from
//                 scan position 0. large_check(c, Φ) materializes
//                 every location up front on Φ's own columns.
//
// Setup builds only what a clean stream reads: the computation's
// LocationIndex (core/location_index.hpp) gives the node table and each
// location's writer count, and the writer counts give the shard plan.
// The first materialization builds what only the kernel reads — the
// index's writer slices (the LocStates' blocks), the writer →
// block/location maps and, when ids are topological, the scan order —
// so a stream whose locations all stay witnessed never builds them.
//
// The LocStates advance through a *watermark* on the scan order:
//
//   scan order  = ids when topological, else dag().topological_order();
//   watermark   = length of the longest arrived prefix of the scan
//                 order. Events can arrive in any linear extension;
//                 the kernel only consumes positions the stream has
//                 fully covered. On serial/SC-shaped streams the
//                 watermark tracks arrival exactly and nothing waits.
//
// Because every first-failure position is a scan position, verdicts
// and witness strings are a function of the records alone — not of
// how they were cut into feeds, nor of the arrival order.
//
// Work is sharded per location: a shard owns a fixed set of locations
// (longest-processing-time packing) and one scratch arena. A feed whose
// materialized locations need at least kPipelineMinNodes node visits
// in total runs rebuild + fill + advance on the pool, one task per
// shard; a report whose mask sweeps are that large runs finalize the
// same way. Smaller work (serve's per-batch feeds, an LC-only finish)
// stays on the caller thread, running the shards' work in order.
// Either way the verdicts are identical.
//
// feed() makes one pass over its records: each is validated (one event
// per node, known nodes and observations, seq monotone, predecessors
// first), appended to the arrival order and checked for agreement
// before the next is read. A violation makes the session sticky-failed
// before anything the batch did becomes visible, and finish() reports
// "trace does not fit the computation". finish() on a complete stream
// returns the LargeCheckReport large_check_trace() gives for the same
// records.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/location_index.hpp"
#include "trace/large_check.hpp"
#include "trace/trace_binary.hpp"

namespace ccmm {

struct SessionOptions {
  /// Which models to decide (subset of kLargeCheckExt).
  std::uint32_t models = kSuiteLC;
  /// Oracle selection for the validity point queries.
  OracleOptions oracle;
  /// Force a mask-sweep kernel level (nullopt = process dispatch).
  std::optional<SimdLevel> simd;
  /// Keep every fed record: snapshot/restore replays the retained log
  /// through a fresh session, so serving turns it off for bulk streams
  /// that never snapshot.
  bool retain_events = false;
};

/// The O(1) mid-stream answer: which verdict bits are already certain.
/// `violated` only ever grows; a zero here is "nothing known yet", not
/// "holds" — holds needs a check() or finish() mask sweep.
struct SessionVerdict {
  bool valid = true;            // no validity failure seen so far
  std::uint32_t violated = 0;   // sticky violations, clipped to checked
  std::uint64_t events = 0;     // records accepted so far
  std::uint64_t consumed = 0;   // scan positions the kernel advanced
};

// The engine's shared parts, used by trace_consistent_with, trace_order
// and observer_from_trace as well — so validation and completion have
// exactly one implementation. Not an interface of their own.
namespace detail {

/// Records per batch feed: large_check_trace hands the engine the trace
/// this many records at a time, and large_check advances an observer in
/// spans of this size.
inline constexpr std::uint32_t kChunkNodes = 1u << 17;

/// The indices of `trace.events` in stable seq order (ties keep their
/// array order); empty when the events already are in that order, as
/// simulator and binary traces are.
[[nodiscard]] std::vector<std::uint32_t> stable_seq_order(const Trace& trace);

/// Hand `f` the trace's records in stable seq order, at most kChunkNodes
/// at a time, until it returns false: spans of `trace.events` itself
/// when stable_seq_order finds them in order, gathered copies otherwise.
/// observer_from_trace reads a trace through it, and so does
/// large_check_trace's rerun of a rejected trace that is out of seq
/// order; the batch feed itself reads the records as they lie.
void for_each_seq_span(
    const Trace& trace,
    const std::function<bool(const BinaryTraceEvent*, std::size_t)>& f);

/// The per-event stream validator shared by every entry point: a record
/// names a known node, observes ⊥ or a known node, has a zero reserved
/// field, does not go back in seq, is its node's only event, and comes
/// after all of its node's predecessors.
class EventValidator {
 public:
  explicit EventValidator(const Computation& c);

  /// Check `e` against everything accepted so far and accept it; on a
  /// defect return false with the message in `why`. The checks run
  /// inline; only a rejection builds a message.
  bool accept(const BinaryTraceEvent& e, std::string& why) {
    const std::size_t n = arrived_.size();
    const NodeId u = e.node;
    if (u < n && (e.observed == kBottom || e.observed < n) &&
        e.reserved == 0 && e.seq >= last_seq_ && arrived_[u] == 0 &&
        preds_arrived(u)) {
      arrived_[u] = 1;
      last_seq_ = e.seq;
      return true;
    }
    why = rejection(e);
    return false;
  }

  [[nodiscard]] bool arrived(NodeId u) const noexcept {
    return arrived_[u] != 0;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return arrived_.capacity();
  }

 private:
  [[nodiscard]] bool preds_arrived(NodeId u) const noexcept {
    for (std::uint32_t k = pred_.off[u]; k < pred_.off[u + 1]; ++k)
      if (arrived_[pred_.tgt[k]] == 0) return false;
    return true;
  }
  /// The message for a record accept() turned down: its first failing
  /// check, in accept()'s order.
  [[nodiscard]] std::string rejection(const BinaryTraceEvent& e) const;

  Dag::Rows pred_;
  std::vector<std::uint8_t> arrived_;
  std::uint64_t last_seq_ = 0;
};

/// The completion rule, for slot `li` of a LocationIndex table: apply
/// `count` records in execution order to the dense column `col`,
/// carrying the location's last write in `last`. Recorded observations
/// win, writes self-observe, and every other node sees the carried
/// write. Records naming nodes ≥ n are skipped, observations ≥ n drop.
void fill_column(const std::uint32_t* index, std::uint32_t li,
                 const BinaryTraceEvent* events, std::size_t count,
                 std::size_t n, NodeId* col, NodeId& last);

}  // namespace detail

class CheckSession {
 public:
  /// The computation is copied into the session (a serving daemon owns
  /// its sessions outright; clients ship the computation in the open
  /// frame). Non-movable: LocStates hold pointers into the session.
  /// Large spans shard over global_pool().
  explicit CheckSession(Computation c, SessionOptions options = {});
  ~CheckSession();
  CheckSession(const CheckSession&) = delete;
  CheckSession& operator=(const CheckSession&) = delete;

  /// Append `count` records (nondecreasing seq, any linear extension of
  /// the dag). Returns false once the stream is rejected — the session
  /// is then sticky-failed and error() says why; further feeds are
  /// no-ops. Cost: O(count) for validation and the agreement check of
  /// every witnessed location together, plus O(count + newly covered
  /// scan positions) per materialized location; a location that
  /// materializes in this feed also pays one O(arrived + consumed)
  /// column rebuild and replay, and the session's first
  /// materialization one O(n) build of the writer CSR and maps.
  bool feed(const BinaryTraceEvent* events, std::size_t count);

  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t events_seen() const noexcept {
    return events_seen_;
  }
  /// Scan positions consumed by the kernel (== events_seen on in-order
  /// streams; lags behind it while the scan order waits for a hole).
  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }
  [[nodiscard]] bool complete() const noexcept { return consumed_ == n_; }

  /// O(locations): fold the sticky per-location flags. Never touches
  /// the oracle or the sweep kernels — this is the per-flush verdict
  /// the daemon pushes after every batch.
  [[nodiscard]] SessionVerdict fast_verdict() const;

  /// Full verdict over exactly the consumed prefix (mask sweeps + LC
  /// quotient rebuilds where dirty). Non-destructive: feed() may
  /// continue afterwards. O(consumed) per call — an explicit request,
  /// not a per-batch cost.
  [[nodiscard]] LargeCheckReport check();

  /// Terminal verdict. Requires the stream to be complete (exactly one
  /// event per node); otherwise reports the "trace does not fit the
  /// computation" event-count failure. Idempotent; feed() after a
  /// complete finish() rejects (the stream has more events than nodes).
  [[nodiscard]] LargeCheckReport finish();

  [[nodiscard]] const Computation& computation() const noexcept {
    return *c_;
  }
  [[nodiscard]] const SessionOptions& options() const noexcept {
    return opts_;
  }
  /// The fed records, in arrival order — empty unless retain_events.
  [[nodiscard]] const std::vector<BinaryTraceEvent>& retained_events()
      const noexcept {
    return retained_;
  }
  /// Session-owned heap: columns, the writer CSR and maps, states,
  /// arena peaks, the arrival order.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  friend LargeCheckReport large_check(const Computation&,
                                      const ObserverFunction&,
                                      const LargeCheckOptions&);
  friend LargeCheckReport large_check_trace(const Computation&, const Trace&,
                                            const LargeCheckOptions&);

  struct Loc;    // one written location: witnessed or materialized
  struct Shard;  // a fixed set of locations plus their scratch arena
  /// A never-written location some read observes: every such
  /// observation fails 2.1, so the earliest one in scan order is the
  /// whole verdict.
  struct Unwritten {
    std::uint32_t pos = kLocNoPos;
    NodeId u = 0;
    NodeId x = 0;
  };

  /// Batch engine: borrows `*c` (never copied) and shards over
  /// options.pool when options.parallel.
  CheckSession(const Computation* c, const LargeCheckOptions& options);
  void setup();

  void fail_stream(std::string why);
  void note_unwritten(Location l, std::uint32_t pos, NodeId u, NodeId x);
  /// Build what only materialized locations use — the writer CSR, the
  /// writer→block/location maps and an identity scan order — on the
  /// first materialization.
  void prepare_kernel();
  /// The node at scan position `p`.
  [[nodiscard]] NodeId scan_node(std::uint32_t p) const noexcept {
    return posv_.empty() ? p : topo_[p];
  }
  /// Run `work(shard)` for every shard: on the pool when `span` (the
  /// work estimate, in node visits) pays for it, else on this thread.
  /// Returns whether the pool ran it.
  bool for_each_shard(std::size_t span,
                      const std::function<void(Shard&)>& work);
  /// Materialize the locations feed() marked (their columns rebuilt
  /// from the first `arrived` entries of arrival_ and their states
  /// replayed), fill every materialized column from `count` records
  /// (none: the columns are already complete) and advance every
  /// materialized state to the watermark.
  void advance(const BinaryTraceEvent* events, std::size_t count,
               std::size_t arrived);
  /// Batch: feed `trace`'s records as they lie, or through
  /// for_each_seq_span when `seq_order`, kChunkNodes at a time, then
  /// report. `spent_ms` (a rejected earlier attempt) counts as ingest.
  LargeCheckReport run_trace(const Trace& trace, bool seq_order,
                             double spent_ms);
  /// Batch: point the states at Φ's stored columns and scan them all.
  LargeCheckReport run_observer(const ObserverFunction& phi);
  LargeCheckReport make_report(bool require_complete);
  /// The n-entry maps, scan order, validator, arrival order, writer
  /// counts, carried writes and unwritten rows.
  [[nodiscard]] std::size_t aux_bytes() const noexcept;

  std::unique_ptr<Computation> owned_;  // serving sessions own their copy
  const Computation* c_ = nullptr;
  SessionOptions opts_;
  ThreadPool* pool_ = nullptr;
  bool parallel_ = true;
  std::function<void(std::size_t, std::size_t)> progress_;
  std::size_t n_ = 0;
  std::uint32_t checked_ = 0;  // models clipped to kLargeCheckExt
  bool want_masks_ = false;

  std::unique_ptr<LazyOracle> oracle_;  // once_flag member: pin the address
  std::string predicted_oracle_;
  double eager_oracle_ms_ = 0.0;

  // Scan order and its inverse when ids are not topological; for
  // topological ids the inverse stays empty and prepare_kernel() fills
  // topo_ with the identity the LocStates read.
  std::vector<NodeId> topo_;
  std::vector<std::uint32_t> posv_;
  // The node table and writer counts; prepare_kernel() adds the writer
  // slices.
  LocationIndex index_;
  // Built by prepare_kernel() on the first materialization.
  bool kernel_ready_ = false;
  std::vector<std::uint32_t> wblock_;
  std::vector<std::uint32_t> wloc_;
  LocKernelCtx kctx_;

  // One state per written location, in location order; shards index
  // into it. Every location starts witnessed.
  std::vector<std::unique_ptr<Loc>> states_;
  std::size_t witnessed_ = 0;   // states not yet materialized
  /// Per written location: the last write to it in arrival order — a
  /// witnessed location's whole state.
  std::vector<NodeId> carried_;
  /// Arrived nodes in arrival order, kept while any location is
  /// witnessed: a materializing location rebuilds its column from it.
  std::vector<NodeId> arrival_;
  std::vector<Shard> shards_;
  std::map<Location, Unwritten> unwritten_;
  std::uint32_t unwritten_min_pos_ = kLocNoPos;
  bool sharded_ = false;  // some span ran on the pool

  detail::EventValidator validator_;
  std::uint64_t events_seen_ = 0;  // records of fully accepted feeds
  std::uint32_t watermark_ = 0;   // arrived-prefix length in scan order
  std::uint32_t consumed_ = 0;    // == watermark_ after advance()
  std::string error_;

  std::vector<BinaryTraceEvent> retained_;

  // Stage accounting folded into reports.
  double group_build_ms_ = 0.0;
  double ingest_ms_ = 0.0;
  double kernel_ms_ = 0.0;
  double active_ms_ = 0.0;  // total time spent inside the engine
};

}  // namespace ccmm
