// ccmm/core/loc_incremental.hpp
//
// The incremental per-location checking kernel, the one implementation
// of LC, NN/NW/WN/WW and freshness. A LocState consumes one location's
// Φ column in scan order, a span of positions at a time, and decides
// the location's verdict over whatever prefix it has consumed. The
// checking engine (trace/session_kernel.hpp) shards a set of them for
// every streaming entry; PreparedPair (core/prepared.hpp) runs one over
// a small pair's locations. Each advance() works in two steps:
//
//  * staging: resolve every position of the span to its Φ-block, catch
//    the local validity failures (2.1/2.3) inline, and answer condition
//    2.2 through the oracle's batched entry point. Pairs whose observed
//    write sits EARLIER in the scan order are never queried (u ≺ x
//    would force pos(u) < pos(x)), which makes trace-shaped observers —
//    every recorded observation points backwards — issue zero oracle
//    queries; the oracle itself is built lazily on the first batch
//    that survives the filter. A prepared pair has no oracle: its Φ is
//    already validated, so 2.2 is not asked again.
//
//  * advancing, which maintains
//     - the earliest validity failure (first-failure semantics exactly
//       matching a one-shot scan),
//     - an incremental Kahn frontier for LC: blocks are committed to a
//       drain order as their first member arrives (B_⊥ always first),
//       and every Φ-block quotient edge is classified on discovery —
//       an edge into B_⊥ is a sticky LC violation (monotone under
//       extension), an edge consistent with the committed order is
//       discharged and forgotten, and an edge against the order marks
//       the location *dirty*, falling back to one full from-scratch
//       quotient Kahn at verdict time. On in-order traffic (serial,
//       SC-like, or any last-writer observer over the scan order)
//       nothing ever goes dirty and LC costs O(deg) amortized per
//       event with O(blocks) state,
//     - a freshness writer-shadow carried forward per event, held as a
//       SpanSet (near-full after the first write, so the succinct
//       encoding keeps it at O(1) words instead of n bits),
//     - the four mask models NN/NW/WN/WW (and the FRESH/WN⁺/NN⁺
//       composites) evaluated at verdict time over exactly the
//       consumed prefix via the shared dag/sweep.hpp kernels —
//       violation existence is monotone under prefix extension, so
//       verdicts agree with a one-shot run over the same prefix
//       (differentially pinned by tests/test_loc_incremental.cpp).
//
// violations() (bits and witnesses, no strings) and finalize_into()
// (the engine's report row) are non-destructive and re-callable:
// callers may interleave them with advance() freely. The kernel reads
// no clock; the engine times its calls.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/computation.hpp"
#include "core/observer.hpp"
#include "core/suite.hpp"
#include "dag/precedence_oracle.hpp"
#include "dag/sweep.hpp"
#include "util/simd.hpp"
#include "util/span_set.hpp"

namespace ccmm {

/// The per-location-decomposable suite bits the streaming kernel can
/// decide.
inline constexpr std::uint32_t kLargeCheckAll =
    kSuiteLC | kSuiteNN | kSuiteNW | kSuiteWN | kSuiteWW;

/// Also decidable streaming, kept out of kLargeCheckAll so existing
/// callers' reports are unchanged: the freshness axiom and the
/// composites WN⁺ = WN ∧ FRESH, NN⁺ = NN ∧ FRESH.
inline constexpr std::uint32_t kLargeCheckPlus =
    kSuiteFresh | kSuiteWNPlus | kSuiteNNPlus;
inline constexpr std::uint32_t kLargeCheckExt = kLargeCheckAll |
                                               kLargeCheckPlus;

/// The four Q-dag corners the verdict-time mask sweeps decide.
inline constexpr std::uint32_t kMaskModels =
    kSuiteNN | kSuiteNW | kSuiteWN | kSuiteWW;

/// Outcome for one checked location.
struct LocationCheck {
  Location loc = 0;
  bool valid = true;            // this column passes Definition 2
  std::uint32_t violated = 0;   // requested models this location breaks
  std::size_t writers = 0;      // |writers(l)| = block count - 1
  double millis = 0.0;          // time the engine spent on this location
  std::string detail;           // first witness / validity failure
};

/// "No position": sorts after every real topological position.
inline constexpr std::uint32_t kLocNoPos = 0xFFFFFFFFu;

/// A precedence oracle built on first use. Condition 2.2 only queries
/// pairs whose observed write sits LATER in the scan order; on
/// trace-shaped observers that set is empty and the build (the single
/// largest fixed cost of a postmortem) never happens. get() is
/// thread-safe; built()/build_millis() are meant for after the run.
class LazyOracle {
 public:
  using Factory = std::function<std::unique_ptr<PrecedenceOracle>()>;
  LazyOracle() = default;
  explicit LazyOracle(Factory factory) : factory_(std::move(factory)) {}
  /// Adopt an already-built oracle (callers that need eager stats).
  explicit LazyOracle(std::unique_ptr<PrecedenceOracle> oracle)
      : oracle_(std::move(oracle)), built_(oracle_ != nullptr) {}

  const PrecedenceOracle& get() const;
  [[nodiscard]] bool built() const noexcept { return built_; }
  [[nodiscard]] double build_millis() const noexcept { return build_millis_; }

 private:
  Factory factory_;
  mutable std::once_flag once_;
  mutable std::unique_ptr<PrecedenceOracle> oracle_;
  mutable bool built_ = false;
  mutable double build_millis_ = 0.0;
};

/// Everything read-only that every LocState of one check shares.
struct LocKernelCtx {
  const Computation* c = nullptr;
  /// Answers condition 2.2; nullptr when Φ is already known valid (a
  /// prepared pair), and then 2.2 is not re-checked.
  const LazyOracle* oracle = nullptr;
  /// Event arrival order: advance() consumes positions into this array.
  const std::vector<NodeId>* topo = nullptr;
  /// node -> topological position; nullptr when ids are topological
  /// (then pos(u) == u and no inverse array is materialized).
  const std::uint32_t* pos_of = nullptr;
  /// n entries: write node -> (index among its own location's writers,
  /// id order) + 1; 0 for every non-write. One shared array for ALL
  /// locations — a node writes at most one location.
  const std::uint32_t* wblock = nullptr;
  /// n entries: write node -> the location it writes (meaningful only
  /// where wblock != 0). `wblock[u] != 0 && wloc[u] == l` replaces
  /// every op-table `writes(l)` probe in the hot loops.
  const std::uint32_t* wloc = nullptr;
  std::uint32_t models = 0;   // base bits the kernel must decide
  std::uint32_t checked = 0;  // caller-requested mask verdicts clip to
  bool fresh = false;         // run the freshness shadow
  SimdLevel simd = SimdLevel::kScalar;

  [[nodiscard]] std::uint32_t pos(NodeId u) const noexcept {
    return pos_of == nullptr ? u : pos_of[u];
  }
  [[nodiscard]] bool writes_loc(NodeId u, Location l) const noexcept {
    return wblock[u] != 0 && wloc[u] == l;
  }
};

/// How a location's validity failed (detail strings are derived from
/// this at verdict time — the hot path never formats).
enum class LocFailKind : std::uint8_t {
  kNone = 0,
  kBottomWriter = 1,   // 2.3: a write observing ⊥
  kNotAWrite = 2,      // 2.1: Φ(l, u) is not a write to l
  kWriteNotSelf = 3,   // 2.3: a write observing another node
  kPrecedesWrite = 4,  // 2.2: u strictly precedes Φ(l, u)
};

/// One staged span for one location: the Φ-block of every position in
/// [pos0, pos1) plus the earliest validity failure found while
/// resolving them. Entries past a failure are unspecified — advance()
/// stops at the failing position.
struct LocStage {
  std::vector<std::uint32_t> blk;
  std::uint32_t fail_pos = kLocNoPos;
  LocFailKind fail_kind = LocFailKind::kNone;
  NodeId u = 0;  // the failing node and its observed write
  NodeId x = 0;
};

/// Scratch shared by the LocStates of one engine shard, or of one
/// CheckContext: the staged span, the dirty-LC quotient rebuild, the
/// mask sweep rows, and the 2.2 batch buffers all live here and are
/// reused location to location, so a shard makes O(1) allocations
/// however many locations it owns.
struct LocArena {
  std::vector<std::uint32_t> qhead, qcur, qtgt, indeg, stack;  // LC rebuild
  std::vector<std::uint32_t> blocks;  // dense node→block map (verdict time)
  std::vector<std::uint64_t> anc, wri, desc;                   // mask rows
  std::vector<NodeId> bus, bxs;                                // 2.2 batch
  std::vector<std::uint32_t> bpos;
  std::vector<std::uint8_t> bout;
  LocStage stage;  // advance() stages each span here
  std::size_t peak_bytes = 0;

  void note_peak();
};

/// The validity-failure message of one location.
[[nodiscard]] std::string loc_fail_detail(LocFailKind kind, Location loc,
                                          NodeId u, NodeId x);

/// Fold the composites into a base verdict — WN⁺ = WN ∧ FRESH and
/// NN⁺ = NN ∧ FRESH — and clip it to the requested `checked` mask, so a
/// base bit computed only for a composite (WN for WN⁺) never leaks.
[[nodiscard]] std::uint32_t fold_composites(std::uint32_t violated,
                                            std::uint32_t checked);

class LocState {
 public:
  /// Bind to one location. `col` is the dense Φ column (nullptr = the
  /// all-⊥ column); `writers` is the location's writers in id order
  /// (block b ↦ writers[b-1]); both must outlive the state.
  void init(const LocKernelCtx& ctx, Location loc,
            const std::vector<NodeId>* col, std::span<const NodeId> writers);

  /// Consume positions [pos0, pos1) of ctx.topo (must continue exactly
  /// where the previous advance stopped), staging them in the arena.
  void advance(std::uint32_t pos0, std::uint32_t pos1, LocArena& arena);

  /// The models this location violates over exactly the prefix
  /// consumed so far: bits of ctx.models, plus kSuiteFresh when
  /// ctx.fresh, without the composites (fold_composites adds those); 0
  /// once validity failed. Clean locations pay O(1) for LC here, dirty
  /// ones one quotient Kahn, mask models one sweep pass per 256 writer
  /// blocks.
  [[nodiscard]] std::uint32_t violations(LocArena& arena);

  /// The report row over the consumed prefix — byte-identical (valid /
  /// violated, clipped to ctx.checked, detail) to a one-shot check over
  /// that prefix. `millis` is the caller's to fill.
  void finalize_into(LocationCheck& out, LocArena& arena);

  /// Where mask model `bit` first broke in the last violations(): a
  /// node v outside Φ-block `block` (0 = B_⊥, else writers[block-1]'s)
  /// that a member of the block succeeds, and that a member (NN/NW; ⊥
  /// for B_⊥) or the writer (WN/WW) precedes; v writes for NW/WW.
  struct Witness {
    std::uint32_t block = 0;
    NodeId v = 0;
  };
  [[nodiscard]] Witness witness(std::uint32_t bit) const;

  /// LC's block order over the consumed prefix, if LC holds: B_⊥ first,
  /// then the committed drain order (a clean location) or the quotient
  /// Kahn's (a dirty one). Needs kSuiteLC in ctx.models.
  bool lc_block_order(LocArena& arena,
                      std::vector<std::uint32_t>& order) const;

  [[nodiscard]] std::uint32_t consumed() const noexcept { return consumed_; }
  [[nodiscard]] Location location() const noexcept { return loc_; }

  /// O(1) "known so far" verdict bits for the online-serving fast path:
  /// a validity failure, a sticky B_⊥ quotient edge, and the freshness
  /// shadow are all certain the moment they are seen — no finalize (and
  /// no mask sweep) needed. A clean answer here is NOT a clean verdict:
  /// the mask models and a dirty LC only decide at finalize_into().
  [[nodiscard]] bool validity_failed() const noexcept {
    return fail_pos_ != kLocNoPos;
  }
  [[nodiscard]] bool lc_known_violated() const noexcept {
    return lc_violated_;
  }
  [[nodiscard]] bool freshness_known_violated() const noexcept {
    return fresh_bad_;
  }

  /// Heap bytes this state holds (drain positions, shadow SpanSet) —
  /// reported into the engine's bytes-per-node.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  [[nodiscard]] std::uint32_t block_of_slow(NodeId q) const noexcept;
  void fail_at(std::uint32_t pos, LocFailKind kind, NodeId u, NodeId x);
  void fill_blocks(LocArena& arena) const;
  /// The dirty-location Kahn; `order`, when given, receives the drain.
  [[nodiscard]] bool rebuild_lc_quotient(
      LocArena& arena, std::vector<std::uint32_t>* order = nullptr) const;
  [[nodiscard]] std::uint32_t run_mask_models(LocArena& arena);
  [[nodiscard]] std::string describe(std::uint32_t violated) const;

  const LocKernelCtx* ctx_ = nullptr;
  Location loc_ = 0;
  const std::vector<NodeId>* col_ = nullptr;
  std::span<const NodeId> writers_;

  std::uint32_t consumed_ = 0;
  bool dead_ = false;  // first failure passed; nothing left to consume

  // Validity: the earliest failure seen (any of 2.1/2.2/2.3).
  std::uint32_t fail_pos_ = kLocNoPos;
  LocFailKind fail_kind_ = LocFailKind::kNone;
  NodeId fail_u_ = 0;
  NodeId fail_x_ = 0;

  // Incremental LC.
  bool lc_violated_ = false;  // a quotient edge entered B_⊥ (sticky)
  bool lc_dirty_ = false;     // an edge crossed the committed drain order
  std::vector<std::uint32_t> drain_pos_;  // block -> first-member pos + 1

  // Freshness shadow ("has a strict writer-ancestor"), usually near-full.
  SpanSet shadow_;
  bool fresh_bad_ = false;
  NodeId fresh_node_ = 0;

  // The last violations()'s mask witnesses, by suite bit NN..WW, and
  // the mask bit it found first (the one a report row describes).
  std::array<Witness, 4> witness_{};
  std::uint32_t first_mask_ = 0;
};

}  // namespace ccmm
