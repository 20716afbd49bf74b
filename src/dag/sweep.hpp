// ccmm/dag/sweep.hpp
//
// The vectorized reach-mask sweep kernels behind the streaming
// checkers. A sweep answers, for every node v and a set of ≤ 256
// "anchor" bits preset into v's mask row, which anchors reflexively
// reach v (forward) or are reflexively reached from v (backward): one
// pass over the edges in topological order, OR-ing neighbour rows.
//
// Two deliberate design points:
//
//  * Rows are kSweepWords = 4 words (256 anchor bits) in BOTH the
//    scalar and the AVX2 kernel. The two paths share loop structure
//    exactly — same node order, same OR tree shape per row — and the
//    OR is associative/commutative over words, so the kernels are
//    byte-identical by construction, not by testing luck. Dispatch
//    (util/simd.hpp) only swaps the row-OR instruction sequence:
//    one _mm256_or_si256 on x86-64/AVX2, a vorrq_u64 pair per row on
//    aarch64/NEON (baseline there, so compiled unguarded), plain word
//    ORs everywhere else.
//
//  * Edges come straight from the dag's own CSR arrays (Dag::Rows).
//    The streaming checkers sweep the same edge set once per anchor
//    batch per location, and the contiguous offset/target arrays make
//    the inner loop a linear scan with nothing to build or copy.
//
// The callers preset anchor bits directly into the rows (there is no
// member-bit callback), which is what lets the inner loop be pure word
// ORs with no per-node branching.
#pragma once

#include <cstdint>
#include <span>

#include "dag/dag.hpp"
#include "util/simd.hpp"

namespace ccmm {

/// Words per mask row = 256 anchor bits per sweep batch.
inline constexpr std::size_t kSweepWords = 4;
inline constexpr std::size_t kSweepBits = kSweepWords * 64;

/// Forward sweep: row[v] |= OR of row[p] over v's predecessors p in
/// `dag`, visiting `topo` in order. `topo` may be a downward-closed
/// PREFIX of a full topological order (the incremental kernel's
/// snapshot sweeps): rows of nodes outside it are never written and
/// must be zero, so they contribute nothing when read as neighbours.
/// `masks` is node_count × kSweepWords, row-major, preset with the
/// anchor bits (a node's own anchor bit stays set — the reach is
/// reflexive; consumers mask out self bits).
void sweep_forward_w4(const Dag& dag, std::span<const NodeId> topo,
                      std::uint64_t* masks, SimdLevel level);

/// Fused two-channel forward sweep (large_check's member + writer
/// masks): one pass over the edges updates both row arrays.
void sweep_forward2_w4(const Dag& dag, std::span<const NodeId> topo,
                       std::uint64_t* a, std::uint64_t* b, SimdLevel level);

/// Backward sweep: row[v] |= OR of row[s] over successors s, visiting
/// `topo` in reverse.
void sweep_backward_w4(const Dag& dag, std::span<const NodeId> topo,
                       std::uint64_t* masks, SimdLevel level);

}  // namespace ccmm
