// ccmm/core/sp_structure.hpp
//
// The series-parallel parse of a computation, recorded by front ends
// that *know* the fork/join structure they unfold (proc::CilkProgram).
// A computation dag alone says which nodes are ordered; the SP structure
// additionally says *why*: every node belongs to a strand (procedure
// instance), and each strand's event stream interleaves its own nodes
// with the spawns, syncs and plain-call adoptions that relate it to its
// children. Replaying the streams in serial-elision order (child fully
// executes at its spawn point, then the continuation) is exactly the
// serial depth-first execution the SP-bags algorithm of Feng & Leiserson
// ("Detecting Races in Cilk Programs", the Nondeterminator) requires,
// which is what analyze/sp_bags.hpp consumes to find determinacy races
// in near-linear time instead of quadratic pairwise scanning.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dag/dag.hpp"

namespace ccmm {

/// One entry of a strand's event stream: 8 bytes, the layout of the
/// computation image's event record (io/text.hpp).
struct SpEvent {
  enum class Kind : std::uint8_t {
    kNode,   // the strand executed node `id`
    kSpawn,  // strand `id` forked off at this point
    kSync,   // join with every outstanding child (`id` = join nop, or
             // kBottom when no child had run and no join node was needed)
    kAdopt,  // plain-call return: strand `id`'s chain continues this one
  };
  Kind kind;
  /// The node of kNode and kSync, the strand of kSpawn and kAdopt.
  std::uint32_t id = kBottom;

  [[nodiscard]] bool operator==(const SpEvent&) const = default;
};
static_assert(sizeof(SpEvent) == 8);

/// Per-strand event streams as one CSR table; strand 0 is the root
/// procedure. Strand s's events are events[offsets[s], offsets[s + 1]),
/// so the whole parse is two allocations whatever its strand count:
/// the readers (text, image) and CilkProgram::finish fill it in one
/// pass. Offsets are size_t because y_ syncs name no node, so the
/// event total is not bounded by the node count. The spawn forest is
/// implicit: strand s is a child of the strand whose stream holds its
/// kSpawn event.
struct SpStructure {
  /// strand_count() + 1 entries: starts at 0, never decreases, ends at
  /// events.size().
  std::vector<std::size_t> offsets{0};
  std::vector<SpEvent> events;
  /// Node count of the computation the structure describes, so consumers
  /// can reject a structure that drifted from its computation.
  std::size_t node_count = 0;

  [[nodiscard]] std::size_t strand_count() const noexcept {
    return offsets.size() - 1;
  }
  [[nodiscard]] std::span<const SpEvent> strand(std::size_t s) const {
    return {events.data() + offsets[s], events.data() + offsets[s + 1]};
  }
  /// Close the strand whose events were appended since the last close.
  void end_strand() { offsets.push_back(events.size()); }
};

using SpStructurePtr = std::shared_ptr<const SpStructure>;

}  // namespace ccmm
