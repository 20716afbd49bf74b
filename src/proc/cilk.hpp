// ccmm/proc/cilk.hpp
//
// A Cilk-style front end — the language the paper's computations came
// from ("a computation could be generated using a multithreaded language
// with fork/join parallelism, such as Cilk"). A CilkProgram builds the
// dag a Cilk execution unfolds into, with the real Cilk edge semantics:
//
//  * each strand (procedure instance) is a serial chain of instructions;
//  * spawn() forks a child strand off the parent's current position —
//    the parent's *continuation* runs concurrently with the child;
//  * sync() joins the parent with every child it spawned since its last
//    sync (a no-op node with edges from the parent chain and each
//    child's last node);
//  * finishing the program implicitly syncs every strand bottom-up.
//
// The result is an ordinary Computation, so the whole library applies:
// determinacy-race detection answers "is this Cilk program
// deterministic?" (the Nondeterminator question), and the BACKER
// simulator runs it exactly as the Cilk system would have.
//
// While building, the program also records its series-parallel parse
// (per-strand event streams, see core/sp_structure.hpp); finish()
// attaches it to the returned Computation, which lets trace::find_races
// switch from the quadratic pairwise scan to the near-linear SP-bags
// detector in analyze/.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "core/computation.hpp"

namespace ccmm::proc {

class CilkProgram {
 public:
  /// A handle to one strand (procedure instance). Handles stay valid for
  /// the lifetime of the program; operations append to the strand's
  /// serial chain.
  class Strand {
   public:
    /// Append an instruction to this strand.
    Strand& op(Op o);
    Strand& read(Location l) { return op(Op::read(l)); }
    Strand& write(Location l) { return op(Op::write(l)); }
    Strand& nop() { return op(Op::nop()); }

    /// Fork a child strand at the current position. The continuation of
    /// this strand is concurrent with the child until sync().
    [[nodiscard]] Strand spawn();

    /// Join with every child spawned since the last sync (adds a no-op
    /// sync node). No-op if there are no outstanding children.
    Strand& sync();

    /// Model a plain (non-spawn) procedure call: `callee` must be a
    /// child of this strand; it is synced, then this strand's chain
    /// continues serially from the callee's end (no join node). Use
    /// spawn() + adopt() where Cilk code would simply call a function —
    /// the callee gets its own sync scope without forking parallelism.
    /// Call semantics require that this strand appended no instruction
    /// between the spawn and the adopt (a caller cannot run while a
    /// plain call is outstanding); violations throw.
    Strand& adopt(Strand& callee);

    /// The node id of this strand's current position (kBottom if the
    /// strand has no nodes yet and no parent anchor).
    [[nodiscard]] NodeId position() const;

   private:
    friend class CilkProgram;
    Strand(CilkProgram* program, std::size_t index)
        : program_(program), index_(index) {}
    CilkProgram* program_;
    std::size_t index_;
  };

  CilkProgram();

  /// The root strand (the program's main procedure).
  [[nodiscard]] Strand root() { return Strand(this, 0); }

  /// Finalize: implicitly sync every strand (children before parents)
  /// and return the computation. The program may not be mutated after.
  [[nodiscard]] Computation finish();

 private:
  struct StrandState {
    NodeId current = kBottom;          // last node of the serial chain
    NodeId anchor = kBottom;           // parent's position at spawn time
    std::size_t parent = SIZE_MAX;     // spawning strand, SIZE_MAX = root
    bool closed = false;               // joined by a parent sync / adopted
    std::size_t events = 0;            // SP events logged for this strand
    std::vector<std::size_t> outstanding;  // unsynced children (indices)
  };

  NodeId append(std::size_t strand, Op o, std::vector<NodeId> extra_preds,
                bool record = true);
  void sync_strand(std::size_t strand);
  std::size_t spawn_from(std::size_t strand);
  void adopt_child(std::size_t strand, std::size_t child);

  ComputationBuilder c_;
  std::vector<StrandState> strands_;
  /// The SP parse as (strand, event) in program order; finish() sorts
  /// it into the strand table by the per-strand counts. One log instead
  /// of a growing vector per strand leaves no trail of outgrown buffers
  /// in the heap.
  std::vector<std::pair<std::uint32_t, SpEvent>> events_;

  void log_event(std::size_t strand, SpEvent e) {
    events_.emplace_back(static_cast<std::uint32_t>(strand), e);
    ++strands_[strand].events;
  }
  bool finished_ = false;
};

}  // namespace ccmm::proc
