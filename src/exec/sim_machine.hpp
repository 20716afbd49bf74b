// ccmm/exec/sim_machine.hpp
//
// The simulated multiprocessor: executes a computation under a schedule
// against a MemorySystem, producing the observer function the memory
// generated plus an execution trace. This is the bridge between the
// paper's processor-centric world (processors acting on memory) and its
// computation-centric theory (the observer function we hand to the model
// checkers).
//
// A trace is a vector of 32-byte records, the same record the binary
// trace file, the serve wire and snapshots carry (trace/trace_binary.hpp
// pins its byte layout and holds its only codec). A record names its
// node but not the node's op: that is c.op(node) in the computation the
// trace belongs to, so no record can disagree with its label.
#pragma once

#include "core/observer.hpp"
#include "exec/memory.hpp"
#include "exec/schedule.hpp"

namespace ccmm {

/// One executed node.
struct BinaryTraceEvent {
  std::uint64_t seq = 0;   // global execution order
  std::uint64_t time = 0;  // schedule start time
  ProcId proc = 0;
  NodeId node = 0;
  NodeId observed = kBottom;  // for reads: the write observed; else kBottom
  std::uint32_t reserved = 0;  // must be 0

  friend bool operator==(const BinaryTraceEvent&,
                         const BinaryTraceEvent&) = default;
};

struct Trace {
  std::vector<BinaryTraceEvent> events;
};

struct ExecutionResult {
  ObserverFunction phi;
  Trace trace;
  MemoryStats memory_stats;
};

/// Execute `c` under `schedule` against `memory`. The schedule's entry
/// order (already sorted by start time) is the global serialization of
/// node executions; cross-processor dag edges fire memory.sync_edge
/// before their target runs. Every node's viewpoint of every written
/// location is collected via peek, so the result's observer function is
/// total (and valid by construction — verified by the test suite).
[[nodiscard]] ExecutionResult run_execution(const Computation& c,
                                            const Schedule& schedule,
                                            MemorySystem& memory);

/// Convenience: serial execution against `memory`.
[[nodiscard]] ExecutionResult run_serial(const Computation& c,
                                         MemorySystem& memory);

}  // namespace ccmm
