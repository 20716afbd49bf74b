// ccmm/exec/sim_machine.hpp
//
// The simulated multiprocessor: executes a computation under a schedule
// against a MemorySystem, producing the observer function the memory
// generated plus an execution trace. This is the bridge between the
// paper's processor-centric world (processors acting on memory) and its
// computation-centric theory (the observer function we hand to the model
// checkers).
//
// A trace is an array of 32-byte records, the same record the binary
// trace file, the serve wire and snapshots carry (trace/trace_binary.hpp
// pins its byte layout and holds its only codec). A record names its
// node but not the node's op: that is c.op(node) in the computation the
// trace belongs to, so no record can disagree with its label.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

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

/// A Trace's records: one contiguous, read-only array, whoever owns it.
/// Only a Trace sets it, so the records are the ones its owner keeps
/// alive.
class TraceRecords {
 public:
  using value_type = BinaryTraceEvent;
  using const_iterator = const BinaryTraceEvent*;
  using iterator = const_iterator;

  [[nodiscard]] const BinaryTraceEvent* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }
  [[nodiscard]] const BinaryTraceEvent& operator[](
      std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] const BinaryTraceEvent& back() const noexcept {
    return data_[size_ - 1];
  }
  operator std::span<const BinaryTraceEvent>() const noexcept {
    return {data_, size_};
  }
  /// An owned copy, for a caller that edits records or outlives the
  /// Trace.
  [[nodiscard]] std::vector<BinaryTraceEvent> to_vector() const {
    return {begin(), end()};
  }
  friend bool operator==(const TraceRecords& a,
                         std::span<const BinaryTraceEvent> b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  friend class Trace;
  TraceRecords() = default;
  TraceRecords(const BinaryTraceEvent* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  TraceRecords(const TraceRecords&) = default;
  TraceRecords& operator=(const TraceRecords&) = default;

  const BinaryTraceEvent* data_ = nullptr;
  std::size_t size_ = 0;
};

/// An execution trace: read-only records plus the one owner that keeps
/// the memory they live in alive.
///
/// The lifetime rule for borrowed storage: the object that reads the
/// records holds a shared owner of whatever they live in — a vector it
/// adopted, or a reader's buffer or file mapping — type-erased, so this
/// layer depends on no reader. Copies share the owner (a copy is O(1)
/// and outlives its original); a moved-from object holds no records.
/// Producers build a vector and hand it over, so records never change
/// once they are in a Trace: a test or tool that wants different
/// records builds a new Trace from an edited copy.
class Trace {
 public:
  Trace() = default;
  /// Adopt `records`.
  explicit Trace(std::vector<BinaryTraceEvent> records);
  /// Borrow `count` records at `records`: `owner` keeps them alive, and
  /// unchanged, for as long as any copy of this Trace lives.
  Trace(const BinaryTraceEvent* records, std::size_t count,
        std::shared_ptr<const void> owner) noexcept;
  Trace(const Trace&) = default;
  Trace& operator=(const Trace&) = default;
  Trace(Trace&& o) noexcept;
  Trace& operator=(Trace&& o) noexcept;

  TraceRecords events;

 private:
  std::shared_ptr<const void> owner_;
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
