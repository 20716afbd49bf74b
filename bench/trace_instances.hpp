// bench/trace_instances.hpp — the trace workloads the postmortem and
// serve benchmarks share: fork/join programs at a chosen location count,
// a serial SC trace built in O(n), and a 4-processor BACKER trace whose
// reads go stale at (nearly) every location.
#pragma once

#include <unordered_map>
#include <vector>

#include "exec/backer.hpp"
#include "exec/sc_memory.hpp"
#include "exec/schedule.hpp"
#include "exec/sim_machine.hpp"
#include "proc/random_program.hpp"
#include "util/rng.hpp"

namespace ccmm::bench {

/// A fork/join program of ~`ops` memory instructions over `nlocations`
/// locations, from `seed`.
inline Computation cilk_program(std::size_t ops, std::size_t nlocations,
                                std::uint64_t seed) {
  Rng rng(seed);
  proc::RandomCilkOptions opt;
  opt.target_ops = ops;
  opt.nlocations = nlocations;
  return proc::random_cilk(opt, rng);
}

/// The trace run_serial(c, ScMemory) records, without its per-node ×
/// per-location viewpoint loop (O(n · L), filling a dense Φ the trace
/// rows never read): walk serial_schedule(c) keeping one last write per
/// location. O(n).
inline Trace serial_sc_trace(const Computation& c) {
  const Schedule s = serial_schedule(c);
  std::unordered_map<Location, NodeId> last;
  std::vector<BinaryTraceEvent> events;
  events.reserve(s.entries.size());
  std::uint64_t seq = 0;
  for (const ScheduleEntry& e : s.entries) {
    const Op o = c.op(e.node);
    NodeId observed = kBottom;
    if (o.is_read()) {
      const auto it = last.find(o.loc);
      if (it != last.end()) observed = it->second;
    } else if (o.is_write()) {
      last[o.loc] = e.node;
    }
    events.push_back({seq++, e.start, e.proc, e.node, observed});
  }
  return Trace(std::move(events));
}

/// Whether `t` records exactly what run_serial(c, ScMemory) records.
inline bool matches_run_serial(const Computation& c, const Trace& t) {
  ScMemory mem;
  return run_serial(c, mem).trace.events == t.events;
}

/// `c` run on 4 BACKER processors under the greedy schedule: reads go
/// stale, so a checking session materializes nearly every location.
inline Trace backer_trace(const Computation& c) {
  BackerMemory mem;
  return run_execution(c, greedy_schedule(c, 4), mem).trace;
}

}  // namespace ccmm::bench
