// bench/trace_instances.hpp — the trace workloads the postmortem and
// serve benchmarks share: fork/join programs at a chosen location count,
// a serial SC trace built in O(n), and a 4-processor BACKER trace whose
// reads go stale at (nearly) every location.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "exec/backer.hpp"
#include "exec/sc_memory.hpp"
#include "exec/schedule.hpp"
#include "exec/sim_machine.hpp"
#include "proc/random_program.hpp"
#include "trace/trace_binary.hpp"
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
  Trace t;
  t.events.reserve(s.entries.size());
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
    t.events.push_back({seq++, e.start, e.proc, e.node, o, observed});
  }
  return t;
}

/// Whether `t` records exactly what run_serial(c, ScMemory) records.
inline bool matches_run_serial(const Computation& c, const Trace& t) {
  ScMemory mem;
  const Trace want = run_serial(c, mem).trace;
  if (want.events.size() != t.events.size()) return false;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const TraceEvent& a = t.events[i];
    const TraceEvent& b = want.events[i];
    if (a.seq != b.seq || a.time != b.time || a.proc != b.proc ||
        a.node != b.node || !(a.op == b.op) || a.observed != b.observed)
      return false;
  }
  return true;
}

/// `c` run on 4 BACKER processors under the greedy schedule: reads go
/// stale, so a checking session materializes nearly every location.
inline Trace backer_trace(const Computation& c) {
  BackerMemory mem;
  return run_execution(c, greedy_schedule(c, 4), mem).trace;
}

/// The binary records of a trace in execution order — what a serve
/// client puts on the wire.
inline std::vector<BinaryTraceEvent> records_of(const Trace& trace) {
  std::vector<BinaryTraceEvent> recs(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    recs[i] = BinaryTraceEvent{e.seq, e.time, e.proc, e.node, e.observed, 0};
  }
  std::stable_sort(recs.begin(), recs.end(),
                   [](const BinaryTraceEvent& a, const BinaryTraceEvent& b) {
                     return a.seq < b.seq;
                   });
  return recs;
}

}  // namespace ccmm::bench
