#include "exec/sim_machine.hpp"

namespace ccmm {

ExecutionResult run_execution(const Computation& c, const Schedule& schedule,
                              MemorySystem& memory) {
  CCMM_CHECK(schedule.valid_for(c), "schedule does not fit the computation");
  memory.bind(c, schedule.nprocs);

  ExecutionResult result;
  result.phi = ObserverFunction(c.node_count());
  const std::vector<Location> locs = c.written_locations();

  std::uint64_t seq = 0;
  for (const ScheduleEntry& e : schedule.entries) {
    const NodeId u = e.node;
    const ProcId p = e.proc;

    // Fire coherence hooks for dependencies that crossed processors.
    for (const NodeId v : c.dag().pred(u)) {
      const ProcId q = schedule.proc_of[v];
      if (q != p) memory.sync_edge(q, v, p, u);
    }

    const Op o = c.op(u);
    NodeId observed = kBottom;
    if (o.is_read())
      observed = memory.read(p, u, o.loc);
    else if (o.is_write())
      memory.write(p, u, o.loc);

    // Record u's viewpoint of every written location (Definition 2 gives
    // memory semantics to every node, not just reads).
    for (const Location l : locs) {
      NodeId v;
      if (o.writes(l))
        v = u;  // condition 2.3: a write observes itself
      else if (o.reads(l))
        v = observed;
      else
        v = memory.peek(p, u, l);
      if (v != kBottom) result.phi.set(l, u, v);
    }

    result.trace.events.push_back({seq++, e.start, p, u, observed});
  }
  result.memory_stats = memory.stats();
  return result;
}

ExecutionResult run_serial(const Computation& c, MemorySystem& memory) {
  return run_execution(c, serial_schedule(c), memory);
}

}  // namespace ccmm
