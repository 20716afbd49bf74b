#include "exec/sim_machine.hpp"

namespace ccmm {

Trace::Trace(std::vector<BinaryTraceEvent> records) {
  if (records.empty()) return;
  auto owned = std::make_shared<const std::vector<BinaryTraceEvent>>(
      std::move(records));
  events = TraceRecords(owned->data(), owned->size());
  owner_ = std::move(owned);
}

Trace::Trace(const BinaryTraceEvent* records, std::size_t count,
             std::shared_ptr<const void> owner) noexcept
    : events(records, count), owner_(std::move(owner)) {}

Trace::Trace(Trace&& o) noexcept
    : events(o.events), owner_(std::move(o.owner_)) {
  o.events = TraceRecords();
}

Trace& Trace::operator=(Trace&& o) noexcept {
  if (this == &o) return *this;
  events = o.events;
  owner_ = std::move(o.owner_);
  o.events = TraceRecords();
  return *this;
}

ExecutionResult run_execution(const Computation& c, const Schedule& schedule,
                              MemorySystem& memory) {
  CCMM_CHECK(schedule.valid_for(c), "schedule does not fit the computation");
  memory.bind(c, schedule.nprocs);

  ExecutionResult result;
  result.phi = ObserverFunction(c.node_count());
  const std::vector<Location> locs = c.written_locations();

  std::vector<BinaryTraceEvent> events;
  events.reserve(schedule.entries.size());
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

    events.push_back({seq++, e.start, p, u, observed});
  }
  result.trace = Trace(std::move(events));
  result.memory_stats = memory.stats();
  return result;
}

ExecutionResult run_serial(const Computation& c, MemorySystem& memory) {
  return run_execution(c, serial_schedule(c), memory);
}

}  // namespace ccmm
