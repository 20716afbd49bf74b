// Definitional references for the trace-level checks: the standalone
// loops trace_consistent_with and observer_from_trace were before both
// were rebuilt on the checking engine's validator and column fill, and
// the dead-write lint's reading of the completion's dense columns
// before it moved to the arrival order. They stay here, slow and
// obviously correct, for the differentials in test_trace.cpp,
// test_serve.cpp and test_lint_pipeline.cpp.
//
// Two deliberate departures from those loops, which are the engine's
// rules: the execution order is STABLE in seq (ties keep array order),
// and an observation of a node that does not exist is a defect.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/sim_machine.hpp"
#include "util/str.hpp"

namespace ccmm {

/// Indices of trace.events sorted stably by seq.
inline std::vector<std::uint32_t> reference_seq_order(const Trace& trace) {
  std::vector<std::uint32_t> order(trace.events.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return trace.events[a].seq < trace.events[b].seq;
                   });
  return order;
}

/// Every event's node and observation in array order, then duplicates
/// in trace order, then the first flipped dag edge: the defects a
/// stream can show before its end, whatever its event count.
inline bool reference_stream_consistent_with(const Trace& trace,
                                             const Computation& c,
                                             std::string* why) {
  const auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  const std::size_t n = c.node_count();
  for (const BinaryTraceEvent& e : trace.events) {
    if (e.node >= n)
      return fail(format("event seq=%llu names unknown node %u",
                         static_cast<unsigned long long>(e.seq), e.node));
    if (e.observed != kBottom && e.observed >= n)
      return fail(format("event seq=%llu observes unknown node %u",
                         static_cast<unsigned long long>(e.seq),
                         e.observed));
  }
  std::vector<NodeId> order;
  for (const std::uint32_t i : reference_seq_order(trace))
    order.push_back(trace.events[i].node);
  std::vector<std::size_t> pos(n, SIZE_MAX);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (pos[order[i]] != SIZE_MAX)
      return fail(format("node %u appears in more than one event", order[i]));
    pos[order[i]] = i;
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const NodeId u = order[i];
    NodeId late = u;
    for (const NodeId q : c.dag().pred(u))
      if (pos[q] >= i && (late == u || q < late)) late = q;
    if (late != u)
      return fail(format(
          "trace order flips dag edge %u -> %u (node %u ran first)", late, u,
          u));
  }
  return true;
}

/// Size, then reference_stream_consistent_with.
inline bool reference_trace_consistent_with(const Trace& trace,
                                            const Computation& c,
                                            std::string* why) {
  if (trace.events.size() != c.node_count()) {
    if (why != nullptr)
      *why = format("trace has %zu events for %zu nodes", trace.events.size(),
                    c.node_count());
    return false;
  }
  return reference_stream_consistent_with(trace, c, why);
}

/// One pass per written location in trace order, carrying the last
/// write: recorded observations win, writes self-observe, everything
/// else sees the carried write. Events naming unknown nodes and
/// observations of unknown nodes are dropped.
inline ObserverFunction reference_observer_from_trace(const Computation& c,
                                                      const Trace& trace) {
  const std::size_t n = c.node_count();
  ObserverFunction phi(n);
  std::vector<std::uint32_t> order;
  for (const std::uint32_t i : reference_seq_order(trace))
    if (trace.events[i].node < n) order.push_back(i);
  for (const Location l : c.written_locations()) {
    NodeId last = kBottom;
    for (const std::uint32_t i : order) {
      const BinaryTraceEvent& e = trace.events[i];
      const NodeId u = e.node;
      const Op o = c.op(u);
      if (o.is_nop() || o.loc != l) {
        if (last != kBottom) phi.set(l, u, last);
      } else if (o.is_write()) {
        phi.set(l, u, u);
        last = u;
      } else if (e.observed != kBottom && e.observed < n) {
        phi.set(l, u, e.observed);
      }
    }
  }
  // Recorded observations at never-written locations still land in Φ.
  const std::vector<Location> written = c.written_locations();
  for (const std::uint32_t i : order) {
    const BinaryTraceEvent& e = trace.events[i];
    const Op o = c.op(e.node);
    if (!o.is_read() || e.observed == kBottom || e.observed >= n) continue;
    if (!std::binary_search(written.begin(), written.end(), o.loc))
      phi.set(o.loc, e.node, e.observed);
  }
  // Writes self-observe even when the trace omits their event.
  for (NodeId u = 0; u < n; ++u)
    if (c.op(u).is_write()) phi.set(c.op(u).loc, u, u);
  return phi;
}

/// The writes the trace lint calls dead: no entry of another node in
/// any column of the trace's completion holds them. Ascending.
inline std::vector<NodeId> reference_dead_writes(const Computation& c,
                                                 const Trace& trace) {
  const ObserverFunction phi = reference_observer_from_trace(c, trace);
  std::vector<bool> seen(c.node_count(), false);
  for (std::size_t i = 0; i < phi.stored_locations().size(); ++i) {
    const std::vector<NodeId>& col = phi.stored_column(i);
    for (NodeId u = 0; u < col.size(); ++u)
      if (col[u] != kBottom && col[u] != u) seen[col[u]] = true;
  }
  std::vector<NodeId> dead;
  for (NodeId u = 0; u < c.node_count(); ++u)
    if (c.op(u).is_write() && !seen[u]) dead.push_back(u);
  return dead;
}

/// The written locations where some read did not observe the last
/// write before it in execution order (⊥ before the first) — the ones a
/// checking session fed this trace materializes. Sorted.
inline std::vector<Location> reference_disagreeing_locations(
    const Computation& c, const Trace& trace) {
  const std::vector<Location> written = c.written_locations();
  std::vector<NodeId> last(written.size(), kBottom);
  std::vector<bool> disagrees(written.size(), false);
  for (const std::uint32_t i : reference_seq_order(trace)) {
    const BinaryTraceEvent& e = trace.events[i];
    const Op o = c.op(e.node);
    const auto it = std::lower_bound(written.begin(), written.end(), o.loc);
    if (o.is_nop() || it == written.end() || *it != o.loc) continue;
    const auto li = static_cast<std::size_t>(it - written.begin());
    if (o.is_write())
      last[li] = e.node;
    else if (e.observed != last[li])
      disagrees[li] = true;
  }
  std::vector<Location> out;
  for (std::size_t li = 0; li < written.size(); ++li)
    if (disagrees[li]) out.push_back(written[li]);
  return out;
}

}  // namespace ccmm
