// ccmm/trace/trace.hpp
//
// Execution-trace utilities on top of exec/sim_machine.hpp's Trace:
// sanity checks, rendering and the text format used by post-mortem
// analysis. A trace's records carry no ops; everything here that needs
// one looks it up in the computation.
#pragma once

#include <iosfwd>
#include <string>

#include "exec/sim_machine.hpp"

namespace ccmm {

/// The nodes in trace order (the execution's global serialization):
/// stable in seq, so events with equal seq keep their array order.
[[nodiscard]] std::vector<NodeId> trace_order(const Trace& trace);

/// Sanity: one event per node, every observation is ⊥ or a known node,
/// every reserved field is 0, and the trace order is a topological sort
/// of the dag. When `why` is non-null and the check fails, it receives
/// a message naming the size mismatch or else the first defective event
/// in trace order (unknown node, unknown observed node, nonzero reserved
/// field, duplicate, or a flipped dag edge) — the same message a
/// CheckSession fed the trace's records gives.
[[nodiscard]] bool trace_consistent_with(const Trace& trace,
                                         const Computation& c,
                                         std::string* why = nullptr);

/// Render the trace as a table (seq, time, proc, node, op, observed),
/// the op column looked up in `c` (`?` for a node `c` does not have).
/// Only the first `max_rows` events are rendered — million-node traces
/// would otherwise allocate hundreds of MB of text — with a trailing
/// note giving the elided count. The ostream overload streams rows
/// through a fixed-size buffer; the string overload wraps it.
void trace_to_stream(const Trace& trace, const Computation& c,
                     std::ostream& out, std::size_t max_rows = 10000);
[[nodiscard]] std::string trace_to_string(const Trace& trace,
                                          const Computation& c,
                                          std::size_t max_rows = 10000);

/// Plain-text trace format: one `seq time proc node observed` line per
/// event (`_` for a ⊥ observation), whole-line `#` comments and blank
/// lines ignored. Ops are not serialized — they are looked up in the
/// computation, which is also why reading needs `c`. read_trace throws
/// std::runtime_error naming the line on a line without exactly five
/// fields, a field that is not a decimal number in range (seq and time
/// 64-bit, proc 32-bit), or a node id outside the computation.
///
/// The ostream overload of write_trace streams line chunks, so emitting
/// a 16M-event trace never holds the ~400 MB text blob in memory; the
/// string overload remains as a wrapper for small traces.
void write_trace(const Trace& trace, std::ostream& out);
[[nodiscard]] std::string write_trace(const Trace& trace);
[[nodiscard]] Trace read_trace(std::istream& in, const Computation& c);

}  // namespace ccmm
