#include "trace/trace.hpp"

#include <algorithm>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "trace/session_kernel.hpp"
#include "util/str.hpp"

namespace ccmm {

std::vector<NodeId> trace_order(const Trace& trace) {
  const std::vector<std::uint32_t> order = detail::stable_seq_order(trace);
  std::vector<NodeId> nodes(trace.events.size());
  for (std::size_t k = 0; k < nodes.size(); ++k)
    nodes[k] = trace.events[order.empty() ? k : order[k]].node;
  return nodes;
}

bool trace_consistent_with(const Trace& trace, const Computation& c,
                           std::string* why) {
  std::string reason;
  if (trace.events.size() != c.node_count()) {
    reason = format("trace has %zu events for %zu nodes", trace.events.size(),
                    c.node_count());
  } else {
    // The engine's per-event validator, in stable seq order: the first
    // defective event in execution order names the problem.
    detail::EventValidator validator(c);
    const std::vector<std::uint32_t> order = detail::stable_seq_order(trace);
    for (std::size_t k = 0; k < trace.events.size(); ++k) {
      const TraceEvent& e = trace.events[order.empty() ? k : order[k]];
      if (!validator.accept(detail::record_of(e), &e.op, reason)) break;
    }
  }
  if (reason.empty()) return true;
  if (why != nullptr) *why = std::move(reason);
  return false;
}

void trace_to_stream(const Trace& trace, std::ostream& out,
                     std::size_t max_rows) {
  const std::size_t nrows = std::min(trace.events.size(), max_rows);
  const auto digits = [](unsigned long long v) {
    std::size_t d = 1;
    while (v >= 10) {
      v /= 10;
      ++d;
    }
    return d;
  };
  // Column widths from the numeric values directly — no per-cell string
  // materialization, and one reserve for the whole render.
  const char* headers[6] = {"seq", "time", "proc", "node", "op", "observed"};
  std::size_t w[6];
  for (std::size_t i = 0; i < 6; ++i) w[i] = std::char_traits<char>::length(headers[i]);
  for (std::size_t i = 0; i < nrows; ++i) {
    const TraceEvent& e = trace.events[i];
    w[0] = std::max(w[0], digits(e.seq));
    w[1] = std::max(w[1], digits(e.time));
    w[2] = std::max(w[2], digits(e.proc));
    w[3] = std::max(w[3], digits(e.node));
    w[4] = std::max(w[4], e.op.is_nop() ? std::size_t{1}
                                        : 3 + digits(e.op.loc));
    w[5] = std::max(w[5], e.observed == kBottom ? std::size_t{1}
                                                : digits(e.observed));
  }
  std::size_t row_width = 1;  // newline
  for (std::size_t i = 0; i < 6; ++i) row_width += w[i] + 2;

  // Rows accumulate in a bounded chunk that flushes to the stream: the
  // render never holds more than ~64 KiB of text however long the
  // trace, while small tables still reach the stream in one write.
  std::string chunk;
  constexpr std::size_t kFlushAt = std::size_t{64} * 1024;
  chunk.reserve(std::min((nrows + 3) * row_width + 64, kFlushAt + row_width));
  const auto flush_if_full = [&] {
    if (chunk.size() >= kFlushAt) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  };
  const auto pad_to = [&](std::size_t mark, std::size_t width, bool last) {
    const std::size_t written = chunk.size() - mark;
    if (written < width) chunk.append(width - written, ' ');
    if (!last) chunk.append(2, ' ');
  };
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t mark = chunk.size();
    chunk += headers[i];
    pad_to(mark, w[i], i == 5);
  }
  chunk += '\n';
  chunk.append(row_width - 1, '-');
  chunk += '\n';

  char buf[32];
  const auto cell = [&](std::size_t i, unsigned long long v, bool last) {
    const std::size_t mark = chunk.size();
    chunk.append(buf, static_cast<std::size_t>(
                          std::snprintf(buf, sizeof buf, "%llu", v)));
    pad_to(mark, w[i], last);
  };
  for (std::size_t i = 0; i < nrows; ++i) {
    const TraceEvent& e = trace.events[i];
    cell(0, e.seq, false);
    cell(1, e.time, false);
    cell(2, e.proc, false);
    cell(3, e.node, false);
    {
      const std::size_t mark = chunk.size();
      chunk += e.op.to_string();
      pad_to(mark, w[4], false);
    }
    if (e.observed == kBottom) {
      const std::size_t mark = chunk.size();
      chunk += '_';
      pad_to(mark, w[5], true);
    } else {
      cell(5, e.observed, true);
    }
    chunk += '\n';
    flush_if_full();
  }
  if (nrows < trace.events.size())
    chunk += format("... (%zu more events elided; raise max_rows to render)\n",
                    trace.events.size() - nrows);
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

std::string trace_to_string(const Trace& trace, std::size_t max_rows) {
  std::ostringstream out;
  trace_to_stream(trace, out, max_rows);
  return std::move(out).str();
}

void write_trace(const Trace& trace, std::ostream& out) {
  std::string chunk;
  constexpr std::size_t kFlushAt = std::size_t{64} * 1024;
  chunk.reserve(kFlushAt + 96);
  chunk += "# ccmm trace: seq time proc node observed (_ = no write seen)\n";
  char buf[96];
  for (const TraceEvent& e : trace.events) {
    int len;
    if (e.observed == kBottom) {
      len = std::snprintf(buf, sizeof buf, "%llu %llu %u %u _\n",
                          static_cast<unsigned long long>(e.seq),
                          static_cast<unsigned long long>(e.time),
                          static_cast<unsigned>(e.proc), e.node);
    } else {
      len = std::snprintf(buf, sizeof buf, "%llu %llu %u %u %u\n",
                          static_cast<unsigned long long>(e.seq),
                          static_cast<unsigned long long>(e.time),
                          static_cast<unsigned>(e.proc), e.node, e.observed);
    }
    chunk.append(buf, static_cast<std::size_t>(len));
    if (chunk.size() >= kFlushAt) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  }
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

std::string write_trace(const Trace& trace) {
  std::ostringstream out;
  write_trace(trace, out);
  return std::move(out).str();
}

Trace read_trace(std::istream& in, const Computation& c) {
  Trace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream row(line);
    unsigned long long seq = 0;
    unsigned long long time = 0;
    unsigned proc = 0;
    unsigned long long node = 0;
    std::string observed;
    if (!(row >> seq >> time >> proc >> node >> observed))
      throw std::runtime_error(format(
          "trace line %zu: expected `seq time proc node observed`", lineno));
    if (node >= c.node_count())
      throw std::runtime_error(format(
          "trace line %zu: node %llu out of range (computation has %zu "
          "nodes)",
          lineno, node, c.node_count()));
    TraceEvent e;
    e.seq = seq;
    e.time = time;
    e.proc = static_cast<ProcId>(proc);
    e.node = static_cast<NodeId>(node);
    e.op = c.op(e.node);
    if (observed == "_") {
      e.observed = kBottom;
    } else {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(observed.c_str(), &end, 10);
      if (end == observed.c_str() || *end != '\0' || v >= c.node_count())
        throw std::runtime_error(format(
            "trace line %zu: bad observed node `%s`", lineno,
            observed.c_str()));
      e.observed = static_cast<NodeId>(v);
    }
    trace.events.push_back(e);
  }
  return trace;
}

}  // namespace ccmm
