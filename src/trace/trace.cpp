#include "trace/trace.hpp"

#include <algorithm>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "trace/session_kernel.hpp"
#include "util/str.hpp"

namespace ccmm {
namespace {

/// A decimal field no larger than `max`: digits only, so a sign, a
/// stray character or an overflow is an error rather than a wrapped
/// value.
bool parse_field(std::string_view tok, std::uint64_t max,
                 std::uint64_t& value) {
  if (tok.empty()) return false;
  value = 0;
  for (const char ch : tok) {
    if (ch < '0' || ch > '9') return false;
    const auto d = static_cast<std::uint64_t>(ch - '0');
    if (value > (max - d) / 10) return false;
    value = value * 10 + d;
  }
  return true;
}

}  // namespace

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
      const BinaryTraceEvent& e = trace.events[order.empty() ? k : order[k]];
      if (!validator.accept(e, reason)) break;
    }
  }
  if (reason.empty()) return true;
  if (why != nullptr) *why = std::move(reason);
  return false;
}

void trace_to_stream(const Trace& trace, const Computation& c,
                     std::ostream& out, std::size_t max_rows) {
  const std::size_t nrows = std::min(trace.events.size(), max_rows);
  // The trace may not have been validated against `c`.
  const auto op_text = [&c](NodeId u) {
    return u < c.node_count() ? c.op(u).to_string() : std::string("?");
  };
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
    const BinaryTraceEvent& e = trace.events[i];
    w[0] = std::max(w[0], digits(e.seq));
    w[1] = std::max(w[1], digits(e.time));
    w[2] = std::max(w[2], digits(e.proc));
    w[3] = std::max(w[3], digits(e.node));
    w[4] = std::max(w[4], op_text(e.node).size());
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
    const BinaryTraceEvent& e = trace.events[i];
    cell(0, e.seq, false);
    cell(1, e.time, false);
    cell(2, e.proc, false);
    cell(3, e.node, false);
    {
      const std::size_t mark = chunk.size();
      chunk += op_text(e.node);
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

std::string trace_to_string(const Trace& trace, const Computation& c,
                            std::size_t max_rows) {
  std::ostringstream out;
  trace_to_stream(trace, c, out, max_rows);
  return std::move(out).str();
}

void write_trace(const Trace& trace, std::ostream& out) {
  std::string chunk;
  constexpr std::size_t kFlushAt = std::size_t{64} * 1024;
  chunk.reserve(kFlushAt + 96);
  chunk += "# ccmm trace: seq time proc node observed (_ = no write seen)\n";
  char buf[96];
  for (const BinaryTraceEvent& e : trace.events) {
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
  const std::size_t n = c.node_count();
  constexpr const char* kSpace = " \t\r";
  std::vector<BinaryTraceEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // The line's fields; a sixth one is only counted, to reject it.
    std::string_view rest = line;
    std::string_view f[6];
    std::size_t k = 0;
    while (k < 6) {
      const std::size_t at = rest.find_first_not_of(kSpace);
      if (at == std::string_view::npos) break;
      rest.remove_prefix(at);
      const std::size_t len = std::min(rest.find_first_of(kSpace), rest.size());
      f[k++] = rest.substr(0, len);
      rest.remove_prefix(len);
    }
    if (k == 0 || f[0][0] == '#') continue;
    const auto fail = [lineno](const std::string& what) {
      throw std::runtime_error(format("trace line %zu: %s", lineno,
                                      what.c_str()));
    };
    if (k != 5) fail("expected `seq time proc node observed`");
    std::uint64_t v[4] = {};
    constexpr std::uint64_t kMax[4] = {UINT64_MAX, UINT64_MAX, UINT32_MAX,
                                       UINT64_MAX};
    constexpr const char* kName[4] = {"seq", "time", "proc", "node"};
    for (std::size_t i = 0; i < 4; ++i)
      if (!parse_field(f[i], kMax[i], v[i]))
        fail(format("bad %s `%s`", kName[i], std::string(f[i]).c_str()));
    if (v[3] >= n)
      fail(format("node %llu out of range (computation has %zu nodes)",
                  static_cast<unsigned long long>(v[3]), n));
    std::uint64_t observed = kBottom;
    if (f[4] != "_" && (!parse_field(f[4], UINT64_MAX, observed) ||
                        observed >= n))
      fail(format("bad observed node `%s`", std::string(f[4]).c_str()));
    events.push_back({v[0], v[1], static_cast<ProcId>(v[2]),
                      static_cast<NodeId>(v[3]),
                      static_cast<NodeId>(observed)});
  }
  return Trace(std::move(events));
}

}  // namespace ccmm
