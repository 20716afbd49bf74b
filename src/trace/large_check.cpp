#include "trace/large_check.hpp"

#include <algorithm>
#include <chrono>

#include "trace/session_kernel.hpp"
#include "util/str.hpp"

namespace ccmm {

LargeCheckReport large_check(const Computation& c, const ObserverFunction& phi,
                             const LargeCheckOptions& options) {
  if (phi.node_count() != c.node_count()) {
    LargeCheckReport report;
    report.checked = options.models & kLargeCheckExt;
    report.detail = "observer function and computation disagree on node count";
    return report;
  }
  return CheckSession(&c, options).run_observer(phi);
}

const std::string& LargeCheckReport::violation_detail(
    std::uint32_t bits) const {
  for (const LocationCheck& lc : locations)
    if ((lc.violated & bits) != 0 && !lc.detail.empty()) return lc.detail;
  return detail;
}

std::string LargeCheckReport::to_string() const {
  std::string out;
  out += format("oracle: %s (%zu bytes, built in %.2f ms)\n",
                oracle_kind.c_str(), oracle_memory_bytes, oracle_build_millis);
  out += format(
      "data plane: %s kernels, %zu shards%s, %.1f B/node "
      "(groups %zu + scratch %zu x %zu + aux %zu + oracle %zu)\n",
      simd.c_str(), shards, pipelined ? " (on the pool)" : "", bytes_per_node,
      groups_bytes, scratch_peak_bytes, shards, aux_bytes,
      oracle_memory_bytes);
  out += format(
      "stages: ingest %.2f ms, group build %.2f ms, kernel %.2f ms, "
      "report %.2f ms; numa: %s\n",
      ingest_millis, group_build_millis, kernel_millis, report_millis,
      numa.c_str());
  if (peak_rss_bytes != 0)
    out += format("peak rss: %.1f MiB\n",
                  static_cast<double>(peak_rss_bytes) / (1024.0 * 1024.0));
  out += format("observer: %s\n", valid_observer ? "valid" : "INVALID");
  if (valid_observer) {
    for (std::uint32_t bit = 1; bit != 0 && bit <= checked; bit <<= 1) {
      if ((checked & bit) == 0) continue;
      out += format("  %-3s %s\n", suite_bit_name(bit),
                    (satisfied & bit) != 0 ? "holds" : "VIOLATED");
    }
  }
  if (!detail.empty()) out += "  " + detail + "\n";
  TextTable t({"loc", "writers", "valid", "violated", "ms"});
  for (const LocationCheck& lc : locations) {
    std::string v;
    for (std::uint32_t bit = 1; bit != 0 && bit <= lc.violated; bit <<= 1)
      if ((lc.violated & bit) != 0) {
        if (!v.empty()) v += ",";
        v += suite_bit_name(bit);
      }
    t.add_row({format("%u", lc.loc), format("%zu", lc.writers),
               lc.valid ? "yes" : "no", v.empty() ? "-" : v,
               format("%.2f", lc.millis)});
  }
  out += t.render();
  out += format("total: %.2f ms over %zu locations\n", total_millis,
                locations.size());
  return out;
}

ObserverFunction observer_from_trace(const Computation& c, const Trace& trace) {
  const std::size_t n = c.node_count();
  const LocationIndex written(c);
  const std::vector<std::uint32_t>& index = written.table();
  const std::vector<Location>& locs = written.locations();

  // One dense column per written location, filled by the engine's
  // completion rule. Writes self-observe even when the trace omits
  // their event entirely.
  std::vector<std::vector<NodeId>> cols(locs.size(),
                                        std::vector<NodeId>(n, kBottom));
  for (NodeId u = 0; u < n; ++u)
    if (index[u] != kNoWrittenLoc && (index[u] & 1u) != 0)
      cols[index[u] >> 1][u] = u;
  std::vector<NodeId> last(locs.size(), kBottom);

  ObserverFunction phi(n);
  detail::for_each_seq_span(
      trace, [&](const BinaryTraceEvent* events, std::size_t count) {
        for (std::size_t li = 0; li < locs.size(); ++li)
          detail::fill_column(index.data(), static_cast<std::uint32_t>(li),
                              events, count, n, cols[li].data(), last[li]);
        // Recorded observations at never-written locations still land in
        // Φ (they must fail 2.1 later, so they cannot be dropped here).
        for (std::size_t i = 0; i < count; ++i) {
          const BinaryTraceEvent& e = events[i];
          if (e.node >= n || index[e.node] != kNoWrittenLoc ||
              e.observed == kBottom || e.observed >= n)
            continue;
          const Op o = c.op(e.node);
          if (o.is_read()) phi.set(o.loc, e.node, e.observed);
        }
        return true;
      });
  for (std::size_t li = 0; li < locs.size(); ++li)
    phi.set_column(locs[li], std::move(cols[li]));
  return phi;
}

LargeCheckReport large_check_trace(const Computation& c, const Trace& trace,
                                   const LargeCheckOptions& options) {
  if (trace.events.size() != c.node_count()) {
    LargeCheckReport report;
    report.checked = options.models & kLargeCheckExt;
    report.detail = format(
        "trace does not fit the computation: trace has %zu events for %zu "
        "nodes",
        trace.events.size(), c.node_count());
    return report;
  }
  // Feed the records as they lie; feed() checks the seq order. A
  // rejected trace out of seq order gets a fresh session in stable seq
  // order on any rejection, since in array order a record can arrive
  // ahead of its dag predecessor before any seq descent shows. A sorted
  // trace's array order is its stable seq order: its rejection stands.
  const auto t0 = std::chrono::steady_clock::now();
  {
    CheckSession session(&c, options);
    LargeCheckReport report = session.run_trace(trace, false, 0.0);
    const auto seq_less = [](const BinaryTraceEvent& a,
                             const BinaryTraceEvent& b) {
      return a.seq < b.seq;
    };
    if (!session.failed() ||
        std::is_sorted(trace.events.begin(), trace.events.end(), seq_less))
      return report;
  }
  const double spent_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  return CheckSession(&c, options).run_trace(trace, true, spent_ms);
}

}  // namespace ccmm
