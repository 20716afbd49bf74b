#include "analyze/passes.hpp"

#include <algorithm>

#include "core/location_index.hpp"
#include "trace/race.hpp"
#include "util/resource.hpp"
#include "util/str.hpp"

namespace ccmm::analyze {
namespace {

void race_pass(const Computation& c, const AnalysisOptions& options,
               std::vector<Diagnostic>& out, AnalyzeStats& stats) {
  const std::size_t cap = options.scan.max_races;
  const RaceSummary races = summarize_races(
      c, std::min(options.max_race_diagnostics, cap), options.scan,
      &stats.scan);
  stats.races = std::min(races.count, cap);
  stats.scan.races = stats.races;
  stats.scan.truncated = races.count > cap;
  // Witness builds stay bounded on huge dags: cap the stored witness
  // well above the classification cap so shrunk witnesses survive,
  // without ever walking an unbounded ancestor closure.
  const std::size_t witness_cap =
      std::max<std::size_t>(options.anomaly.witness_node_cap, 32);
  for (const Race& r : races.smallest) {
    Diagnostic d;
    d.pass = "oracle-race";
    d.a = r.a;
    d.b = r.b;
    d.loc = r.loc;
    d.message = format(
        "determinacy race on location %u: nodes %u (%s) and %u (%s) are "
        "unordered and at least one writes",
        r.loc, r.a, c.op(r.a).to_string().c_str(), r.b,
        c.op(r.b).to_string().c_str());
    d.witness =
        race_witness_capped(c, r.a, r.b, witness_cap, &d.witness_a, &d.witness_b);
    if (!d.witness.has_value()) d.witness_a = d.witness_b = kBottom;
    if (options.classify_anomalies)
      d.split = classify_race(c, r, options.anomaly);
    // A race the whole hierarchy agrees on (e.g. two parallel writes
    // nobody reads) cannot produce model-dependent values — warn. A
    // race with split behaviour, or one too large to classify, is an
    // error: executions may observe model-specific values.
    d.severity = d.split.has_value() && d.split->agree() && !d.split->truncated
                     ? Severity::kWarning
                     : Severity::kError;
    out.push_back(std::move(d));
  }
  const std::size_t reported = races.smallest.size();
  if (reported < stats.races) {
    Diagnostic d;
    d.severity = Severity::kInfo;
    d.pass = "oracle-race";
    d.message = format("%zu further race(s) suppressed (cap %zu)",
                       stats.races - reported, options.max_race_diagnostics);
    out.push_back(std::move(d));
  }
}

void memory_lint_pass(const Computation& c, std::vector<Diagnostic>& out) {
  // A read's location is unwritten iff the index has no slot for it; a
  // write's location is unread iff no read has its slot.
  const LocationIndex index(c);
  std::vector<bool> read(index.size(), false);
  for (const std::uint32_t a : index.table())
    if (a != kNoWrittenLoc && (a & 1u) == 0) read[a >> 1] = true;
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    const std::uint32_t a = index[u];
    if (o.is_read() && a == kNoWrittenLoc) {
      Diagnostic d;
      d.severity = Severity::kInfo;
      d.pass = "uninitialized-read";
      d.a = u;
      d.loc = o.loc;
      d.message = format(
          "node %u reads location %u which no node writes: every model "
          "forces the read to observe ⊥",
          u, o.loc);
      out.push_back(std::move(d));
    }
    if (o.is_write() && !read[a >> 1]) {
      Diagnostic d;
      d.severity = Severity::kInfo;
      d.pass = "dead-write";
      d.a = u;
      d.loc = o.loc;
      d.message = format(
          "node %u writes location %u which no node reads: the write is "
          "unobservable",
          u, o.loc);
      out.push_back(std::move(d));
    }
  }
}

}  // namespace

std::vector<Diagnostic> analyze_computation(const Computation& c,
                                            const AnalysisOptions& options,
                                            AnalyzeStats* stats) {
  std::vector<Diagnostic> out;
  AnalyzeStats local;
  race_pass(c, options, out, local);
  if (options.lint) memory_lint_pass(c, out);
  if (c.node_count() > 0)
    local.bytes_per_node =
        static_cast<double>(local.scan.groups_bytes +
                            local.scan.scratch_peak_bytes +
                            local.scan.oracle_memory_bytes) /
        static_cast<double>(c.node_count());
  local.peak_rss_bytes = current_peak_rss_bytes();
  if (stats != nullptr) *stats = std::move(local);
  return out;
}

std::string AnalyzeStats::to_string() const {
  std::string out = scan.to_string();
  out += format("memory: %.1f B/node scan-owned", bytes_per_node);
  if (peak_rss_bytes != 0)
    out += format(", peak rss %.1f MiB",
                  static_cast<double>(peak_rss_bytes) / (1024.0 * 1024.0));
  out += "\n";
  return out;
}

}  // namespace ccmm::analyze
