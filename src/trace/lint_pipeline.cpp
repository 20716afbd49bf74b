#include "trace/lint_pipeline.hpp"

#include <utility>
#include <vector>

#include "core/location_index.hpp"
#include "util/str.hpp"

namespace ccmm::analyze {
namespace {

Diagnostic error_diag(const char* pass, std::string message) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.pass = pass;
  d.message = std::move(message);
  return d;
}

/// States one spec model's order search may expand.
constexpr std::size_t kSpecSearchBudget = 5'000'000;

/// Trace-sharpened memory lints. The static pass (analyze/passes.cpp)
/// reports reads of never-written locations and writes of never-read
/// locations; with a trace in hand we can be sharper: a read that
/// observed ⊥ *despite* the location having writers means every one of
/// those writes was scheduled around it, and a write no other node's
/// viewpoint contains was invisible in this execution even if the
/// location is read elsewhere.
void trace_lint_pass(const Computation& c, const Trace& trace,
                     std::vector<Diagnostic>& out) {
  const LocationIndex index(c);
  for (const BinaryTraceEvent& e : trace.events) {
    const Op o = c.op(e.node);
    if (!o.is_read() || e.observed != kBottom) continue;
    if (index[e.node] == kNoWrittenLoc) continue;  // static lint covers it
    Diagnostic d;
    d.severity = Severity::kInfo;
    d.pass = "trace-uninit-read";
    d.a = e.node;
    d.loc = o.loc;
    d.message = format(
        "node %u read ⊥ from location %u in this execution although the "
        "location has writers",
        e.node, o.loc);
    out.push_back(std::move(d));
  }
  // A write is live iff another node's viewpoint in the trace's
  // completion holds it: a read records it (at any location), or a node
  // that does not access its location arrives after it and before the
  // location's next write; only the latest write can be waiting for one.
  // The trace fits the computation, so every observation is ⊥ or a node.
  std::vector<bool> seen(c.node_count(), false);
  for (const BinaryTraceEvent& e : trace.events)
    if (c.op(e.node).is_read() && e.observed != kBottom)
      seen[e.observed] = true;
  NodeId waiting = kBottom;
  for (const NodeId u : trace_order(trace)) {
    const Op o = c.op(u);
    if (waiting != kBottom && (o.is_nop() || o.loc != c.op(waiting).loc))
      seen[waiting] = true;
    if (o.is_write()) waiting = u;
  }
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (!o.is_write() || seen[u]) continue;
    Diagnostic d;
    d.severity = Severity::kInfo;
    d.pass = "trace-dead-write";
    d.a = u;
    d.loc = o.loc;
    d.message = format(
        "write %u to location %u was observed by no other node in this "
        "execution",
        u, o.loc);
    out.push_back(std::move(d));
  }
}

}  // namespace

TraceLintResult analyze_trace(const Computation& c, const Trace& trace,
                              const TraceLintOptions& options) {
  TraceLintResult result;

  std::string why;
  if (!trace_consistent_with(trace, c, &why)) {
    result.diagnostics.push_back(
        error_diag("trace", format("trace does not fit the computation: %s",
                                   why.c_str())));
    return result;
  }
  result.trace_ok = true;

  // One call decides everything: the session streams the trace for the
  // suite bits and every spec model's masks, and only a scoped/global
  // order axiom builds the completion Φ, trying the trace order first.
  SpecCheckOptions sopt;
  sopt.large.models = options.models;
  sopt.large.oracle = options.analysis.scan.oracle;
  sopt.large.pool = options.analysis.scan.pool;
  sopt.large.parallel = options.analysis.scan.parallel;
  sopt.large.progress = options.progress;
  sopt.search_budget = kSpecSearchBudget;
  SpecCheckReport sr = spec_check_trace(c, trace, options.spec_models, sopt);
  result.report = std::move(sr.base);
  result.spec_verdicts = std::move(sr.models);
  const LargeCheckReport& report = *result.report;
  if (!report.valid_observer) {
    result.diagnostics.push_back(error_diag(
        "observer", format("trace observer violates Definition 2: %s",
                           report.detail.c_str())));
  } else {
    // Clip to the caller's mask: the spec plans may have widened
    // `checked` with bits (FRESH, extra corners) nobody asked to see.
    const std::uint32_t violated =
        report.checked & options.models & ~report.satisfied;
    for (std::uint32_t bit = 1; bit != 0 && bit <= violated; bit <<= 1) {
      if ((violated & bit) == 0) continue;
      Diagnostic d;
      d.severity = Severity::kWarning;
      d.pass = "model";
      d.message = format("execution is not %s: %s", suite_bit_name(bit),
                         report.violation_detail(bit).c_str());
      result.diagnostics.push_back(std::move(d));
    }
    for (const SpecModelVerdict& v : result.spec_verdicts) {
      if (v.decided && v.member) continue;
      Diagnostic d;
      d.severity = v.decided ? Severity::kWarning : Severity::kInfo;
      d.pass = "model";
      d.message = v.decided
                      ? format("execution is not %s: %s", v.name.c_str(),
                               v.detail.c_str())
                      : format("%s undecided: %s", v.name.c_str(),
                               v.detail.c_str());
      result.diagnostics.push_back(std::move(d));
    }
  }

  // Race scan + anomaly classification (the static lints are replaced
  // by the trace-sharpened ones below).
  AnalysisOptions aopt = options.analysis;
  aopt.lint = false;
  // The spec models join the race classifier's behaviour split.
  for (const auto& m : options.spec_models)
    aopt.anomaly.extra_models.push_back(m);
  std::vector<Diagnostic> analysis =
      analyze_computation(c, aopt, &result.stats);
  for (Diagnostic& d : analysis) result.diagnostics.push_back(std::move(d));

  if (options.analysis.lint) trace_lint_pass(c, trace, result.diagnostics);

  // Race-free ⇒ the paper's agreement theorem applies: certify it.
  if (options.certify && result.stats.races == 0 && !result.stats.scan.truncated) {
    CertifyOptions copt = options.certificate;
    copt.scan = options.analysis.scan;
    result.certificate = make_drf_certificate(c, copt, &why);
    if (!result.certificate.has_value()) {
      result.diagnostics.push_back(error_diag(
          "certificate",
          format("DRF certificate construction failed: %s", why.c_str())));
    }
  }
  return result;
}

std::string TraceLintResult::to_string() const {
  std::string out;
  if (report.has_value()) out += report->to_string();
  for (const SpecModelVerdict& v : spec_verdicts) out += v.to_string();
  out += stats.to_string();
  out += render_report(diagnostics);
  if (certificate.has_value())
    out += "race-free: " + certificate->to_string() + "\n";
  else if (trace_ok)
    out += "no DRF certificate (races present or certification disabled)\n";
  return out;
}

}  // namespace ccmm::analyze
