// ccmm/trace/lint_pipeline.hpp
//
// The streaming lint pipeline: one entry point that takes the
// binary-of-record artifacts — a computation plus a recorded trace —
// and produces the full diagnostic story without materializing any
// transitive closure:
//
//  * determinacy races from the same output-sensitive oracle scan as
//    the static lint (analyze/passes.hpp): the race count and the k
//    smallest races, each with a bounded shrunk witness and a
//    model-split classification where the witness is small enough;
//  * trace-sharpened memory lints: reads that observed ⊥ in THIS
//    execution and writes no other node observed in THIS execution —
//    strictly sharper than the static may-analysis lints, and computed
//    from the trace's arrival order in O(events);
//  * the model verdicts of the trace's completion from ONE
//    spec_check_trace call: the session's stream decides the suite bits
//    and every spec model's masks, and only a scoped/global order axiom
//    builds a dense Φ. Each violated model becomes a diagnostic citing
//    the first location that violates it;
//  * when the scan proves race-freedom, the DRF ⇒ agreement
//    certificate (analyze/certificate.hpp).
//
// Lives in the trace library (it composes the trace checks with the
// analyze passes; ccmm_trace already links ccmm_analyze) but reports in
// the analyze namespace — the diagnostics currency is the same.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analyze/certificate.hpp"
#include "analyze/passes.hpp"
#include "trace/large_check.hpp"
#include "trace/spec_check.hpp"
#include "trace/trace.hpp"

namespace ccmm::analyze {

struct TraceLintOptions {
  /// Race scan + anomaly/lint configuration; the race diagnostics are
  /// analyze_computation's. Unlike the library default, the pipeline
  /// clamps the reported race count at 2^16 (scan.max_races, set by the
  /// constructor below) and sets scan.truncated past it. The scan no
  /// longer needs the cap — it counts exactly and materializes only the
  /// reported races — but the clamped count is what recorded trace-lint
  /// results hold, so it stays until they are re-taken (ROADMAP item
  /// 2). Raise scan.max_races to report the exact count.
  AnalysisOptions analysis;
  /// Models to stream-check on the trace's observer.
  std::uint32_t models = kLargeCheckAll;
  /// Compiled spec models (models/compile.hpp) decided alongside the
  /// suite bits. They share ONE streaming pass with `models` (the spec
  /// plans and the suite mask are unioned), an order axiom tries the
  /// trace's execution order before a search of at most 5,000,000
  /// states, and each verdict is surfaced as a diagnostic when the
  /// model is violated or undecided. The same models also join the race
  /// classifier's split (AnomalyOptions::extra_models is populated from
  /// here).
  std::vector<std::shared_ptr<const CompiledModel>> spec_models;
  /// Forwarded to LargeCheckOptions::progress: called after each
  /// consumed chunk with (positions consumed, total nodes). The CLI
  /// wires its live progress line through this on multi-million-node
  /// postmortems.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Emit the DRF certificate when the scan proves race-freedom.
  bool certify = true;
  CertifyOptions certificate;

  TraceLintOptions() { analysis.scan.max_races = std::size_t{1} << 16; }
};

struct TraceLintResult {
  /// True when the trace fits the computation (one event per node, in
  /// an order the dag allows); when false only the one kError "trace"
  /// diagnostic is produced.
  bool trace_ok = false;
  std::vector<Diagnostic> diagnostics;
  AnalyzeStats stats;
  /// The streaming model verdicts for the trace's completion.
  std::optional<LargeCheckReport> report;
  /// Per-spec-model verdicts (parallel to options.spec_models).
  std::vector<SpecModelVerdict> spec_verdicts;
  /// Present iff the computation is race-free and certify was set.
  std::optional<DrfCertificate> certificate;

  /// Human-readable rollup: model verdicts, diagnostics, certificate.
  [[nodiscard]] std::string to_string() const;
};

/// Run the pipeline. Exact on races below the count clamp (the
/// reported races are the smallest of the pairwise engine's race set);
/// the trace-sharpened lints and model verdicts are properties of this
/// execution.
[[nodiscard]] TraceLintResult analyze_trace(const Computation& c,
                                            const Trace& trace,
                                            const TraceLintOptions& options
                                            = {});

}  // namespace ccmm::analyze
