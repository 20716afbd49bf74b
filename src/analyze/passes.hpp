// ccmm/analyze/passes.hpp
//
// The analysis driver: one entry point that runs every static-analysis
// pass over a computation and returns the combined diagnostics, in the
// spirit of the consistency-algorithm frameworks (Chini & Saivasan)
// that package per-model checks behind a single reusable driver.
//
// Passes:
//  * race detection — one output-sensitive oracle scan
//    (analyze/race_oracle.hpp summarize_races), the same for the static
//    and the trace lint, takes the exact race count and the
//    max_race_diagnostics smallest races, never the whole race set. A
//    report needs only those races and a count, so the count is not
//    capped by default; the trace lint clamps it (trace/lint_pipeline.hpp).
//    Each reported race becomes a diagnostic with a shrunk witness
//    prefix of at most max(anomaly.witness_node_cap, 32) nodes (a
//    larger witness is not stored; witness_a/b stay kBottom);
//  * anomaly classification — which models of SC/LC/NN/NW/WN/WW can
//    actually disagree on each race's witness (analyze/anomaly.hpp).
//    Races every model agrees on (e.g. two parallel writes nobody
//    reads) are downgraded to warnings; observable ones are errors;
//  * memory lints — reads of never-written locations (the read can
//    only observe ⊥) and writes to never-read locations (dead stores),
//    reported as notes.
#pragma once

#include <string>
#include <vector>

#include "analyze/anomaly.hpp"
#include "analyze/diagnostics.hpp"
#include "analyze/race_oracle.hpp"

namespace ccmm::analyze {

struct AnalysisOptions {
  /// Race-scan tuning (oracle choice, sharding). A finite
  /// scan.max_races clamps the reported race count: past it
  /// AnalyzeStats::races reads max_races, scan.truncated is set, and
  /// at most max_races race diagnostics are kept.
  RaceScanOptions scan;
  /// Run the model-anomaly classification on each race's witness.
  bool classify_anomalies = true;
  /// Run the memory lints (uninitialized reads, dead writes).
  bool lint = true;
  /// Keep at most this many race diagnostics, the smallest by (a, b,
  /// loc); a summary note reports how many were suppressed. The scan
  /// materializes no other race.
  std::size_t max_race_diagnostics = 64;
  AnomalyOptions anomaly;
};

/// What the driver actually did: the race count and the race scan's
/// cost profile.
struct AnalyzeStats {
  /// The exact race count, or scan.max_races when the count passes it
  /// (scan.truncated).
  std::size_t races = 0;
  RaceScanStats scan;

  // Data-plane accounting: bytes the scan itself held — location index
  // + sweep or per-location scratch + oracle — per node, and the
  // process peak RSS after the analysis (getrusage; includes the
  // computation itself).
  double bytes_per_node = 0.0;
  std::size_t peak_rss_bytes = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Run all passes; diagnostics are returned in pass order (races first,
/// then lints), unsorted — render_report sorts by severity.
[[nodiscard]] std::vector<Diagnostic> analyze_computation(
    const Computation& c, const AnalysisOptions& options = {},
    AnalyzeStats* stats = nullptr);

}  // namespace ccmm::analyze
