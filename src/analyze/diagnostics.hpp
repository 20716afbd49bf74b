// ccmm/analyze/diagnostics.hpp
//
// The currency of the static-analysis subsystem: every pass reports
// Diagnostics — a severity, the pass that produced it, the offending
// node pair / location, a human-readable message, and (for races) a
// shrunk sub-computation witness plus the classification of which
// memory models of the paper's hierarchy can actually disagree on the
// racy behaviour. A race is where the models *may* part ways; the
// anomaly classification (analyze/anomaly.hpp) says whether they do.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/computation.hpp"

namespace ccmm::analyze {

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

[[nodiscard]] const char* severity_name(Severity s);

/// How the models of the lattice split on a race's minimal witness:
/// models in the same class accept exactly the same valid observer
/// functions over the witness, so executions cannot tell them apart on
/// this race; models in different classes can disagree on observed
/// values. Computed by analyze/anomaly.hpp.
struct ModelSplit {
  /// Model names grouped by behaviour class (each inner vector is one
  /// class; classes ordered by first model in canonical SC, LC, NN, NW,
  /// WN, WW order).
  std::vector<std::vector<std::string>> classes;
  /// Valid observer functions enumerated over the witness per class
  /// representative (parallel to `classes`): how many behaviours the
  /// class admits.
  std::vector<std::size_t> accepted;
  /// Total valid observer functions over the witness.
  std::uint64_t observers = 0;
  /// True when enumeration hit its budget and the split is a lower
  /// bound (classes may subdivide further).
  bool truncated = false;

  [[nodiscard]] bool agree() const { return classes.size() <= 1; }
  [[nodiscard]] std::string to_string() const;
};

struct Diagnostic {
  Severity severity = Severity::kInfo;
  std::string pass;     // "oracle-race", "dead-write", "model", ...
  std::string message;  // one line, no trailing newline
  // The offending nodes, when the finding is about specific nodes
  // (racing pair for race passes; b == kBottom for single-node findings).
  NodeId a = kBottom;
  NodeId b = kBottom;
  std::optional<Location> loc;
  /// Minimal prefix of the analyzed computation exhibiting the finding
  /// (for races: the ancestor closure of the racing pair).
  std::optional<Computation> witness;
  /// Racing pair's ids inside `witness` (kBottom when not applicable).
  NodeId witness_a = kBottom;
  NodeId witness_b = kBottom;
  /// Model-anomaly classification over the witness, when computed.
  std::optional<ModelSplit> split;

  [[nodiscard]] std::string to_string() const;
};

/// Multi-line report: one line per diagnostic plus model-split detail,
/// sorted most severe first, with a summary footer.
[[nodiscard]] std::string render_report(const std::vector<Diagnostic>& diags);

/// Machine-readable report for CI and external tooling: one JSON object
/// with a "diagnostics" array (sorted most severe first, same order as
/// render_report) and a "counts" summary. Witness computations are
/// reported by size only; node ids / locations are omitted when absent.
[[nodiscard]] std::string render_json(const std::vector<Diagnostic>& diags);

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Counts by severity, e.g. to decide a lint exit code.
struct DiagnosticCounts {
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;
};
[[nodiscard]] DiagnosticCounts count_severities(
    const std::vector<Diagnostic>& diags);

}  // namespace ccmm::analyze
