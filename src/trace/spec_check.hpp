// ccmm/trace/spec_check.hpp
//
// Streaming membership for *compiled model specs* (models/compile.hpp):
// the bridge between the model compiler and the large_check data plane.
// Each spec's StreamingPlan names the suite bits (LC, the four named
// corners, freshness) its mask-decidable part needs; both entries union
// the plans of every requested model into ONE streaming run — the
// closure-free validity/LC/sweep/shadow passes execute once, however
// many models are being decided — and one verdict loop then finishes
// the order axioms the masks cannot express:
//
//  * scoped order: one serialization witness per scope. On a trace the
//    execution order is tried first (order_explains, O(n+m) per scope —
//    a scope-consistent serial execution is always explained by its own
//    order), falling back to the budgeted backtracking search;
//  * global order: the same two-step on all active locations.
//
// Every spec streams: normalize() drops the w-constrained cube axioms,
// which are vacuous for valid observers, and the rest are kernel bits.
// A model whose search exhausts its budget is reported
// `decided = false` rather than guessed — callers enlarge the budget.
// CompiledModel::check_prepared decides the same plan on a prepared
// pair, with the same kernel; tests/test_spec_check.cpp pins the mask
// part against the paper's definitions and the searches against the
// prepared path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "models/compile.hpp"
#include "trace/large_check.hpp"

namespace ccmm {

struct SpecCheckOptions {
  /// The underlying streaming run. `large.models` is unioned with the
  /// requested models' plans, so a caller (the lint pipeline) can fold
  /// its own suite verdicts into the one shared pass.
  LargeCheckOptions large;
  /// Budget (states expanded) for each scoped/global serialization
  /// search that the mask verdicts leave undecided.
  std::size_t search_budget = SIZE_MAX;
};

/// Verdict for one requested model.
struct SpecModelVerdict {
  std::string name;
  bool decided = false;  // false: a search exhausted its budget
  bool member = false;   // meaningful only when decided
  std::string detail;    // first violation or why undecided; "" if member

  /// One "  NAME  yes|no|undecided  (detail)" line.
  [[nodiscard]] std::string to_string() const;
};

struct SpecCheckReport {
  /// The shared streaming run (validity verdict, per-location table,
  /// data-plane accounting). `base.checked` is the union of the plans.
  LargeCheckReport base;
  std::vector<SpecModelVerdict> models;  // one per requested model

  /// All models decided and members.
  [[nodiscard]] bool all_members() const;
  [[nodiscard]] std::string to_string() const;
};

/// Decide every model in `models` for (c, phi) via one shared
/// large_check run plus per-scope serialization searches.
[[nodiscard]] SpecCheckReport spec_check(
    const Computation& c, const ObserverFunction& phi,
    const std::vector<std::shared_ptr<const CompiledModel>>& models,
    const SpecCheckOptions& options = {});

/// Trace entry point: the shared run is large_check_trace, and the
/// trace's completion (observer_from_trace) is built only when an order
/// axiom needs a search, with the trace's execution order tried first.
/// A trace that does not fit the computation rejects every model.
[[nodiscard]] SpecCheckReport spec_check_trace(
    const Computation& c, const Trace& trace,
    const std::vector<std::shared_ptr<const CompiledModel>>& models,
    const SpecCheckOptions& options = {});

}  // namespace ccmm
