#include "trace/spec_check.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "trace/trace.hpp"
#include "util/str.hpp"

namespace ccmm {
namespace {

/// Render a scope's member list for diagnostics ("{0, 1}").
std::string scope_to_string(const ScopeSpec& scope) {
  std::string out = "{";
  for (std::size_t i = 0; i < scope.locations.size(); ++i) {
    if (i > 0) out += ", ";
    out += format("%u", scope.locations[i]);
  }
  out += "}";
  return out;
}

/// Decide one serialization obligation (a scope, or the global order on
/// `locs`): hint verification first, budgeted search second. Returns
/// kYes/kNo, or kExhausted when the search ran out of budget.
SearchStatus decide_order(const Computation& c, const ObserverFunction& phi,
                          const std::vector<Location>& locs,
                          const std::vector<NodeId>& hint,
                          std::size_t budget) {
  if (!hint.empty() && order_explains(c, phi, locs, hint))
    return SearchStatus::kYes;
  ScOptions sc_opt;
  sc_opt.budget = budget;
  return serialization_check(c, phi, locs, sc_opt).status;
}

/// The verdict loop of both entries; exactly one of `phi`, `trace` is set.
SpecCheckReport check_models(
    const Computation& c, const ObserverFunction* phi, const Trace* trace,
    const std::vector<std::shared_ptr<const CompiledModel>>& models,
    const SpecCheckOptions& options) {
  SpecCheckReport report;

  // One shared streaming run covers the mask-decidable part of every
  // plan.
  LargeCheckOptions large = options.large;
  large.models &= kLargeCheckExt;
  for (const auto& m : models) large.models |= m->streaming_plan().mask;
  report.base = trace != nullptr ? large_check_trace(c, *trace, large)
                                 : large_check(c, *phi, large);

  // The order axioms search Φ, or the trace's completion, built on first
  // use; the trace order, tried first, explains every column of a
  // scope-consistent serial execution, so those never backtrack.
  std::optional<ObserverFunction> completion;
  std::vector<NodeId> hint;
  const auto searched = [&]() -> const ObserverFunction& {
    if (trace == nullptr) return *phi;
    if (!completion.has_value()) {
      completion = observer_from_trace(c, *trace);
      hint = trace_order(*trace);
    }
    return *completion;
  };

  report.models.reserve(models.size());
  for (const auto& model : models) {
    const CompiledModel& m = *model;
    const CompiledModel::StreamingPlan& plan = m.streaming_plan();
    SpecModelVerdict v;
    v.name = m.name();
    v.decided = true;
    if (!report.base.valid_observer) {
      // Every model rejects an invalid observer (Definition 2), and a
      // trace that does not fit the computation.
      v.detail = report.base.detail;
      report.models.push_back(std::move(v));
      continue;
    }
    if ((report.base.satisfied & plan.mask) != plan.mask) {
      // Carry the first per-location witness for a bit this model needs.
      v.detail =
          report.base.violation_detail(plan.mask & ~report.base.satisfied);
      report.models.push_back(std::move(v));
      continue;
    }

    // The mask verdicts hold; finish the order axioms the masks cannot
    // express. LC everywhere (checked above for scoped/global plans) is
    // necessary, so the searches only run on plausible members.
    bool member = true;
    if (plan.scoped) {
      for (const ScopeSpec& scope : m.spec().scopes) {
        const SearchStatus st = decide_order(c, searched(), scope.locations,
                                             hint, options.search_budget);
        if (st == SearchStatus::kYes) continue;
        if (st == SearchStatus::kNo) {
          member = false;
          v.detail = format("scope %s admits no joint serialization",
                            scope_to_string(scope).c_str());
        } else {
          v.decided = false;
          v.detail = format("serialization search budget exhausted for "
                            "scope %s",
                            scope_to_string(scope).c_str());
        }
        break;
      }
    }
    if (member && v.decided && plan.global) {
      const ObserverFunction& p = searched();
      const SearchStatus st = decide_order(c, p, p.active_locations(), hint,
                                           options.search_budget);
      if (st == SearchStatus::kNo) {
        member = false;
        v.detail = "no global serialization explains the observer";
      } else if (st == SearchStatus::kExhausted) {
        v.decided = false;
        v.detail = "global serialization search budget exhausted";
      }
    }
    v.member = v.decided && member;
    report.models.push_back(std::move(v));
  }
  return report;
}

}  // namespace

bool SpecCheckReport::all_members() const {
  return std::all_of(models.begin(), models.end(),
                     [](const SpecModelVerdict& v) {
                       return v.decided && v.member;
                     });
}

std::string SpecModelVerdict::to_string() const {
  std::string out = format("  %-12s %s", name.c_str(),
                           !decided ? "undecided" : (member ? "yes" : "no"));
  if (!detail.empty()) out += "  (" + detail + ")";
  return out + '\n';
}

std::string SpecCheckReport::to_string() const {
  std::string out = format("spec_check: %zu model(s)\n", models.size());
  for (const SpecModelVerdict& v : models) out += v.to_string();
  return out + base.to_string();
}

SpecCheckReport spec_check(
    const Computation& c, const ObserverFunction& phi,
    const std::vector<std::shared_ptr<const CompiledModel>>& models,
    const SpecCheckOptions& options) {
  return check_models(c, &phi, nullptr, models, options);
}

SpecCheckReport spec_check_trace(
    const Computation& c, const Trace& trace,
    const std::vector<std::shared_ptr<const CompiledModel>>& models,
    const SpecCheckOptions& options) {
  return check_models(c, nullptr, &trace, models, options);
}

}  // namespace ccmm
