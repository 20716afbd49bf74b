#include "trace/postmortem.hpp"

#include "enumerate/observer_enum.hpp"
#include "trace/large_check.hpp"
#include "util/str.hpp"

namespace ccmm {
namespace {

/// Suite bit for the per-location-decomposable models the streaming
/// checker can produce a violation witness for; 0 otherwise.
std::uint32_t suite_bit_for(const std::string& name) {
  if (name == "LC") return kSuiteLC;
  if (name == "NN") return kSuiteNN;
  if (name == "NW") return kSuiteNW;
  if (name == "WN") return kSuiteWN;
  if (name == "WW") return kSuiteWW;
  return 0;
}

}  // namespace

PostmortemReport verify_execution(const Computation& c,
                                  const ObserverFunction& phi,
                                  const MemoryModel& model) {
  PostmortemReport report;
  // One preparation serves both the validity report and the membership
  // check (the model no longer re-validates internally).
  CheckContext ctx;
  const PreparedPair p = ctx.prepare(c, phi);
  report.valid_observer = p.valid();
  if (!p.valid()) {
    report.detail = "invalid observer function: " + p.validity().reason;
    return report;
  }
  report.in_model = model.contains_prepared(p);
  report.detail = report.in_model
                      ? format("execution is %s", model.name().c_str())
                      : format("execution violates %s", model.name().c_str());
  if (!report.in_model) {
    // For the decomposable models the streaming checker names a concrete
    // per-location witness; surface it instead of the bare verdict.
    if (const std::uint32_t bit = suite_bit_for(model.name()); bit != 0) {
      LargeCheckOptions opt;
      opt.models = bit;
      opt.parallel = false;
      const LargeCheckReport lr = large_check(c, phi, opt);
      if (!lr.detail.empty()) report.detail += ": " + lr.detail;
    }
  }
  return report;
}

ObserverFunction reads_only_projection(const Computation& c,
                                       const ObserverFunction& phi) {
  ObserverFunction out(c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (!o.is_read()) continue;
    const NodeId v = phi.get(o.loc, u);
    if (v != kBottom) out.set(o.loc, u, v);
  }
  return out;
}

CompletionResult find_model_completion(const Computation& c,
                                       const ObserverFunction& reads,
                                       const MemoryModel& model,
                                       std::size_t budget) {
  CompletionResult result;

  // Free slots: per written location, every node that neither writes the
  // location (forced to itself) nor is a read fixed by `reads`. A read
  // whose recorded observation is kBottom is also free — ⊥ is already a
  // legal value for it, but so is any non-preceding write... except the
  // machine really returned "no write", so we pin it to ⊥.
  struct Slot {
    Location loc;
    NodeId node;
    std::vector<NodeId> choices;
  };
  std::vector<Slot> slots;
  ObserverFunction base(c.node_count());
  for (const Location l : c.written_locations()) {
    const std::vector<NodeId> ws = c.writers(l);
    for (NodeId u = 0; u < c.node_count(); ++u) {
      const Op o = c.op(u);
      if (o.writes(l)) {
        base.set(l, u, u);
        continue;
      }
      if (o.reads(l)) {
        const NodeId v = reads.get(l, u);
        if (v != kBottom) base.set(l, u, v);
        continue;  // pinned (possibly to ⊥)
      }
      Slot s{l, u, {kBottom}};
      for (const NodeId w : ws)
        if (!c.precedes(u, w)) s.choices.push_back(w);
      slots.push_back(std::move(s));
    }
  }

  if (!is_valid_observer(c, base) && slots.empty()) {
    // No freedom and already invalid: nothing to search.
    return result;
  }

  std::vector<std::size_t> odometer(slots.size(), 0);
  ObserverFunction phi = base;
  CheckContext ctx;  // candidates share c: reuse one context's arenas
  for (;;) {
    for (std::size_t i = 0; i < slots.size(); ++i)
      phi.set(slots[i].loc, slots[i].node, slots[i].choices[odometer[i]]);
    ++result.tried;
    if (model.contains_prepared(ctx.prepare(c, phi))) {
      result.completion = phi;
      return result;
    }
    if (result.tried >= budget) {
      result.exhausted = true;
      return result;
    }
    std::size_t i = 0;
    while (i < slots.size()) {
      if (++odometer[i] < slots[i].choices.size()) break;
      odometer[i] = 0;
      ++i;
    }
    if (i == slots.size()) return result;  // search space exhausted
  }
}

}  // namespace ccmm
