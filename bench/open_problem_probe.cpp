// The paper's open problem (Section 7): characterize NW* and WN*. It is
// known that LC ⊆ NW* and LC ⊆ WN* (LC is constructible and stronger
// than both); whether the inclusions are strict is left open. This probe
// computes the bounded fixpoints of NW and WN and compares with LC.
//
//  * If fixpoint = LC at a decided size class, then Δ* = LC there
//    (conclusive for the bounded universe).
//  * If fixpoint ⊋ LC, the gap either is real or shrinks with horizon —
//    the ladder shows the trend, and surviving non-LC pairs are printed
//    as candidate separators.
#include <cstdlib>
#include <cstring>

#include "construct/fixpoint.hpp"
#include "experiment_common.hpp"
#include "models/compile.hpp"

namespace ccmm {
namespace {

int run() {
  experiment::Harness h("Open problem — LC vs NW* and WN* (bounded probe)");
  const auto lc = builtin_model(kSuiteLC);

  struct Probe {
    const char* name;
    std::shared_ptr<const MemoryModel> model;
  };
  const Probe probes[] = {
      {"NW", builtin_model(kSuiteNW)},
      {"WN", builtin_model(kSuiteWN)},
      {"WN+", builtin_model(kSuiteWNPlus)},
      {"NN+", builtin_model(kSuiteNNPlus)},
  };

  TextTable t({"model", "horizon", "size", "fixpoint", "LC ∩ U", "gap"});
  for (const Probe& probe : probes) {
    h.section(format("%s* vs LC", probe.name));
    for (const std::size_t horizon : {4u, 5u}) {
      UniverseSpec spec;
      spec.max_nodes = horizon;
      spec.nlocations = 1;
      spec.include_nop = false;
      spec.max_writes_per_location = 2;

      FixpointStats stats;
      const BoundedModelSet star =
          constructible_version(*probe.model, spec, &stats);
      const auto cmp = compare_with_model(star, *lc);
      h.note(format("horizon %zu: %zu pairs, %zu pruned, %zu rounds",
                    horizon, stats.initial_pairs, stats.pruned,
                    stats.rounds));
      for (const auto& row : cmp) {
        if (row.size >= horizon) continue;  // boundary: uninformative
        const std::size_t gap = row.fixpoint_pairs - row.reference_pairs;
        t.add_row({probe.name, format("%zu", horizon),
                   format("%zu", row.size), format("%zu", row.fixpoint_pairs),
                   format("%zu", row.reference_pairs), format("%zu", gap)});
      }

      // Show one surviving non-LC pair (a candidate Δ* \ LC separator).
      if (horizon == 5) {
        bool shown = false;
        star.for_each_live(
            [&](const Computation& c, const ObserverFunction& phi) {
              if (c.node_count() >= horizon) return true;  // boundary
              if (lc->contains(c, phi)) return true;
              h.note(format("candidate %s* \\ LC pair (size %zu):",
                            probe.name, c.node_count()));
              h.note(c.to_string());
              h.note(phi.to_string());
              shown = true;
              return false;
            });
        if (!shown)
          h.note(format("no surviving non-LC pair below the boundary: "
                        "%s* = LC on this universe",
                        probe.name));
        // Conclusiveness check: LC ⊆ fixpoint always holds; report when
        // the probe is decisive.
        bool all_equal = true;
        for (const auto& row : cmp)
          if (row.size < horizon && !row.equal) all_equal = false;
        h.check(all_equal == !shown,
                format("%s: survivor listing agrees with the size-class "
                       "comparison",
                       probe.name));
        h.note(all_equal
                   ? format("[decided] %s* = LC for all sizes < %zu",
                            probe.name, horizon)
                   : format("[open]    %s* properly contains LC at this "
                            "horizon; gap may shrink with larger bounds",
                            probe.name));
      }
    }
  }
  // Horizon-7 probe, opt-in via CCMM_PROBE_N7=1: the quotient worklist
  // engine brings n=7 into budget. Decides sizes <= 6.
  if (std::getenv("CCMM_PROBE_N7") != nullptr) {
    h.section("horizon-7 quotient probe (CCMM_PROBE_N7)");
    for (const Probe& probe : probes) {
      if (std::strcmp(probe.name, "NW") != 0 &&
          std::strcmp(probe.name, "WN") != 0)
        continue;  // the open problem proper; the + variants re-run free
      UniverseSpec spec;
      spec.max_nodes = 7;
      spec.nlocations = 1;
      spec.include_nop = false;
      spec.max_writes_per_location = 2;
      FixpointStats stats;
      const BoundedModelSet star =
          constructible_version_quotient(*probe.model, spec, &stats);
      h.note(format("%s, horizon 7: %zu pairs, %zu pruned, %zu rounds, "
                    "%zu support edges, %zu repairs, worklist peak %zu",
                    probe.name, stats.initial_pairs, stats.pruned,
                    stats.rounds, stats.support_edges, stats.repairs,
                    stats.worklist_peak));
      const auto cmp = compare_with_model(star, *lc);
      bool all_equal = true;
      for (const auto& row : cmp) {
        if (row.size >= 7) continue;
        if (!row.equal) all_equal = false;
        t.add_row({probe.name, "7", format("%zu", row.size),
                   format("%zu", row.fixpoint_pairs),
                   format("%zu", row.reference_pairs),
                   format("%zu", row.fixpoint_pairs - row.reference_pairs)});
      }
      h.note(all_equal
                 ? format("[decided] %s* = LC for all sizes < 7", probe.name)
                 : format("[open]    %s* properly contains LC below 7",
                          probe.name));
    }
  }

  h.note(t.render());
  return h.finish();
}

}  // namespace
}  // namespace ccmm

int main() { return ccmm::run(); }
