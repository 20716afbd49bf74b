// Figure 1: the lattice of memory-model relations
//   SC ⊊ LC ⊊ NN ⊊ {NW, WN} ⊊ WW, with NW and WN incomparable,
// established extensionally on exhaustive bounded universes.
#include <memory>

#include "enumerate/universe.hpp"
#include "experiment_common.hpp"
#include "models/compile.hpp"
#include "models/relations.hpp"

namespace ccmm {
namespace {

struct NamedModel {
  const char* name;
  const MemoryModel* model;
};

void report_relation(experiment::Harness& h, const NamedModel& a,
                     const NamedModel& b, const std::vector<CPhi>& universe,
                     ModelRelation expected) {
  const auto r = compare_models(*a.model, *b.model, universe);
  h.check(r.relation == expected,
          format("%s vs %s: %s (expected %s)  |%s|=%zu |%s|=%zu both=%zu",
                 a.name, b.name, relation_name(r.relation),
                 relation_name(expected), a.name, r.in_a, b.name, r.in_b,
                 r.in_both));
}

int run() {
  experiment::Harness h("Figure 1 — the model lattice");

  const auto sc = builtin_model(kSuiteSC);
  const auto lc = builtin_model(kSuiteLC);
  const auto nn = builtin_model(kSuiteNN);
  const auto nw = builtin_model(kSuiteNW);
  const auto wn = builtin_model(kSuiteWN);
  const auto ww = builtin_model(kSuiteWW);

  // Universe A: one location, up to 4 nodes, exhaustive.
  UniverseSpec one_loc;
  one_loc.max_nodes = 4;
  one_loc.nlocations = 1;
  const auto ua = build_universe(one_loc);
  h.note(format("universe A: 1 location, <= 4 nodes, %zu pairs", ua.size()));

  // Universe B: two locations, up to 3 nodes, exhaustive — plus all
  // 4-node edgeless computations (which contain the SC/LC separator).
  UniverseSpec two_loc;
  two_loc.max_nodes = 3;
  two_loc.nlocations = 2;
  auto ub = build_universe(two_loc);
  {
    UniverseSpec flat = two_loc;
    flat.max_nodes = 4;
    for_each_pair(flat, [&](const Computation& c, const ObserverFunction& f) {
      if (c.node_count() == 4 && c.dag().edge_count() == 0)
        ub.push_back({c, f});
      return true;
    });
  }
  h.note(format("universe B: 2 locations, <= 3 nodes + flat 4-node, %zu pairs",
                ub.size()));

  h.section("relations on universe A (single location)");
  report_relation(h, {"LC", lc.get()}, {"NN", nn.get()}, ua,
                  ModelRelation::kStrictlyStronger);
  report_relation(h, {"NN", nn.get()}, {"NW", nw.get()}, ua,
                  ModelRelation::kStrictlyStronger);
  report_relation(h, {"NN", nn.get()}, {"WN", wn.get()}, ua,
                  ModelRelation::kStrictlyStronger);
  report_relation(h, {"NW", nw.get()}, {"WW", ww.get()}, ua,
                  ModelRelation::kStrictlyStronger);
  report_relation(h, {"WN", wn.get()}, {"WW", ww.get()}, ua,
                  ModelRelation::kStrictlyStronger);
  report_relation(h, {"NW", nw.get()}, {"WN", wn.get()}, ua,
                  ModelRelation::kIncomparable);
  // With a single location SC and LC coincide.
  report_relation(h, {"SC", sc.get()}, {"LC", lc.get()}, ua,
                  ModelRelation::kEqual);

  h.section("relations on universe B (two locations)");
  report_relation(h, {"SC", sc.get()}, {"LC", lc.get()}, ub,
                  ModelRelation::kStrictlyStronger);
  // The minimal NN \ LC separator needs 4 nodes *with* edges, which
  // universe B omits (its 4-node slice is edgeless): LC and NN coincide
  // here — strictness is already witnessed on universe A.
  report_relation(h, {"LC", lc.get()}, {"NN", nn.get()}, ub,
                  ModelRelation::kEqual);

  h.section("membership counts (universe A)");
  const std::vector<const MemoryModel*> ms = {sc.get(), lc.get(), nn.get(),
                                              nw.get(), wn.get(), ww.get()};
  const auto counts = membership_counts(ms, ua);
  TextTable t({"model", "members", "share"});
  const char* names[] = {"SC", "LC", "NN", "NW", "WN", "WW"};
  for (std::size_t i = 0; i < ms.size(); ++i)
    t.add_row({names[i], format("%zu", counts[i]),
               format("%.1f%%",
                      100.0 * static_cast<double>(counts[i]) /
                          static_cast<double>(ua.size()))});
  h.note(t.render());

  return h.finish();
}

}  // namespace
}  // namespace ccmm

int main() { return ccmm::run(); }
