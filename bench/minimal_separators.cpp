// Mining the lattice: automatically derive the minimal separating pair
// for every edge of Figure 1 (the generator behind Figures 2/3/4-style
// anomalies). Each row shows the smallest computation/observer pair in
// the weaker model but not the stronger one, discovered by exhaustive
// search — no curation involved.
#include "enumerate/separators.hpp"
#include "experiment_common.hpp"
#include "models/compile.hpp"

namespace ccmm {
namespace {

int run() {
  experiment::Harness h("Minimal separators for every lattice edge");

  const auto sc = builtin_model(kSuiteSC);
  const auto lc = builtin_model(kSuiteLC);
  const auto nn = builtin_model(kSuiteNN);
  const auto nw = builtin_model(kSuiteNW);
  const auto wn = builtin_model(kSuiteWN);
  const auto ww = builtin_model(kSuiteWW);
  const auto wnp = builtin_model(kSuiteWNPlus);

  struct Edge {
    const char* stronger_name;
    const MemoryModel* stronger;
    const char* weaker_name;
    const MemoryModel* weaker;
    std::size_t nlocations;
    std::size_t expect_nodes;  // 0 = existence only
  };
  const Edge edges[] = {
      {"SC", sc.get(), "LC", lc.get(), 2, 2},
      {"LC", lc.get(), "NN", nn.get(), 1, 4},
      {"NN", nn.get(), "NW", nw.get(), 1, 0},
      {"NN", nn.get(), "WN", wn.get(), 1, 0},
      {"NW", nw.get(), "WW", ww.get(), 1, 0},
      {"WN", wn.get(), "WW", ww.get(), 1, 0},
      {"LC", lc.get(), "WN+", wnp.get(), 1, 0},
      {"WN+", wnp.get(), "WN", wn.get(), 1, 0},
  };

  TextTable t({"edge", "separator nodes", "edges", "locations"});
  for (const Edge& e : edges) {
    UniverseSpec spec;
    spec.max_nodes = 4;
    spec.nlocations = e.nlocations;
    spec.include_nop = false;
    const auto sep = find_minimal_separator(*e.stronger, *e.weaker, spec);
    const std::string edge_name =
        format("%s \xE2\x8A\x8A %s", e.stronger_name, e.weaker_name);
    h.check(sep.has_value(), format("%s separates within the universe",
                                    edge_name.c_str()));
    if (!sep.has_value()) continue;
    t.add_row({edge_name, format("%zu", sep->c.node_count()),
               format("%zu", sep->c.dag().edge_count()),
               format("%zu", e.nlocations)});
    h.note(format("--- %s ---", edge_name.c_str()));
    h.note(sep->c.to_string());
    h.note(sep->phi.to_string());
    h.check(e.weaker->contains(sep->c, sep->phi) &&
                !e.stronger->contains(sep->c, sep->phi),
            format("%s separator double-checked", edge_name.c_str()));
    if (e.expect_nodes != 0) {
      h.check(sep->c.node_count() == e.expect_nodes,
              format("%s minimal separator has %zu nodes", edge_name.c_str(),
                     e.expect_nodes));
    }
  }
  h.note(t.render());
  return h.finish();
}

}  // namespace
}  // namespace ccmm

int main() { return ccmm::run(); }
