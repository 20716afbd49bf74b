// paper_tour — the paper, section by section, as running code. Walks a
// reader from computations and observer functions to the headline
// theorem LC = NN*, printing each artifact as it goes. Pairs well with
// reading the paper itself; every claim printed here is also enforced
// by the test suite and the bench/ experiment binaries.
//
//   $ ./paper_tour
#include <cstdio>

#include "construct/fixpoint.hpp"
#include "construct/online.hpp"
#include "construct/witness.hpp"
#include "core/last_writer.hpp"
#include "dag/topsort.hpp"
#include "io/dot.hpp"
#include "models/compile.hpp"
#include "models/examples.hpp"
#include "models/location_consistency.hpp"
#include "models/qdag.hpp"
#include "models/sequential_consistency.hpp"

using namespace ccmm;

namespace {

void section(const char* title) {
  std::printf("\n================================================\n%s\n"
              "================================================\n",
              title);
}

}  // namespace

int main() {
  section("Section 2 — computations and observer functions");
  // Definition 1: a computation is a dag of instruction instances.
  ComputationBuilder b;
  const NodeId w1 = b.write(0);          // a write to location 0
  const NodeId r1 = b.read(0, {w1});     // a read after it
  const NodeId w2 = b.write(0);          // a concurrent write
  const NodeId r2 = b.read(0, {r1, w2});  // a read after both branches
  const Computation c = std::move(b).build();
  std::printf("%s", c.to_string().c_str());

  // Definition 2: an observer function says which write each node sees.
  ObserverFunction phi(c.node_count());
  phi.set(0, w1, w1);
  phi.set(0, r1, w1);
  phi.set(0, w2, w2);
  phi.set(0, r2, w2);
  std::printf("an observer function:\n%s", phi.to_string().c_str());
  std::printf("valid per Definition 2: %s\n",
              is_valid_observer(c, phi) ? "yes" : "no");

  section("Section 4 — models from topological sorts (SC, LC)");
  const auto t = c.dag().topological_order();
  const ObserverFunction wt = last_writer(c, t);
  std::printf("last-writer function of the canonical sort:\n%s",
              wt.to_string().c_str());
  std::printf("it is sequentially consistent: %s\n",
              sequentially_consistent(c, wt) ? "yes" : "no");
  std::printf("our phi above is SC: %s, LC: %s\n",
              sequentially_consistent(c, phi) ? "yes" : "no",
              location_consistent(c, phi) ? "yes" : "no");
  std::printf("TS(C) has %llu topological sorts\n",
              (unsigned long long)count_topological_sorts(c.dag()));

  section("Section 5 — the dag-consistent family (Figures 1-3)");
  for (const auto& p : examples::all()) {
    std::printf("%s: NN=%d NW=%d WN=%d WW=%d LC=%d SC=%d\n", p.name,
                qdag_consistent(p.c, p.phi, DagPred::kNN),
                qdag_consistent(p.c, p.phi, DagPred::kNW),
                qdag_consistent(p.c, p.phi, DagPred::kWN),
                qdag_consistent(p.c, p.phi, DagPred::kWW),
                location_consistent(p.c, p.phi),
                sequentially_consistent(p.c, p.phi));
  }
  std::printf("(the two anomaly pairs separate NW from WN; the third\n"
              " separates SC from LC — needs two locations)\n");

  section("Section 3 + Figure 4 — constructibility");
  const NonconstructibilityWitness fig4 = figure4_witness();
  std::printf("%s", fig4.to_string().c_str());
  std::printf("witness validates against NN: %s\n",
              validate_witness(*builtin_model(kSuiteNN), fig4) ? "yes" : "no");
  std::printf("the online game defeats every maintainer here: %s\n",
              play_nonconstructibility_game(*builtin_model(kSuiteNN), fig4)
                  ? "yes"
                  : "no");

  section("Section 6 — Theorem 23: LC = NN*");
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  spec.include_nop = false;
  spec.max_writes_per_location = 2;
  FixpointStats stats;
  const BoundedModelSet nn_star =
      constructible_version(*builtin_model(kSuiteNN), spec, &stats);
  const auto cmp =
      compare_with_model(nn_star, *builtin_model(kSuiteLC));
  std::printf("bounded NN* fixpoint (horizon 4): %zu pairs, %zu pruned\n",
              stats.final_pairs, stats.pruned);
  for (const auto& row : cmp) {
    if (row.size >= spec.max_nodes) continue;
    std::printf("  size %zu: NN* = %zu pairs, LC = %zu pairs -> %s\n",
                row.size, row.fixpoint_pairs, row.reference_pairs,
                row.equal ? "EQUAL" : "different");
  }
  std::printf("(run bench/thm23_lc_equals_nnstar for the full horizon "
              "ladder)\n");

  section("Appendix — export for your slides");
  std::printf("%s", io::to_dot(fig4.c, &fig4.phi).c_str());
  return 0;
}
