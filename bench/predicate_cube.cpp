// Completing the cube: Definition 20's predicate may inspect u, v AND w.
// The paper studies the four w-independent corners (NN/NW/WN/WW, with
// "symmetry suggests that we also consider NW"); this experiment maps
// all eight corners: membership counts, the inclusion order, and the
// constructibility status of each — extending Figure 1 to the full cube.
#include "construct/constructibility.hpp"
#include "construct/witness.hpp"
#include "enumerate/universe.hpp"
#include "experiment_common.hpp"
#include "models/compile.hpp"
#include "models/qdag.hpp"

namespace ccmm {
namespace {

int run() {
  experiment::Harness h("The predicate cube — all eight Q-dag corners");

  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  spec.include_nop = false;
  const auto universe = build_universe(spec);
  h.note(format("universe: 1 location, <= 4 nodes, %zu pairs",
                universe.size()));

  const auto corners = all_cube_corners();
  std::vector<std::shared_ptr<const MemoryModel>> models;
  for (const CubeSpec c : corners) models.push_back(cube_model(c));

  // Membership bitmaps, one pass.
  std::vector<std::vector<bool>> in(corners.size(),
                                    std::vector<bool>(universe.size()));
  std::vector<std::size_t> counts(corners.size(), 0);
  for (std::size_t p = 0; p < universe.size(); ++p)
    for (std::size_t m = 0; m < corners.size(); ++m) {
      in[m][p] = models[m]->contains(universe[p].c, universe[p].phi);
      counts[m] += in[m][p] ? 1 : 0;
    }

  h.section("membership counts");
  TextTable counts_table({"corner", "alias", "members"});
  const auto alias = [](CubeSpec c) -> const char* {
    if (!c.w_writes) {
      if (!c.u_writes && !c.v_writes) return "NN";
      if (!c.u_writes && c.v_writes) return "NW";
      if (c.u_writes && !c.v_writes) return "WN";
      return "WW";
    }
    return "-";
  };
  for (std::size_t m = 0; m < corners.size(); ++m)
    counts_table.add_row({cube_name(corners[m]), alias(corners[m]),
                          format("%zu", counts[m])});
  h.note(counts_table.render());

  h.section("inclusion matrix (row ⊆ column?)");
  TextTable inc({"⊆", "NNN", "NNW", "NWN", "NWW", "WNN", "WNW", "WWN",
                 "WWW"});
  // Structural fact to verify: adding a W constraint shrinks the set of
  // triples Q fires on, so the model admits more pairs — corners ordered
  // by constraint-set inclusion must be ordered by model inclusion.
  bool monotone_in_ws = true;
  for (std::size_t a = 0; a < corners.size(); ++a) {
    std::vector<std::string> row{cube_name(corners[a])};
    for (std::size_t b = 0; b < corners.size(); ++b) {
      bool subset = true;
      for (std::size_t p = 0; p < universe.size(); ++p)
        if (in[a][p] && !in[b][p]) {
          subset = false;
          break;
        }
      row.push_back(subset ? "yes" : "no");
      // If corner a's W-set is a subset of b's, then Q_a ⊇ Q_b, so model
      // a ⊆ model b must hold.
      const bool a_le_b = (!corners[a].u_writes || corners[b].u_writes) &&
                          (!corners[a].v_writes || corners[b].v_writes) &&
                          (!corners[a].w_writes || corners[b].w_writes);
      if (a_le_b && !subset) monotone_in_ws = false;
    }
    inc.add_row(row);
  }
  h.note(inc.render());
  h.check(monotone_in_ws,
          "adding a W constraint always weakens the model (Q shrinks)");

  // The w-constrained corners are trivial: requiring op(w) = W(l) makes
  // the premise Φ(l,u) = Φ(l,w) = w unsatisfiable for u ≺ w (condition
  // 2.2 forbids observing a successor), so every valid pair is admitted.
  // This is why the paper's restriction to w-independent predicates
  // loses nothing.
  bool w_corners_trivial = true;
  for (std::size_t m = 0; m < corners.size(); ++m)
    if (corners[m].w_writes && counts[m] != universe.size())
      w_corners_trivial = false;
  h.check(w_corners_trivial,
          "every corner constraining w admits the whole valid universe");

  h.section("constructibility per corner (witness search, <= 4 nodes)");
  WitnessSearchOptions options;
  options.spec = spec;
  TextTable cons({"corner", "constructible up to bound", "witness size"});
  for (std::size_t m = 0; m < corners.size(); ++m) {
    const auto w = find_nonconstructibility_witness(*models[m], options);
    cons.add_row({cube_name(corners[m]), w.has_value() ? "NO" : "yes",
                  w.has_value() ? format("%zu", w->c.node_count()) : "-"});
    if (w.has_value())
      h.check(validate_witness(*models[m], *w),
              format("%s witness validates", cube_name(corners[m]).c_str()));
  }
  h.note(cons.render());

  // Sanity anchors from the paper's corner: NNN (= NN) nonconstructible,
  // WWN (= WW) constructible.
  const auto nnn = find_nonconstructibility_witness(
      *models[0], options);
  h.check(nnn.has_value(), "Q[NNN] = NN is not constructible");

  return h.finish();
}

}  // namespace
}  // namespace ccmm

int main() { return ccmm::run(); }
