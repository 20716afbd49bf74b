#include "models/relations.hpp"

namespace ccmm {

const char* relation_name(ModelRelation r) {
  switch (r) {
    case ModelRelation::kEqual:
      return "equal";
    case ModelRelation::kStrictlyStronger:
      return "strictly stronger";
    case ModelRelation::kStrictlyWeaker:
      return "strictly weaker";
    case ModelRelation::kIncomparable:
      return "incomparable";
  }
  return "?";
}

ComparisonResult compare_models(const MemoryModel& a, const MemoryModel& b,
                                const std::vector<CPhi>& universe) {
  ComparisonResult r;
  r.universe = universe.size();
  CheckContext ctx;  // one preparation serves both models per pair
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const PreparedPair p = ctx.prepare(universe[i].c, universe[i].phi);
    const bool ina = a.contains_prepared(p);
    const bool inb = b.contains_prepared(p);
    if (ina) ++r.in_a;
    if (inb) ++r.in_b;
    if (ina && inb) ++r.in_both;
    if (ina && !inb && r.witness_a_minus_b == SIZE_MAX) r.witness_a_minus_b = i;
    if (inb && !ina && r.witness_b_minus_a == SIZE_MAX) r.witness_b_minus_a = i;
  }
  const bool a_sub_b = r.witness_a_minus_b == SIZE_MAX;
  const bool b_sub_a = r.witness_b_minus_a == SIZE_MAX;
  if (a_sub_b && b_sub_a)
    r.relation = ModelRelation::kEqual;
  else if (a_sub_b)
    r.relation = ModelRelation::kStrictlyStronger;
  else if (b_sub_a)
    r.relation = ModelRelation::kStrictlyWeaker;
  else
    r.relation = ModelRelation::kIncomparable;
  return r;
}

std::vector<std::size_t> membership_counts(
    const std::vector<const MemoryModel*>& models,
    const std::vector<CPhi>& universe) {
  std::vector<std::size_t> counts(models.size(), 0);
  CheckContext ctx;  // one preparation serves every model per pair
  for (const auto& pair : universe) {
    const PreparedPair p = ctx.prepare(pair.c, pair.phi);
    for (std::size_t m = 0; m < models.size(); ++m)
      if (models[m]->contains_prepared(p)) ++counts[m];
  }
  return counts;
}

MonotonicityResult check_monotonicity(const MemoryModel& model,
                                      const std::vector<CPhi>& universe) {
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const auto& [c, phi] = universe[i];
    if (!model.contains(c, phi)) continue;
    // Try deleting each edge in turn (single-edge relaxations generate all
    // relaxations transitively, and membership must survive each step).
    const std::vector<Edge> edges = c.dag().edges();
    for (const Edge& e : edges) {
      DagBuilder relaxed(c.node_count());
      for (const Edge& e2 : edges)
        if (!(e2 == e)) relaxed.add_edge(e2.from, e2.to);
      const Computation cr(relaxed.build(), c.ops());
      if (!model.contains(cr, phi)) return {false, i};
    }
  }
  return {};
}

}  // namespace ccmm
