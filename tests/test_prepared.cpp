// The shared-preparation API, pinned three ways:
//  * every built-in model answers like its definition
//    (tests/reference_models.hpp) through both membership levels —
//    contains and contains_prepared — as do the predicate and
//    intersection wrappers, over exhaustive small universes;
//  * ModelRegistry::classify over the eight built-in specs equals the
//    eight definitions, with lattice short-circuiting ON and OFF (the
//    ablation);
//  * the PreparedPair lists each written location's writers and keeps
//    the kernel's verdicts per location, whatever order bits are asked
//    in, and cached_classification memoizes the built-ins' bitmask per
//    orbit.
#include "core/prepared.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "core/last_writer.hpp"
#include "enumerate/cached_model.hpp"
#include "enumerate/universe.hpp"
#include "models/compile.hpp"
#include "helpers.hpp"
#include "reference_models.hpp"
#include "util/memo_cache.hpp"

namespace ccmm {
namespace {

struct Row {
  const char* label;
  std::shared_ptr<const MemoryModel> model;
  /// Membership by definition.
  std::function<bool(const Computation&, const ObserverFunction&)> want;
};

std::vector<Row> all_models() {
  std::vector<Row> rows;
  for (const std::uint32_t bit : test::kBuiltinBits)
    rows.push_back({suite_bit_name(bit), builtin_model(bit),
                    [bit](const Computation& c, const ObserverFunction& phi) {
                      return test::builtin_by_definition(c, phi, bit);
                    }});
  const auto nw = builtin_model(kSuiteNW);
  const auto wn = builtin_model(kSuiteWN);
  const auto lc_def = [](const Computation& c, const ObserverFunction& phi) {
    return test::lc_by_definition(c, phi);
  };
  const auto wn_def = [](const Computation& c, const ObserverFunction& phi) {
    return test::qdag_by_definition(c, phi, DagPred::kWN);
  };
  // Third-party idioms over the two-level API: a plain predicate
  // (exercises the prepared->plain bridge), a prepared predicate
  // (exercises the plain->prepared bridge), and an intersection (one
  // preparation must serve both operands).
  rows.push_back({"pred-plain",
                  std::make_shared<PredicateModel>(
                      "LC-as-pred",
                      PredicateModel::Pred([](const Computation& c,
                                              const ObserverFunction& phi) {
                        return location_consistent(c, phi);
                      })),
                  lc_def});
  rows.push_back({"pred-prepared",
                  std::make_shared<PredicateModel>(
                      "WN-as-pred",
                      PredicateModel::PreparedPred([](const PreparedPair& p) {
                        return qdag_consistent_prepared(p, DagPred::kWN);
                      })),
                  wn_def});
  rows.push_back({"NW∩WN", std::make_shared<IntersectionModel>(nw, wn),
                  [](const Computation& c, const ObserverFunction& phi) {
                    return test::qdag_by_definition(c, phi, DagPred::kNW) &&
                           test::qdag_by_definition(c, phi, DagPred::kWN);
                  }});
  return rows;
}

void sweep_universe(const UniverseSpec& spec) {
  const std::vector<Row> rows = all_models();
  CheckContext ctx;
  std::size_t pairs = 0;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    const PreparedPair p = ctx.prepare(c, phi);
    EXPECT_TRUE(p.valid());
    for (const Row& row : rows) {
      const bool want = row.want(c, phi);
      const bool plain = row.model->contains(c, phi);
      const bool prepared = row.model->contains_prepared(p);
      EXPECT_EQ(plain, want) << row.label << " contains diverges on:\n"
                             << c.to_string() << phi.to_string();
      EXPECT_EQ(prepared, want)
          << row.label << " contains_prepared diverges on:\n"
          << c.to_string() << phi.to_string();
      if (plain != want || prepared != want)
        return false;  // first divergence is enough
    }
    ++pairs;
    return true;
  });
  EXPECT_EQ(pairs, pair_count(spec));
  EXPECT_EQ(ctx.stats().prepared, pairs);
}

TEST(PreparedDifferential, FourNodesOneLocation) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  spec.include_nop = false;
  sweep_universe(spec);
}

TEST(PreparedDifferential, ThreeNodesTwoLocations) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 2;
  sweep_universe(spec);
}

TEST(PreparedDifferential, InvalidObserversRejectedEverywhere) {
  // A read observing a write it precedes (violates Condition 2.2).
  const Dag g1(2, {{0, 1}});
  const Computation c1(g1, {Op::read(0), Op::write(0)});
  ObserverFunction phi1(2);
  phi1.set(0, 1, 1);
  phi1.set(0, 0, 1);

  // A writer observing another writer (violates Condition 2.3).
  const Computation c2(Dag(2), {Op::write(0), Op::write(0)});
  ObserverFunction phi2(2);
  phi2.set(0, 0, 1);
  phi2.set(0, 1, 1);

  CheckContext ctx;
  const std::pair<const Computation*, const ObserverFunction*> cases[] = {
      {&c1, &phi1}, {&c2, &phi2}};
  for (const auto& [c, phi] : cases) {
    const PreparedPair p = ctx.prepare(*c, *phi);
    EXPECT_FALSE(p.valid());
    EXPECT_FALSE(p.validity().reason.empty());
    EXPECT_EQ(p.validity().reason, validate_observer(*c, *phi).reason);
    EXPECT_TRUE(p.locations().empty());
    for (const Row& row : all_models()) {
      EXPECT_FALSE(row.model->contains_prepared(p)) << row.label;
      EXPECT_FALSE(row.model->contains(*c, *phi)) << row.label;
    }
    EXPECT_EQ(ModelRegistry(builtin_model_specs()).classify(p), 0u);
  }
}

TEST(PreparedPairStructure, LocationsKeepWritersAndKernelVerdicts) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 2;
  CheckContext ctx;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    const PreparedPair p = ctx.prepare(c, phi);
    EXPECT_EQ(p.locations().size(), phi.active_locations().size());
    for (const auto& lp : p.locations()) {
      EXPECT_EQ(lp.writers, c.writers(lp.loc));
      EXPECT_EQ(p.location(lp.loc), &lp);
    }
    // Bits decided a few at a time answer like one request for all.
    const std::uint32_t at_once = ctx.prepare(c, phi).violated(kLargeCheckExt);
    EXPECT_EQ(p.violated(kSuiteLC), at_once & kSuiteLC);
    EXPECT_EQ(p.violated(kSuiteNNPlus), at_once & kSuiteNNPlus);
    EXPECT_EQ(p.violated(kLargeCheckExt), at_once);
    // Each location keeps its own LC verdict: Definition 18 on Φ's
    // column there, every other column a last-writer function.
    for (const auto& lp : p.locations()) {
      ObserverFunction only = last_writer(c, c.dag().topological_order());
      for (NodeId u = 0; u < c.node_count(); ++u)
        only.set(lp.loc, u, phi.get(lp.loc, u));
      EXPECT_EQ(p.violated_at(lp, kSuiteLC) == 0,
                test::lc_by_definition(c, only))
          << c.to_string() << phi.to_string();
      EXPECT_EQ(lp.violated & ~lp.decided, 0u);
    }
    return true;
  });
}

TEST(RegistryClassify, BuiltinsEqualIndependentCallsPrunedAndUnpruned) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  spec.include_nop = false;
  const ModelRegistry builtins(builtin_model_specs());
  CheckContext ctx;
  RegistryOptions pruned;  // defaults: short_circuit on
  RegistryOptions unpruned;
  unpruned.short_circuit = false;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    const std::uint32_t expect = test::classify_by_definition(c, phi);
    const PreparedPair p = ctx.prepare(c, phi);
    EXPECT_EQ(builtins.classify(p, pruned), expect)
        << c.to_string() << phi.to_string();
    EXPECT_EQ(builtins.classify(p, unpruned), expect)
        << "ablation diverges on:\n"
        << c.to_string() << phi.to_string();
    return true;
  });
}

TEST(CachedClassification, AgreesAndHits) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  spec.include_nop = false;
  const auto before = classification_cache().stats();
  std::size_t pairs = 0;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    EXPECT_EQ(cached_classification(c, phi),
              test::classify_by_definition(c, phi));
    ++pairs;
    return true;
  });
  // Second pass answers entirely from the cache.
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    EXPECT_EQ(cached_classification(c, phi),
              test::classify_by_definition(c, phi));
    return true;
  });
  const auto after = classification_cache().stats();
  EXPECT_GE(after.hits - before.hits, pairs);  // the repeat pass at least
  EXPECT_GT(after.insertions, before.insertions);
}

}  // namespace
}  // namespace ccmm
