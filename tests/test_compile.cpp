// The model compiler (models/compile.hpp), differentially pinned:
//  * every compiled built-in and every cube corner answers like the
//    paper's definition (tests/reference_models.hpp) — contains_prepared
//    AND the pruned member-observer enumeration — over exhaustive small
//    universes;
//  * ModelRegistry::classify over the bundled registry equals the
//    per-model membership sweep, with the derived-lattice
//    short-circuiting ON and OFF (the ablation), and its low eight bits
//    equal the eight definitions;
//  * spec-pack clients: COH is extensionally LC (and shares its cache
//    tag), PC2 sits strictly between SC and LC on the paper's examples;
//  * budget exhaustion surfaces in check_prepared / classify instead of
//    mislabeling the pair;
//  * the shared spec-pack loader refuses what the registry cannot hold.
#include "models/compile.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "construct/fixpoint.hpp"
#include "construct/witness.hpp"
#include "core/prepared.hpp"
#include "enumerate/observer_enum.hpp"
#include "enumerate/universe.hpp"
#include "exec/sc_memory.hpp"
#include "exec/sim_machine.hpp"
#include "exec/workload.hpp"
#include "helpers.hpp"
#include "reference_models.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

void sweep_builtins(const UniverseSpec& uspec) {
  CheckContext ctx;
  for_each_pair(uspec, [&](const Computation& c, const ObserverFunction& phi) {
    const PreparedPair p = ctx.prepare(c, phi);
    for (const std::uint32_t bit : test::kBuiltinBits) {
      const auto model = builtin_model(bit);
      const bool want = test::builtin_by_definition(c, phi, bit);
      EXPECT_EQ(model->contains_prepared(p), want) << suite_bit_name(bit);
      EXPECT_EQ(model->contains(c, phi), want) << suite_bit_name(bit);
      const CompiledVerdict v = model->check_prepared(p);
      EXPECT_EQ(v.member, want) << suite_bit_name(bit);
      EXPECT_FALSE(v.exhausted) << suite_bit_name(bit);
    }
    // The freshness axiom alone, which WN+ and NN+ conjoin with a corner.
    EXPECT_EQ(observer_is_fresh_prepared(p), test::fresh_by_definition(c, phi));
    return true;
  });
}

TEST(Compile, BuiltinsMatchDefinitionsOneLocation) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  sweep_builtins(spec);
}

TEST(Compile, BuiltinsMatchDefinitionsTwoLocations) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 2;
  sweep_builtins(spec);
}

TEST(Compile, BuiltinModelIsTheBundledEntry) {
  // One object per built-in: builtin_model(bit i) is entry i of the
  // bundled registry, named and specified as builtin_model_specs()[i].
  const ModelRegistry& reg = ModelRegistry::bundled();
  for (std::size_t i = 0; i < std::size(test::kBuiltinBits); ++i) {
    const auto model = builtin_model(test::kBuiltinBits[i]);
    EXPECT_EQ(model, reg.entries()[i].model);
    EXPECT_EQ(model->name(), suite_bit_name(test::kBuiltinBits[i]));
    EXPECT_EQ(model->spec(), builtin_model_specs()[i]);
  }
  // Freshness alone, no bit, two bits: none names one built-in.
  for (const std::uint32_t bad : {std::uint32_t{kSuiteFresh}, 0u,
                                  std::uint32_t{kSuiteSC | kSuiteLC}})
    EXPECT_THROW((void)builtin_model(bad), std::logic_error) << bad;
}

/// Every valid observer of c in the model, by definition, as a set of
/// encodings.
std::set<std::string> members_by_definition(
    const Computation& c,
    const std::function<bool(const ObserverFunction&)>& in_model) {
  std::set<std::string> out;
  for_each_observer(c, [&](const ObserverFunction& phi) {
    if (in_model(phi)) out.insert(encode_observer(phi));
    return true;
  });
  return out;
}

/// Every observer `model` enumerates on c, failing on a repeat.
std::set<std::string> members_enumerated(const MemoryModel& model,
                                         const Computation& c) {
  std::set<std::string> got;
  model.for_each_member_observer(c, [&](const ObserverFunction& phi) {
    EXPECT_TRUE(got.insert(encode_observer(phi)).second)
        << model.name() << ": duplicate member visited";
    return true;
  });
  return got;
}

TEST(Compile, MemberObserverEnumerationMatchesDefinitions) {
  // The pruned enumeration (named-corner driver filtered by the plan)
  // must visit exactly the definition's member set.
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 2;
  for_each_computation(spec, [&](const Computation& c) {
    for (const std::uint32_t bit : test::kBuiltinBits) {
      const std::set<std::string> want =
          members_by_definition(c, [&](const ObserverFunction& phi) {
            return test::builtin_by_definition(c, phi, bit);
          });
      EXPECT_EQ(members_enumerated(*builtin_model(bit), c), want)
          << suite_bit_name(bit);
    }
    return true;
  });
}

/// All eight compiled cube corners against Condition 20.1 with the
/// corner's predicate: membership on every pair of the universe, and
/// member enumeration on every computation.
void sweep_cube_corners(const UniverseSpec& uspec) {
  const std::vector<CubeSpec> corners = all_cube_corners();
  std::vector<std::shared_ptr<const CompiledModel>> models;
  for (const CubeSpec q : corners) models.push_back(cube_model(q));
  CheckContext ctx;
  std::size_t members = 0;
  std::size_t pairs = 0;
  for_each_pair(uspec, [&](const Computation& c, const ObserverFunction& phi) {
    const PreparedPair p = ctx.prepare(c, phi);
    for (std::size_t i = 0; i < corners.size(); ++i) {
      const bool want = test::qdag_by_definition(
          c, phi, test::corner_predicate(c, corners[i]));
      EXPECT_EQ(models[i]->contains_prepared(p), want) << models[i]->name();
      members += want ? 1 : 0;
    }
    ++pairs;
    return true;
  });
  // Both answers occur on the universe.
  EXPECT_GT(members, 0u);
  EXPECT_LT(members, pairs * corners.size());
  for_each_computation(uspec, [&](const Computation& c) {
    for (std::size_t i = 0; i < corners.size(); ++i) {
      const std::set<std::string> want =
          members_by_definition(c, [&](const ObserverFunction& phi) {
            return test::qdag_by_definition(
                c, phi, test::corner_predicate(c, corners[i]));
          });
      EXPECT_EQ(members_enumerated(*models[i], c), want) << models[i]->name();
    }
    return true;
  });
}

TEST(Compile, CubeCornersMatchDefinitionOneLocation) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  sweep_cube_corners(spec);
}

TEST(Compile, CubeCornersMatchDefinitionTwoLocations) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 2;
  sweep_cube_corners(spec);
}

void sweep_registry(const UniverseSpec& uspec) {
  const ModelRegistry& reg = ModelRegistry::bundled();
  ASSERT_EQ(reg.entries().size(), 11u);  // 8 built-ins + PC2, COH, TSO

  RegistryOptions pruned;
  RegistryOptions unpruned;
  unpruned.short_circuit = false;

  CheckContext ctx;
  for_each_pair(uspec, [&](const Computation& c, const ObserverFunction& phi) {
    const PreparedPair p = ctx.prepare(c, phi);
    const std::uint64_t fast = reg.classify(p, pruned);
    const std::uint64_t slow = reg.classify(p, unpruned);
    EXPECT_EQ(fast, slow);  // the derived lattice is answer-preserving
    // ... and the unpruned sweep is just the per-model membership.
    for (std::size_t i = 0; i < reg.entries().size(); ++i) {
      EXPECT_EQ((slow >> i) & 1u,
                std::uint64_t{reg.entries()[i].model->contains_prepared(p)})
          << reg.entries()[i].spec.name;
    }
    // The low eight bits are the built-ins' memberships by definition.
    EXPECT_EQ(static_cast<std::uint32_t>(fast & 0xFF),
              test::classify_by_definition(c, phi));
    return true;
  });
}

TEST(Compile, RegistryClassifyMatchesDefinitionsOneLocation) {
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  sweep_registry(spec);
}

TEST(Compile, RegistryClassifyMatchesDefinitionsTwoLocations) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 2;
  sweep_registry(spec);
}

TEST(Compile, PackClientsOnPaperExamples) {
  // PC2's scopes cover locations the figure examples may not use;
  // uncovered locations degrade to per-location order, so on the
  // paper's pairs PC2 behaves between SC and LC.
  const auto pc2 = compile_model(partition_spec("PC2", {{{0, 1}}, {{2, 3}}}));
  const auto coh = compile_model(coherence_spec());
  const auto tso = compile_model(tso_like_spec());
  CheckContext ctx;
  for (const test::ExamplePair& ex :
       {test::figure2_pair(), test::figure3_pair(), test::lc_not_sc_pair()}) {
    const PreparedPair p = ctx.prepare(ex.c, ex.phi);
    // COH is definitionally LC.
    EXPECT_EQ(coh->contains_prepared(p), ex.in_lc) << ex.name;
    // Membership in a spec model is sandwiched by the derived lattice.
    if (ex.in_sc) {
      EXPECT_TRUE(pc2->contains_prepared(p)) << ex.name;
    }
    if (!ex.in_lc) {
      EXPECT_FALSE(pc2->contains_prepared(p)) << ex.name;
    }
    if (ex.in_sc) {
      EXPECT_TRUE(tso->contains_prepared(p)) << ex.name;
    }
    if (!ex.in_wn || !ex.in_nw) {
      EXPECT_FALSE(tso->contains_prepared(p)) << ex.name;
    }
  }
}

TEST(Compile, CacheTagTracksStructureNotName) {
  const auto lc = compile_model(builtin_model_specs()[1]);
  const auto coh = compile_model(coherence_spec());
  const auto pc2 = compile_model(partition_spec("PC2", {{{0, 1}}, {{2, 3}}}));
  const auto pc2b = compile_model(partition_spec("other", {{{1, 0}}, {{3, 2}}}));
  // Same normalized structure -> shared cache entries, names aside.
  EXPECT_EQ(lc->cache_tag(), coh->cache_tag());
  EXPECT_EQ(pc2->cache_tag(), pc2b->cache_tag());
  // Different structure -> distinct tags.
  EXPECT_NE(lc->cache_tag(), pc2->cache_tag());
  EXPECT_NE(compile_model(tso_like_spec())->cache_tag(), pc2->cache_tag());
  // And the tag never collides with a non-spec model's name-based tag.
  const PredicateModel named_lc(
      "LC", PredicateModel::PreparedPred(location_consistent_prepared));
  EXPECT_EQ(named_lc.cache_tag(), "LC");
  EXPECT_NE(lc->cache_tag(), named_lc.cache_tag());
}

TEST(Compile, BudgetExhaustionIsReportedNotGuessed) {
  // A serial execution of a 14-node workload is in SC, but a 1-state
  // search budget cannot prove it: check_prepared must say "exhausted",
  // never "non-member".
  Rng rng(7);
  const Computation c =
      workload::random_ops(gen::random_dag(14, 0.25, rng), 2, 0.5, 0.4, rng);
  ScMemory mem;
  const ObserverFunction phi = run_serial(c, mem).phi;
  CheckContext ctx;
  const PreparedPair p = ctx.prepare(c, phi);

  CompileOptions tight;
  tight.sc_budget = 1;
  const auto sc = compile_model(builtin_model_specs()[0], tight);
  const CompiledVerdict v = sc->check_prepared(p);
  EXPECT_FALSE(v.member);
  EXPECT_TRUE(v.exhausted);

  // With the default budget the same pair is decided a member.
  const auto sc_full = compile_model(builtin_model_specs()[0]);
  const CompiledVerdict ok = sc_full->check_prepared(p);
  EXPECT_TRUE(ok.member);
  EXPECT_FALSE(ok.exhausted);

  // The registry surfaces the exhaustion flag the same way, searching
  // at the budget its entries were compiled with.
  const ModelRegistry reg({builtin_model_specs()[0]}, tight);
  bool exhausted = false;
  const std::uint64_t bits = reg.classify(p, {}, &exhausted);
  EXPECT_EQ(bits, 0u);
  EXPECT_TRUE(exhausted);
  const ModelRegistry reg_full({builtin_model_specs()[0]});
  bool ok_exhausted = false;
  EXPECT_EQ(reg_full.classify(p, {}, &ok_exhausted), 1u);
  EXPECT_FALSE(ok_exhausted);
}

TEST(Compile, FixpointCensusAndWitnessMatchDefinition) {
  // The constructibility stack consumes compiled models through the
  // same MemoryModel seam: restrictions (pruned enumeration), the Δ*
  // fixpoint census, and the Figure-4 nonconstructibility witness must
  // not notice whether NN is compiled or its definition.
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  const auto compiled = builtin_model(kSuiteNN);
  const PredicateModel definition(
      "NN", [](const Computation& c, const ObserverFunction& phi) {
        return test::qdag_by_definition(c, phi, DagPred::kNN);
      });

  const BoundedModelSet ra = BoundedModelSet::restrict_model(*compiled, spec);
  const BoundedModelSet rb = BoundedModelSet::restrict_model(definition, spec);
  for (std::size_t n = 0; n <= spec.max_nodes; ++n)
    EXPECT_EQ(ra.live_count_at_size(n), rb.live_count_at_size(n)) << n;

  const BoundedModelSet fa = constructible_version(*compiled, spec);
  const BoundedModelSet fb = constructible_version(definition, spec);
  EXPECT_EQ(fa.live_count(), fb.live_count());
  for (std::size_t n = 0; n <= spec.max_nodes; ++n)
    EXPECT_EQ(fa.live_count_at_size(n), fb.live_count_at_size(n)) << n;

  EXPECT_TRUE(validate_witness(*compiled, figure4_witness()));
  EXPECT_TRUE(validate_witness(definition, figure4_witness()));
}

TEST(Compile, RegistryAddReplacesByNameAndRederives) {
  ModelRegistry reg;
  const std::size_t i = reg.add(coherence_spec());
  reg.add(partition_spec("PC2", {{{0, 1}}, {{2, 3}}}));
  // Replace COH (per-location) with a global-order spec of the same
  // name: the PC2 row must now imply it no longer hold... the other
  // direction appears instead.
  ModelSpec strong = coherence_spec();
  strong.order = OrderAxiom::kGlobal;
  const std::size_t j = reg.add(strong);
  EXPECT_EQ(i, j);  // replaced in place
  ASSERT_EQ(reg.entries().size(), 2u);
  EXPECT_TRUE((reg.implies_mask(i) >> 1) & 1u);   // global => PC2
  EXPECT_FALSE((reg.implies_mask(1) >> i) & 1u);  // PC2 =/=> global
  EXPECT_NE(reg.find("COH"), nullptr);
  EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(Compile, RegistryFromSpecsKeepsSameNamedEntries) {
  // A caller's model named like a built-in sits next to the built-in
  // (add() would replace it), and the two classify independently: here
  // a second "SC" that is really LC-shaped.
  ModelSpec impostor = builtin_model_specs()[1];
  impostor.name = "SC";
  const ModelRegistry reg({builtin_model_specs()[0], impostor});
  ASSERT_EQ(reg.entries().size(), 2u);
  const auto ex = test::lc_not_sc_pair();
  CheckContext ctx;
  EXPECT_EQ(reg.classify(ctx.prepare(ex.c, ex.phi)), 0b10u);
}

/// A pack of `n` distinct per-location models, written to a file named
/// after the running test.
std::string write_pack(std::size_t n) {
  std::string text;
  for (std::size_t i = 0; i < n; ++i)
    text += "model M" + std::to_string(i) + "\norder location\nend\n";
  const std::string path =
      std::string(::testing::TempDir()) +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".spec";
  std::ofstream(path) << text;
  return path;
}

TEST(Compile, SpecLoaderRefusesRegistryOverflow) {
  // 60 new models on top of the bundled 11 would overflow the 64-entry
  // registry: refused with a named error, before any model is added.
  ModelRegistry reg = ModelRegistry::bundled();
  const std::string path = write_pack(60);
  try {
    (void)load_spec_models(reg, {path}, {});
    FAIL() << "a 60-model pack was accepted";
  } catch (const SpecLoadError& e) {
    EXPECT_NE(std::string(e.what()).find("overflow the model registry"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(reg.entries().size(), ModelRegistry::bundled().entries().size());

  // 53 fit exactly; a name the registry already holds takes no slot.
  ModelRegistry fits = ModelRegistry::bundled();
  const auto models = load_spec_models(fits, {write_pack(53)}, {"LC"});
  EXPECT_EQ(fits.entries().size(), ModelRegistry::kCapacity);
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0]->name(), "LC");
}

TEST(Compile, SpecLoaderReportsUnreadableMalformedAndUnknown) {
  ModelRegistry reg;
  const auto message = [&](const std::vector<std::string>& paths,
                           const std::vector<std::string>& names) {
    try {
      (void)load_spec_models(reg, paths, names);
    } catch (const SpecLoadError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(message({"/nonexistent/pack.spec"}, {}),
            "cannot open /nonexistent/pack.spec");
  const std::string bad =
      std::string(::testing::TempDir()) + "malformed_pack.spec";
  std::ofstream(bad) << "model BAD\naxiom WXN\nend\n";
  EXPECT_EQ(message({bad}, {}).rfind(bad + ": spec line 2:", 0), 0u);
  EXPECT_EQ(message({}, {"nope"}).rfind("unknown model 'nope'", 0), 0u);
}

TEST(Compile, SpecLoaderSelectsRepeatedPacksWhole) {
  // The same 30-model pack twice: the second replaces the first by
  // name, so the registry gains 30 entries, and the selection lists
  // every declared name, 60 in all (more than fit next to the core
  // models in one registry; the race classifier takes any number).
  ModelRegistry reg = ModelRegistry::bundled();
  const std::string path = write_pack(30);
  const auto models = load_spec_models(reg, {path, path}, {});
  EXPECT_EQ(reg.entries().size(),
            ModelRegistry::bundled().entries().size() + 30);
  ASSERT_EQ(models.size(), 60u);
  for (std::size_t i = 0; i < 30; ++i) {
    std::string name = "M";
    name += std::to_string(i);
    EXPECT_EQ(models[i]->name(), name);
    EXPECT_EQ(models[i], models[i + 30]);
  }
}

}  // namespace
}  // namespace ccmm
