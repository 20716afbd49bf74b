// The isomorphism-quotient engine: the refinement canonicalizer is
// cross-validated against the factorial test oracle
// (enumerate/isomorphism.hpp) over entire small universes, orbit
// multiplicities are checked against the labeled census, and observer
// transport / memoized membership are checked for soundness.
#include "enumerate/canonical.hpp"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "enumerate/cached_model.hpp"
#include "enumerate/isomorphism.hpp"
#include "enumerate/observer_enum.hpp"
#include "models/compile.hpp"
#include "util/memo_cache.hpp"

namespace ccmm {
namespace {

UniverseSpec small_spec(std::size_t max_nodes, std::size_t nlocations = 1,
                        bool include_nop = false) {
  UniverseSpec spec;
  spec.max_nodes = max_nodes;
  spec.nlocations = nlocations;
  spec.include_nop = include_nop;
  return spec;
}

/// `c` with every access to location `from` moved to location `to`.
Computation rename_location(Computation c, Location from, Location to) {
  std::vector<Op> ops;
  for (NodeId u = 0; u < c.node_count(); ++u) {
    Op o = c.op(u);
    if (!o.is_nop() && o.loc == from) o.loc = to;
    ops.push_back(o);
  }
  c.set_ops(ops);
  return c;
}

TEST(Canonical, MatchesFactorialOracleOnWholeUniverse) {
  // Group every computation of the universe by the factorial oracle's
  // canonical encoding and by the fast canonicalizer's. The two
  // partitions must coincide: equal fast keys iff isomorphic. The
  // oracle shares the op encoding with the fast keys, so every fast key
  // class is also checked member by member with are_isomorphic, whose
  // op-multiset precheck compares whole location ids. The last input
  // renames location 1 to 256, whose low byte is location 0's.
  struct Input {
    UniverseSpec spec;
    Location renamed_to;  // location 1's new id (1: unchanged)
  };
  for (const Input& input :
       {Input{small_spec(4), 1},
        Input{small_spec(3, 2, /*include_nop=*/true), 1},
        Input{small_spec(3, 2, /*include_nop=*/true), 256}}) {
    std::map<std::string, std::string> oracle_to_fast;
    std::unordered_map<std::string, std::string> fast_to_oracle;
    std::unordered_map<std::string, Computation> fast_class;
    for_each_computation(input.spec, [&](const Computation& labeled) {
      const Computation c = rename_location(labeled, 1, input.renamed_to);
      const std::string oracle = canonical_encoding(c);
      const std::string fast = canonical_key(c);
      const auto [it, fresh] = oracle_to_fast.try_emplace(oracle, fast);
      EXPECT_EQ(it->second, fast) << "oracle class split by fast key";
      const auto [jt, fresh2] = fast_to_oracle.try_emplace(fast, oracle);
      EXPECT_EQ(jt->second, oracle) << "fast key merges oracle classes";
      const auto [kt, fresh3] = fast_class.try_emplace(fast, c);
      EXPECT_TRUE(are_isomorphic(kt->second, c))
          << "fast key merges non-isomorphic computations";
      return true;
    });
    EXPECT_EQ(oracle_to_fast.size(), fast_to_oracle.size());
  }
}

TEST(Canonical, KeysEncodeWholeLocationIds) {
  // W(0) -> R(1024) and W(0) -> R(0) differ only in a location id whose
  // low byte is 0.
  const auto write_then_read = [](Location l) {
    ComputationBuilder b;
    b.read(l, {b.write(0)});
    return std::move(b).build();
  };
  const Computation far = write_then_read(1024);
  const Computation near = write_then_read(0);
  EXPECT_NE(encode_computation(far), encode_computation(near));
  EXPECT_NE(canonical_key(far), canonical_key(near));
  EXPECT_FALSE(are_isomorphic(far, near));
  // The canonical form's leaf encoder writes what encode_computation
  // writes: a canonical-layout computation keys to its own encoding.
  EXPECT_EQ(canonical_key(far), encode_computation(far));
}

TEST(Canonical, RepresentativesAreInCanonicalLayout) {
  for_each_computation_up_to_iso(
      small_spec(4), [&](const Computation& rep, std::uint64_t) {
        const CanonicalForm cf = canonical_form(rep);
        EXPECT_EQ(encode_computation(rep), cf.encoding);
        for (NodeId u = 0; u < rep.node_count(); ++u)
          EXPECT_EQ(cf.map[u], u) << "canonicalization must be idempotent";
        return true;
      });
}

TEST(Canonical, OrbitSizesSumToLabeledCensus) {
  for (const UniverseSpec& spec :
       {small_spec(4), small_spec(3, 2, /*include_nop=*/true)}) {
    std::uint64_t labeled = 0;
    for_each_computation_up_to_iso(
        spec, [&](const Computation& rep, std::uint64_t mult) {
          EXPECT_EQ(mult, orbit_size(rep));
          labeled += mult;
          return true;
        });
    EXPECT_EQ(labeled, computation_count(spec));
  }
}

TEST(Canonical, ClassCountsArePinned) {
  // Regression pins (validated against the factorial oracle above).
  EXPECT_EQ(computation_count_up_to_iso(small_spec(2)), 10u);
  EXPECT_EQ(computation_count_up_to_iso(small_spec(3)), 50u);
  EXPECT_EQ(computation_count_up_to_iso(small_spec(4)), 470u);
  EXPECT_EQ(computation_count_up_to_iso(small_spec(3, 2, true)), 606u);
}

TEST(Canonical, LinearExtensionCount) {
  const Dag chain(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(linear_extension_count(chain), 1u);

  const Dag antichain(4);
  EXPECT_EQ(linear_extension_count(antichain), 24u);

  const Dag vee(3, {{0, 2}, {1, 2}});  // two sources, one sink
  EXPECT_EQ(linear_extension_count(vee), 2u);

  EXPECT_EQ(linear_extension_count(Dag(0)), 1u);
}

TEST(Canonical, AutomorphismOrbitFormulaOnKnownShapes) {
  // An antichain of k identical ops has |Aut| = k! and a single labeled
  // layout, so its orbit size is e(G)/|Aut| = k!/k! = 1.
  const Computation antichain(Dag(4), std::vector<Op>(4, Op::read(0)));
  EXPECT_EQ(canonical_form(antichain).automorphisms, 24u);
  EXPECT_EQ(orbit_size(antichain), 1u);

  // Distinct ops kill the symmetry: orbit = all topo-sorted labelings.
  const Computation mixed(
      Dag(3), {Op::read(0), Op::write(0), Op::read(1)});
  EXPECT_EQ(canonical_form(mixed).automorphisms, 1u);
  EXPECT_EQ(orbit_size(mixed), 6u);
}

TEST(Canonical, TransportPreservesMembership) {
  // For every pair and every class representative: (c, phi) is in a
  // model iff the transported pair is. This is the soundness fact the
  // quotient fixpoint and the membership cache rely on.
  const auto lc = builtin_model(kSuiteLC);
  const auto nn = builtin_model(kSuiteNN);
  const UniverseSpec spec = small_spec(3);
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    const CanonicalForm cf = canonical_form(c);
    const Computation rep = apply_relabeling(c, cf.map);
    const ObserverFunction t = transport_observer(phi, cf.map);
    EXPECT_TRUE(is_valid_observer(rep, t));
    EXPECT_EQ(lc->contains(c, phi), lc->contains(rep, t));
    EXPECT_EQ(nn->contains(c, phi), nn->contains(rep, t));
    return true;
  });
}

TEST(Canonical, PairQuotientWeightsReproduceLabeledModelCensus) {
  const auto nn = builtin_model(kSuiteNN);
  const UniverseSpec spec = small_spec(4);
  std::uint64_t labeled = 0, quotient = 0;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    if (nn->contains(c, phi)) ++labeled;
    return true;
  });
  for_each_pair_up_to_iso(
      spec, [&](const Computation& rep, const ObserverFunction& phi,
                std::uint64_t mult) {
        if (nn->contains(rep, phi)) quotient += mult;
        return true;
      });
  EXPECT_EQ(labeled, quotient);
}

TEST(Canonical, CachedModelAgreesAndHits) {
  membership_cache().clear();
  const auto plain = builtin_model(kSuiteNN);
  const auto memo = cached(plain);
  EXPECT_EQ(memo->name(), plain->name());

  const UniverseSpec spec = small_spec(3);
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    EXPECT_EQ(memo->contains(c, phi), plain->contains(c, phi));
    return true;
  });
  const auto first = membership_cache().stats();
  EXPECT_GT(first.insertions, 0u);
  // Second sweep: every query is isomorphic to a cached one.
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& phi) {
    EXPECT_EQ(memo->contains(c, phi), plain->contains(c, phi));
    return true;
  });
  const auto second = membership_cache().stats();
  EXPECT_GE(second.hits, first.misses);
  EXPECT_EQ(second.misses, first.misses);
}

TEST(Canonical, ComponentDecompositionHandlesParallelChains) {
  // k disjoint identical chains: the factorial oracle would need (2k)!
  // permutations; the component-aware canonicalizer multiplies k! for
  // interchangeable components. Orbit size = e(G)/k! =
  // (multinomial)/k!.
  DagBuilder chains(8);
  for (NodeId u = 0; u < 8; u += 2) chains.add_edge(u, u + 1);
  const Dag d = chains.build();
  const Computation c(d, std::vector<Op>(8, Op::write(0)));
  const CanonicalForm cf = canonical_form(c);
  EXPECT_EQ(cf.automorphisms, 24u);  // 4 interchangeable chain components
  // e(G) = 8!/2^4 = 2520; orbit = 2520/24.
  EXPECT_EQ(linear_extension_count(d), 2520u);
  EXPECT_EQ(orbit_size(c), 105u);
}

}  // namespace
}  // namespace ccmm
