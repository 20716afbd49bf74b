// The declarative spec layer (models/spec.hpp), pinned four ways:
//  * the surface syntax round-trips: to_string() of every bundled spec
//    parses back to the identical value;
//  * normalize() canonicalizes (scope sorting/deduping, singleton-scope
//    dropping, axiom domination) and digest() fingerprints the result
//    name-independently;
//  * spec_implies recovers the paper's Theorem 21 lattice on the eight
//    built-ins — the gates ModelRegistry::classify prunes with — plus
//    the scoped containment rule on partition specs;
//  * malformed packs are rejected with the exact 1-based line number.
#include "models/spec.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ccmm {
namespace {

TEST(SpecParse, RoundTripsEveryBundledSpec) {
  std::vector<ModelSpec> all = builtin_model_specs();
  for (ModelSpec& s : bundled_spec_pack()) all.push_back(std::move(s));
  for (const ModelSpec& s : all) {
    const std::vector<ModelSpec> back = read_model_specs(s.to_string());
    ASSERT_EQ(back.size(), 1u) << s.name;
    EXPECT_EQ(back[0], s) << s.name << "\n" << s.to_string();
  }
}

TEST(SpecParse, CommentsBlanksAndPackShape) {
  const std::string text =
      "# a pack with noise\n"
      "\n"
      "model PC2   # partition consistency\n"
      "scope 0 1\n"
      "scope 2 3\n"
      "end\n"
      "\n"
      "model COH\n"
      "order location\n"
      "end\n"
      "model TSO\n"
      "axiom WNN\n"
      "axiom NWN\n"
      "fresh\n"
      "end\n";
  const std::vector<ModelSpec> specs = read_model_specs(text);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0], partition_spec("PC2", {{{0, 1}}, {{2, 3}}}));
  EXPECT_EQ(specs[1], coherence_spec());
  EXPECT_EQ(specs[2], tso_like_spec());
}

TEST(SpecParse, MalformedInputsCarryExactLineNumbers) {
  struct Case {
    const char* text;
    std::size_t line;
    const char* needle;
  };
  const Case cases[] = {
      {"order location\n", 1, "outside a model block"},
      {"model\n", 1, "usage: model NAME"},
      {"model A\nmodel B\nend\n", 2, "'model' before 'end'"},
      {"model A\norder weird\nend\n", 2, "usage: order"},
      {"model A\norder location\norder global\nend\n", 3,
       "more than one order directive"},
      {"model A\naxiom WXN\nend\n", 2, "three letters"},
      {"model A\naxiom\nend\n", 2, "usage: axiom"},
      {"model A\nscope\nend\n", 2, "usage: scope"},
      {"model A\nscope 0 x\nend\n", 2, "'x' is not a location"},
      {"model A\nscope +1 2\nend\n", 2, "'+1' is not a location"},
      {"model A\nscope -0 2\nend\n", 2, "'-0' is not a location"},
      {"model A\norder global\nscope 0 1\nend\n", 3,
       "conflict with the order directive"},
      {"model A\nscope 0 1\nscope 1 2\nend\n", 4, "appears in two scopes"},
      {"model A\nend\nmodel A\nend\n", 4, "duplicate model name 'A'"},
      {"model A\nfresh\n", 2, "missing its 'end'"},
  };
  for (const Case& k : cases) {
    try {
      (void)read_model_specs(std::string(k.text));
      FAIL() << "accepted malformed pack:\n" << k.text;
    } catch (const SpecParseError& e) {
      EXPECT_EQ(e.line(), k.line) << e.what();
      EXPECT_NE(std::string(e.what()).find(k.needle), std::string::npos)
          << e.what();
      // The rendered message leads with the line number.
      EXPECT_EQ(std::string(e.what()).rfind("spec line ", 0), 0u) << e.what();
    }
  }
}

TEST(SpecNormalize, CanonicalizesScopesAxiomsAndFreshness) {
  // Scope members sort; a singleton scope is dropped (it is exactly
  // the implicit per-location treatment). A member repeated inside one
  // scope is already an overlap for validate(), so it never reaches
  // normalize().
  ModelSpec s;
  s.name = "P";
  s.order = OrderAxiom::kScoped;
  s.scopes = {{{3, 1}}, {{2}}};
  s.normalize();
  ASSERT_EQ(s.scopes.size(), 1u);
  EXPECT_EQ(s.scopes[0].locations, (std::vector<Location>{1, 3}));
  EXPECT_EQ(s.order, OrderAxiom::kScoped);

  // All scopes singleton -> the order axiom demotes to per-location.
  ModelSpec t;
  t.name = "Q";
  t.order = OrderAxiom::kScoped;
  t.scopes = {{{0}}, {{5}}};
  t.normalize();
  EXPECT_TRUE(t.scopes.empty());
  EXPECT_EQ(t.order, OrderAxiom::kPerLocation);

  // Duplicate axioms dedupe; an axiom dominated by a stronger sibling
  // (fewer write constraints = more quantified triples) is dropped.
  ModelSpec u;
  u.name = "R";
  u.axioms = {CubeSpec{true, false, false}, CubeSpec{false, false, false},
              CubeSpec{true, false, false}};
  u.normalize();
  ASSERT_EQ(u.axioms.size(), 1u);
  EXPECT_EQ(u.axioms[0], (CubeSpec{false, false, false}));

  // A per-location-or-stronger order axiom absorbs every cube axiom and
  // the freshness axiom.
  ModelSpec v;
  v.name = "S";
  v.order = OrderAxiom::kPerLocation;
  v.axioms = {CubeSpec{true, true, false}};
  v.freshness = true;
  v.normalize();
  EXPECT_TRUE(v.axioms.empty());
  EXPECT_FALSE(v.freshness);
}

TEST(SpecNormalize, ValidateRejectsStructuralIllFormedness) {
  ModelSpec anon;
  EXPECT_NE(anon.validate(), "");

  ModelSpec overlap;
  overlap.name = "O";
  overlap.order = OrderAxiom::kScoped;
  overlap.scopes = {{{0, 1}}, {{1, 2}}};
  EXPECT_NE(overlap.validate(), "");

  ModelSpec stray;
  stray.name = "S";
  stray.order = OrderAxiom::kGlobal;
  stray.scopes = {{{0, 1}}};
  EXPECT_NE(stray.validate(), "");
}

TEST(SpecDigest, FingerprintsStructureNotName) {
  // COH is definitionally LC: same normalized structure, same digest,
  // despite the different names.
  EXPECT_EQ(coherence_spec().digest(), builtin_model_specs()[1].digest());

  // The eight built-ins are pairwise structurally distinct.
  const std::vector<ModelSpec>& b = builtin_model_specs();
  for (std::size_t i = 0; i < b.size(); ++i)
    for (std::size_t j = i + 1; j < b.size(); ++j)
      EXPECT_NE(b[i].digest(), b[j].digest()) << b[i].name << " vs "
                                              << b[j].name;

  // normalize() is idempotent, so the digest is stable under repeats.
  ModelSpec p = partition_spec("P", {{{2, 0}}, {{5, 3}}});
  const std::string d = p.digest();
  p.normalize();
  EXPECT_EQ(p.digest(), d);
}

/// Position of each built-in in builtin_model_specs(): suite-bit order.
enum : std::size_t { kSC, kLC, kNN, kNW, kWN, kWW, kWNp, kNNp };

TEST(SpecImplies, RecoversTheorem21LatticeOnBuiltins) {
  const std::vector<ModelSpec>& b = builtin_model_specs();
  ASSERT_EQ(b.size(), 8u);
  // expected[i] = bitmask of j with spec_implies(b[i], b[j]). This is
  // exactly the paper's containment diagram (Theorem 21) plus the
  // freshness-strengthened corners.
  const auto bit = [](std::size_t j) { return std::uint32_t{1} << j; };
  std::uint32_t expected[8] = {};
  expected[kSC] = 0xFF;  // SC is the bottom: inside everything
  expected[kLC] = 0xFF & ~bit(kSC);
  expected[kNN] = bit(kNN) | bit(kNW) | bit(kWN) | bit(kWW);
  expected[kNW] = bit(kNW) | bit(kWW);
  expected[kWN] = bit(kWN) | bit(kWW);
  expected[kWW] = bit(kWW);
  expected[kWNp] = bit(kWNp) | bit(kWN) | bit(kWW);
  expected[kNNp] = bit(kNNp) | bit(kWNp) | expected[kNN];
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_EQ(spec_implies(b[i], b[j]), (expected[i] >> j) & 1u)
          << b[i].name << " => " << b[j].name;
}

TEST(SpecImplies, ScopedContainmentRule) {
  const ModelSpec pc2 = partition_spec("PC2", {{{0, 1}}, {{2, 3}}});
  const ModelSpec narrow = partition_spec("N", {{{0, 1}}});
  const ModelSpec wide = partition_spec("W", {{{0, 1, 2, 3}}});
  const ModelSpec skew = partition_spec("S", {{{0, 1, 2}}});
  const std::vector<ModelSpec>& b = builtin_model_specs();

  // Every scope of the consequent must sit inside one of the
  // antecedent's scopes.
  EXPECT_TRUE(spec_implies(pc2, narrow));
  EXPECT_FALSE(spec_implies(narrow, pc2));
  EXPECT_TRUE(spec_implies(wide, pc2));
  EXPECT_FALSE(spec_implies(pc2, wide));
  EXPECT_FALSE(spec_implies(skew, pc2));  // {2,3} not inside {0,1,2}

  // Against the built-ins: SC implies any partition, any partition
  // implies LC (uncovered locations are singleton scopes) and thus all
  // cube axioms and freshness; per-location alone implies no partition.
  EXPECT_TRUE(spec_implies(b[kSC], pc2));
  EXPECT_TRUE(spec_implies(pc2, b[kLC]));
  EXPECT_TRUE(spec_implies(pc2, b[kNNp]));
  EXPECT_FALSE(spec_implies(b[kLC], pc2));

  // The TSO-like client: {WNN, NWN} + fresh sits above NN+ and below
  // the WN/NW corners and WN+, incomparable with NN.
  const ModelSpec tso = tso_like_spec();
  EXPECT_TRUE(spec_implies(tso, b[kWN]));
  EXPECT_TRUE(spec_implies(tso, b[kNW]));
  EXPECT_TRUE(spec_implies(tso, b[kWW]));
  EXPECT_TRUE(spec_implies(tso, b[kWNp]));
  EXPECT_FALSE(spec_implies(tso, b[kNN]));
  EXPECT_FALSE(spec_implies(tso, b[kLC]));
  EXPECT_TRUE(spec_implies(b[kNNp], tso));
  EXPECT_FALSE(spec_implies(b[kNN], tso));  // no freshness
}

}  // namespace
}  // namespace ccmm
