#include <gtest/gtest.h>

#include "enumerate/universe.hpp"
#include "helpers.hpp"
#include "models/compile.hpp"

namespace ccmm {
namespace {

TEST(PredicateCube, NamedCornersMatchNamedModels) {
  UniverseSpec spec;
  spec.max_nodes = 3;
  spec.nlocations = 1;
  const struct {
    CubeSpec cube;
    DagPred named;
  } pairs[] = {
      {{false, false, false}, DagPred::kNN},
      {{false, true, false}, DagPred::kNW},
      {{true, false, false}, DagPred::kWN},
      {{true, true, false}, DagPred::kWW},
  };
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& f) {
    for (const auto& [cube, named] : pairs)
      EXPECT_EQ(cube_consistent(c, f, cube), qdag_consistent(c, f, named))
          << cube_name(cube);
    return true;
  });
}

TEST(PredicateCube, Naming) {
  EXPECT_EQ(cube_name({false, false, false}), "Q[NNN]");
  EXPECT_EQ(cube_name({true, false, true}), "Q[WNW]");
  EXPECT_EQ(cube_name({true, true, true}), "Q[WWW]");
}

TEST(PredicateCube, AllCornersEnumerated) {
  const auto corners = all_cube_corners();
  EXPECT_EQ(corners.size(), 8u);
  std::set<std::string> names;
  for (const CubeSpec c : corners) names.insert(cube_name(c));
  EXPECT_EQ(names.size(), 8u);
}

TEST(PredicateCube, MoreConstraintsWeakenTheModel) {
  // Adding a W constraint shrinks Q, hence weakens the model: on the
  // exhaustive universe, Q[NNN] ⊆ Q[xyz] ⊆ Q[WWW] for every corner.
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 1;
  spec.include_nop = false;
  const auto corners = all_cube_corners();
  std::size_t pairs = 0;
  for_each_pair(spec, [&](const Computation& c, const ObserverFunction& f) {
    ++pairs;
    const bool in_nnn = cube_consistent(c, f, {false, false, false});
    const bool in_www = cube_consistent(c, f, {true, true, true});
    for (const CubeSpec corner : corners) {
      const bool in_corner = cube_consistent(c, f, corner);
      if (in_nnn) {
        EXPECT_TRUE(in_corner) << cube_name(corner);
      }
      if (in_corner) {
        EXPECT_TRUE(in_www) << cube_name(corner);
      }
    }
    return true;  // full sweep
  });
  EXPECT_GT(pairs, 4000u);
}

TEST(PredicateCube, WConstraintSeparates) {
  // Q[NNW] differs from Q[NNN] = NN: a triple whose w is a *read* no
  // longer fires. Figure 2's pair (rejected by NN via triple with read
  // w = D) should be accepted by Q[NNW].
  const auto p = test::figure2_pair();
  EXPECT_FALSE(cube_consistent(p.c, p.phi, {false, false, false}));
  EXPECT_TRUE(cube_consistent(p.c, p.phi, {false, false, true}));
}

TEST(PredicateCube, ModelObjectsWork) {
  const auto m = cube_model({false, true, true});
  EXPECT_EQ(m->name(), "Q[NWW]");
  const auto p = test::lc_not_sc_pair();
  EXPECT_TRUE(m->contains(p.c, p.phi));
}

}  // namespace
}  // namespace ccmm
