// The values layer: the paper's data abstraction made concrete —
// distinct observer functions can produce identical executions, and
// post-mortem analysis without unique write tags must reason about all
// explanations.
#include "values/values.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "models/compile.hpp"

namespace ccmm {
namespace {

/// Two concurrent writes, one read after both.
struct TwoWritesFixture {
  Computation c;
  NodeId w1, w2, r;
};

TwoWritesFixture two_writes() {
  TwoWritesFixture f;
  ComputationBuilder b;
  f.w1 = b.write(0);
  f.w2 = b.write(0);
  f.r = b.read(0, {f.w1, f.w2});
  f.c = std::move(b).build();
  return f;
}

TEST(Values, DefaultsAreUniqueTags) {
  ValueAssignment values;
  EXPECT_EQ(values.of(kBottom), kInitialValue);
  EXPECT_EQ(values.of(0), 1);
  EXPECT_EQ(values.of(7), 8);
  values.set(7, 42);
  EXPECT_EQ(values.of(7), 42);
}

TEST(Values, ExecutionReturnsObservedWritesValues) {
  const TwoWritesFixture f = two_writes();
  ObserverFunction phi(f.c.node_count());
  phi.set(0, f.w1, f.w1);
  phi.set(0, f.w2, f.w2);
  phi.set(0, f.r, f.w2);
  ValueAssignment values;
  values.set(f.w1, 10);
  values.set(f.w2, 20);
  const Execution e = execute_values(f.c, phi, values);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e.at(f.r), 20);
}

TEST(Values, DistinctPhisCanBeObservationallyEquivalent) {
  // The paper's Section-2 remark: when both writes store the same value,
  // the read cannot tell which one it observed.
  const TwoWritesFixture f = two_writes();
  ObserverFunction a(f.c.node_count()), b(f.c.node_count());
  a.set(0, f.w1, f.w1);
  a.set(0, f.w2, f.w2);
  a.set(0, f.r, f.w1);
  b = a;
  b.set(0, f.r, f.w2);
  EXPECT_FALSE(a == b);

  ValueAssignment same;
  same.set(f.w1, 5);
  same.set(f.w2, 5);
  EXPECT_TRUE(observationally_equivalent(f.c, a, b, same));

  ValueAssignment distinct;  // unique default tags
  EXPECT_FALSE(observationally_equivalent(f.c, a, b, distinct));
}

TEST(Values, NonReadDifferencesAreInvisible) {
  // Observer functions differing only on a nop node execute identically.
  ComputationBuilder builder;
  const NodeId w = builder.write(0);
  const NodeId n = builder.nop({w});
  const Computation c = std::move(builder).build();
  ObserverFunction a(c.node_count()), b(c.node_count());
  a.set(0, w, w);
  b.set(0, w, w);
  b.set(0, n, w);  // the nop "sees" the write; a leaves it at ⊥
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(observationally_equivalent(c, a, b, ValueAssignment{}));
}

TEST(Values, ExplanationsWithUniqueTagsAreUnique) {
  // Unique write values pin the read's observation; LC then admits a few
  // completions differing only on non-read nodes.
  const TwoWritesFixture f = two_writes();
  ObserverFunction truth(f.c.node_count());
  truth.set(0, f.w1, f.w1);
  truth.set(0, f.w2, f.w2);
  truth.set(0, f.r, f.w1);
  const ValueAssignment tags;  // unique defaults
  const Execution observed = execute_values(f.c, truth, tags);
  const auto found = explanations(f.c, observed,
                                  tags, *builtin_model(kSuiteLC));
  ASSERT_FALSE(found.empty());
  for (const ObserverFunction& phi : found)
    EXPECT_EQ(phi.get(0, f.r), f.w1);  // every explanation agrees on reads
}

TEST(Values, CollidingValuesAdmitMoreExplanations) {
  const TwoWritesFixture f = two_writes();
  ObserverFunction truth(f.c.node_count());
  truth.set(0, f.w1, f.w1);
  truth.set(0, f.w2, f.w2);
  truth.set(0, f.r, f.w1);

  ValueAssignment colliding;
  colliding.set(f.w1, 9);
  colliding.set(f.w2, 9);
  const ValueAssignment unique;

  const auto lc = builtin_model(kSuiteLC);
  const auto with_unique =
      explanations(f.c, execute_values(f.c, truth, unique), unique, *lc);
  const auto with_collision = explanations(
      f.c, execute_values(f.c, truth, colliding), colliding, *lc);
  EXPECT_GT(with_collision.size(), with_unique.size());
}

TEST(Values, ModelMembershipCanDifferAcrossEquivalentPhis) {
  // The formal reason the paper keeps Φ rather than executions: of two
  // observationally equivalent functions, one can be in a model and the
  // other not. Figure 2's pair is not LC; rerouting its reads to the
  // *other* write gives an LC member; with colliding values the two are
  // indistinguishable.
  const auto p = test::figure2_pair();
  ObserverFunction fixed(p.c.node_count());
  fixed.set(0, 0, 0);
  fixed.set(0, 1, 1);
  fixed.set(0, 2, 0);  // C now observes A (was B)
  fixed.set(0, 3, 1);  // D now observes B (was A)
  ASSERT_TRUE(location_consistent(p.c, fixed));
  ASSERT_FALSE(location_consistent(p.c, p.phi));

  ValueAssignment colliding;
  colliding.set(0, 3);
  colliding.set(1, 3);
  EXPECT_TRUE(observationally_equivalent(p.c, p.phi, fixed, colliding));
}

TEST(Values, ExplanationsRespectTheLimit) {
  const TwoWritesFixture f = two_writes();
  ValueAssignment colliding;
  colliding.set(f.w1, 1);
  colliding.set(f.w2, 1);
  Execution observed{{f.r, 1}};
  const auto found =
      explanations(f.c, observed, colliding, *builtin_model(kSuiteWW), 1);
  EXPECT_EQ(found.size(), 1u);
}

}  // namespace
}  // namespace ccmm
