// Lock-augmented computations: mutual exclusion as quantification over
// critical-section serializations (the paper's Section 7 direction).
#include "proc/locks.hpp"

#include <gtest/gtest.h>

#include "models/compile.hpp"
#include "proc/program.hpp"

namespace ccmm::proc {
namespace {

/// Two lock-protected increments of one counter plus a final read.
/// Returns the computation, the two sections, and key node ids.
struct IncrementFixture {
  LockedComputation lc;
  NodeId init, r1, w1, r2, w2, fin;
};

IncrementFixture make_increments() {
  IncrementFixture f;
  ComputationBuilder b;
  f.init = b.write(0);
  f.r1 = b.read(0, {f.init});
  f.w1 = b.write(0, {f.r1});
  f.r2 = b.read(0, {f.init});
  f.w2 = b.write(0, {f.r2});
  f.fin = b.read(0, {f.w1, f.w2});
  f.lc.c = std::move(b).build();
  f.lc.sections = {{0, {f.r1, f.w1}}, {0, {f.r2, f.w2}}};
  return f;
}

ObserverFunction lost_update(const IncrementFixture& f) {
  // Both increments read the initial value — the race the lock forbids.
  ObserverFunction phi(f.lc.c.node_count());
  phi.set(0, f.init, f.init);
  phi.set(0, f.r1, f.init);
  phi.set(0, f.w1, f.w1);
  phi.set(0, f.r2, f.init);
  phi.set(0, f.w2, f.w2);
  phi.set(0, f.fin, f.w2);
  return phi;
}

ObserverFunction serialized_update(const IncrementFixture& f) {
  // Section 1 then section 2: r2 sees w1.
  ObserverFunction phi(f.lc.c.node_count());
  phi.set(0, f.init, f.init);
  phi.set(0, f.r1, f.init);
  phi.set(0, f.w1, f.w1);
  phi.set(0, f.r2, f.w1);
  phi.set(0, f.w2, f.w2);
  phi.set(0, f.fin, f.w2);
  return phi;
}

TEST(Locks, SerializationEnumerationCountsOrders) {
  const IncrementFixture f = make_increments();
  std::size_t n = 0;
  for_each_serialization(f.lc, [&](const Computation& c) {
    EXPECT_TRUE(c.dag().is_acyclic());
    // Mutual exclusion: the two sections are now ordered.
    EXPECT_TRUE(c.precedes(f.w1, f.r2) || c.precedes(f.w2, f.r1));
    ++n;
    return true;
  });
  EXPECT_EQ(n, 2u);  // two orders of the two sections
}

TEST(Locks, LostUpdateForbiddenUnderLockAwareSC) {
  const IncrementFixture f = make_increments();
  const ObserverFunction bad = lost_update(f);
  // Without locks the lost update is perfectly SC...
  EXPECT_TRUE(builtin_model(kSuiteSC)->contains(f.lc.c, bad));
  // ...but no serialization of the critical sections admits it.
  EXPECT_FALSE(lock_aware_contains(*builtin_model(kSuiteSC), f.lc, bad));
  EXPECT_FALSE(lock_aware_contains(*builtin_model(kSuiteLC),
                                   f.lc, bad));
}

TEST(Locks, SerializedUpdateAllowed) {
  const IncrementFixture f = make_increments();
  const ObserverFunction good = serialized_update(f);
  EXPECT_TRUE(lock_aware_contains(*builtin_model(kSuiteSC), f.lc, good));
}

TEST(Locks, LockAwareModelObject) {
  const IncrementFixture f = make_increments();
  const LockAwareModel model(builtin_model(kSuiteSC), f.lc.sections);
  EXPECT_EQ(model.name(), "SC+locks");
  EXPECT_FALSE(model.contains(f.lc.c, lost_update(f)));
  EXPECT_TRUE(model.contains(f.lc.c, serialized_update(f)));
}

TEST(Locks, IndependentLocksDoNotSerializeEachOther) {
  // Two sections under *different* locks stay concurrent.
  ComputationBuilder b;
  const NodeId a = b.write(0);
  const NodeId c = b.write(1);
  LockedComputation lc{std::move(b).build(), {{0, {a}}, {1, {c}}}};
  std::size_t n = 0;
  for_each_serialization(lc, [&](const Computation& s) {
    EXPECT_FALSE(s.precedes(a, c) || s.precedes(c, a));
    ++n;
    return true;
  });
  EXPECT_EQ(n, 1u);  // singleton groups: exactly one serialization
}

TEST(Locks, InfeasibleOrdersAreSkipped) {
  // Sections already ordered by the dag: only one serialization is
  // acyclic.
  ComputationBuilder b;
  const NodeId a = b.write(0);
  const NodeId c = b.write(0, {a});
  LockedComputation lc{std::move(b).build(), {{0, {a}}, {0, {c}}}};
  std::size_t n = 0;
  for_each_serialization(lc, [&](const Computation&) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 1u);
}

TEST(Locks, ThreeSectionsSixOrders) {
  ComputationBuilder b;
  const NodeId a = b.write(0);
  const NodeId c = b.write(0);
  const NodeId d = b.write(0);
  LockedComputation lc{std::move(b).build(), {{0, {a}}, {0, {c}}, {0, {d}}}};
  std::size_t n = 0;
  for_each_serialization(lc, [&](const Computation&) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 6u);
}

TEST(Locks, ValidationRejectsBadSections) {
  ComputationBuilder b;
  const NodeId a = b.write(0);
  const Computation c = std::move(b).build();
  // Node in two sections of the same lock.
  LockedComputation dup{c, {{0, {a}}, {0, {a}}}};
  EXPECT_THROW(for_each_serialization(
                   dup, [](const Computation&) { return true; }),
               std::logic_error);
  // Empty section.
  LockedComputation empty{c, {{0, {}}}};
  EXPECT_THROW(for_each_serialization(
                   empty, [](const Computation&) { return true; }),
               std::logic_error);
  // Out-of-range node.
  LockedComputation oor{c, {{0, {7}}}};
  EXPECT_THROW(for_each_serialization(
                   oor, [](const Computation&) { return true; }),
               std::logic_error);
}

}  // namespace
}  // namespace ccmm::proc
