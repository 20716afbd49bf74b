// Edge cases across modules that the mainline suites do not reach:
// boundary sizes, forced/empty choice sets, diagnostic outputs, and
// defensive-check behaviour.
#include <gtest/gtest.h>

#include <sstream>

#include "construct/extension.hpp"
#include "enumerate/observer_enum.hpp"
#include "enumerate/sampling.hpp"
#include "io/dot.hpp"
#include "io/text.hpp"
#include "exec/workload.hpp"
#include "helpers.hpp"
#include "proc/litmus.hpp"

namespace ccmm {
namespace {

TEST(EdgeCases, QDagViolationReportsBottomForNw) {
  // NW with x = ⊥: the reported u must be ⊥ (the middle write blocks ⊥).
  ComputationBuilder b;
  const NodeId w = b.write(0);
  const NodeId r = b.read(0, {w});
  const Computation c = std::move(b).build();
  ObserverFunction phi(c.node_count());
  phi.set(0, w, w);  // the read observes ⊥ after the write
  QDagViolation v;
  EXPECT_FALSE(qdag_consistent(c, phi, DagPred::kNW, &v));
  EXPECT_EQ(v.u, kBottom);
  EXPECT_EQ(v.v, w);
  EXPECT_EQ(v.w, r);
  EXPECT_NE(v.to_string().find("u=_"), std::string::npos);
}

TEST(EdgeCases, QDagViolationReportsWriterForWw) {
  // WW violation: u must be the observed write itself.
  ComputationBuilder b;
  const NodeId w1 = b.write(0);
  const NodeId w2 = b.write(0, {w1});
  const NodeId r = b.read(0, {w2});
  const Computation c = std::move(b).build();
  ObserverFunction phi(c.node_count());
  phi.set(0, w1, w1);
  phi.set(0, w2, w2);
  phi.set(0, r, w1);  // stale read past w2
  QDagViolation v;
  EXPECT_FALSE(qdag_consistent(c, phi, DagPred::kWW, &v));
  EXPECT_EQ(v.u, w1);
  EXPECT_EQ(v.v, w2);
  EXPECT_EQ(v.w, r);
}

TEST(EdgeCases, LcWitnessOnInvalidObserverIsNull) {
  const Computation c = workload::contended_counter(2);
  const ObserverFunction bogus(c.node_count());  // writes don't self-observe
  EXPECT_FALSE(lc_witness(c, bogus, 0).has_value());
}

TEST(EdgeCases, LcWitnessMultiLocationIndependence) {
  // Each location gets its own witness; they may be different sorts.
  const Dag d = gen::antichain(4);
  const Computation c(
      d, {Op::write(0), Op::write(0), Op::write(1), Op::write(1)});
  ObserverFunction phi(4);
  phi.set(0, 0, 0);
  phi.set(0, 1, 1);
  phi.set(1, 2, 2);
  phi.set(1, 3, 3);
  phi.set(0, 2, 0);  // node 2 sees the FIRST write of location 0
  phi.set(0, 3, 1);
  phi.set(1, 0, 3);  // node 0 sees the LAST write of location 1
  phi.set(1, 1, 2);
  ASSERT_TRUE(location_consistent(c, phi));
  const auto t0 = lc_witness(c, phi, 0);
  const auto t1 = lc_witness(c, phi, 1);
  ASSERT_TRUE(t0.has_value());
  ASSERT_TRUE(t1.has_value());
  EXPECT_NE(*t0, *t1);  // the serializations genuinely differ
}

TEST(EdgeCases, LcOfALocationWithoutWritersIsTheCanonicalSort) {
  // Location 1 is read but never written, so every node observes ⊥
  // there: any sort explains the column, and the witness is the
  // canonical topological order. The prepared pair has no block
  // partition for such a location.
  ComputationBuilder b;
  const NodeId r1 = b.read(1);
  const NodeId w = b.write(0);
  const NodeId r0 = b.read(0, {r1, w});
  b.nop({r0});
  const Computation c = std::move(b).build();
  ObserverFunction phi(c.node_count());
  phi.set(0, w, w);
  phi.set(0, r0, w);
  ASSERT_TRUE(is_valid_observer(c, phi));
  ASSERT_EQ(prepare_pair(c, phi).location(1), nullptr);
  EXPECT_TRUE(location_consistent_at(c, phi, 1));
  const auto t = lc_witness(c, phi, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, c.dag().topological_order());
  // A location nothing touches at all answers the same way.
  EXPECT_TRUE(location_consistent_at(c, phi, 7));
  EXPECT_EQ(lc_witness(c, phi, 7), c.dag().topological_order());
}

TEST(EdgeCases, ScWithInactiveLocationsIgnoresThem) {
  // Locations never written do not constrain the search.
  ComputationBuilder b;
  const NodeId r = b.read(42);  // reads a never-written location
  b.write(0, {r});
  const Computation c = std::move(b).build();
  ObserverFunction phi(c.node_count());
  phi.set(0, 1, 1);
  EXPECT_TRUE(sequentially_consistent(c, phi));
}

TEST(EdgeCases, ExtensionOfEmptyComputation) {
  const Computation empty;
  std::size_t n = 0;
  for_each_one_node_extension(empty, op_alphabet(1), false,
                              [&](const Computation& ext) {
                                EXPECT_EQ(ext.node_count(), 1u);
                                ++n;
                                return true;
                              });
  EXPECT_EQ(n, 3u);  // 3 ops × 1 (empty) predecessor subset
}

TEST(EdgeCases, ExtensionObserverOnEmptyBase) {
  const Computation empty;
  const ObserverFunction base(0);
  const Computation ext = empty.extend(Op::write(5), {});
  std::size_t n = 0;
  for_each_extension_observer(ext, base, [&](const ObserverFunction& phi) {
    EXPECT_EQ(phi.get(5, 0), 0u);
    ++n;
    return true;
  });
  EXPECT_EQ(n, 1u);
}

TEST(EdgeCases, ObserverEnumWithOnlyWritesIsSingleton) {
  const Dag d = gen::chain(3);
  const Computation c(d, {Op::write(0), Op::write(0), Op::write(0)});
  EXPECT_EQ(observer_count(c), 1u);
}

TEST(EdgeCases, RandomObserverOnWriteOnlyComputationIsForced) {
  Rng rng(3);
  const Dag d = gen::chain(3);
  const Computation c(d, {Op::write(0), Op::write(0), Op::write(0)});
  const ObserverFunction phi = random_observer(c, rng);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(phi.get(0, u), u);
}

TEST(EdgeCases, DotWithoutReadsFromEdges) {
  const auto p = test::figure2_pair();
  io::DotOptions options;
  options.reads_from_edges = false;
  options.name = "custom";
  const std::string dot = io::to_dot(p.c, &p.phi, options);
  EXPECT_EQ(dot.find("rf"), std::string::npos);
  EXPECT_NE(dot.find("digraph custom"), std::string::npos);
}

TEST(EdgeCases, TextFormatEmptyComputation) {
  std::istringstream in("computation\nnodes 0\nend\n");
  const Computation c = io::read_computation(in);
  EXPECT_TRUE(c.empty());
  std::istringstream round(io::write_computation(Computation()));
  EXPECT_TRUE(io::read_computation(round).empty());
}

TEST(EdgeCases, LitmusProgramSingleThreadIsSequential) {
  proc::Litmus t;
  t.name = "seq";
  const proc::Pos w = t.program.add(0, Op::write(0));
  const proc::Pos r = t.program.add(0, Op::read(0));
  t.observed = {{r, w}};
  t.sc_allowed = true;
  t.lc_allowed = true;
  const auto v = proc::run_litmus(t);
  EXPECT_TRUE(v.sc_allowed);
  EXPECT_TRUE(v.lc_allowed);
  EXPECT_TRUE(v.matches_expectation);

  // The stale variant is forbidden even by LC (freshness via ⊥-block).
  proc::Litmus stale = t;
  stale.observed = {{r, std::nullopt}};
  stale.sc_allowed = false;
  stale.lc_allowed = false;
  EXPECT_TRUE(proc::run_litmus(stale).matches_expectation);
}

TEST(EdgeCases, AugmentedComputationOfEmptyIsSingleton) {
  const Computation empty;
  const Computation aug = empty.augment(Op::nop());
  EXPECT_EQ(aug.node_count(), 1u);
  EXPECT_TRUE(aug.dag().edges().empty());
}

TEST(EdgeCases, BetweenBottomAndSourceIsEmpty) {
  const Dag d = gen::chain(3);
  EXPECT_EQ(d.between(kBottom, 0).count(), 0u);
  EXPECT_EQ(d.between(0, 1).count(), 0u);  // adjacent: open interval empty
}

TEST(EdgeCases, MonotonicityOfLastWriterUnderAugment) {
  // aug_o(C)'s last-writer function restricted to C equals C's — the
  // observation behind the SC/LC constructibility proof (Theorem 19).
  Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    const Dag d = gen::random_dag(6, 0.3, rng);
    const Computation c = workload::random_ops(d, 2, 0.4, 0.4, rng);
    const Computation aug = c.augment(Op::read(0));
    // The canonical order of aug puts final(C) last (it succeeds all).
    const auto t_aug = aug.dag().topological_order();
    EXPECT_EQ(t_aug.back(), c.final_node_id());
    const ObserverFunction w_aug = last_writer(aug, t_aug);
    std::vector<NodeId> t_c(t_aug.begin(), t_aug.end() - 1);
    const ObserverFunction w_c = last_writer(c, t_c);
    for (const Location l : c.written_locations())
      for (NodeId u = 0; u < c.node_count(); ++u)
        EXPECT_EQ(w_aug.get(l, u), w_c.get(l, u));
  }
}

}  // namespace
}  // namespace ccmm
