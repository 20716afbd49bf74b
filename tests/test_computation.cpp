#include "core/computation.hpp"

#include <gtest/gtest.h>

#include "proc/random_program.hpp"
#include "reference_dag.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

TEST(Op, Predicates) {
  EXPECT_TRUE(Op::read(3).reads(3));
  EXPECT_FALSE(Op::read(3).reads(4));
  EXPECT_TRUE(Op::write(3).writes(3));
  EXPECT_FALSE(Op::write(3).reads(3));
  EXPECT_TRUE(Op::nop().is_nop());
  EXPECT_TRUE(Op::read(2).accesses(2));
  EXPECT_FALSE(Op::nop().accesses(0));
}

TEST(Op, ToString) {
  EXPECT_EQ(Op::nop().to_string(), "N");
  EXPECT_EQ(Op::read(1).to_string(), "R(1)");
  EXPECT_EQ(Op::write(0).to_string(), "W(0)");
}

TEST(Op, Alphabet) {
  const auto a = op_alphabet(2);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a[0], Op::nop());
  EXPECT_EQ(a[1], Op::read(0));
  EXPECT_EQ(a[2], Op::write(0));
  EXPECT_EQ(a[3], Op::read(1));
  EXPECT_EQ(a[4], Op::write(1));
}

TEST(Computation, EmptyComputation) {
  const Computation c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.node_count(), 0u);
  EXPECT_TRUE(c.written_locations().empty());
}

TEST(Computation, BuilderAndAccessors) {
  ComputationBuilder b;
  const NodeId w = b.write(0);
  const NodeId r = b.read(0, {w});
  const NodeId n = b.nop({r});
  const Computation c = std::move(b).build();
  EXPECT_EQ(c.node_count(), 3u);
  EXPECT_EQ(c.op(w), Op::write(0));
  EXPECT_EQ(c.op(r), Op::read(0));
  EXPECT_EQ(c.op(n), Op::nop());
  EXPECT_TRUE(c.precedes(w, n));
  EXPECT_EQ(c.writers(0), std::vector<NodeId>{w});
  EXPECT_EQ(c.readers(0), std::vector<NodeId>{r});
  EXPECT_EQ(c.written_locations(), std::vector<Location>{0});
}

TEST(Computation, BuilderRejectsForwardPreds) {
  ComputationBuilder b;
  b.nop();
  EXPECT_THROW(b.nop({5}), std::logic_error);
  EXPECT_THROW(b.nop({1}), std::logic_error);  // the node being added
  const Computation c = Computation().extend(Op::nop(), {});
  EXPECT_THROW((void)c.extend(Op::nop(), {1}), std::logic_error);
}

TEST(Computation, RejectsCyclicDag) {
  const Dag d(2, {{0, 1}, {1, 0}});
  EXPECT_THROW(Computation(d, {Op::nop(), Op::nop()}), std::logic_error);
}

TEST(Computation, RejectsSizeMismatch) {
  EXPECT_THROW(Computation(Dag(2), {Op::nop()}), std::logic_error);
}

TEST(Computation, PrefixSemantics) {
  ComputationBuilder b;
  const NodeId x = b.write(0);
  const NodeId y = b.read(0, {x});
  const Computation small = std::move(b).build();

  const Computation big = small.extend(Op::nop(), {y});
  EXPECT_TRUE(small.is_prefix_of(big));
  EXPECT_TRUE(big.is_prefix_of(big));
  EXPECT_FALSE(big.is_prefix_of(small));

  // Downward closure: an edge from the new node back into the prefix
  // cannot arise with extend, but a mismatched op or edge set breaks
  // prefix-ness.
  ComputationBuilder b2;
  b2.write(1);  // different op at node 0
  b2.read(0, {0});
  const Computation other = std::move(b2).build();
  EXPECT_FALSE(other.is_prefix_of(big));

  // Missing induced edge: prefix must inherit x -> y.
  ComputationBuilder b3;
  b3.write(0);
  b3.read(0);
  EXPECT_FALSE(std::move(b3).build().is_prefix_of(big));
}

TEST(Computation, EmptyIsPrefixOfEverything) {
  const Computation empty;
  const Computation c = empty.extend(Op::write(0), {});
  EXPECT_TRUE(empty.is_prefix_of(c));
  EXPECT_TRUE(empty.is_prefix_of(empty));
}

TEST(Computation, RelaxationSemantics) {
  ComputationBuilder b;
  const NodeId x = b.write(0);
  const NodeId y = b.read(0, {x});
  b.nop({y});
  const Computation full = std::move(b).build();

  const Dag fewer(3, {{0, 1}});
  const Computation relaxed(fewer, full.ops());
  EXPECT_TRUE(relaxed.is_relaxation_of(full));
  EXPECT_FALSE(full.is_relaxation_of(relaxed));

  const Computation different_ops(fewer,
                                  {Op::write(1), Op::read(0), Op::nop()});
  EXPECT_FALSE(different_ops.is_relaxation_of(full));
}

TEST(Computation, ExtendAppendsOneNode) {
  ComputationBuilder b;
  b.write(0);
  const Computation c = std::move(b).build();
  const Computation ext = c.extend(Op::read(0), {0});
  EXPECT_EQ(ext.node_count(), 2u);
  EXPECT_TRUE(c.is_prefix_of(ext));
  EXPECT_TRUE(ext.precedes(0, 1));
  EXPECT_EQ(c.node_count(), 1u);  // original untouched
}

TEST(Computation, AugmentSucceedsAllNodes) {
  ComputationBuilder b;
  b.write(0);
  b.read(0);
  b.nop();
  const Computation c = std::move(b).build();
  const Computation aug = c.augment(Op::read(0));
  EXPECT_EQ(aug.node_count(), 4u);
  const NodeId f = c.final_node_id();
  EXPECT_EQ(f, 3u);
  for (NodeId u = 0; u < 3; ++u) EXPECT_TRUE(aug.precedes(u, f));
  EXPECT_TRUE(c.is_prefix_of(aug));
  // Any extension by the same op is a relaxation of the augmentation.
  const Computation ext = c.extend(Op::read(0), {1});
  EXPECT_TRUE(ext.is_relaxation_of(aug));
}

TEST(Computation, InducedSubcomputation) {
  ComputationBuilder b;
  const NodeId w = b.write(0);
  const NodeId r = b.read(0, {w});
  b.nop({r});
  const Computation c = std::move(b).build();
  DynBitset keep(3);
  keep.set(w);
  keep.set(r);
  std::vector<NodeId> map;
  const Computation sub = c.induced(keep, &map);
  EXPECT_EQ(sub.node_count(), 2u);
  EXPECT_EQ(sub.op(0), Op::write(0));
  EXPECT_EQ(sub.op(1), Op::read(0));
  EXPECT_TRUE(sub.precedes(0, 1));
  EXPECT_TRUE(sub.is_prefix_of(c));  // downward-closed induced = prefix
}

TEST(Computation, AccessedVsWrittenLocations) {
  ComputationBuilder b;
  b.write(2);
  b.read(5);
  b.nop();
  const Computation c = std::move(b).build();
  EXPECT_EQ(c.written_locations(), std::vector<Location>{2});
  EXPECT_EQ(c.accessed_locations(), (std::vector<Location>{2, 5}));
}

// --- builder-built computations against the adjacency-list reference ---

/// Random predecessor lists over the nodes so far, in any order and
/// with repeats, as Computation's builders must accept them.
std::vector<NodeId> random_preds(std::size_t u, Rng& rng) {
  std::vector<NodeId> preds;
  for (std::size_t k = u == 0 ? 0 : rng.below(4); k > 0; --k)
    preds.push_back(static_cast<NodeId>(rng.below(u)));
  return preds;
}

/// The reference grown node by node, the way computations used to grow:
/// each node's predecessor edges added as the node arrives.
void add_reference_node(ref::ListDag& r, const std::vector<NodeId>& preds) {
  const NodeId u = r.add_nodes(1);
  for (const NodeId p : preds) r.add_edge(p, u);
}

void expect_same_rows(const Dag& d, const ref::ListDag& r) {
  EXPECT_EQ(ref::succ_rows(d), ref::succ_rows(r));
  EXPECT_EQ(ref::pred_rows(d), ref::pred_rows(r));
}

TEST(ComputationReference, BuilderMatchesNodeByNodeGrowth) {
  Rng rng(5);
  for (int round = 0; round < 200; ++round) {
    ComputationBuilder b;
    ref::ListDag r;
    for (std::size_t u = 0, n = rng.below(30); u < n; ++u) {
      const std::vector<NodeId> preds = random_preds(u, rng);
      b.node(Op::read(0), preds);
      add_reference_node(r, preds);
    }
    expect_same_rows(std::move(b).build().dag(), r);
  }
}

TEST(ComputationReference, ExtendAndAugmentMatchTheReference) {
  Rng rng(6);
  for (int round = 0; round < 200; ++round) {
    // Bases from an unsorted edge list too, so rows are not id-ordered.
    const std::size_t n = rng.below(9);
    std::vector<Edge> edges;
    for (std::size_t i = 0; n > 1 && i < 2 * n; ++i) {
      const auto a = static_cast<NodeId>(rng.below(n));
      const auto b = static_cast<NodeId>(rng.below(n));
      if (a < b) edges.push_back({b, a});  // id-downward, still acyclic
    }
    const Computation c(Dag(n, edges), std::vector<Op>(n, Op::nop()));
    if (rng.chance(0.5)) c.dag().ensure_closure();

    const std::vector<NodeId> preds = random_preds(n, rng);
    ref::ListDag r(n, edges);
    add_reference_node(r, preds);
    const Computation ext = c.extend(Op::write(1), preds);
    expect_same_rows(ext.dag(), r);
    EXPECT_EQ(ext.op(static_cast<NodeId>(n)), Op::write(1));
    EXPECT_TRUE(c.is_prefix_of(ext));

    std::vector<NodeId> all(n);
    for (NodeId u = 0; u < n; ++u) all[u] = u;
    ref::ListDag ra(n, edges);
    add_reference_node(ra, all);
    expect_same_rows(c.augment(Op::read(1)).dag(), ra);
  }
}

TEST(ComputationReference, CilkProgramsMatchNodeByNodeGrowth) {
  Rng rng(8);
  for (int round = 0; round < 20; ++round) {
    proc::RandomCilkOptions opts;
    opts.target_ops = 200;
    const Computation c = proc::random_cilk(opts, rng);
    // Every node arrived with its predecessors, so replaying the pred
    // rows in id order must reproduce both directions exactly.
    ref::ListDag r;
    for (NodeId u = 0; u < c.node_count(); ++u) {
      const std::span<const NodeId> p = c.dag().pred(u);
      add_reference_node(r, std::vector<NodeId>(p.begin(), p.end()));
    }
    expect_same_rows(c.dag(), r);
    EXPECT_TRUE(c.dag().ids_topological());
  }
}

}  // namespace
}  // namespace ccmm
