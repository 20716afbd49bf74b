#include "dag/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

#include "dag/generators.hpp"
#include "reference_dag.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

Dag diamond4() { return Dag(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}); }

TEST(Dag, EmptyGraph) {
  Dag d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.node_count(), 0u);
  EXPECT_EQ(d.edge_count(), 0u);
  EXPECT_TRUE(d.is_acyclic());
  EXPECT_TRUE(d.topological_order().empty());
  EXPECT_EQ(d, Dag(0, {}));
}

TEST(Dag, RepeatedEdgesKeepTheFirst) {
  const Dag d(3, {{0, 2}, {0, 1}, {0, 2}, {1, 2}, {0, 1}});
  EXPECT_EQ(d.edge_count(), 3u);
  EXPECT_EQ(ref::succ_rows(d)[0], (std::vector<NodeId>{2, 1}));
  EXPECT_EQ(ref::pred_rows(d)[2], (std::vector<NodeId>{0, 1}));
  DagBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  EXPECT_EQ(b.build().edge_count(), 1u);
}

TEST(Dag, RejectsSelfLoopAndOutOfRange) {
  DagBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 0), std::logic_error);
  EXPECT_THROW(b.add_edge(0, 5), std::logic_error);
  EXPECT_THROW(Dag(2, {{1, 1}}), std::logic_error);
  EXPECT_THROW(Dag(2, {{0, 2}}), std::logic_error);
  EXPECT_THROW(Dag(0, {{0, 0}}), std::logic_error);
}

#if defined(__unix__) || defined(__APPLE__)
// Row offsets are 32-bit: 2^32 edges must be refused before any of
// them is read. The edge list is reserved address space that is never
// touched, so the test costs no memory.
TEST(Dag, RefusesTwoToTheThirtyTwoEdges) {
  const std::size_t count = std::size_t{1} << 32;
  const std::size_t bytes = count * sizeof(Edge);
  void* p = mmap(nullptr, bytes, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) GTEST_SKIP() << "cannot reserve the address space";
  const std::span<const Edge> edges(static_cast<const Edge*>(p), count);
  EXPECT_THROW(Dag(2, edges), std::logic_error);
  munmap(p, bytes);
}
#endif

TEST(Dag, PrecedesIsTransitiveClosure) {
  const Dag d = diamond4();
  EXPECT_TRUE(d.precedes(0, 3));
  EXPECT_TRUE(d.precedes(0, 1));
  EXPECT_FALSE(d.precedes(1, 2));
  EXPECT_FALSE(d.precedes(3, 0));
  EXPECT_FALSE(d.precedes(1, 1));  // strict
  EXPECT_TRUE(d.preceq(1, 1));
}

TEST(Dag, BottomPrecedesEverything) {
  const Dag d = diamond4();
  EXPECT_TRUE(d.precedes(kBottom, 0));
  EXPECT_TRUE(d.precedes(kBottom, 3));
  EXPECT_FALSE(d.precedes(0, kBottom));
  EXPECT_FALSE(d.precedes(kBottom, kBottom));
}

TEST(Dag, DescendantsAndAncestors) {
  const Dag d = diamond4();
  EXPECT_EQ(d.descendants(0).count(), 3u);
  EXPECT_EQ(d.ancestors(3).count(), 3u);
  EXPECT_EQ(d.descendants(3).count(), 0u);
  EXPECT_EQ(d.ancestors(0).count(), 0u);
  EXPECT_TRUE(d.descendants(1).test(3));
}

TEST(Dag, BetweenIsOpenInterval) {
  const Dag d(4, {{0, 1}, {1, 2}, {2, 3}});
  const DynBitset mid = d.between(0, 3);
  EXPECT_EQ(mid.count(), 2u);
  EXPECT_TRUE(mid.test(1));
  EXPECT_TRUE(mid.test(2));
  // ⊥ as the lower end: every strict ancestor of the upper end.
  EXPECT_EQ(d.between(kBottom, 3).count(), 3u);
}

TEST(Dag, CycleDetection) {
  EXPECT_TRUE(Dag(3, {{0, 1}, {1, 2}}).is_acyclic());
  const Dag d(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_FALSE(d.is_acyclic());
  EXPECT_THROW((void)d.topological_order(), std::logic_error);
}

TEST(Dag, SourcesAndSinks) {
  const Dag d = diamond4();
  EXPECT_EQ(d.sources(), std::vector<NodeId>{0});
  EXPECT_EQ(d.sinks(), std::vector<NodeId>{3});
}

TEST(Dag, TopologicalOrderIsCanonicalAndValid) {
  const Dag d = diamond4();
  const auto order = d.topological_order();
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Dag, DownwardClosedSets) {
  const Dag d = diamond4();
  DynBitset keep(4);
  keep.set(0);
  keep.set(1);
  EXPECT_TRUE(d.is_downward_closed(keep));
  DynBitset bad(4);
  bad.set(3);
  EXPECT_FALSE(d.is_downward_closed(bad));
  DynBitset empty(4);
  EXPECT_TRUE(d.is_downward_closed(empty));
}

TEST(Dag, InducedSubgraphRemapsIds) {
  const Dag d = diamond4();
  DynBitset keep(4);
  keep.set(0);
  keep.set(2);
  keep.set(3);
  std::vector<NodeId> map;
  const Dag sub = d.induced(keep, &map);
  EXPECT_EQ(sub.node_count(), 3u);
  EXPECT_EQ(map[0], 0u);
  EXPECT_EQ(map[1], kBottom);
  EXPECT_EQ(map[2], 1u);
  EXPECT_EQ(map[3], 2u);
  EXPECT_TRUE(sub.has_edge(0, 1));  // 0 -> 2
  EXPECT_TRUE(sub.has_edge(1, 2));  // 2 -> 3
  EXPECT_EQ(sub.edge_count(), 2u);  // the 1 -> 3 edge is dropped with 1
}

TEST(Dag, RelaxationChecks) {
  const Dag full = diamond4();
  const Dag fewer(4, {{0, 1}});
  EXPECT_TRUE(fewer.is_relaxation_of(full));
  EXPECT_FALSE(full.is_relaxation_of(fewer));
  EXPECT_TRUE(full.is_relaxation_of(full));
  const Dag other(3);
  EXPECT_FALSE(other.is_relaxation_of(full));
}

TEST(Dag, TransitiveReductionRemovesImpliedEdges) {
  const Dag d(3, {{0, 1}, {1, 2}, {0, 2}});  // 0 -> 2 is implied
  const Dag r = d.transitive_reduction();
  EXPECT_EQ(r.edge_count(), 2u);
  EXPECT_FALSE(r.has_edge(0, 2));
  // Reduction preserves reachability.
  EXPECT_TRUE(r.precedes(0, 2));
}

TEST(Dag, TransitiveClosureAddsAllReachableEdges) {
  const Dag d(4, {{0, 1}, {1, 2}, {2, 3}});
  const Dag cl = d.transitive_closure();
  EXPECT_EQ(cl.edge_count(), 6u);
  EXPECT_TRUE(cl.has_edge(0, 3));
}

TEST(Dag, BuilderOverAFrozenBaseStartsAFreshClosure) {
  const Dag d(3, {{0, 1}});
  EXPECT_TRUE(d.precedes(0, 1));
  EXPECT_FALSE(d.precedes(0, 2));
  DagBuilder b(d);
  b.add_edge(1, 2);
  const Dag grown = b.build();
  EXPECT_FALSE(grown.closure_frozen());
  EXPECT_TRUE(grown.precedes(0, 2));
  EXPECT_FALSE(d.precedes(0, 2));  // the base is untouched
}

TEST(Dag, RandomizedClosureAgainstDfs) {
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    const Dag d = gen::random_dag(30, 0.1, rng);
    // Reference reachability by DFS.
    for (NodeId s = 0; s < 30; s += 7) {
      std::vector<bool> seen(30, false);
      std::vector<NodeId> stack = {s};
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        for (const NodeId v : d.succ(u))
          if (!seen[v]) {
            seen[v] = true;
            stack.push_back(v);
          }
      }
      for (NodeId t = 0; t < 30; ++t)
        EXPECT_EQ(d.precedes(s, t), seen[t]) << s << " -> " << t;
    }
  }
}

// --- the CSR Dag against the adjacency-list reference ---

/// A random edge list over n nodes with every shape the counting pass
/// must keep in order: repeated edges, id-downward edges, the odd
/// cycle (when `acyclic` is false), isolated nodes and, now and then, a
/// hub with a long row of repeats.
std::vector<Edge> random_edges(std::size_t n, bool acyclic, Rng& rng) {
  std::vector<Edge> edges;
  if (n < 2) return edges;
  // Acyclic lists follow a random permutation of the ids, so they are
  // not id-sorted.
  std::vector<NodeId> rank(n);
  for (NodeId u = 0; u < n; ++u) rank[u] = u;
  for (std::size_t i = n; i-- > 1;)
    std::swap(rank[i], rank[rng.below(i + 1)]);
  const std::size_t m = rng.below(3 * n + 1);
  for (std::size_t i = 0; i < m; ++i) {
    auto a = static_cast<NodeId>(rng.below(n));
    auto b = static_cast<NodeId>(rng.below(n));
    if (a == b) continue;
    if (acyclic && rank[a] > rank[b]) std::swap(a, b);
    edges.push_back({a, b});
    if (rng.chance(0.2)) {
      const Edge again = edges[rng.below(edges.size())];
      edges.push_back(again);
    }
  }
  if (rng.chance(0.2)) {
    // A hub row longer than the short-row scan, full of repeats.
    const auto hub = static_cast<NodeId>(rng.below(n));
    for (int i = 0; i < 40; ++i) {
      const auto v = static_cast<NodeId>(rng.below(n));
      if (v == hub || (acyclic && rank[hub] > rank[v])) continue;
      edges.push_back({hub, v});
    }
  }
  for (std::size_t i = edges.size(); i-- > 1;)
    std::swap(edges[i], edges[rng.below(i + 1)]);
  return edges;
}

void expect_same_rows(const Dag& d, const ref::ListDag& r) {
  ASSERT_EQ(d.node_count(), r.node_count());
  EXPECT_EQ(ref::succ_rows(d), ref::succ_rows(r));
  EXPECT_EQ(ref::pred_rows(d), ref::pred_rows(r));
  EXPECT_EQ(d.edges(), r.edges());
  EXPECT_EQ(d.edge_count(), r.edge_count());
}

void expect_matches_reference(const Dag& d, const ref::ListDag& r, Rng& rng) {
  expect_same_rows(d, r);
  EXPECT_EQ(d.ids_topological(), r.ids_topological());
  EXPECT_EQ(d.is_acyclic(), r.is_acyclic());
  EXPECT_EQ(d.sources(), r.sources());
  EXPECT_EQ(d.sinks(), r.sinks());
  const std::size_t n = d.node_count();
  DynBitset keep(n);
  std::vector<bool> keep_ref(n);
  for (NodeId u = 0; u < n; ++u)
    if (rng.chance(0.6)) {
      keep.set(u);
      keep_ref[u] = true;
    }
  expect_same_rows(d.induced(keep), r.induced(keep_ref));
  if (!r.is_acyclic()) return;
  EXPECT_EQ(d.topological_order(), r.kahn_order());
  expect_same_rows(d.transitive_reduction(), r.transitive_reduction());
  expect_same_rows(d.transitive_closure(), r.transitive_closure());

  // A copy of a frozen dag carries the closure along.
  d.ensure_closure();
  const Dag copy = d;
  EXPECT_TRUE(copy.closure_frozen());
  EXPECT_EQ(copy, d);
  for (NodeId u = 0; u < n; ++u) {
    const std::vector<bool> reach = r.reach(u);
    for (NodeId v = 0; v < n; ++v) EXPECT_EQ(copy.precedes(u, v), reach[v]);
  }
}

TEST(DagReference, RandomEdgeListsMatchTheAdjacencyLists) {
  Rng rng(20261017);
  for (int round = 0; round < 600; ++round) {
    const std::size_t n =
        round < 40 ? static_cast<std::size_t>(round % 2)
                   : 2 + rng.below(round % 7 == 0 ? 60 : 12);
    const std::vector<Edge> edges = random_edges(n, rng.chance(0.7), rng);
    const Dag d(n, edges);
    const ref::ListDag r(n, edges);
    SCOPED_TRACE(round);
    expect_matches_reference(d, r, rng);
  }
}

TEST(DagReference, AdoptedSuccRowsMatchTheAdjacencyLists) {
  // The CSR constructor on the same edges in row order: the same rows,
  // the first repeat named, and Dag(n, edges)'s checks.
  Rng rng(20261020);
  for (int round = 0; round < 600; ++round) {
    const std::size_t n =
        round < 40 ? static_cast<std::size_t>(round % 2)
                   : 2 + rng.below(round % 7 == 0 ? 60 : 12);
    std::vector<Edge> edges = random_edges(n, rng.chance(0.7), rng);
    std::stable_sort(
        edges.begin(), edges.end(),
        [](const Edge& a, const Edge& b) { return a.from < b.from; });
    std::vector<std::uint32_t> off(n + 1, 0);
    std::vector<NodeId> tgt;
    for (const Edge& e : edges) {
      ++off[e.from + 1];
      tgt.push_back(e.to);
    }
    for (std::size_t u = 0; u < n; ++u) off[u + 1] += off[u];
    std::size_t first = edges.size();
    for (std::size_t i = 0; i < edges.size() && first == edges.size(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        if (edges[j] == edges[i]) {
          first = i;
          break;
        }
    std::size_t repeat = 0;
    const Dag d(n, std::move(off), std::move(tgt), &repeat);
    const ref::ListDag r(n, edges);
    SCOPED_TRACE(round);
    EXPECT_EQ(repeat, first);
    EXPECT_EQ(d, Dag(n, edges));
    expect_matches_reference(d, r, rng);
  }
  using Off = std::vector<std::uint32_t>;
  using Tgt = std::vector<NodeId>;
  EXPECT_THROW(Dag(2, Off{0, 1, 1}, Tgt{2}), std::logic_error);
  EXPECT_THROW(Dag(2, Off{0, 0, 1}, Tgt{1}), std::logic_error);
  EXPECT_THROW(Dag(3, Off{0, 2, 1, 2}, Tgt{1, 2}), std::logic_error);
  EXPECT_THROW(Dag(2, Off{0, 1}, Tgt{1}), std::logic_error);
  EXPECT_THROW(Dag(2, Off{0, 1, 1}, Tgt{1, 0}), std::logic_error);
  EXPECT_EQ(Dag(0, Off{0}, Tgt{}), Dag());
}

TEST(DagReference, EqualityMeansTheSameRowsInOrder) {
  Rng rng(7);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = rng.below(6);
    const std::vector<Edge> a = random_edges(n, true, rng);
    std::vector<Edge> b = a;
    if (!b.empty() && rng.chance(0.5))
      std::swap(b[0], b[rng.below(b.size())]);
    if (rng.chance(0.2)) b = random_edges(n, true, rng);
    EXPECT_EQ(Dag(n, a) == Dag(n, b),
              ref::ListDag(n, a) == ref::ListDag(n, b));
  }
  EXPECT_NE(Dag(2), Dag(3));
}

TEST(DagReference, MovedFromDagsAreEmpty) {
  Dag d = diamond4();
  d.ensure_closure();
  Dag moved = std::move(d);
  EXPECT_TRUE(moved.closure_frozen());
  EXPECT_TRUE(moved.precedes(0, 3));
  // NOLINTBEGIN(bugprone-use-after-move)
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.edge_count(), 0u);
  EXPECT_FALSE(d.closure_frozen());
  EXPECT_EQ(d, Dag());
  Dag target(5, {{0, 4}});
  target = std::move(moved);
  EXPECT_EQ(target, diamond4());
  EXPECT_TRUE(target.closure_frozen());
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.edge_count(), 0u);
  // NOLINTEND(bugprone-use-after-move)
}

TEST(DagReference, BuilderOverABaseMatchesGrowingTheReference) {
  Rng rng(31);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = rng.below(10);
    const std::vector<Edge> base_edges = random_edges(n, true, rng);
    const Dag base(n, base_edges);
    ref::ListDag r(n, base_edges);
    DagBuilder b(base);
    const std::size_t extra_nodes = rng.below(3);
    EXPECT_EQ(b.add_nodes(extra_nodes), r.add_nodes(extra_nodes));
    const std::size_t total = n + extra_nodes;
    for (int i = 0, k = static_cast<int>(rng.below(8)); total > 1 && i < k;
         ++i) {
      const auto u = static_cast<NodeId>(rng.below(total));
      const auto v = static_cast<NodeId>(rng.below(total));
      if (u == v) continue;
      b.add_edge(u, v);
      r.add_edge(u, v);
    }
    SCOPED_TRACE(round);
    expect_matches_reference(b.build(), r, rng);
  }
}

}  // namespace
}  // namespace ccmm
