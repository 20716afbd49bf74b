#include "models/location_consistency.hpp"

#include <algorithm>

#include "core/suite.hpp"

namespace ccmm {

bool location_consistent_at(const Computation& c, const ObserverFunction& phi,
                            Location l) {
  const PreparedPair p = prepare_pair(c, phi);
  if (!p.valid()) return false;
  const auto* lp = p.location(l);
  return lp == nullptr || p.violated_at(*lp, kSuiteLC) == 0;
}

bool location_consistent(const Computation& c, const ObserverFunction& phi) {
  return location_consistent_prepared(prepare_pair(c, phi));
}

bool location_consistent_prepared(const PreparedPair& p) {
  return p.violated(kSuiteLC) == 0;
}

std::optional<std::vector<NodeId>> lc_witness(const Computation& c,
                                              const ObserverFunction& phi,
                                              Location l) {
  const PreparedPair p = prepare_pair(c, phi);
  if (!p.valid()) return std::nullopt;
  const auto* lp = p.location(l);
  // No writer: every node observes ⊥, which any sort explains.
  if (lp == nullptr) return p.topological_order();
  // The kernel's block order: B_⊥ first, then the drain order.
  LocArena scratch;
  std::vector<std::uint32_t> blocks;
  if (!p.run_kernel(*lp, kSuiteLC).lc_block_order(scratch, blocks))
    return std::nullopt;

  // Emit blocks in order; within a block, writer first, then the rest in
  // canonical topological order. rank[b] is block b's place in the order,
  // and a node's block is its observed write's (0 for ⊥).
  std::vector<std::size_t> rank(lp->writers.size() + 1);
  for (std::size_t i = 0; i < blocks.size(); ++i) rank[blocks[i]] = i;
  const auto block_of = [&](NodeId u) -> std::size_t {
    const NodeId x = phi.get(l, u);
    if (x == kBottom) return 0;
    return static_cast<std::size_t>(
               std::lower_bound(lp->writers.begin(), lp->writers.end(), x) -
               lp->writers.begin()) +
           1;
  };
  std::vector<NodeId> order = p.topological_order();
  std::vector<std::size_t> key(c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) key[u] = rank[block_of(u)];
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId x, NodeId y) { return key[x] < key[y]; });
  // The writer leads its block: nothing in B_x precedes x (observer
  // condition 2.2), but dag-unordered members could sort before it, so
  // rotate the writer to the front of its block.
  std::size_t i = 0;
  while (i < order.size()) {
    const std::size_t blk = key[order[i]];
    std::size_t j = i;
    while (j < order.size() && key[order[j]] == blk) ++j;
    const std::uint32_t b = blocks[blk];
    if (b != 0) {
      const NodeId writer = lp->writers[b - 1];
      const auto it = std::find(order.begin() + static_cast<std::ptrdiff_t>(i),
                                order.begin() + static_cast<std::ptrdiff_t>(j),
                                writer);
      CCMM_ASSERT(it != order.begin() + static_cast<std::ptrdiff_t>(j));
      std::rotate(order.begin() + static_cast<std::ptrdiff_t>(i), it, it + 1);
    }
    i = j;
  }
  return order;
}

}  // namespace ccmm
