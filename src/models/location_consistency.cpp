#include "models/location_consistency.hpp"

#include <algorithm>

namespace ccmm {
namespace detail {

/// Does the block quotient graph admit a topological order with B_⊥ first?
/// `order_out`, if non-null, receives such a block order.
bool lc_quotient_sortable(const Computation& c, const std::uint32_t* block_of,
                          std::size_t nblocks,
                          std::vector<std::size_t>* order_out) {
  const std::size_t nb = nblocks;
  // Quotient adjacency + indegrees from dag edges crossing blocks.
  std::vector<std::vector<std::size_t>> qsucc(nb);
  std::vector<std::size_t> indeg(nb, 0);
  for (NodeId u = 0; u < c.node_count(); ++u)
    for (const NodeId v : c.dag().succ(u)) {
      const std::size_t bu = block_of[u];
      const std::size_t bv = block_of[v];
      if (bu == bv) continue;
      qsucc[bu].push_back(bv);
      ++indeg[bv];
    }
  // B_⊥ must be first: it may have no incoming edges (when nonempty; an
  // empty B_⊥ has no dag nodes, hence no incoming edges anyway).
  if (indeg[0] != 0) return false;
  // Kahn with block 0 forced first, then any order.
  std::vector<std::size_t> order;
  order.reserve(nb);
  std::vector<std::size_t> stack;
  stack.push_back(0);
  std::vector<char> emitted(nb, 0);
  emitted[0] = 1;
  while (!stack.empty()) {
    const std::size_t x = stack.back();
    stack.pop_back();
    order.push_back(x);
    for (const std::size_t y : qsucc[x]) {
      if (--indeg[y] == 0 && !emitted[y]) {
        emitted[y] = 1;
        stack.push_back(y);
      }
    }
    if (stack.empty()) {
      // Seed any remaining zero-indegree blocks (disconnected pieces).
      for (std::size_t y = 1; y < nb; ++y)
        if (!emitted[y] && indeg[y] == 0) {
          emitted[y] = 1;
          stack.push_back(y);
        }
    }
  }
  if (order.size() != nb) return false;  // quotient cycle
  if (order_out != nullptr) *order_out = std::move(order);
  return true;
}

}  // namespace detail

bool location_consistent_at(const Computation& c, const ObserverFunction& phi,
                            Location l) {
  const PreparedPair p = prepare_pair(c, phi);
  if (!p.valid()) return false;
  const auto* lp = p.location(l);
  return lp == nullptr || detail::lc_quotient_sortable(
                              c, lp->block_of.data(), lp->block_count(),
                              nullptr);
}

bool location_consistent(const Computation& c, const ObserverFunction& phi) {
  return location_consistent_prepared(prepare_pair(c, phi));
}

bool location_consistent_prepared(const PreparedPair& p) {
  if (!p.valid()) return false;
  for (const auto& lp : p.locations())
    if (!detail::lc_quotient_sortable(p.computation(), lp.block_of.data(),
                                      lp.block_count(), nullptr))
      return false;
  return true;
}

std::optional<std::vector<NodeId>> lc_witness(const Computation& c,
                                              const ObserverFunction& phi,
                                              Location l) {
  const PreparedPair p = prepare_pair(c, phi);
  if (!p.valid()) return std::nullopt;
  const auto* lp = p.location(l);
  // No writer: every node observes ⊥, which any sort explains.
  if (lp == nullptr) return p.topological_order();
  const std::uint32_t* block_of = lp->block_of.data();
  std::vector<std::size_t> block_order;
  if (!detail::lc_quotient_sortable(c, block_of, lp->block_count(),
                                    &block_order))
    return std::nullopt;

  // Emit blocks in order; within a block, writer first, then the rest in a
  // linear extension of the induced subgraph (Kahn restricted to block).
  std::vector<std::size_t> rank(lp->block_count());
  for (std::size_t i = 0; i < block_order.size(); ++i)
    rank[block_order[i]] = i;

  // Sort key: (block rank, canonical topological position). Sorting the
  // canonical order stably by block rank keeps intra-block dag order.
  std::vector<NodeId> order = p.topological_order();
  std::stable_sort(order.begin(), order.end(), [&](NodeId x, NodeId y) {
    return rank[block_of[x]] < rank[block_of[y]];
  });
  // The writer leads its block automatically: nothing in B_x precedes x
  // (observer condition 2.2), and a write to l precedes every member of
  // its block that it is dag-ordered with; but dag-unordered members
  // could sort before it, so rotate the writer to the front of its block.
  std::size_t i = 0;
  while (i < order.size()) {
    const std::uint32_t blk = block_of[order[i]];
    std::size_t j = i;
    while (j < order.size() && block_of[order[j]] == blk) ++j;
    const NodeId writer = lp->block_writer(blk);
    if (writer != kBottom) {
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
