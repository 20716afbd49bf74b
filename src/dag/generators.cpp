#include "dag/generators.hpp"

#include <algorithm>

namespace ccmm::gen {

Dag chain(std::size_t n) {
  DagBuilder d(n);
  for (std::size_t i = 0; i + 1 < n; ++i)
    d.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  return d.build();
}

Dag antichain(std::size_t n) { return Dag(n); }

Dag diamond(std::size_t branches) {
  CCMM_CHECK(branches >= 1, "diamond needs at least one branch");
  DagBuilder d(branches + 2);
  const auto sink = static_cast<NodeId>(branches + 1);
  for (std::size_t b = 0; b < branches; ++b) {
    d.add_edge(0, static_cast<NodeId>(b + 1));
    d.add_edge(static_cast<NodeId>(b + 1), sink);
  }
  return d.build();
}

Dag random_dag(std::size_t n, double p, Rng& rng) {
  DagBuilder d(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.chance(p))
        d.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
  return d.build();
}

Dag layered(const std::vector<std::size_t>& widths, double p, Rng& rng) {
  std::size_t total = 0;
  for (const auto w : widths) {
    CCMM_CHECK(w >= 1, "empty layer");
    total += w;
  }
  DagBuilder d(total);
  std::size_t layer_start = 0;
  std::size_t prev_start = 0, prev_width = 0;
  for (std::size_t li = 0; li < widths.size(); ++li) {
    const std::size_t w = widths[li];
    if (li > 0) {
      for (std::size_t j = 0; j < w; ++j) {
        const auto v = static_cast<NodeId>(layer_start + j);
        bool has_pred = false;
        for (std::size_t i = 0; i < prev_width; ++i) {
          if (rng.chance(p)) {
            d.add_edge(static_cast<NodeId>(prev_start + i), v);
            has_pred = true;
          }
        }
        if (!has_pred) {
          const std::size_t i = rng.below(prev_width);
          d.add_edge(static_cast<NodeId>(prev_start + i), v);
        }
      }
    }
    prev_start = layer_start;
    prev_width = w;
    layer_start += w;
  }
  return d.build();
}

namespace {

/// Recursively emit a fork/join subtree; returns (entry, exit) node ids.
std::pair<NodeId, NodeId> emit_fork_join(DagBuilder& d, std::size_t branching,
                                         std::size_t depth) {
  if (depth == 0) {
    const NodeId leaf = d.add_nodes(1);
    return {leaf, leaf};
  }
  const NodeId fork = d.add_nodes(1);
  std::vector<std::pair<NodeId, NodeId>> kids;
  kids.reserve(branching);
  for (std::size_t b = 0; b < branching; ++b)
    kids.push_back(emit_fork_join(d, branching, depth - 1));
  const NodeId join = d.add_nodes(1);
  for (const auto& [entry, exit] : kids) {
    d.add_edge(fork, entry);
    d.add_edge(exit, join);
  }
  return {fork, join};
}

}  // namespace

Dag fork_join(std::size_t branching, std::size_t depth) {
  CCMM_CHECK(branching >= 1, "fork_join needs branching >= 1");
  DagBuilder d;
  emit_fork_join(d, branching, depth);
  return d.build();
}

namespace {

std::pair<NodeId, NodeId> emit_sp(DagBuilder& d, std::size_t budget, Rng& rng) {
  if (budget <= 1) {
    const NodeId leaf = d.add_nodes(1);
    return {leaf, leaf};
  }
  const std::size_t left_budget = 1 + rng.below(budget - 1);
  const std::size_t right_budget = budget - left_budget;
  const auto [le, lx] = emit_sp(d, left_budget, rng);
  const auto [re, rx] = emit_sp(d, right_budget, rng);
  if (rng.chance(0.5)) {
    // Serial composition: left then right.
    d.add_edge(lx, re);
    return {le, rx};
  }
  // Parallel composition: fresh fork and join around both.
  const NodeId fork = d.add_nodes(1);
  const NodeId join = d.add_nodes(1);
  d.add_edge(fork, le);
  d.add_edge(fork, re);
  d.add_edge(lx, join);
  d.add_edge(rx, join);
  return {fork, join};
}

}  // namespace

Dag series_parallel(std::size_t n, Rng& rng) {
  CCMM_CHECK(n >= 1, "series_parallel needs n >= 1");
  DagBuilder d;
  emit_sp(d, n, rng);
  return d.build();
}

Dag fanin_tree(std::size_t leaves) {
  CCMM_CHECK(leaves >= 1, "fanin_tree needs at least one leaf");
  DagBuilder d(leaves);
  std::vector<NodeId> frontier(leaves);
  for (std::size_t i = 0; i < leaves; ++i)
    frontier[i] = static_cast<NodeId>(i);
  while (frontier.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((frontier.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < frontier.size(); i += 2) {
      const NodeId parent = d.add_nodes(1);
      d.add_edge(frontier[i], parent);
      d.add_edge(frontier[i + 1], parent);
      next.push_back(parent);
    }
    if (frontier.size() % 2 == 1) next.push_back(frontier.back());
    frontier = std::move(next);
  }
  return d.build();
}

}  // namespace ccmm::gen
