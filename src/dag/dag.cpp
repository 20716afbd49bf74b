#include "dag/dag.hpp"

#include <algorithm>
#include <utility>

namespace ccmm {
namespace {

/// Rows at most this long drop repeats by scanning what they kept;
/// longer rows mark targets in a stamp array instead.
constexpr std::uint32_t kScanRow = 8;

/// Keeps the first occurrence of every target in each of the `n` rows
/// of off/tgt, compacting the targets in place and rewriting `off`;
/// returns the number kept. O(n + m): short rows compare against their
/// own kept prefix, and the stamp array is allocated only when a long
/// row turns up.
std::uint32_t drop_repeats(std::uint32_t* off, NodeId* tgt, std::size_t n) {
  std::vector<NodeId> stamp;
  std::uint32_t kept = 0;
  std::uint32_t begin = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t end = off[u + 1];
    const std::uint32_t row = kept;
    off[u] = row;
    if (end - begin <= 1) {
      if (end != begin) tgt[kept++] = tgt[begin];
    } else if (end - begin <= kScanRow) {
      for (std::uint32_t i = begin; i < end; ++i)
        if (std::find(tgt + row, tgt + kept, tgt[i]) == tgt + kept)
          tgt[kept++] = tgt[i];
    } else {
      if (stamp.empty()) stamp.assign(n, kBottom);
      for (std::uint32_t i = begin; i < end; ++i) {
        const NodeId t = tgt[i];
        if (stamp[t] == u) continue;
        stamp[t] = static_cast<NodeId>(u);
        tgt[kept++] = t;
      }
    }
    begin = end;
  }
  off[n] = kept;
  return kept;
}

}  // namespace

Dag::Dag(std::size_t n, std::span<const Edge> edges)
    : Dag(n, nullptr, edges) {}

Dag::Dag(std::size_t n, const Dag* base, std::span<const Edge> extra)
    : n_(n) {
  CCMM_CHECK(n < kBottom, "too many nodes for 32-bit node ids");
  const std::size_t nb = base != nullptr ? base->n_ : 0;
  const std::size_t mb = base != nullptr ? base->m_ : 0;
  CCMM_CHECK(nb <= n, "a dag cannot drop its base's nodes");
  CCMM_CHECK(extra.size() <= kMaxDagEdges - mb,
             "a dag holds at most 2^32 - 1 edges");
  if (base != nullptr) edges_increase_ = base->edges_increase_;
  if (n == 0) {
    CCMM_CHECK(extra.empty(), "edge endpoint out of range");
    return;
  }
  const std::size_t m = mb + extra.size();
  succ_off_.assign(n + 1, 0);
  pred_off_.assign(n + 1, 0);
  succ_tgt_.resize(m);
  pred_tgt_.resize(m);
  std::uint32_t* so = succ_off_.data();
  std::uint32_t* po = pred_off_.data();
  NodeId* st = succ_tgt_.data();
  NodeId* pt = pred_tgt_.data();

  // Row lengths, then inclusive prefix sums: so[u] is the end of row u.
  for (NodeId u = 0; u < nb; ++u) {
    so[u] = static_cast<std::uint32_t>(base->succ(u).size());
    po[u] = static_cast<std::uint32_t>(base->pred(u).size());
  }
  for (const Edge& e : extra) {
    CCMM_CHECK(e.from < n && e.to < n, "edge endpoint out of range");
    CCMM_CHECK(e.from != e.to, "self-loop");
    ++so[e.from];
    ++po[e.to];
    if (e.from > e.to) edges_increase_ = false;
  }
  for (std::size_t u = 1; u < n; ++u) {
    so[u] += so[u - 1];
    po[u] += po[u - 1];
  }
  // Fill every row back to front: the extra edges in reverse list
  // order, then the base row in front of them. Each offset ends at its
  // row's start.
  for (std::size_t i = extra.size(); i-- > 0;) {
    st[--so[extra[i].from]] = extra[i].to;
    pt[--po[extra[i].to]] = extra[i].from;
  }
  for (NodeId u = 0; u < nb; ++u) {
    const std::span<const NodeId> s = base->succ(u);
    const std::span<const NodeId> p = base->pred(u);
    so[u] -= static_cast<std::uint32_t>(s.size());
    po[u] -= static_cast<std::uint32_t>(p.size());
    std::copy(s.begin(), s.end(), st + so[u]);
    std::copy(p.begin(), p.end(), pt + po[u]);
  }
  so[n] = po[n] = static_cast<std::uint32_t>(m);

  // Both directions hold the same pairs, so the pred rows can repeat
  // an edge only if the succ rows did.
  m_ = drop_repeats(so, st, n);
  if (m_ < m) {
    [[maybe_unused]] const std::uint32_t mp = drop_repeats(po, pt, n);
    CCMM_ASSERT(mp == m_);
    succ_tgt_.resize(m_);
    pred_tgt_.resize(m_);
    succ_tgt_.shrink_to_fit();
    pred_tgt_.shrink_to_fit();
  }
}

Dag::Dag(const Dag& o)
    : n_(o.n_),
      m_(o.m_),
      succ_off_(o.succ_off_),
      succ_tgt_(o.succ_tgt_),
      pred_off_(o.pred_off_),
      pred_tgt_(o.pred_tgt_),
      edges_increase_(o.edges_increase_),
      acyclic_known_(o.acyclic_known_) {
  if (o.closure_frozen()) {
    desc_ = o.desc_;
    anc_ = o.anc_;
    closure_valid_.store(true, std::memory_order_release);
  }
}

Dag::Dag(Dag&& o) noexcept { *this = std::move(o); }

Dag& Dag::operator=(const Dag& o) {
  if (this != &o) *this = Dag(o);
  return *this;
}

Dag& Dag::operator=(Dag&& o) noexcept {
  if (this == &o) return *this;
  n_ = std::exchange(o.n_, 0);
  m_ = std::exchange(o.m_, 0);
  succ_off_ = std::move(o.succ_off_);
  succ_tgt_ = std::move(o.succ_tgt_);
  pred_off_ = std::move(o.pred_off_);
  pred_tgt_ = std::move(o.pred_tgt_);
  edges_increase_ = std::exchange(o.edges_increase_, true);
  acyclic_known_ = std::exchange(o.acyclic_known_, false);
  desc_ = std::move(o.desc_);
  anc_ = std::move(o.anc_);
  closure_valid_.store(o.closure_frozen(), std::memory_order_release);
  o.succ_off_.clear();
  o.succ_tgt_.clear();
  o.pred_off_.clear();
  o.pred_tgt_.clear();
  o.desc_.clear();
  o.anc_.clear();
  o.invalidate();
  return *this;
}

bool Dag::has_edge(NodeId u, NodeId v) const {
  CCMM_ASSERT(u < node_count() && v < node_count());
  const std::span<const NodeId> s = succ(u);
  return std::find(s.begin(), s.end(), v) != s.end();
}

std::vector<Edge> Dag::edges() const {
  std::vector<Edge> out;
  out.reserve(m_);
  for (NodeId u = 0; u < n_; ++u)
    for (const NodeId v : succ(u)) out.push_back({u, v});
  return out;
}

std::vector<NodeId> Dag::drain_order() const {
  std::vector<std::uint32_t> indeg(n_);
  std::vector<NodeId> order;
  order.reserve(n_);
  for (NodeId u = 0; u < n_; ++u) {
    indeg[u] = static_cast<std::uint32_t>(pred(u).size());
    if (indeg[u] == 0) order.push_back(u);
  }
  for (std::size_t i = 0; i < order.size(); ++i)
    for (const NodeId v : succ(order[i]))
      if (--indeg[v] == 0) order.push_back(v);
  return order;
}

bool Dag::is_acyclic() const {
  // Fast paths: id-upward edge sets are acyclic outright, and a
  // positive Kahn verdict is memoized.
  if (!edges_increase_ && !acyclic_known_)
    acyclic_known_ = drain_order().size() == n_;
  return edges_increase_ || acyclic_known_;
}

void Dag::ensure_closure() const {
  if (closure_frozen()) return;
  CCMM_CHECK(is_acyclic(), "reachability requires an acyclic graph");
  const std::size_t n = node_count();
  desc_.assign(n, DynBitset(n));
  anc_.assign(n, DynBitset(n));

  // Process nodes in reverse topological order so desc rows of successors
  // are complete when we union them in.
  const std::vector<NodeId> order = drain_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId u = *it;
    for (const NodeId v : succ(u)) {
      desc_[u].set(v);
      desc_[u] |= desc_[v];
    }
  }
  for (NodeId u = 0; u < n; ++u)
    desc_[u].for_each([&](std::size_t v) { anc_[v].set(u); });
  closure_valid_.store(true, std::memory_order_release);
}

bool Dag::precedes(NodeId u, NodeId v) const {
  if (u == kBottom) return v != kBottom;  // ⊥ ≺ every real node
  if (v == kBottom) return false;
  CCMM_ASSERT(u < node_count() && v < node_count());
  if (u == v) return false;
  ensure_closure();
  return desc_[u].test(v);
}

const DynBitset& Dag::descendants(NodeId u) const {
  CCMM_CHECK(u < node_count(), "node out of range");
  ensure_closure();
  return desc_[u];
}

const DynBitset& Dag::ancestors(NodeId u) const {
  CCMM_CHECK(u < node_count(), "node out of range");
  ensure_closure();
  return anc_[u];
}

DynBitset Dag::between(NodeId u, NodeId w) const {
  ensure_closure();
  if (u == kBottom) {
    CCMM_CHECK(w < node_count(), "node out of range");
    return anc_[w];  // every real node follows ⊥
  }
  CCMM_CHECK(u < node_count() && w < node_count(), "node out of range");
  return desc_[u] & anc_[w];
}

std::vector<NodeId> Dag::sources() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < n_; ++u)
    if (pred(u).empty()) out.push_back(u);
  return out;
}

std::vector<NodeId> Dag::sinks() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < n_; ++u)
    if (succ(u).empty()) out.push_back(u);
  return out;
}

std::vector<NodeId> Dag::topological_order() const {
  CCMM_CHECK(is_acyclic(), "topological order of a cyclic graph");
  const std::size_t n = node_count();
  std::vector<std::size_t> indeg(n);
  for (NodeId u = 0; u < n; ++u) indeg[u] = pred(u).size();
  // Min-heap on node id for a canonical order.
  std::vector<NodeId> heap;
  auto cmp = [](NodeId a, NodeId b) { return a > b; };
  for (NodeId u = 0; u < n; ++u)
    if (indeg[u] == 0) heap.push_back(u);
  std::make_heap(heap.begin(), heap.end(), cmp);
  std::vector<NodeId> order;
  order.reserve(n);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const NodeId u = heap.back();
    heap.pop_back();
    order.push_back(u);
    for (const NodeId v : succ(u)) {
      if (--indeg[v] == 0) {
        heap.push_back(v);
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
  return order;
}

bool Dag::is_downward_closed(const DynBitset& keep) const {
  CCMM_CHECK(keep.size() == node_count(), "subset size mismatch");
  bool ok = true;
  keep.for_each([&](std::size_t v) {
    for (const NodeId p : pred(static_cast<NodeId>(v)))
      if (!keep.test(p)) ok = false;
  });
  return ok;
}

Dag Dag::induced(const DynBitset& keep, std::vector<NodeId>* old_to_new) const {
  CCMM_CHECK(keep.size() == node_count(), "subset size mismatch");
  std::vector<NodeId> map(node_count(), kBottom);
  NodeId next = 0;
  keep.for_each([&](std::size_t v) { map[v] = next++; });
  DagBuilder out(next);
  for (NodeId u = 0; u < node_count(); ++u) {
    if (map[u] == kBottom) continue;
    for (const NodeId v : succ(u))
      if (map[v] != kBottom) out.add_edge(map[u], map[v]);
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return out.build();
}

bool Dag::is_relaxation_of(const Dag& other) const {
  if (node_count() != other.node_count()) return false;
  for (NodeId u = 0; u < node_count(); ++u)
    for (const NodeId v : succ(u))
      if (!other.has_edge(u, v)) return false;
  return true;
}

Dag Dag::transitive_reduction() const {
  ensure_closure();
  DagBuilder out(node_count());
  // Edge u->v is redundant iff some other successor of u reaches v.
  for (NodeId u = 0; u < node_count(); ++u) {
    for (const NodeId v : succ(u)) {
      bool redundant = false;
      for (const NodeId w : succ(u)) {
        if (w != v && desc_[w].test(v)) {
          redundant = true;
          break;
        }
      }
      if (!redundant) out.add_edge(u, v);
    }
  }
  return out.build();
}

Dag Dag::transitive_closure() const {
  ensure_closure();
  DagBuilder out(node_count());
  for (NodeId u = 0; u < node_count(); ++u)
    desc_[u].for_each([&](std::size_t v) {
      out.add_edge(u, static_cast<NodeId>(v));
    });
  return out.build();
}

std::optional<DynBitset> bounded_ancestor_closure(
    const Dag& dag, const std::vector<NodeId>& seeds, std::size_t node_cap) {
  const std::size_t n = dag.node_count();
  DynBitset keep(n);
  std::size_t kept = 0;
  std::vector<NodeId> frontier;
  const auto push = [&](NodeId u) {
    CCMM_ASSERT(u < n);
    if (keep.test(u)) return true;
    if (kept == node_cap) return false;
    keep.set(u);
    ++kept;
    frontier.push_back(u);
    return true;
  };
  for (const NodeId s : seeds)
    if (!push(s)) return std::nullopt;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const NodeId p : dag.pred(u))
      if (!push(p)) return std::nullopt;
  }
  return keep;
}

}  // namespace ccmm
