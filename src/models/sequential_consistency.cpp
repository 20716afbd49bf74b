#include "models/sequential_consistency.hpp"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "models/location_consistency.hpp"

namespace ccmm {
namespace {

struct ScSearch {
  const Computation& c;
  const ObserverFunction& phi;
  std::vector<Location> locs;          // locations the sort must explain
  std::vector<std::size_t> write_slot;  // node -> index in locs it writes
  std::vector<std::vector<NodeId>> col;  // col[i][u] = Φ(locs[i], u), dense
  // Block partition of each column (0 = B_⊥) and, per block, how many
  // unplaced non-writers still have to observe it. A write to locs[i] is
  // only placeable when the current block is drained: once cur[i] moves
  // on, an old block's writer never becomes current again, so any
  // remaining observer of it would be permanently unplaceable — pruning
  // such placements is sound, not heuristic.
  std::vector<std::vector<std::uint32_t>> blk;  // blk[i][u], dense
  std::vector<std::vector<std::size_t>> pending;  // pending[i][block]
  std::vector<std::uint32_t> cur_blk;             // block of cur[i]
  std::vector<std::size_t> indeg;
  DynBitset placed;
  std::vector<NodeId> cur;  // current last writer per active location
  std::vector<NodeId> order;
  std::vector<NodeId> witness;          // filled at the success leaf
  std::unordered_set<std::string> dead;  // exact encodings of failed states
  std::size_t budget;
  bool memoize;
  std::size_t expanded = 0;

  ScSearch(const Computation& comp, const ObserverFunction& f,
           std::vector<Location> ls, std::size_t b, bool use_memo)
      : c(comp),
        phi(f),
        placed(comp.node_count()),
        budget(b),
        memoize(use_memo) {
    locs = std::move(ls);
    // Looked up per node, not per location id: ids can be as large as
    // 0xFFFFFFFF, and an array over them would be out of proportion.
    write_slot.assign(c.node_count(), SIZE_MAX);
    for (std::size_t i = 0; i < locs.size(); ++i)
      for (NodeId u = 0; u < c.node_count(); ++u)
        if (c.op(u).writes(locs[i])) write_slot[u] = i;
    // Dense Φ columns: placeable() probes Φ for every active location of
    // every ready candidate at every expansion, so the per-call column
    // search inside ObserverFunction::get would dominate the search.
    col.resize(locs.size());
    blk.resize(locs.size());
    pending.resize(locs.size());
    cur_blk.assign(locs.size(), 0);
    for (std::size_t i = 0; i < locs.size(); ++i) {
      col[i].resize(c.node_count());
      blk[i].resize(c.node_count());
      std::unordered_map<NodeId, std::uint32_t> block_of_writer;
      for (NodeId u = 0; u < c.node_count(); ++u) {
        const NodeId x = phi.get(locs[i], u);
        col[i][u] = x;
        blk[i][u] =
            x == kBottom
                ? 0
                : block_of_writer
                      .try_emplace(x, static_cast<std::uint32_t>(
                                          block_of_writer.size() + 1))
                      .first->second;
      }
      pending[i].assign(block_of_writer.size() + 1, 0);
      for (NodeId u = 0; u < c.node_count(); ++u)
        if (!c.op(u).writes(locs[i])) ++pending[i][blk[i][u]];
    }
    indeg.resize(c.node_count());
    for (NodeId u = 0; u < c.node_count(); ++u)
      indeg[u] = c.dag().pred(u).size();
    cur.assign(locs.size(), kBottom);
    order.reserve(c.node_count());
  }

  /// Exact state key (placed set + current writers): memoizing on a
  /// hash alone would make a collision flip the answer.
  [[nodiscard]] std::string state_key() const {
    std::string key;
    key.reserve(placed.word_count() * 8 + cur.size() * 4);
    for (std::size_t w = 0; w < placed.word_count(); ++w) {
      const auto word = placed.word(w);
      for (int b = 0; b < 8; ++b)
        key.push_back(static_cast<char>((word >> (8 * b)) & 0xff));
    }
    for (const NodeId w : cur)
      for (int b = 0; b < 4; ++b)
        key.push_back(static_cast<char>((w >> (8 * b)) & 0xff));
    return key;
  }

  /// Can node u be the next element of T in the current state?
  [[nodiscard]] bool placeable(NodeId u) const {
    if (placed.test(u) || indeg[u] != 0) return false;
    const Op o = c.op(u);
    for (std::size_t i = 0; i < locs.size(); ++i) {
      if (o.writes(locs[i])) continue;  // a write is its own last writer
      if (col[i][u] != cur[i]) return false;
    }
    if (write_slot[u] != SIZE_MAX) {
      // Don't retire a block that still has unplaced observers.
      const std::size_t i = write_slot[u];
      if (pending[i][cur_blk[i]] != 0) return false;
    }
    return true;
  }

  SearchStatus run() {
    if (++expanded > budget) return SearchStatus::kExhausted;
    if (order.size() == c.node_count()) {
      witness = order;
      return SearchStatus::kYes;
    }
    const std::string key = memoize ? state_key() : std::string();
    if (memoize && dead.contains(key)) return SearchStatus::kNo;

    bool exhausted = false;
    for (NodeId u = 0; u < c.node_count(); ++u) {
      if (!placeable(u)) continue;
      // Place u.
      placed.set(u);
      const std::size_t saved_indeg = indeg[u];
      indeg[u] = SIZE_MAX;
      for (const NodeId v : c.dag().succ(u)) --indeg[v];
      order.push_back(u);
      const Op o = c.op(u);
      NodeId saved_cur = kBottom;
      std::uint32_t saved_cur_blk = 0;
      const std::size_t li = write_slot[u];
      if (li != SIZE_MAX) {
        saved_cur = cur[li];
        cur[li] = u;
        saved_cur_blk = cur_blk[li];
        cur_blk[li] = blk[li][u];  // a writer's block is its own
      }
      for (std::size_t i = 0; i < locs.size(); ++i)
        if (!o.writes(locs[i])) --pending[i][blk[i][u]];
      const SearchStatus s = run();
      // Undo.
      for (std::size_t i = 0; i < locs.size(); ++i)
        if (!o.writes(locs[i])) ++pending[i][blk[i][u]];
      if (li != SIZE_MAX) {
        cur[li] = saved_cur;
        cur_blk[li] = saved_cur_blk;
      }
      order.pop_back();
      for (const NodeId v : c.dag().succ(u)) ++indeg[v];
      indeg[u] = saved_indeg;
      placed.reset(u);

      if (s == SearchStatus::kYes) return s;
      if (s == SearchStatus::kExhausted) exhausted = true;
    }
    if (exhausted) return SearchStatus::kExhausted;
    if (memoize) dead.insert(key);
    return SearchStatus::kNo;
  }
};

}  // namespace

ScResult serialization_check(const Computation& c, const ObserverFunction& phi,
                             const std::vector<Location>& locs,
                             const ScOptions& options) {
  // Inactive locations (no writers, all-⊥ column) are explained by any
  // sort; dropping them keeps the per-expansion placeable() loop tight.
  std::vector<Location> active;
  for (const Location l : locs)
    for (NodeId u = 0; u < c.node_count(); ++u)
      if (phi.get(l, u) != kBottom) {
        active.push_back(l);
        break;
      }
  ScResult result;
  ScSearch search(c, phi, std::move(active), options.budget,
                  options.memoize_dead_states);
  result.status = search.run();
  result.expanded = search.expanded;
  if (result.status == SearchStatus::kYes)
    result.witness = std::move(search.witness);
  return result;
}

bool order_explains(const Computation& c, const ObserverFunction& phi,
                    const std::vector<Location>& locs,
                    const std::vector<NodeId>& order) {
  if (order.size() != c.node_count()) return false;
  // One pass per location, carrying the last writer placed so far.
  for (const Location l : locs) {
    NodeId cur = kBottom;
    for (const NodeId u : order) {
      if (c.op(u).writes(l)) {
        cur = u;
        if (phi.get(l, u) != u) return false;  // 2.3, defensively
      } else if (phi.get(l, u) != cur) {
        return false;
      }
    }
  }
  return true;
}

ScResult sc_check_with(const Computation& c, const ObserverFunction& phi,
                       const ScOptions& options) {
  return sc_check_prepared(prepare_pair(c, phi), options);
}

ScResult sc_check_prepared(const PreparedPair& p, const ScOptions& options) {
  if (!p.valid()) return {};
  if (options.lc_prefilter && !location_consistent_prepared(p)) return {};
  return serialization_check(p.computation(), p.observer(),
                             p.observer().active_locations(), options);
}

ScResult sc_check(const Computation& c, const ObserverFunction& phi,
                  std::size_t budget) {
  ScOptions options;
  options.budget = budget;
  return sc_check_with(c, phi, options);
}

}  // namespace ccmm
