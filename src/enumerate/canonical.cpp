#include "enumerate/canonical.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "enumerate/dag_enum.hpp"
#include "enumerate/labeling_enum.hpp"
#include "enumerate/observer_enum.hpp"

namespace ccmm {
namespace {

using ColorVec = std::vector<std::uint32_t>;

std::uint64_t mul_sat(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > UINT64_MAX / a) return UINT64_MAX;
  return a * b;
}

/// Longest-path-from-sources depth per node. Isomorphism-invariant, and
/// every edge strictly increases it, so any node order sorted by level
/// is topologically admissible — the property that lets the refined
/// color order double as a relabeling encode_computation accepts.
std::vector<std::uint32_t> node_levels(const Computation& c) {
  std::vector<std::uint32_t> level(c.node_count(), 0);
  const Dag& d = c.dag();
  if (d.ids_topological()) {
    // Ids already form a topological order: one ascending sweep.
    for (NodeId u = 0; u < c.node_count(); ++u)
      for (const NodeId v : d.succ(u))
        level[v] = std::max(level[v], level[u] + 1);
    return level;
  }
  for (const NodeId u : d.topological_order())
    for (const NodeId v : d.succ(u))
      level[v] = std::max(level[v], level[u] + 1);
  return level;
}

/// Individualization-refinement canonicalizer for one weakly-connected
/// component. Colors are kept dense (0..k-1) and their order always
/// refines the initial (level, op)-order, so a discrete coloring IS a
/// topologically admissible relabeling.
class ComponentCanonicalizer {
 public:
  explicit ComponentCanonicalizer(const Computation& c)
      : c_(c), n_(c.node_count()), level_(node_levels(c)), by_color_(n_) {
    op_at_.reserve(n_ + 1);
    op_at_.push_back(0);
    for (NodeId u = 0; u < n_; ++u) {
      detail::append_op_code(op_codes_, c_.op(u));
      op_at_.push_back(op_codes_.size());
    }
  }

  struct Result {
    std::string encoding;
    std::vector<NodeId> map;  // local old id -> canonical id
    std::uint64_t automorphisms = 1;
  };

  Result run() {
    search(initial_colors(), 1);
    CCMM_ASSERT(best_.has_value());
    return {std::move(*best_), std::move(best_map_), best_weight_};
  }

 private:
  ColorVec initial_colors() const {
    // Dense-rank nodes by the isomorphism-invariant triple
    // (level, op kind, op location).
    std::vector<NodeId> idx(n_);
    std::iota(idx.begin(), idx.end(), 0u);
    auto key = [&](NodeId u) {
      return std::tuple(level_[u], c_.op(u).kind, c_.op(u).loc);
    };
    std::sort(idx.begin(), idx.end(),
              [&](NodeId a, NodeId b) { return key(a) < key(b); });
    ColorVec color(n_, 0);
    std::uint32_t next = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (i > 0 && key(idx[i]) != key(idx[i - 1])) ++next;
      color[idx[i]] = next;
    }
    return color;
  }

  /// Iterated color refinement: split cells by the multiset of pred and
  /// succ colors until stable. Signatures lead with the old color, so
  /// the sort refines the existing order. Returns the color count.
  std::size_t refine(ColorVec& color) {
    auto count_of = [&] {
      return static_cast<std::size_t>(
                 color.empty()
                     ? 0
                     : *std::max_element(color.begin(), color.end())) +
             (color.empty() ? 0 : 1);
    };
    std::size_t ncolors = count_of();
    // Scratch buffers persist across iterations and across search()
    // branches; refine is the canonicalizer's hot loop.
    sig_.resize(n_);
    idx_.resize(n_);
    refined_.resize(n_);
    while (ncolors < n_) {
      for (NodeId u = 0; u < n_; ++u) {
        auto& s = sig_[u];
        s.clear();
        s.push_back(color[u]);
        nb_.clear();
        for (const NodeId p : c_.dag().pred(u)) nb_.push_back(color[p]);
        std::sort(nb_.begin(), nb_.end());
        s.insert(s.end(), nb_.begin(), nb_.end());
        s.push_back(UINT32_MAX);  // separator: pred vs succ multiset
        nb_.clear();
        for (const NodeId v : c_.dag().succ(u)) nb_.push_back(color[v]);
        std::sort(nb_.begin(), nb_.end());
        s.insert(s.end(), nb_.begin(), nb_.end());
      }
      std::iota(idx_.begin(), idx_.end(), 0u);
      std::sort(idx_.begin(), idx_.end(),
                [&](NodeId a, NodeId b) { return sig_[a] < sig_[b]; });
      std::uint32_t next = 0;
      for (std::size_t i = 0; i < n_; ++i) {
        if (i > 0 && sig_[idx_[i]] != sig_[idx_[i - 1]]) ++next;
        refined_[idx_[i]] = next;
      }
      const std::size_t nnew = static_cast<std::size_t>(next) + 1;
      if (nnew == ncolors) break;  // refinement only splits: stable
      std::swap(color, refined_);
      ncolors = nnew;
    }
    return ncolors;
  }

  /// Split u off as the first singleton of its cell, shifting the rest
  /// of the cell (and every later cell) up by one. Order-preserving, so
  /// the level-respecting invariant survives.
  static ColorVec individualize(const ColorVec& color, NodeId u) {
    ColorVec out = color;
    const std::uint32_t cu = color[u];
    for (std::size_t v = 0; v < out.size(); ++v)
      if (out[v] > cu || (out[v] == cu && v != u)) ++out[v];
    return out;
  }

  /// Are the cell members pairwise interchangeable twins (identical op —
  /// guaranteed by equal color — and identical pred/succ *node sets*)?
  /// Then every transposition is an automorphism: one branch suffices,
  /// weighted by the cell size.
  bool twins(const std::vector<NodeId>& cell) const {
    auto sorted = [](std::span<const NodeId> row) {
      std::vector<NodeId> v(row.begin(), row.end());
      std::sort(v.begin(), v.end());
      return v;
    };
    const auto preds0 = sorted(c_.dag().pred(cell[0]));
    const auto succs0 = sorted(c_.dag().succ(cell[0]));
    for (std::size_t i = 1; i < cell.size(); ++i)
      if (sorted(c_.dag().pred(cell[i])) != preds0 ||
          sorted(c_.dag().succ(cell[i])) != succs0)
        return false;
    return true;
  }

  void search(ColorVec color, std::uint64_t weight) {
    const std::size_t ncolors = refine(color);
    if (ncolors == n_) {
      leaf(color, weight);
      return;
    }
    // Target: the first (smallest color) non-singleton cell — an
    // isomorphism-invariant choice.
    std::vector<std::size_t> cell_size(ncolors, 0);
    for (const std::uint32_t cu : color) ++cell_size[cu];
    std::uint32_t target = 0;
    while (cell_size[target] < 2) ++target;
    std::vector<NodeId> cell;
    for (NodeId u = 0; u < n_; ++u)
      if (color[u] == target) cell.push_back(u);

    if (twins(cell)) {
      search(individualize(color, cell[0]), weight * cell.size());
      return;
    }
    for (const NodeId u : cell) search(individualize(color, u), weight);
  }

  void leaf(const ColorVec& color, std::uint64_t weight) {
    CCMM_CHECK(++leaves_ < (1u << 22),
               "canonical_form: pathological symmetry (leaf budget)");
    // Encode the relabeled computation directly into a scratch buffer —
    // byte-for-byte what encode_computation(apply_relabeling(c_, color))
    // would produce, without materializing the relabeled Computation.
    for (NodeId u = 0; u < n_; ++u) by_color_[color[u]] = u;
    enc_.assign(1, static_cast<char>(n_));
    for (const NodeId u : by_color_)
      enc_.append(op_codes_, op_at_[u], op_at_[u + 1] - op_at_[u]);
    const std::size_t adj = enc_.size();
    enc_.append((n_ * (n_ - 1) / 2 + 7) / 8, '\0');
    for (NodeId u = 0; u < n_; ++u)
      for (const NodeId v : c_.dag().succ(u)) {
        const std::size_t i = color[u];
        const std::size_t j = color[v];
        CCMM_ASSERT(i < j);  // discrete level-respecting colorings only
        // Bit index in the row-major i < j upper-triangle stream.
        const std::size_t b = i * (n_ - 1) - i * (i - 1) / 2 + (j - i - 1);
        enc_[adj + b / 8] = static_cast<char>(
            static_cast<unsigned char>(enc_[adj + b / 8]) |
            (1u << (7 - b % 8)));
      }
    if (!best_.has_value() || enc_ < *best_) {
      best_ = enc_;
      best_map_.assign(color.begin(), color.end());
      best_weight_ = weight;
    } else if (enc_ == *best_) {
      // A second minimal leaf differs from the first by an automorphism;
      // the weighted count of minimal leaves is exactly |Aut|.
      best_weight_ += weight;
    }
  }

  const Computation& c_;
  const std::size_t n_;
  std::vector<std::uint32_t> level_;
  std::optional<std::string> best_;
  std::vector<NodeId> best_map_;
  std::uint64_t best_weight_ = 0;
  std::uint64_t leaves_ = 0;
  std::string enc_;  // leaf() scratch encoding buffer
  std::vector<NodeId> by_color_;  // leaf() scratch: canonical id -> node
  // Node u's op bytes, as encode_computation writes them:
  // op_codes_[op_at_[u], op_at_[u + 1]).
  std::string op_codes_;
  std::vector<std::size_t> op_at_;
  // refine() scratch.
  std::vector<std::vector<std::uint32_t>> sig_;
  std::vector<NodeId> idx_;
  ColorVec refined_;
  std::vector<std::uint32_t> nb_;
};

}  // namespace

Computation apply_relabeling(const Computation& c,
                             const std::vector<NodeId>& map) {
  const std::size_t n = c.node_count();
  CCMM_CHECK(map.size() == n, "relabeling map size mismatch");
  DagBuilder d(n);
  for (NodeId u = 0; u < n; ++u)
    for (const NodeId v : c.dag().succ(u)) {
      CCMM_CHECK(map[u] < map[v],
                 "relabeling must be topologically admissible");
      d.add_edge(map[u], map[v]);
    }
  std::vector<Op> ops(n);
  for (NodeId u = 0; u < n; ++u) ops[map[u]] = c.op(u);
  return Computation(d.build(), std::move(ops));
}

ObserverFunction transport_observer(const ObserverFunction& phi,
                                    const std::vector<NodeId>& map) {
  CCMM_CHECK(phi.node_count() == map.size(),
             "observer transport: node count mismatch");
  ObserverFunction out(phi.node_count());
  for (const Location l : phi.active_locations())
    for (NodeId u = 0; u < phi.node_count(); ++u) {
      const NodeId v = phi.get(l, u);
      if (v != kBottom) out.set(l, map[u], map[v]);
    }
  return out;
}

CanonicalForm canonical_form(const Computation& c) {
  const std::size_t n = c.node_count();
  CanonicalForm out;
  if (n == 0) {
    out.encoding = encode_computation(c);
    return out;
  }
  CCMM_CHECK(n <= 128, "canonical_form limited to <= 128 nodes");

  // Weakly connected components: canonicalize each independently, then
  // glue in sorted-encoding order (edges never cross components, so any
  // concatenation of admissible per-component orders is admissible).
  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](NodeId u) {
    while (parent[u] != u) u = parent[u] = parent[parent[u]];
    return u;
  };
  for (NodeId u = 0; u < n; ++u)
    for (const NodeId v : c.dag().succ(u)) parent[find(u)] = find(v);

  std::size_t ncomps = 0;
  for (NodeId u = 0; u < n; ++u) ncomps += find(u) == u ? 1 : 0;
  if (ncomps == 1) {
    // Weakly connected: canonicalize in place, no induced copy.
    auto res = ComponentCanonicalizer(c).run();
    out.encoding = std::move(res.encoding);
    out.map = std::move(res.map);
    out.automorphisms = res.automorphisms;
    return out;
  }

  // Roots are dense node ids, so a flat vector indexes the components.
  std::vector<std::size_t> comp_of_root(n, SIZE_MAX);
  std::vector<std::vector<NodeId>> members;
  members.reserve(ncomps);
  for (NodeId u = 0; u < n; ++u) {
    const NodeId r = find(u);
    if (comp_of_root[r] == SIZE_MAX) {
      comp_of_root[r] = members.size();
      members.emplace_back();
    }
    members[comp_of_root[r]].push_back(u);
  }

  struct Comp {
    std::string encoding;
    std::vector<std::pair<NodeId, NodeId>> assignment;  // (global, local canon)
    std::uint64_t automorphisms;
  };
  std::vector<Comp> comps;
  comps.reserve(members.size());
  for (const auto& nodes : members) {
    DynBitset keep(n);
    for (const NodeId u : nodes) keep.set(u);
    std::vector<NodeId> old_to_new;
    const Computation sub = c.induced(keep, &old_to_new);
    auto res = ComponentCanonicalizer(sub).run();
    Comp comp;
    comp.encoding = std::move(res.encoding);
    comp.automorphisms = res.automorphisms;
    for (const NodeId u : nodes)
      comp.assignment.emplace_back(u, res.map[old_to_new[u]]);
    comps.push_back(std::move(comp));
  }
  std::stable_sort(comps.begin(), comps.end(), [](const Comp& a, const Comp& b) {
    return a.encoding < b.encoding;
  });

  out.map.resize(n);
  NodeId offset = 0;
  out.automorphisms = 1;
  std::size_t run = 0;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    for (const auto& [global, local] : comps[i].assignment)
      out.map[global] = offset + local;
    offset += static_cast<NodeId>(comps[i].assignment.size());
    out.automorphisms = mul_sat(out.automorphisms, comps[i].automorphisms);
    // Identical components may be permuted among themselves: multiply by
    // the factorial of each run of equal encodings.
    run = (i > 0 && comps[i].encoding == comps[i - 1].encoding) ? run + 1 : 1;
    out.automorphisms = mul_sat(out.automorphisms, run);
  }
  out.encoding = encode_computation(apply_relabeling(c, out.map));
  return out;
}

std::string canonical_key(const Computation& c) {
  return canonical_form(c).encoding;
}

std::uint64_t linear_extension_count(const Dag& dag) {
  const std::size_t n = dag.node_count();
  CCMM_CHECK(n <= 20, "linear_extension_count limited to <= 20 nodes");
  if (n == 0) return 1;
  std::vector<std::uint64_t> pred_mask(n, 0);
  for (NodeId v = 0; v < n; ++v)
    for (const NodeId u : dag.pred(v)) pred_mask[v] |= std::uint64_t{1} << u;
  const std::uint64_t full = (std::uint64_t{1} << n) - 1;
  std::unordered_map<std::uint64_t, std::uint64_t> memo;
  const std::function<std::uint64_t(std::uint64_t)> rec =
      [&](std::uint64_t placed) -> std::uint64_t {
    if (placed == full) return 1;
    const auto it = memo.find(placed);
    if (it != memo.end()) return it->second;
    std::uint64_t total = 0;
    for (std::size_t u = 0; u < n; ++u) {
      const std::uint64_t bit = std::uint64_t{1} << u;
      if ((placed & bit) == 0 && (pred_mask[u] & ~placed) == 0)
        total += rec(placed | bit);
    }
    memo.emplace(placed, total);
    return total;
  };
  return rec(0);
}

std::uint64_t orbit_size(const Computation& c) {
  const CanonicalForm cf = canonical_form(c);
  const std::uint64_t e = linear_extension_count(c.dag());
  CCMM_ASSERT(cf.automorphisms > 0 && e % cf.automorphisms == 0);
  return e / cf.automorphisms;
}

std::vector<DagClassShard> dag_class_shards(const UniverseSpec& spec) {
  // Level 1 of the two-level dedup: skip dags isomorphic to an earlier
  // dag. Every computation on a skipped dag is isomorphic to a
  // computation on the retained representative (relabel the ops along
  // the dag isomorphism), so no class is lost and the expensive
  // per-labeling canonicalization runs on |dag classes| * |labelings|
  // inputs instead of |dags| * |labelings|.
  std::vector<DagClassShard> out;
  for (std::size_t n = 0; n <= spec.max_nodes; ++n) {
    std::unordered_set<std::string> dag_seen;
    for_each_topo_dag(n, [&](const Dag& dag) {
      const Computation bare(dag, std::vector<Op>(n, Op::nop()));
      if (!dag_seen.insert(canonical_key(bare)).second) return true;
      out.push_back({n, dag, linear_extension_count(dag)});
      return true;
    });
  }
  return out;
}

bool for_each_class_in_shard(
    const DagClassShard& shard, const UniverseSpec& spec,
    const std::function<bool(Computation&&, std::uint64_t)>& visit) {
  // Level 2: canonicalize every labeling of the shard's dag, one visit
  // per class. The seen-set is shard-local by design: isomorphic
  // computations share a dag class, so no class can first appear under
  // one retained dag and again under another.
  const LabelingSpec ls{shard.n, spec.nlocations, spec.include_nop,
                        spec.max_writes_per_location};
  std::unordered_set<std::string> seen;
  bool keep_going = true;
  // One dag copy (and one reachability closure) shared across all the
  // labelings; only the op labels swap per iteration.
  Computation c(shard.dag, std::vector<Op>(shard.n, Op::nop()));
  for_each_labeling(ls, [&](const std::vector<Op>& ops) {
    c.set_ops(ops);
    CanonicalForm cf = canonical_form(c);
    if (!seen.insert(cf.encoding).second) return true;  // class visited
    CCMM_ASSERT(cf.automorphisms > 0 &&
                shard.linear_extensions % cf.automorphisms == 0);
    keep_going = visit(apply_relabeling(c, cf.map),
                       shard.linear_extensions / cf.automorphisms);
    return keep_going;
  });
  return keep_going;
}

bool for_each_computation_up_to_iso(
    const UniverseSpec& spec,
    const std::function<bool(const Computation&, std::uint64_t)>& visit) {
  for (const DagClassShard& shard : dag_class_shards(spec))
    if (!for_each_class_in_shard(shard, spec,
                                 [&](Computation&& rep, std::uint64_t mult) {
                                   return visit(rep, mult);
                                 }))
      return false;
  return true;
}

bool for_each_pair_up_to_iso(
    const UniverseSpec& spec,
    const std::function<bool(const Computation&, const ObserverFunction&,
                             std::uint64_t)>& visit) {
  return for_each_computation_up_to_iso(
      spec, [&](const Computation& rep, std::uint64_t mult) {
        bool keep_going = true;
        for_each_observer(rep, [&](const ObserverFunction& phi) {
          keep_going = visit(rep, phi, mult);
          return keep_going;
        });
        return keep_going;
      });
}

}  // namespace ccmm
