#include "models/qdag.hpp"

#include <cstdint>

#include "core/suite.hpp"
#include "util/check.hpp"
#include "util/str.hpp"

namespace ccmm {

const char* dag_pred_name(DagPred p) {
  switch (p) {
    case DagPred::kNN:
      return "NN";
    case DagPred::kNW:
      return "NW";
    case DagPred::kWN:
      return "WN";
    case DagPred::kWW:
      return "WW";
  }
  return "?";
}

std::string QDagViolation::to_string() const {
  std::string us = (u == kBottom) ? "_" : format("%u", u);
  return format("Q-dag violation at location %u: u=%s, v=%u, w=%u", loc,
                us.c_str(), v, w);
}

namespace {

void report(QDagViolation* out, Location l, NodeId u, NodeId v, NodeId w) {
  if (out != nullptr) *out = {l, u, v, w};
}

/// Shared body of the cubic custom-predicate scan (validity pre-checked).
bool custom_scan(const Computation& c, const ObserverFunction& phi,
                 const QPredicate& q, QDagViolation* violation) {
  const Dag& dag = c.dag();
  const std::size_t n = c.node_count();
  for (const Location l : phi.active_locations()) {
    for (NodeId w = 0; w < n; ++w) {
      const NodeId x = phi.get(l, w);
      for (NodeId v = 0; v < n; ++v) {
        if (!dag.precedes(v, w)) continue;
        if (phi.get(l, v) == x) continue;
        // u ranges over ancestors of v plus ⊥.
        if (x == kBottom && q(c, l, kBottom, v, w)) {
          report(violation, l, kBottom, v, w);
          return false;
        }
        for (NodeId u = 0; u < n; ++u) {
          if (!dag.precedes(u, v)) continue;
          if (phi.get(l, u) != x) continue;
          if (q(c, l, u, v, w)) {
            report(violation, l, u, v, w);
            return false;
          }
        }
      }
    }
  }
  return true;
}

/// The triple behind the kernel's first violation of `pred`, at the first
/// location violating it: the witness's node v and Φ-block, with w the
/// block's first member after v, and u its writer (WN/WW), ⊥ (B_⊥), or
/// its first member before v (NN/NW).
QDagViolation first_violation(const PreparedPair& p, DagPred pred) {
  const std::uint32_t bit = dag_pred_bit(pred);
  const bool u_writes = pred == DagPred::kWN || pred == DagPred::kWW;
  const Computation& c = p.computation();
  const ObserverFunction& phi = p.observer();
  for (const auto& lp : p.locations()) {
    if (p.violated_at(lp, bit) == 0) continue;
    const LocState::Witness wit = p.run_kernel(lp, bit).witness(bit);
    const NodeId x = wit.block == 0 ? kBottom : lp.writers[wit.block - 1];
    NodeId u = u_writes ? x : kBottom;
    NodeId w = kBottom;
    for (NodeId y = 0; y < p.node_count(); ++y) {
      if (phi.get(lp.loc, y) != x) continue;
      if (u == kBottom && x != kBottom && c.precedes(y, wit.v)) u = y;
      if (w == kBottom && c.precedes(wit.v, y)) w = y;
    }
    return {lp.loc, u, wit.v, w};
  }
  CCMM_CHECK(false, "no location violates the model");
  return {};
}

}  // namespace

std::uint32_t dag_pred_bit(DagPred pred) {
  switch (pred) {
    case DagPred::kNN:
      return kSuiteNN;
    case DagPred::kNW:
      return kSuiteNW;
    case DagPred::kWN:
      return kSuiteWN;
    case DagPred::kWW:
      return kSuiteWW;
  }
  return 0;
}

bool qdag_consistent(const Computation& c, const ObserverFunction& phi,
                     DagPred pred, QDagViolation* violation) {
  return qdag_consistent_prepared(prepare_pair(c, phi), pred, violation);
}

bool qdag_consistent_prepared(const PreparedPair& p, DagPred pred,
                              QDagViolation* violation) {
  if (p.violated(dag_pred_bit(pred)) == 0) return true;
  if (violation != nullptr && p.valid())
    *violation = first_violation(p, pred);
  return false;
}

bool qdag_consistent_custom(const Computation& c, const ObserverFunction& phi,
                            const QPredicate& q, QDagViolation* violation) {
  return qdag_consistent_custom_prepared(prepare_pair(c, phi), q, violation);
}

bool qdag_consistent_custom_prepared(const PreparedPair& p, const QPredicate& q,
                                     QDagViolation* violation) {
  if (!p.valid()) return false;
  return custom_scan(p.computation(), p.observer(), q, violation);
}

std::string cube_name(CubeSpec spec) {
  std::string out = "Q[";
  out += spec.u_writes ? 'W' : 'N';
  out += spec.v_writes ? 'W' : 'N';
  out += spec.w_writes ? 'W' : 'N';
  out += ']';
  return out;
}

std::optional<DagPred> named_corner(CubeSpec spec) {
  if (spec.w_writes) return std::nullopt;
  if (spec.u_writes) return spec.v_writes ? DagPred::kWW : DagPred::kWN;
  return spec.v_writes ? DagPred::kNW : DagPred::kNN;
}

bool cube_consistent(const Computation& c, const ObserverFunction& phi,
                     CubeSpec spec) {
  return cube_consistent_prepared(prepare_pair(c, phi), spec);
}

bool cube_consistent_prepared(const PreparedPair& p, CubeSpec spec) {
  if (const auto pred = named_corner(spec))
    return qdag_consistent_prepared(p, *pred);
  // A w-constrained corner is vacuous for a valid observer: if w writes
  // l, Φ(l,w) = w (2.3), so a u with Φ(l,u) = w would precede the write
  // it observes (2.2), and ⊥ never equals w.
  return p.valid();
}

std::vector<CubeSpec> all_cube_corners() {
  std::vector<CubeSpec> out;
  for (const bool u : {false, true})
    for (const bool v : {false, true})
      for (const bool w : {false, true}) out.push_back({u, v, w});
  return out;
}

bool for_each_qdag_member_observer(
    const Computation& c, DagPred pred,
    const std::function<bool(const ObserverFunction&)>& visit) {
  const Dag& dag = c.dag();
  const std::size_t n = c.node_count();
  const std::vector<NodeId> topo = dag.topological_order();
  const bool v_must_write = pred == DagPred::kNW || pred == DagPred::kWW;
  const bool u_must_write = pred == DagPred::kWN || pred == DagPred::kWW;

  // One backtracking state per written location (Condition 20.1 and
  // Definition 2 both constrain the columns independently, so members
  // are exactly the cross product of per-location consistent columns).
  struct ColumnSearch {
    Location loc;
    std::vector<std::vector<NodeId>> choices;  // per topo position
    std::vector<NodeId> val;                   // by node id; kBottom if unset
    std::vector<DynBitset> phi_inv;            // Φ⁻¹(x) by writer node id
  };
  std::vector<ColumnSearch> locs;
  for (const Location l : c.written_locations()) {
    ColumnSearch st;
    st.loc = l;
    st.val.assign(n, kBottom);
    st.phi_inv.assign(n, DynBitset(n));
    st.choices.resize(n);
    const std::vector<NodeId> ws = c.writers(l);
    for (std::size_t pos = 0; pos < n; ++pos) {
      const NodeId u = topo[pos];
      if (c.op(u).writes(l)) {
        st.choices[pos] = {u};  // condition 2.3: writes observe themselves
        continue;
      }
      st.choices[pos].push_back(kBottom);
      for (const NodeId w : ws)
        if (!c.precedes(u, w)) st.choices[pos].push_back(w);  // 2.1 + 2.2
    }
    locs.push_back(std::move(st));
  }

  // Would assigning Φ(l, w) = x violate 20.1? Every triple u ≺ v ≺ w is
  // checked when its maximum w is assigned; all of anc(w) already holds
  // final values then, so a failing prefix has no consistent completion
  // and the subtree is pruned. For v ≺ w outside x's block, a violation
  // needs some u ∈ anc(v) ∪ {⊥} with Φ(l,u) = x and Q(l,u,v,w): under
  // WN/WW, Q forces u to write l, and a writer observes itself, so
  // u = x and the test collapses to x ≠ ⊥ ∧ x ≺ v; under NN/NW, u = ⊥
  // qualifies when x = ⊥, else Φ⁻¹(x) (maintained incrementally) must
  // meet anc(v). NW/WW only quantify over v that write l.
  const auto violates = [&](const ColumnSearch& st, NodeId w, NodeId x) {
    bool bad = false;
    dag.ancestors(w).for_each([&](std::size_t vi) {
      if (bad) return;
      const auto v = static_cast<NodeId>(vi);
      if (st.val[v] == x) return;
      if (v_must_write && !c.op(v).writes(st.loc)) return;
      if (u_must_write) {
        bad = x != kBottom && dag.precedes(x, v);
        return;
      }
      if (x == kBottom) {
        bad = true;
        return;
      }
      bad = dag.ancestors(v).intersects(st.phi_inv[x]);
    });
    return bad;
  };

  ObserverFunction phi(n);
  // Depth-first over (location, topo position); reaching past the last
  // location means every column is complete and consistent. Returns
  // false iff visit stopped the enumeration.
  std::function<bool(std::size_t, std::size_t)> dfs =
      [&](std::size_t li, std::size_t pos) -> bool {
    if (li == locs.size()) return visit(phi);
    ColumnSearch& st = locs[li];
    if (pos == n) return dfs(li + 1, 0);
    const NodeId u = topo[pos];
    for (const NodeId x : st.choices[pos]) {
      if (violates(st, u, x)) continue;
      st.val[u] = x;
      if (x != kBottom) st.phi_inv[x].set(u);
      phi.set(st.loc, u, x);
      const bool go_on = dfs(li, pos + 1);
      st.val[u] = kBottom;
      if (x != kBottom) st.phi_inv[x].reset(u);
      phi.set(st.loc, u, kBottom);
      if (!go_on) return false;
    }
    return true;
  };
  return dfs(0, 0);
}

}  // namespace ccmm
