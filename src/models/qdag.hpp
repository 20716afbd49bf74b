// ccmm/models/qdag.hpp
//
// Definition 20: Q-dag consistency. For a predicate Q on (l, u, v, w),
// the model contains (C, Φ) iff Φ is an observer function for C and for
// all l and u ≺ v ≺ w with Q(l, u, v, w):
//     Φ(l, u) = Φ(l, w)  ⇒  Φ(l, v) = Φ(l, u).
// Here u ranges over V ∪ {⊥} (⊥ precedes every node; a predicate that
// inspects op(u) is false at ⊥). The four named predicates of the paper:
//     NN: true            NW: op(v) = W(l)
//     WN: op(u) = W(l)    WW: op(u) = W(l) ∧ op(v) = W(l)
// NN is the strongest dag-consistent model (Theorem 21); WW is the
// original dag consistency of [BFJ+96b]; WN the revision of [BFJ+96a].
//
// This header holds the checkers only. The models themselves are
// compiled specs (models/compile.hpp): builtin_model(kSuiteNN) and its
// siblings, cube_model(q) for any corner. The four named predicates
// have one implementation, the per-location kernel's mask sweeps
// (core/loc_incremental.hpp): the *_prepared names read the verdict
// bits a PreparedPair keeps (PreparedPair::violated), and the one-shot
// names are prepare_pair wrappers over them. Only the arbitrary
// predicates of Theorem 21 keep a scan of their own, the cubic
// qdag_consistent_custom.
#pragma once

#include <functional>
#include <optional>

#include "core/memory_model.hpp"

namespace ccmm {

enum class DagPred : std::uint8_t { kNN, kNW, kWN, kWW };

[[nodiscard]] const char* dag_pred_name(DagPred p);

/// The suite bit of a named predicate (kSuiteNN for NN, …).
[[nodiscard]] std::uint32_t dag_pred_bit(DagPred p);

/// A witnessing violation of Condition 20.1, for diagnostics.
struct QDagViolation {
  Location loc;
  NodeId u;  // may be kBottom
  NodeId v;
  NodeId w;
  [[nodiscard]] std::string to_string() const;
};

/// Membership test for the four named predicates: qdag_consistent_prepared
/// on prepare_pair(c, phi). If `violation` is non-null and the pair is
/// not in the model, it receives the triple of the kernel's first
/// violation. An invalid observer function is rejected.
[[nodiscard]] bool qdag_consistent(const Computation& c,
                                   const ObserverFunction& phi, DagPred pred,
                                   QDagViolation* violation = nullptr);

/// Same answer on a PreparedPair: the pair's kernel bit for the
/// predicate. The triple, when asked for, comes from the witness of the
/// first violating location: the kernel's node v and Φ-block B, w the
/// first member of B after v, and u = B's writer (WN/WW), ⊥ (B = B_⊥),
/// or the first member of B before v (NN/NW).
[[nodiscard]] bool qdag_consistent_prepared(const PreparedPair& p,
                                            DagPred pred,
                                            QDagViolation* violation = nullptr);

/// A custom predicate Q(c, l, u, v, w); u may be kBottom.
using QPredicate = std::function<bool(const Computation&, Location, NodeId,
                                      NodeId, NodeId)>;

/// Membership test for an arbitrary predicate (the cubic triple scan of
/// qdag_consistent_custom_prepared on prepare_pair(c, phi)).
[[nodiscard]] bool qdag_consistent_custom(const Computation& c,
                                          const ObserverFunction& phi,
                                          const QPredicate& q,
                                          QDagViolation* violation = nullptr);

/// Prepared-pair variant of the cubic scan (skips re-validation).
[[nodiscard]] bool qdag_consistent_custom_prepared(
    const PreparedPair& p, const QPredicate& q,
    QDagViolation* violation = nullptr);

/// Pruned member enumeration for a named predicate: Condition 20.1
/// constrains each location column independently and every violating
/// triple u ≺ v ≺ w lies inside anc(w) ∪ {w}, so a backtracking search
/// that assigns Φ(l, ·) in topological order detects dead prefixes at
/// the node that completes the triple and never expands them. Orders of
/// magnitude fewer candidates than generate-and-test on write-heavy
/// universes. Visits each member of the model on c once; visit returns
/// false to stop (then so does this).
bool for_each_qdag_member_observer(
    const Computation& c, DagPred pred,
    const std::function<bool(const ObserverFunction&)>& visit);

/// The full predicate cube: Definition 20 lets Q inspect all of
/// (u, v, w); the paper's named predicates are the w-independent corner
/// (NN = [NNN], NW = [NWN], WN = [WNN], WW = [WWN]). CubeSpec names a
/// conjunction of "must write l" constraints per coordinate; the
/// remaining four corners ([NNW], [NWW], [WNW], [WWW]) complete the cube
/// the paper's "symmetry suggests we also consider NW" remark opens.
struct CubeSpec {
  bool u_writes = false;
  bool v_writes = false;
  bool w_writes = false;
  [[nodiscard]] bool operator==(const CubeSpec&) const = default;
};

/// "Q[XYZ]" with X/Y/Z ∈ {N, W} for the u/v/w constraints.
[[nodiscard]] std::string cube_name(CubeSpec spec);

/// The paper's named predicate of a w-independent corner (NN = [NNN],
/// NW = [NWN], WN = [WNN], WW = [WWN]); nullopt for the four
/// w-constrained corners, which are vacuous for valid observers: a w
/// that writes l observes itself (2.3), so a u with Φ(l,u) = Φ(l,w)
/// would precede the write it observes (2.2).
[[nodiscard]] std::optional<DagPred> named_corner(CubeSpec spec);

/// Membership test for a cube corner (cube_consistent_prepared on
/// prepare_pair(c, phi)).
[[nodiscard]] bool cube_consistent(const Computation& c,
                                   const ObserverFunction& phi, CubeSpec spec);

/// Prepared-pair variant: a named corner's kernel bit, or validity
/// alone for a w-constrained corner.
[[nodiscard]] bool cube_consistent_prepared(const PreparedPair& p,
                                            CubeSpec spec);

/// All eight corners in lexicographic order (NNN first).
[[nodiscard]] std::vector<CubeSpec> all_cube_corners();

}  // namespace ccmm
