// tests/reference_models.hpp — the built-in models straight from the
// paper's definitions, as the references the compiled models
// (models/compile.hpp) are compared with:
//  * Definitions 17 (SC) and 18 (LC) by search over every topological
//    sort of the dag;
//  * Condition 20.1 (the four named Q-dag models and every cube corner)
//    by the literal quadruple loop over u ≺ v ≺ w, u ranging over
//    V ∪ {⊥};
//  * the freshness axiom of WN⁺/NN⁺ by a loop over (writer, node)
//    pairs.
//  * Definition 18 once more by the block quotient over the dag's
//    closure (lc_by_quotient), polynomial, for dags too wide to
//    enumerate their sorts; tests cross-check it with lc_by_definition
//    on the exhaustive universes.
// None of them touches a prepared pair or a checker: only
// validate_observer, the dag's precedence, for_each_topological_sort
// and last_writer. Exponential, quartic or cubic; small inputs only.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/last_writer.hpp"
#include "core/observer.hpp"
#include "core/suite.hpp"
#include "dag/topsort.hpp"
#include "models/qdag.hpp"

namespace ccmm::test {

/// Definition 18: for every location, some topological sort's
/// last-writer function reproduces Φ's column.
inline bool lc_by_definition(const Computation& c,
                             const ObserverFunction& phi) {
  if (!is_valid_observer(c, phi)) return false;
  for (const Location l : phi.active_locations()) {
    bool found = false;
    for_each_topological_sort(c.dag(), [&](const std::vector<NodeId>& t) {
      const ObserverFunction w = last_writer(c, t);
      for (NodeId u = 0; u < c.node_count(); ++u)
        if (w.get(l, u) != phi.get(l, u)) return true;
      found = true;
      return false;
    });
    if (!found) return false;
  }
  return true;
}

/// Definition 18 by the block quotient (DESIGN.md): per active location,
/// order the blocks B_⊥ = Φ⁻¹(⊥) and B_x = Φ⁻¹(x) by "some member of a
/// precedes some member of b". A topological sort explains the column
/// iff that order has no cycle and nothing precedes B_⊥.
inline bool lc_by_quotient(const Computation& c,
                           const ObserverFunction& phi) {
  if (!is_valid_observer(c, phi)) return false;
  const std::size_t n = c.node_count();
  for (const Location l : phi.active_locations()) {
    // A block is named by its observed value, B_⊥ by n.
    const auto block = [&](NodeId u) -> std::size_t {
      const NodeId x = phi.get(l, u);
      return x == kBottom ? n : x;
    };
    std::vector<std::vector<bool>> before(n + 1,
                                          std::vector<bool>(n + 1, false));
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = 0; v < n; ++v)
        if (block(u) != block(v) && c.precedes(u, v))
          before[block(u)][block(v)] = true;
    for (std::size_t a = 0; a < n; ++a)
      if (before[a][n]) return false;
    // Warshall: a cycle shows as a block before itself.
    for (std::size_t k = 0; k <= n; ++k)
      for (std::size_t a = 0; a <= n; ++a)
        if (before[a][k])
          for (std::size_t b = 0; b <= n; ++b)
            if (before[k][b]) before[a][b] = true;
    for (std::size_t a = 0; a <= n; ++a)
      if (before[a][a]) return false;
  }
  return true;
}

/// Definition 17: one topological sort's last-writer function is Φ.
inline bool sc_by_definition(const Computation& c,
                             const ObserverFunction& phi) {
  if (!is_valid_observer(c, phi)) return false;
  bool found = false;
  for_each_topological_sort(c.dag(), [&](const std::vector<NodeId>& t) {
    if (last_writer(c, t) == phi) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

/// Q(l, u, v, w) of Definition 20; u may be kBottom.
using ReferencePredicate =
    std::function<bool(Location, NodeId, NodeId, NodeId)>;

/// Condition 20.1, literally: Φ is valid and for every location l and
/// u ≺ v ≺ w with Q(l, u, v, w), Φ(l,u) = Φ(l,w) ⇒ Φ(l,v) = Φ(l,u).
/// u ranges over V ∪ {⊥}; ⊥ precedes every node and Φ(l, ⊥) = ⊥.
inline bool qdag_by_definition(const Computation& c,
                               const ObserverFunction& phi,
                               const ReferencePredicate& q) {
  if (!is_valid_observer(c, phi)) return false;
  const std::size_t n = c.node_count();
  for (const Location l : phi.active_locations()) {
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId w = 0; w < n; ++w) {
        if (!c.precedes(v, w)) continue;
        for (NodeId u = 0; u <= n; ++u) {
          const NodeId uu = (u == n) ? kBottom : u;
          if (uu != kBottom && !c.precedes(uu, v)) continue;
          if (!q(l, uu, v, w)) continue;
          const NodeId at_u = (uu == kBottom) ? kBottom : phi.get(l, uu);
          if (at_u == phi.get(l, w) && phi.get(l, v) != at_u) return false;
        }
      }
    }
  }
  return true;
}

/// Does node x (possibly ⊥) write location l? ⊥ writes nothing.
inline bool writes_at(const Computation& c, NodeId x, Location l) {
  return x != kBottom && c.op(x).writes(l);
}

/// The paper's four named predicates, as Definition 20 states them:
/// NN: true; NW: op(v) = W(l); WN: op(u) = W(l); WW: both.
inline ReferencePredicate named_predicate(const Computation& c,
                                          DagPred pred) {
  return [&c, pred](Location l, NodeId u, NodeId v, NodeId) {
    switch (pred) {
      case DagPred::kNN:
        return true;
      case DagPred::kNW:
        return writes_at(c, v, l);
      case DagPred::kWN:
        return writes_at(c, u, l);
      case DagPred::kWW:
        return writes_at(c, u, l) && writes_at(c, v, l);
    }
    return false;
  };
}

/// A cube corner's predicate: every coordinate the corner constrains
/// writes l.
inline ReferencePredicate corner_predicate(const Computation& c,
                                           CubeSpec corner) {
  return [&c, corner](Location l, NodeId u, NodeId v, NodeId w) {
    return (!corner.u_writes || writes_at(c, u, l)) &&
           (!corner.v_writes || writes_at(c, v, l)) &&
           (!corner.w_writes || writes_at(c, w, l));
  };
}

inline bool qdag_by_definition(const Computation& c,
                               const ObserverFunction& phi, DagPred pred) {
  return qdag_by_definition(c, phi, named_predicate(c, pred));
}

/// The freshness axiom: no node that some write to l precedes observes
/// ⊥ at l.
inline bool fresh_by_definition(const Computation& c,
                                const ObserverFunction& phi) {
  if (phi.node_count() != c.node_count()) return false;
  for (NodeId w = 0; w < c.node_count(); ++w) {
    if (!c.op(w).is_write()) continue;
    for (NodeId u = 0; u < c.node_count(); ++u)
      if (c.precedes(w, u) && phi.get(c.op(w).loc, u) == kBottom)
        return false;
  }
  return true;
}

/// The eight built-ins' suite bits, in builtin_model_specs() order.
inline constexpr std::uint32_t kBuiltinBits[] = {
    kSuiteSC, kSuiteLC, kSuiteNN,     kSuiteNW,
    kSuiteWN, kSuiteWW, kSuiteWNPlus, kSuiteNNPlus};

/// Membership in the built-in model of one suite bit, by definition.
inline bool builtin_by_definition(const Computation& c,
                                  const ObserverFunction& phi,
                                  std::uint32_t suite_bit) {
  switch (suite_bit) {
    case kSuiteSC:
      return sc_by_definition(c, phi);
    case kSuiteLC:
      return lc_by_definition(c, phi);
    case kSuiteNN:
      return qdag_by_definition(c, phi, DagPred::kNN);
    case kSuiteNW:
      return qdag_by_definition(c, phi, DagPred::kNW);
    case kSuiteWN:
      return qdag_by_definition(c, phi, DagPred::kWN);
    case kSuiteWW:
      return qdag_by_definition(c, phi, DagPred::kWW);
    case kSuiteWNPlus:
      return qdag_by_definition(c, phi, DagPred::kWN) &&
             fresh_by_definition(c, phi);
    case kSuiteNNPlus:
      return qdag_by_definition(c, phi, DagPred::kNN) &&
             fresh_by_definition(c, phi);
  }
  return false;
}

/// Does (c, φ) satisfy every bit of `bits` — the per-location kernel's
/// vocabulary: LC, the four corners, FRESH and the composites — by
/// definition? LC by the block quotient, so it scales past small
/// universes. An invalid observer satisfies none.
inline bool kernel_bits_by_definition(const Computation& c,
                                      const ObserverFunction& phi,
                                      std::uint32_t bits) {
  if (!is_valid_observer(c, phi)) return false;
  const std::pair<std::uint32_t, DagPred> corners[] = {
      {kSuiteNN | kSuiteNNPlus, DagPred::kNN},
      {kSuiteNW, DagPred::kNW},
      {kSuiteWN | kSuiteWNPlus, DagPred::kWN},
      {kSuiteWW, DagPred::kWW}};
  for (const auto& [mask, pred] : corners)
    if ((bits & mask) != 0 && !qdag_by_definition(c, phi, pred)) return false;
  if ((bits & (kSuiteFresh | kSuiteWNPlus | kSuiteNNPlus)) != 0 &&
      !fresh_by_definition(c, phi))
    return false;
  return (bits & kSuiteLC) == 0 || lc_by_quotient(c, phi);
}

/// The eight built-ins' memberships as a suite-bit mask, by definition —
/// the reference for whole-family classification.
inline std::uint32_t classify_by_definition(const Computation& c,
                                            const ObserverFunction& phi) {
  std::uint32_t mask = 0;
  for (const std::uint32_t bit : kBuiltinBits)
    if (builtin_by_definition(c, phi, bit)) mask |= bit;
  return mask;
}

}  // namespace ccmm::test
