#include "models/wn_plus.hpp"

#include "models/compile.hpp"

namespace ccmm {

bool observer_is_fresh(const Computation& c, const ObserverFunction& phi) {
  return observer_is_fresh_prepared(prepare_pair(c, phi));
}

bool observer_is_fresh_prepared(const PreparedPair& p) {
  const Computation& c = p.computation();
  const ObserverFunction& phi = p.observer();
  if (phi.node_count() != c.node_count()) return false;
  const Dag& dag = c.dag();
  for (const Location l : c.written_locations()) {
    // Union of descendants of all writers: the nodes a write precedes.
    // The prepared writer lists cover Φ-active locations only, so fall
    // back to the computation for all-⊥ columns (which are exactly the
    // interesting ones for freshness).
    const auto* lp = p.location(l);
    DynBitset& shadow = p.context().scratch_bits(c.node_count());
    if (lp != nullptr) {
      for (const NodeId w : lp->writers) shadow |= dag.descendants(w);
    } else {
      for (const NodeId w : c.writers(l)) shadow |= dag.descendants(w);
    }
    bool ok = true;
    shadow.for_each([&](std::size_t u) {
      if (phi.get(l, static_cast<NodeId>(u)) == kBottom) ok = false;
    });
    if (!ok) return false;
  }
  return true;
}

bool wn_plus_consistent(const Computation& c, const ObserverFunction& phi) {
  return builtin_model(kSuiteWNPlus)->contains(c, phi);
}

}  // namespace ccmm
