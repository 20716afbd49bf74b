#include "models/wn_plus.hpp"

#include "models/compile.hpp"

namespace ccmm {

bool observer_is_fresh(const Computation& c, const ObserverFunction& phi) {
  return observer_is_fresh_prepared(prepare_pair(c, phi));
}

bool observer_is_fresh_prepared(const PreparedPair& p) {
  return p.violated(kSuiteFresh) == 0;
}

bool wn_plus_consistent(const Computation& c, const ObserverFunction& phi) {
  return builtin_model(kSuiteWNPlus)->contains(c, phi);
}

}  // namespace ccmm
