// ccmm/enumerate/cached_model.hpp
//
// Orbit-level membership memoization. CachedModel wraps any
// MemoryModel and keys its answers in the global membership_cache() by
// the canonical encoding of the computation plus the observer function
// transported onto the canonical representative. Model membership is
// isomorphism-invariant (tests/test_isomorphism pins this for all six
// checkers), so a hit computed for ANY labeled member of an orbit
// answers every other member in O(1) — the SC/LC/NN/NW/WN/WW checkers
// and analyze's race classification all query through this layer on
// their exhaustive paths.
#pragma once

#include <cstdint>
#include <memory>

#include "core/memory_model.hpp"
#include "enumerate/canonical.hpp"

namespace ccmm {

class CachedModel final : public MemoryModel {
 public:
  explicit CachedModel(std::shared_ptr<const MemoryModel> inner);

  /// Transparent: reports the inner model's name so tables and reports
  /// are unchanged by wrapping.
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] bool contains(const Computation& c,
                              const ObserverFunction& phi) const override;

  /// Same orbit-keyed memoization; on a miss the prepared pair is handed
  /// straight to the inner model, so the caller's preparation is not
  /// wasted on cache bookkeeping.
  [[nodiscard]] bool contains_prepared(const PreparedPair& p) const override;

  [[nodiscard]] std::optional<ObserverFunction> any_observer(
      const Computation& c) const override {
    return inner_->any_observer(c);
  }

  [[nodiscard]] const std::shared_ptr<const MemoryModel>& inner() const {
    return inner_;
  }

 private:
  std::shared_ptr<const MemoryModel> inner_;
  std::string tag_;  // inner name + separator: disambiguates the shared cache
};

/// Wrap a model in the global membership cache.
[[nodiscard]] std::shared_ptr<const MemoryModel> cached(
    std::shared_ptr<const MemoryModel> inner);

/// The eight built-in models' membership bitmask (suite bits,
/// core/suite.hpp), classified by a registry of builtin_model_specs()
/// with unbounded searches and memoized in classification_cache() under
/// the same orbit key. One cached bitmask replaces eight per-model
/// membership entries.
[[nodiscard]] std::uint32_t cached_classification(const Computation& c,
                                                  const ObserverFunction& phi);

}  // namespace ccmm
