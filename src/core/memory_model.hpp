// ccmm/core/memory_model.hpp
//
// Definition 3: a memory model Δ is a set of (computation, observer
// function) pairs containing (ε, Φ_ε). We represent a model *intension-
// ally* as a membership predicate; the enumeration layer materializes the
// extensional set over bounded universes when the theory quantifies over
// all pairs (constructibility, Δ*, model comparison).
//
// Membership is a two-level API. contains(c, phi) is the convenience
// signature; contains_prepared(PreparedPair) is the hot path batch
// consumers use to amortize observer validation, closure freezing and
// Φ⁻¹ block construction across every model probed on one pair.
//
// The paper's models are compiled specs (models/compile.hpp:
// builtin_model, cube_model, compile_model), which implement only the
// prepared level. The classes here are the glue for derived models:
// PredicateModel (fixpoint results, custom Q-dag predicates) and
// IntersectionModel.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/observer.hpp"
#include "core/prepared.hpp"

namespace ccmm {

class MemoryModel {
 public:
  virtual ~MemoryModel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Cache identity: the key prefix the orbit-level membership caches
  /// (enumerate/cached_model.hpp) file this model's answers under. The
  /// default — the display name — is right for models whose name
  /// determines their extension (the paper's fixed checkers). Models
  /// that are *parameterized data*, like compiled specs, must override
  /// with something structural: two differently-parameterized models
  /// sharing a display name must not share cache entries.
  [[nodiscard]] virtual std::string cache_tag() const { return name(); }

  /// Membership test: (c, phi) ∈ Δ. Implementations must accept the empty
  /// computation with its unique observer function. `phi` is not required
  /// to be pre-validated; models reject invalid observer functions.
  ///
  /// The default prepares (c, phi) with a per-thread CheckContext and
  /// delegates to contains_prepared.
  [[nodiscard]] virtual bool contains(const Computation& c,
                                      const ObserverFunction& phi) const;

  /// Membership on a pre-built PreparedPair — same answer as contains()
  /// on the underlying (c, phi), without repeating the shared setup.
  ///
  /// The default bridges back to contains(p.computation(), p.observer())
  /// so third-party models written against the one-level API keep
  /// working unchanged. The two defaults call each other: subclasses
  /// must override at least one.
  [[nodiscard]] virtual bool contains_prepared(const PreparedPair& p) const;

  /// Produce *some* observer function with (c, phi) ∈ Δ, if the
  /// implementation knows how (completeness witness). The default tries
  /// the last-writer function of the canonical topological sort, which
  /// works for every model weaker than sequential consistency.
  [[nodiscard]] virtual std::optional<ObserverFunction> any_observer(
      const Computation& c) const;

  /// Third level of the membership API: enumerate every Φ with
  /// (c, Φ) ∈ Δ. The universe-restriction layer (BoundedModelSet) is a
  /// generate-and-test loop over all valid observers by default, but
  /// models whose violations are detectable on prefixes (the Q-dag
  /// family) override this with a pruned search that never materializes
  /// the rejected bulk — the dominant cost of Δ* universe construction.
  /// visit returns false to stop; returns true on full enumeration.
  /// Implementations must visit each member exactly once; no order is
  /// guaranteed and overrides may differ from the default's order.
  virtual bool for_each_member_observer(
      const Computation& c,
      const std::function<bool(const ObserverFunction&)>& visit) const;
};

/// A model defined by an arbitrary predicate — the glue that lets the
/// constructibility engine treat derived sets (e.g. fixpoint results) as
/// first-class models. Supports both levels: a plain (c, phi) predicate
/// (derived sets rarely profit from preparation, so contains() skips it)
/// or a prepared-pair predicate for checker-backed models.
class PredicateModel final : public MemoryModel {
 public:
  using Pred = std::function<bool(const Computation&, const ObserverFunction&)>;
  using PreparedPred = std::function<bool(const PreparedPair&)>;

  PredicateModel(std::string name, Pred pred)
      : name_(std::move(name)), pred_(std::move(pred)) {
    CCMM_CHECK(pred_ != nullptr, "null predicate");
  }
  PredicateModel(std::string name, PreparedPred pred)
      : name_(std::move(name)), prepared_pred_(std::move(pred)) {
    CCMM_CHECK(prepared_pred_ != nullptr, "null predicate");
  }

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] bool contains(const Computation& c,
                              const ObserverFunction& phi) const override {
    if (pred_) return pred_(c, phi);
    return MemoryModel::contains(c, phi);  // prepare, then forward
  }
  [[nodiscard]] bool contains_prepared(const PreparedPair& p) const override {
    if (prepared_pred_) return prepared_pred_(p);
    return pred_(p.computation(), p.observer());
  }

 private:
  std::string name_;
  Pred pred_;
  PreparedPred prepared_pred_;
};

/// Δ1 ∩ Δ2 (the intersection is the weakest model stronger than both).
/// One preparation serves both operands.
class IntersectionModel final : public MemoryModel {
 public:
  IntersectionModel(std::shared_ptr<const MemoryModel> a,
                    std::shared_ptr<const MemoryModel> b)
      : a_(std::move(a)), b_(std::move(b)) {
    CCMM_CHECK(a_ != nullptr && b_ != nullptr, "null model");
  }

  [[nodiscard]] std::string name() const override {
    return a_->name() + " ∩ " + b_->name();
  }
  [[nodiscard]] bool contains_prepared(const PreparedPair& p) const override {
    return a_->contains_prepared(p) && b_->contains_prepared(p);
  }
  /// Enumerate through the left operand (which may have a pruned search)
  /// and filter by the right one.
  bool for_each_member_observer(
      const Computation& c,
      const std::function<bool(const ObserverFunction&)>& visit)
      const override {
    return a_->for_each_member_observer(c, [&](const ObserverFunction& phi) {
      return !b_->contains(c, phi) || visit(phi);
    });
  }

 private:
  std::shared_ptr<const MemoryModel> a_;
  std::shared_ptr<const MemoryModel> b_;
};

}  // namespace ccmm
