// ccmm/models/compile.hpp
//
// The model compiler: lower a declarative ModelSpec (models/spec.hpp)
// into a CompiledModel whose contains_prepared plan reuses the whole
// prepared-pair machinery. Lowering rules:
//
//   axiom XYZ (w-independent)  -> the kernel's XY mask bit
//   fresh                      -> the kernel's freshness bit
//   order location             -> the kernel's LC bit
//   order scoped               -> the LC bit, then serialization_check
//                                 per scope
//   order global               -> the LC bit, then sc_check_prepared's
//                                 budgeted search
//
// (normalize() has dropped w-constrained axioms, which are vacuous for
// valid observers, so every spec lowers.) The mask bits are the
// per-location kernel's (core/loc_incremental.hpp), and StreamingPlan
// names them: check_prepared asks the PreparedPair for plan.mask — one
// kernel run on the pair answers every bit — and spec_check asks the
// streaming engine for the same mask. Only the order axioms then
// search. Each axiom thus has one implementation, which the one-shot
// names (location_consistent, qdag_consistent, sc_check, …) also run.
//
// A compiled spec is the only object for every built-in model:
// builtin_model(kSuiteLC) is entry 1 of ModelRegistry::bundled(), and
// so on for each suite bit; cube_model(q) compiles the one-axiom spec of
// a cube corner. Tests compare them with the definitions themselves
// (tests/reference_models.hpp) on exhaustive small universes.
//
// ModelRegistry holds compiled models and is the one whole-family
// classifier: it classifies a prepared pair against every entry with
// short-circuiting *derived* from spec_implies (acceptance propagates
// down the lattice, rejection propagates up). Over the built-ins the
// derived lattice is the paper's Figure 1 (SC ⊆ LC ⊆ NN ⊆ {NW, WN} ⊆
// WW; NN⁺ ⊆ NN, WN⁺ ⊆ WN), so the race classifier, the DRF
// certificate and cached_classification all classify through a
// registry whose first entries are builtin_model_specs() — bit i of
// the answer is suite bit i (core/suite.hpp).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/suite.hpp"
#include "models/location_consistency.hpp"
#include "models/sequential_consistency.hpp"
#include "models/spec.hpp"
#include "models/wn_plus.hpp"

namespace ccmm {

struct CompileOptions {
  /// Budget for each serialization search (global or per scope) a
  /// membership query may run. contains() / contains_prepared() abort
  /// (CCMM_CHECK) on exhaustion; check_prepared reports it instead.
  std::size_t sc_budget = SIZE_MAX;
};

/// Membership with explicit budget-exhaustion reporting, for callers
/// (the registry, the anomaly classifier) that must degrade gracefully.
struct CompiledVerdict {
  bool member = false;
  bool exhausted = false;  // a search ran out of budget; member is false
};

class CompiledModel final : public MemoryModel {
 public:
  explicit CompiledModel(ModelSpec spec, const CompileOptions& options = {});

  [[nodiscard]] std::string name() const override { return spec_.name; }
  /// Structural tag: two compiled models with the same normalized spec
  /// share cache entries; same-named models with different axioms never
  /// collide.
  [[nodiscard]] std::string cache_tag() const override;
  [[nodiscard]] bool contains_prepared(const PreparedPair& p) const override;
  /// Pruned enumeration: when the spec carries a Q-dag axiom, that
  /// corner's for_each_qdag_member_observer drives (prefix-pruned
  /// backtracking over columns), filtered by the full plan — the
  /// IntersectionModel pattern. Specs without one (LC, SC, the
  /// w-constrained corners) fall back to generate-and-test.
  bool for_each_member_observer(
      const Computation& c,
      const std::function<bool(const ObserverFunction&)>& visit)
      const override;

  /// contains_prepared with the budget surfaced instead of asserted.
  [[nodiscard]] CompiledVerdict check_prepared(const PreparedPair& p) const;

  [[nodiscard]] const ModelSpec& spec() const { return spec_; }

  /// How the spec lowers onto the per-location kernel, on a prepared
  /// pair and on the streaming large_check path alike.
  struct StreamingPlan {
    /// Suite bits (incl. kSuiteFresh) whose conjunction the kernel must
    /// report for the mask-decidable part of the plan.
    std::uint32_t mask = 0;
    /// Scoped order: per-scope serialization searches remain (plus the
    /// per-location LC verdicts for uncovered locations, folded into
    /// `mask` via kSuiteLC).
    bool scoped = false;
    /// Global order: the full SC search remains after the LC masks.
    bool global = false;
  };
  [[nodiscard]] const StreamingPlan& streaming_plan() const { return plan_; }

 private:
  ModelSpec spec_;
  CompileOptions options_;
  std::vector<DagPred> named_;  // the cube axioms, as named predicates
  StreamingPlan plan_;
};

/// Compile a spec (normalizing a copy first).
[[nodiscard]] std::shared_ptr<const CompiledModel> compile_model(
    ModelSpec spec, const CompileOptions& options = {});

/// The built-in model of one suite bit, kSuiteSC through kSuiteNNPlus:
/// entry i of ModelRegistry::bundled() for bit i. Any other value
/// (kSuiteFresh, zero, several bits) fails a CCMM_CHECK.
[[nodiscard]] std::shared_ptr<const CompiledModel> builtin_model(
    std::uint32_t suite_bit);

/// The Q-dag model of one cube corner: the one-axiom spec named
/// cube_name(spec), compiled.
[[nodiscard]] std::shared_ptr<const CompiledModel> cube_model(CubeSpec spec);

struct RegistryOptions {
  /// Derived-lattice pruning; off = evaluate every entry independently
  /// (the ablation the differential tests run both ways).
  bool short_circuit = true;
};

/// A collection of compiled models plus the implication lattice
/// spec_implies derives between them. Holds at most kCapacity entries
/// so a classification is one bitmask.
class ModelRegistry {
 public:
  static constexpr std::size_t kCapacity = 64;

  struct Entry {
    ModelSpec spec;
    std::shared_ptr<const CompiledModel> model;
  };

  ModelRegistry() = default;

  /// One entry per spec, in order, each compiled with `options`.
  /// Same-named specs keep separate entries (unlike add()), so a
  /// caller's model named like a built-in sits next to the built-in.
  explicit ModelRegistry(std::vector<ModelSpec> specs,
                         const CompileOptions& options = {});

  /// The eight built-in specs followed by the bundled spec pack
  /// (PC2, COH, TSO) — what --list-models prints before any --spec.
  [[nodiscard]] static const ModelRegistry& bundled();

  /// Register (or replace, by name) a spec; returns its index. The
  /// spec is normalized and the implication lattice re-derived.
  std::size_t add(ModelSpec spec, const CompileOptions& options = {});

  [[nodiscard]] const Entry* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Bit i of the result = (p ∈ entries()[i]). Entries are evaluated
  /// weakest-first along the derived lattice; with short_circuit a
  /// rejection by a weaker model decides every stronger one and an
  /// acceptance by a stronger model decides every weaker one without
  /// running its checker (answer-preserving — differentially tested
  /// against the unpruned sweep). Searches run at each entry's compiled
  /// budget; budget-exhausted entries report non-membership and set
  /// *exhausted.
  [[nodiscard]] std::uint64_t classify(const PreparedPair& p,
                                       const RegistryOptions& options = {},
                                       bool* exhausted = nullptr) const;

  /// spec_implies(entries[i], entries[j]) as a row bitmask — the derived
  /// lattice classify() walks, exposed for tests and --list-models.
  [[nodiscard]] std::uint64_t implies_mask(std::size_t i) const {
    return implies_[i];
  }

 private:
  void derive();

  std::vector<Entry> entries_;
  std::vector<std::uint64_t> implies_;     // row i: the j with i ⊆ j
  std::vector<std::uint64_t> implied_by_;  // column i: the j with j ⊆ i
  std::uint32_t masks_ = 0;  // the union of the entries' kernel bits
  std::vector<std::size_t> eval_order_;  // weakest-first topological
};

/// A spec pack that load_spec_models refused: the message names the
/// file (or the model) and the reason.
class SpecLoadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The --spec / --model front end ccmm_check and ccmm_lint share. Reads
/// every spec pack at `spec_paths` into `registry` (replace by name),
/// then resolves `model_names` — or, when empty, every model the packs
/// declared — into the registry's compiled models. Throws
/// SpecLoadError: "cannot open P", "P: spec line N: …" (the parser's
/// line-numbered message), "P: … overflow the model registry …" when a
/// pack would leave more than kCapacity entries, or "unknown model
/// 'X' …".
[[nodiscard]] std::vector<std::shared_ptr<const CompiledModel>>
load_spec_models(ModelRegistry& registry,
                 const std::vector<std::string>& spec_paths,
                 const std::vector<std::string>& model_names);

}  // namespace ccmm
