// ccmm/models/spec.hpp
//
// Declarative model specs. A consistency model, in the fragment this
// repo's checkers decide, is a conjunction of four axiom families over
// a (computation, observer) pair:
//
//  * Q-dag triple axioms (Definition 20 cube corners): for all
//    l and u ≺ v ≺ w with the named coordinates writing l,
//    Φ(l,u) = Φ(l,w) ⇒ Φ(l,v) = Φ(l,u);
//  * freshness (the [BFJ+96a] strengthening behind WN⁺/NN⁺): a node
//    with a writer-ancestor never observes ⊥;
//  * order axioms: some family of topological sorts must explain the
//    observer's columns as last-writer functions — per location
//    (Definition 18, LC), per declared location *scope* (partition
//    consistency à la Cheng–Higham–Kawash: one witness sort jointly
//    explains every location of a scope), or globally (Definition 17,
//    SC).
//
// ModelSpec is the value type; models/compile.hpp lowers a spec onto
// the prepared checkers. The surface syntax (read_model_specs) is
// line-oriented like io/text.hpp:
//
//     model PC2
//     scope 0 1        # one witness sort for locations {0, 1}
//     scope 2 3
//     axiom WNN        # a cube corner: u must write; v, w free
//     fresh
//     end
//
// `order location` / `order global` declare the LC- and SC-shaped
// order axioms; `scope` lines imply `order scoped`. Locations not
// covered by any scope are implicitly singleton scopes, so scoped
// order always implies per-location order. Parse errors carry 1-based
// line numbers (SpecParseError), matching the trace parser's style.
//
// spec_implies gives the *derived lattice*: a sound syntactic
// implication test between specs (a ⇒ b means compiled(a) ⊆
// compiled(b)). ModelRegistry::classify (models/compile.hpp) prunes
// with it; on the built-ins it yields the paper's Figure 1 lattice
// (tests pin the agreement).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/op.hpp"
#include "models/qdag.hpp"

namespace ccmm {

/// Which family of serialization witnesses the spec demands.
enum class OrderAxiom : std::uint8_t {
  kNone = 0,      // no order axiom
  kPerLocation,   // ∀l ∃T: Φ(l,·) = W_T(l,·)            (LC-shaped)
  kScoped,        // ∀ scope S ∃T ∀l ∈ S: Φ(l,·) = W_T(l,·); locations
                  // outside every scope are singleton scopes
  kGlobal,        // ∃T ∀l: Φ(l,·) = W_T(l,·)            (SC-shaped)
};

[[nodiscard]] const char* order_axiom_name(OrderAxiom order);

/// One declared scope: a set of locations that must be explained by a
/// single witness sort. Kept sorted and duplicate-free by normalize().
struct ScopeSpec {
  std::vector<Location> locations;
  [[nodiscard]] bool operator==(const ScopeSpec&) const = default;
};

struct ModelSpec {
  std::string name;
  OrderAxiom order = OrderAxiom::kNone;
  /// Non-empty iff order == kScoped. Scopes are pairwise disjoint.
  std::vector<ScopeSpec> scopes;
  /// Q-dag triple axioms (conjunction). CubeSpec{u,v,w} constrains
  /// which coordinates must write the location (qdag.hpp).
  std::vector<CubeSpec> axioms;
  bool freshness = false;

  /// Canonicalize: sort/dedupe scope members and axioms, drop empty
  /// and singleton scopes (a singleton scope is just the implicit
  /// per-location axiom), demote kScoped with no surviving scope to
  /// kPerLocation, and drop axioms that are vacuous for valid observers
  /// (every w-constrained corner) or implied by a stronger sibling or
  /// by the order axiom. Throws std::invalid_argument on overlapping
  /// scopes or a kScoped order with no scopes at construction sites
  /// that skipped validate().
  void normalize();

  /// Structural well-formedness (pre-normalize): non-empty name,
  /// scopes only with kScoped, pairwise-disjoint scope members.
  /// Returns an error message, empty when fine.
  [[nodiscard]] std::string validate() const;

  /// Structural fingerprint of the *normalized* spec — stable across
  /// runs, used to key membership caches (two specs with equal digests
  /// denote the same model by construction).
  [[nodiscard]] std::string digest() const;

  /// Surface-syntax rendering (parseable by read_model_specs).
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const ModelSpec&) const = default;
};

/// Does cube axiom `a` imply cube axiom `b` (as constraints on the same
/// pair)? An axiom quantifies over triples satisfying its write
/// constraints, so fewer constraints = more triples = stronger:
/// a ⇒ b iff constraints(a) ⊆ constraints(b).
[[nodiscard]] bool cube_axiom_implies(CubeSpec a, CubeSpec b);

/// Sound syntactic implication on order axioms: global ≥ scoped ≥
/// per-location ≥ none; between two scoped axioms, a ⇒ b iff every
/// scope of b is contained in some scope of a.
[[nodiscard]] bool order_axiom_implies(OrderAxiom a,
                                       const std::vector<ScopeSpec>& a_scopes,
                                       OrderAxiom b,
                                       const std::vector<ScopeSpec>& b_scopes);

/// The derived lattice: true ⇒ every pair of compiled(a) is a pair of
/// compiled(b). Complete on the bundled specs (the paper's Theorem 21
/// lattice falls out) but conservative in general — false means
/// "not derivable syntactically", not a counterexample. Key rules:
///  * a per-location-or-stronger order axiom implies every cube axiom
///    (LC ⊆ NN ⊆ every corner) and freshness (a witness sort's last
///    writer is never ⊥ past a writer-ancestor);
///  * cube axioms imply weaker cube axioms (cube_axiom_implies);
///  * order axioms compare by order_axiom_implies.
[[nodiscard]] bool spec_implies(const ModelSpec& a, const ModelSpec& b);

/// Line-numbered spec parse failure, in the trace-parser style:
/// "spec line 12: unknown directive 'axoim'".
class SpecParseError : public std::runtime_error {
 public:
  SpecParseError(std::size_t line, const std::string& message)
      : std::runtime_error(format_message(line, message)), line_(line) {}
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  static std::string format_message(std::size_t line,
                                    const std::string& message);
  std::size_t line_;
};

/// Parse a spec pack: a sequence of `model NAME ... end` blocks.
/// Throws SpecParseError with a 1-based line number on malformed
/// input. Returned specs are validated and normalized.
[[nodiscard]] std::vector<ModelSpec> read_model_specs(std::istream& in);

/// Convenience: parse from a string.
[[nodiscard]] std::vector<ModelSpec> read_model_specs(const std::string& text);

/// The eight bundled specs, in suite-bit order (core/suite.hpp): SC,
/// LC, NN, NW, WN, WW, WN+, NN+. These are the built-in models: compiled
/// (models/compile.hpp), they are the only objects for them —
/// builtin_model(bit) returns them from ModelRegistry::bundled() — and
/// tests compare them with the paper's definitions. A registry whose
/// first entries are these classifies with bit i = suite bit i.
[[nodiscard]] const std::vector<ModelSpec>& builtin_model_specs();

/// The first six built-ins, SC through WW: the models of the paper's
/// Figure 1, which the race classifier and the DRF certificate compare.
[[nodiscard]] std::vector<ModelSpec> core_model_specs();

/// The bundled spec-pack clients (first externally-shaped models):
///  * coherence-only "COH": per-location order and nothing else —
///    definitionally equal to LC (the same digest, so the same cache
///    tag);
///  * partition consistency "PC2": locations {0,1} and {2,3} each
///    jointly serialized (Cheng–Higham–Kawash shaped);
///  * "TSO-like": WN ∩ NW ∩ freshness — writes serialize against both
///    read-after-write and write-after-read triple patterns and reads
///    never miss a program-order-earlier write, but no global sort is
///    demanded.
[[nodiscard]] ModelSpec coherence_spec();
[[nodiscard]] ModelSpec partition_spec(std::string name,
                                       std::vector<ScopeSpec> scopes);
[[nodiscard]] ModelSpec tso_like_spec();

/// The three clients above as one pack (what examples/specs/pack.spec
/// contains).
[[nodiscard]] std::vector<ModelSpec> bundled_spec_pack();

}  // namespace ccmm
