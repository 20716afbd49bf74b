// ccmm/dag/precedence_oracle.hpp
//
// Pluggable precedence oracles: answer the strict-reachability query
// u ≺ v without forcing every consumer through Dag::ensure_closure(),
// the O(n²)-bit transitive closure that caps post-mortem checking at
// toy trace sizes. Three implementations cover the practical regimes:
//
//  * ClosureOracle — the frozen bitset closure. O(n²) bits to build,
//    O(1) queries. The small-n fast path and the test oracle every
//    other implementation is pinned against.
//  * SpOrderOracle — English/Hebrew interval labels for series-parallel
//    dags (the order-maintenance idiom of Bender et al. and the Cilk
//    race detectors): two linear extensions whose intersection is the
//    partial order, valid because fork/join dags have order dimension
//    two. O(n) space, O(n) build from the SpStructure sidecar that
//    proc::CilkProgram records, O(1) queries.
//  * ChainDecompositionOracle — a greedy path cover plus per-node
//    chain-index vectors for general dags. O(n·k) space and build for
//    k chains, O(1) queries. The mid-scale option when no SP parse
//    exists and n is past the closure's quadratic wall.
//
// All oracles answer exactly Dag::precedes, including the paper's
// ⊥ convention (⊥ ≺ v for every real node v, ⊥ ⊀ ⊥).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dag/dag.hpp"

namespace ccmm {

struct SpStructure;  // core/sp_structure.hpp (header-only sidecar)

class PrecedenceOracle {
 public:
  virtual ~PrecedenceOracle() = default;

  /// Short implementation name for reports: "closure", "sp-order",
  /// "chain".
  [[nodiscard]] virtual const char* kind() const noexcept = 0;

  [[nodiscard]] virtual std::size_t node_count() const noexcept = 0;

  /// Strict precedence u ≺ v, with Dag::precedes' ⊥ convention.
  [[nodiscard]] virtual bool precedes(NodeId u, NodeId v) const = 0;

  /// Reflexive precedence u ≼ v (⊥ ≼ ⊥ is false, matching Dag::preceq's
  /// domain: ⊥ is not a node).
  [[nodiscard]] bool preceq(NodeId u, NodeId v) const {
    return u == v ? u != kBottom : precedes(u, v);
  }

  /// Dag-incomparability u ∥ v — the race engines' query shape. The
  /// default costs two precedes() probes; implementations whose labels
  /// answer both directions at once (SP-order) override it.
  [[nodiscard]] virtual bool incomparable(NodeId u, NodeId v) const {
    return u != v && !precedes(u, v) && !precedes(v, u);
  }

  /// Batched strict precedence: out[i] = precedes(us[i], vs[i]) for the
  /// k pairs. Precondition (CCMM_ASSERTed by implementations that
  /// vectorize): every id is a real node — no kBottom — which the
  /// streaming validity pass guarantees. The default is the scalar
  /// loop; SpOrderOracle overrides it with an AVX2 rank-gather when the
  /// runtime dispatch allows.
  virtual void precedes_batch(const NodeId* us, const NodeId* vs,
                              std::size_t k, std::uint8_t* out) const {
    for (std::size_t i = 0; i < k; ++i) out[i] = precedes(us[i], vs[i]) ? 1 : 0;
  }

  /// Approximate bytes held by the oracle's own tables (excludes the
  /// dag). Lets auto-selection pick the cheaper structure.
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;
};

/// The frozen-closure oracle: freezes `dag`'s reachability cache at
/// construction (so parallel consumers never race the lazy build) and
/// answers from the bitset rows. Non-owning: `dag` must outlive it.
class ClosureOracle final : public PrecedenceOracle {
 public:
  explicit ClosureOracle(const Dag& dag);

  [[nodiscard]] const char* kind() const noexcept override {
    return "closure";
  }
  [[nodiscard]] std::size_t node_count() const noexcept override {
    return dag_->node_count();
  }
  [[nodiscard]] bool precedes(NodeId u, NodeId v) const override {
    return dag_->precedes(u, v);
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    const std::size_t n = dag_->node_count();
    return n * n / 4;  // desc + anc bitset rows
  }

 private:
  const Dag* dag_;
};

/// Two linear extensions whose intersection is the dag's partial order:
/// u ≺ v iff u comes before v in both. Correct exactly for dags of
/// order dimension ≤ 2 — in particular every series-parallel dag. The
/// generic core of the SP-order oracle; constructible directly from any
/// two such extensions for testing.
class SpOrderOracle final : public PrecedenceOracle {
 public:
  /// `english[u]` / `hebrew[u]` are the positions of node u in the two
  /// extensions (both permutations of 0..n-1).
  SpOrderOracle(std::vector<std::uint32_t> english,
                std::vector<std::uint32_t> hebrew);

  [[nodiscard]] const char* kind() const noexcept override {
    return "sp-order";
  }
  [[nodiscard]] std::size_t node_count() const noexcept override {
    return english_.size();
  }
  [[nodiscard]] bool precedes(NodeId u, NodeId v) const override {
    if (u == kBottom) return v != kBottom;
    if (v == kBottom || u == v) return false;
    CCMM_ASSERT(u < english_.size() && v < english_.size());
    return english_[u] < english_[v] && hebrew_[u] < hebrew_[v];
  }
  [[nodiscard]] bool incomparable(NodeId u, NodeId v) const override {
    // Two linear extensions: u ∥ v iff the extensions disagree on the
    // pair's order. One comparison per extension, no second probe.
    if (u == kBottom || v == kBottom || u == v) return false;
    CCMM_ASSERT(u < english_.size() && v < english_.size());
    return (english_[u] < english_[v]) != (hebrew_[u] < hebrew_[v]);
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return 2 * english_.size() * sizeof(std::uint32_t);
  }

  /// Eight pairs per step via AVX2 rank gathers (falls back to the
  /// scalar loop under CCMM_NO_SIMD or on non-AVX2 hardware). Requires
  /// real node ids — see the base-class contract.
  void precedes_batch(const NodeId* us, const NodeId* vs, std::size_t k,
                      std::uint8_t* out) const override;

  [[nodiscard]] const std::vector<std::uint32_t>& english() const noexcept {
    return english_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& hebrew() const noexcept {
    return hebrew_;
  }

 private:
  std::vector<std::uint32_t> english_;
  std::vector<std::uint32_t> hebrew_;
};

/// Build the SP-order oracle from a recorded series-parallel parse. The
/// English labels come from the serial-elision replay (a spawned child
/// executes entirely at its spawn point, then the continuation — the
/// SP-bags order); the Hebrew labels from the mirror replay (the
/// continuation runs to the sync, then the children in reverse spawn
/// order, then the join node). Both are linear extensions of the dag,
/// and their intersection is the dag's order because fork/join parses
/// have order dimension two. O(n) time and space.
[[nodiscard]] std::unique_ptr<SpOrderOracle> make_sp_order_oracle(
    const SpStructure& sp);

/// Greedy path cover + per-node chain-index vectors. Nodes are covered
/// by k vertex-disjoint dag paths (chains); up_[u][c] stores the
/// smallest position on chain c among nodes reachable from u, so
///   u ≺ v  ⇔  u ≠ v ∧ up_[u][chain(v)] ≤ pos(v).
/// Build is O((n+m)·k), memory O(n·k); k is the greedy cover size
/// (≥ the dag's width, typically close to it on layered dags).
class ChainDecompositionOracle final : public PrecedenceOracle {
 public:
  explicit ChainDecompositionOracle(const Dag& dag);
  /// The greedy chain cover alone, O(n + m): enough to price the
  /// n × chains table (table_bytes()) before build_table() pays for it.
  struct CoverOnly {};
  ChainDecompositionOracle(const Dag& dag, CoverOnly);
  void build_table(const Dag& dag);
  /// memory_bytes() once the table is built.
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return (chain_of_.size() * (nchains_ + 2)) * sizeof(std::uint32_t);
  }

  [[nodiscard]] const char* kind() const noexcept override { return "chain"; }
  [[nodiscard]] std::size_t node_count() const noexcept override {
    return chain_of_.size();
  }
  [[nodiscard]] bool precedes(NodeId u, NodeId v) const override {
    if (u == kBottom) return v != kBottom;
    if (v == kBottom || u == v) return false;
    CCMM_ASSERT(u < chain_of_.size() && v < chain_of_.size());
    return up_[static_cast<std::size_t>(u) * nchains_ + chain_of_[v]] <=
           pos_[v];
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return (up_.size() + chain_of_.size() + pos_.size()) *
           sizeof(std::uint32_t);
  }

  [[nodiscard]] std::size_t chain_count() const noexcept { return nchains_; }

 private:
  std::size_t nchains_ = 0;
  std::vector<std::uint32_t> chain_of_;  // node -> chain index
  std::vector<std::uint32_t> pos_;       // node -> position on its chain
  std::vector<std::uint32_t> up_;        // n * nchains_, row-major by node
};

/// Which oracle to use for a dag of this size/shape. kAuto picks:
/// SP-order when an SP parse is supplied; else the closure below
/// `closure_threshold` nodes; else whichever of chain/closure holds
/// less memory.
enum class OracleChoice : std::uint8_t { kAuto, kClosure, kSpOrder, kChain };

struct OracleOptions {
  OracleChoice choice = OracleChoice::kAuto;
  /// Below this node count kAuto stays on the closure (building it is
  /// cheap and its queries are branch-free).
  std::size_t closure_threshold = 2048;
};

/// Build an oracle for `dag`, optionally using a recorded SP parse
/// (pass nullptr when none exists). CCMM_CHECKs that an explicit
/// kSpOrder request actually has a parse to build from.
[[nodiscard]] std::unique_ptr<PrecedenceOracle> make_oracle(
    const Dag& dag, const SpStructure* sp, const OracleOptions& options = {});

}  // namespace ccmm
