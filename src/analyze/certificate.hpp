// ccmm/analyze/certificate.hpp
//
// DRF ⇒ agreement certificates. On a race-free computation the
// per-location writers are totally ordered and every reader is ordered
// against every writer, so each read has a unique last preceding
// writer. That makes the six models agree on everything a program can
// observe: no model in the hierarchy admits a read of a stale write,
// and the four strong models (SC, LC, NN, NW) admit exactly one read
// behaviour — the deterministic last-writer one, itself accepted by
// all six. (WN and WW additionally tolerate a read MISSING a preceding
// write and returning ⊥ — the original dag-consistency anomaly of
// [BFJ+96b] that the paper's lineage kept revising away; they still
// never produce a wrong value.) The race scan's phase-1 proof
// (per-location writer chains + reader sandwiches,
// analyze/race_oracle.hpp) is a positive, machine-checkable artifact
// of exactly the total-order fact, so when the scan comes back clean
// we emit it as a certificate:
//
//  * a fingerprint binding the certificate to the computation
//    (FNV-1a over node count, ops and edges);
//  * the scan summary (locations, writes, oracle used);
//  * a cross-validation record: sampled bounded ancestor-closure
//    prefixes (downward closed, hence race-free prefixes in the
//    paper's sense) on which every valid observer was enumerated and
//    the six models' checkers, each run on its own (no lattice
//    pruning), confirmed the agreement above — per-observer lattice
//    coherence, no stale reads anywhere, determinism under the four
//    strong models, and the canonical last-writer observer accepted by
//    all six.
//
// verify_drf_certificate re-checks all three parts against a fresh
// computation in O(accesses) oracle queries plus the sampled
// enumeration — far cheaper than re-deriving trust from scratch, and
// independent of the code path that produced the certificate.
#pragma once

#include <optional>
#include <string>

#include "analyze/race_oracle.hpp"
#include "core/computation.hpp"

namespace ccmm::analyze {

struct CertifyOptions {
  /// Race-scan configuration (oracle choice, sharding).
  RaceScanOptions scan;
  /// Prefixes sampled for the model cross-validation.
  std::size_t samples = 16;
  /// Node cap per sampled ancestor-closure prefix (the observer
  /// enumeration is exponential in this).
  std::size_t prefix_node_cap = 9;
  /// Skip sampled prefixes admitting more observers than this.
  std::uint64_t observer_budget = 1u << 12;
  /// Backtracking budget per SC membership query.
  std::size_t sc_budget = 200'000;
  /// Sampling seed; recorded in the certificate so verification can
  /// replay the identical sample set.
  std::uint64_t seed = 0xCC0FFEEDULL;
};

/// Mask of the six models the theorem equates.
inline constexpr std::uint32_t kDrfModelMask = 0x3F;  // SC|LC|NN|NW|WN|WW

struct DrfCertificate {
  std::uint32_t version = 1;
  std::uint64_t fingerprint = 0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t locations = 0;  // locations with a writer and ≥2 accessors
  std::size_t writes = 0;
  std::size_t reads = 0;
  std::string oracle_kind;
  /// Models certified to agree (always kDrfModelMask in version 1).
  std::uint32_t models = kDrfModelMask;
  std::uint64_t seed = 0;
  std::size_t sampled_prefixes = 0;
  std::size_t checked_observers = 0;

  /// Flat single-object JSON (parse_drf_certificate round-trips it).
  [[nodiscard]] std::string to_json() const;
  /// One-paragraph human summary.
  [[nodiscard]] std::string to_string() const;
};

/// FNV-1a over the computation's structure (node count, per-node op
/// kind + location, edge list). O(n + m), no closure.
[[nodiscard]] std::uint64_t computation_fingerprint(const Computation& c);

/// Run the race scan; on race-freedom, cross-validate the theorem on
/// sampled prefixes and return the certificate. Returns nullopt when a
/// race exists (or, defensively, when cross-validation fails — which
/// would indicate a checker bug, not a property of c); `why` receives
/// the reason.
[[nodiscard]] std::optional<DrfCertificate> make_drf_certificate(
    const Computation& c, const CertifyOptions& options = {},
    std::string* why = nullptr);

struct CertificateCheck {
  bool ok = true;
  std::string reason;  // first failure when !ok
};

/// Re-check `cert` against `c`: the fingerprint and structure counts,
/// the race-freedom proof (phase-1 oracle queries only), and the
/// model agreement pass replayed from the certificate's seed.
[[nodiscard]] CertificateCheck verify_drf_certificate(
    const Computation& c, const DrfCertificate& cert,
    const CertifyOptions& options = {});

/// Parse to_json output; nullopt (with `why`) on malformed input.
[[nodiscard]] std::optional<DrfCertificate> parse_drf_certificate(
    const std::string& json, std::string* why = nullptr);

}  // namespace ccmm::analyze
