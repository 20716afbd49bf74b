// ccmm/enumerate/universe.hpp
//
// Bounded universes of (computation, observer function) pairs. A
// universe is the extensional ground the theory's quantifiers range over
// when we verify theorems mechanically: "for all computations" becomes
// "for all computations with ≤ max_nodes nodes over nlocations locations
// (node ids topologically sorted)".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "models/relations.hpp"

namespace ccmm {

struct UniverseSpec {
  /// Computations with 0..max_nodes nodes are included.
  std::size_t max_nodes = 3;
  std::size_t nlocations = 1;
  bool include_nop = true;
  /// Structural filter forwarded to the labeling enumeration.
  std::size_t max_writes_per_location = SIZE_MAX;
};

/// Enumerate every computation of the universe (all sizes 0..max_nodes,
/// all dags with topologically sorted ids, all admissible labelings).
/// visit returns false to stop; returns true on full enumeration.
bool for_each_computation(const UniverseSpec& spec,
                          const std::function<bool(const Computation&)>& visit);

/// Enumerate every (computation, valid observer function) pair.
bool for_each_pair(
    const UniverseSpec& spec,
    const std::function<bool(const Computation&, const ObserverFunction&)>&
        visit);

/// Materialize the pair universe (CCMM_CHECKs against absurd sizes).
[[nodiscard]] std::vector<CPhi> build_universe(const UniverseSpec& spec);

/// Total number of computations / pairs in the universe.
[[nodiscard]] std::uint64_t computation_count(const UniverseSpec& spec);
[[nodiscard]] std::uint64_t pair_count(const UniverseSpec& spec);

/// Compact canonical byte encodings, usable as hash-map keys. Two
/// computations (in topologically-sorted id layout) are equal iff their
/// encodings are equal; likewise for observer functions of equal-sized
/// computations.
[[nodiscard]] std::string encode_computation(const Computation& c);
[[nodiscard]] std::string encode_observer(const ObserverFunction& phi);

namespace detail {

/// Append one op's bytes to a computation encoding: its kind, then its
/// whole location id as a base-128 varint (low 7 bits first, 0x80 marks
/// a continued byte), so ids below 128 take the single byte they always
/// did. encode_computation and canonical_form's leaf encoder both write
/// ops through it, which keeps them byte-identical.
void append_op_code(std::string& out, const Op& o);

}  // namespace detail

}  // namespace ccmm
