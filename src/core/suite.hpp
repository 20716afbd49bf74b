// ccmm/core/suite.hpp
//
// The suite bits: one bit per built-in model, in the order of
// builtin_model_specs() (models/spec.hpp) — SC, LC, NN, NW, WN, WW,
// WN⁺, NN⁺ — plus the freshness axiom alone. They are the vocabulary
// of the per-location kernel (core/loc_incremental.hpp), which the
// streaming engines and prepared pairs ask for verdicts as a mask of
// them. Whole-family classification of a prepared
// pair is ModelRegistry::classify (models/compile.hpp): over a registry
// whose first entries are the built-ins, bit i of its answer is suite
// bit i.
#pragma once

#include <cstdint>

namespace ccmm {

/// One bit per built-in model, in builtin_model_specs() order.
enum SuiteBit : std::uint32_t {
  kSuiteSC = 1u << 0,
  kSuiteLC = 1u << 1,
  kSuiteNN = 1u << 2,
  kSuiteNW = 1u << 3,
  kSuiteWN = 1u << 4,
  kSuiteWW = 1u << 5,
  kSuiteWNPlus = 1u << 6,
  kSuiteNNPlus = 1u << 7,
  /// The freshness axiom alone (models/wn_plus.hpp): not a model of its
  /// own, but a first-class bit so compiled specs can request it from
  /// the kernel, where WN⁺/NN⁺ are decided as WN ∧ FRESH / NN ∧ FRESH.
  kSuiteFresh = 1u << 8,
};

/// "SC" for kSuiteSC etc.; "?" for a non-bit.
[[nodiscard]] const char* suite_bit_name(std::uint32_t bit);

}  // namespace ccmm
