// tests/helpers.hpp — shared fixtures: the paper's example pairs (from
// models/examples.hpp) and membership assertion helpers.
#pragma once

#include <gtest/gtest.h>

#include "core/last_writer.hpp"
#include "core/observer.hpp"
#include "dag/topsort.hpp"
#include "models/examples.hpp"
#include "models/location_consistency.hpp"
#include "models/qdag.hpp"
#include "models/sequential_consistency.hpp"
#include "models/suite.hpp"
#include "models/wn_plus.hpp"

namespace ccmm::test {

using examples::ExamplePair;

inline ExamplePair figure2_pair() { return examples::figure2(); }
inline ExamplePair figure3_pair() { return examples::figure3(); }
inline ExamplePair lc_not_sc_pair() { return examples::lc_not_sc(); }

/// Membership across all six models, for table-driven assertions.
inline void expect_memberships(const ExamplePair& p) {
  EXPECT_EQ(qdag_consistent(p.c, p.phi, DagPred::kNN), p.in_nn)
      << p.name << " vs NN";
  EXPECT_EQ(qdag_consistent(p.c, p.phi, DagPred::kNW), p.in_nw)
      << p.name << " vs NW";
  EXPECT_EQ(qdag_consistent(p.c, p.phi, DagPred::kWN), p.in_wn)
      << p.name << " vs WN";
  EXPECT_EQ(qdag_consistent(p.c, p.phi, DagPred::kWW), p.in_ww)
      << p.name << " vs WW";
  EXPECT_EQ(location_consistent(p.c, p.phi), p.in_lc) << p.name << " vs LC";
  EXPECT_EQ(sequentially_consistent(p.c, p.phi), p.in_sc)
      << p.name << " vs SC";
}

/// The eight built-ins' membership as a suite-bit mask, from eight
/// independent hand-fused membership calls (no shared preparation, no
/// lattice pruning) — the reference for whole-family classification.
inline std::uint32_t classify_by_calls(const Computation& c,
                                       const ObserverFunction& phi) {
  std::uint32_t mask = 0;
  if (SequentialConsistencyModel::instance()->contains(c, phi))
    mask |= kSuiteSC;
  if (location_consistent(c, phi)) mask |= kSuiteLC;
  if (qdag_consistent(c, phi, DagPred::kNN)) mask |= kSuiteNN;
  if (qdag_consistent(c, phi, DagPred::kNW)) mask |= kSuiteNW;
  if (qdag_consistent(c, phi, DagPred::kWN)) mask |= kSuiteWN;
  if (qdag_consistent(c, phi, DagPred::kWW)) mask |= kSuiteWW;
  if (wn_plus_consistent(c, phi)) mask |= kSuiteWNPlus;
  if (observer_is_fresh(c, phi) && qdag_consistent(c, phi, DagPred::kNN))
    mask |= kSuiteNNPlus;
  return mask;
}

}  // namespace ccmm::test
