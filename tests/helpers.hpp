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

}  // namespace ccmm::test
