#include "util/span_set.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace ccmm {
namespace {

TEST(SpanSet, StartsEmptyWithNoStorage) {
  SpanSet s(1000);
  EXPECT_EQ(s.universe_size(), 1000u);
  EXPECT_TRUE(s.is_empty_rep());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.none());
  EXPECT_FALSE(s.any());
  EXPECT_EQ(s.memory_bytes(), 0u);
  for (std::size_t i = 0; i < 1000; i += 37) EXPECT_FALSE(s.test(i));
}

TEST(SpanSet, SetResetAcrossWordBoundaries) {
  SpanSet s(300);
  for (const std::size_t i : {0u, 63u, 64u, 65u, 127u, 128u, 299u}) {
    s.set(i);
    EXPECT_TRUE(s.test(i));
  }
  EXPECT_EQ(s.count(), 7u);
  s.reset(64);
  EXPECT_FALSE(s.test(64));
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(65));
  EXPECT_EQ(s.count(), 6u);
  // Resetting an already-clear bit (and one outside the blob) is a no-op.
  s.reset(64);
  s.reset(200);
  EXPECT_EQ(s.count(), 6u);
}

TEST(SpanSet, FullRepresentationNeedsNoStorage) {
  SpanSet s(129);
  s.make_full();
  EXPECT_TRUE(s.is_full_rep());
  EXPECT_EQ(s.count(), 129u);
  EXPECT_EQ(s.memory_bytes(), 0u);
  for (std::size_t i = 0; i < 129; ++i) EXPECT_TRUE(s.test(i));
  // Punching a hole forces the blob representation but keeps content.
  s.reset(70);
  EXPECT_FALSE(s.is_full_rep());
  EXPECT_FALSE(s.test(70));
  EXPECT_EQ(s.count(), 128u);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(128));
}

TEST(SpanSet, BlobGrowsInBothDirections) {
  // Start in the middle, then extend left and right; the blob must
  // re-anchor without losing the earlier bits.
  SpanSet s(100000);
  s.set(50000);
  s.set(80000);  // grow right
  s.set(100);    // grow left
  s.set(99999);  // grow right again
  s.set(0);      // all the way left
  for (const std::size_t i : {0u, 100u, 50000u, 80000u, 99999u})
    EXPECT_TRUE(s.test(i));
  EXPECT_EQ(s.count(), 5u);
  // A clustered set's storage is proportional to the dirty interval,
  // but the slack growth is geometric — a full-universe interval is the
  // worst case.
  EXPECT_LE(s.memory_bytes(), 4 * (100000 / 8));
}

TEST(SpanSet, LeftToRightFillStaysCheap) {
  SpanSet s(1 << 16);
  for (std::size_t i = 0; i < (1 << 16); ++i) s.set(i);
  EXPECT_EQ(s.count(), std::size_t{1} << 16);
  s.normalize();
  EXPECT_TRUE(s.is_full_rep());
  EXPECT_EQ(s.memory_bytes(), 0u);
}

TEST(SpanSet, NormalizeCollapsesAndShavesZeros) {
  SpanSet s(256);
  s.set(128);
  s.reset(128);  // all-zero blob
  EXPECT_FALSE(s.is_empty_rep());
  s.normalize();
  EXPECT_TRUE(s.is_empty_rep());

  SpanSet t(256);
  for (std::size_t i = 0; i < 256; ++i) t.set(i);
  EXPECT_FALSE(t.is_full_rep());
  t.normalize();
  EXPECT_TRUE(t.is_full_rep());

  // Zero words at the blob's ends are shaved but interior holes stay.
  SpanSet u(512);
  u.set(100);
  u.set(300);
  u.reset(100);
  u.normalize();
  EXPECT_FALSE(u.is_empty_rep());
  EXPECT_FALSE(u.is_full_rep());
  EXPECT_TRUE(u.test(300));
  EXPECT_EQ(u.count(), 1u);
}

TEST(SpanSet, TailWordEdges) {
  // Universe sizes at and around the word boundary: make_full and
  // normalize must agree on the tail mask.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u}) {
    SpanSet s(n);
    for (std::size_t i = 0; i < n; ++i) s.set(i);
    EXPECT_EQ(s.count(), n) << n;
    s.normalize();
    EXPECT_TRUE(s.is_full_rep()) << n;
    SpanSet f(n);
    f.make_full();
    EXPECT_EQ(s, f) << n;
    f.reset(n - 1);
    EXPECT_EQ(f.count(), n - 1) << n;
  }
  // The degenerate universe: make_full on nothing is still empty.
  SpanSet z(0);
  z.make_full();
  EXPECT_TRUE(z.is_empty_rep());
  EXPECT_EQ(z.count(), 0u);
}

TEST(SpanSet, EqualityIgnoresRepresentation) {
  SpanSet full_rep(192);
  full_rep.make_full();
  SpanSet blob_rep(192);
  for (std::size_t i = 0; i < 192; ++i) blob_rep.set(i);
  EXPECT_EQ(full_rep, blob_rep);  // un-normalized all-ones blob == kFull

  SpanSet empty_rep(192);
  SpanSet zero_blob(192);
  zero_blob.set(5);
  zero_blob.reset(5);
  EXPECT_EQ(empty_rep, zero_blob);

  SpanSet a(192), b(192);
  a.set(10);
  b.set(10);
  EXPECT_EQ(a, b);
  b.set(11);
  EXPECT_FALSE(a == b);

  // Different universes are never equal, whatever the content.
  EXPECT_FALSE(SpanSet(10) == SpanSet(11));
}

TEST(SpanSet, ForEachVisitsInOrder) {
  SpanSet s(100000);
  const std::vector<std::size_t> want = {3, 63, 64, 6000, 99999};
  for (const std::size_t i : want) s.set(i);
  std::vector<std::size_t> got;
  s.for_each([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);

  SpanSet f(70);
  f.make_full();
  std::size_t visits = 0, sum = 0;
  f.for_each([&](std::size_t i) {
    ++visits;
    sum += i;
  });
  EXPECT_EQ(visits, 70u);
  EXPECT_EQ(sum, 70u * 69u / 2);
}

TEST(SpanSet, BitsetRoundTrip) {
  Rng rng(91);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.below(500);
    DynBitset b(n);
    for (int k = 0; k < 40; ++k)
      if (rng.chance(0.6)) b.set(rng.below(n));
    const SpanSet s = SpanSet::from_bitset(b);
    EXPECT_EQ(s.universe_size(), n);
    EXPECT_EQ(s.count(), b.count());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(s.test(i), b.test(i));
    EXPECT_EQ(s.to_bitset(), b);
  }
  // The extreme representations round-trip too.
  DynBitset empty(128), full(97);
  full.set_all();
  EXPECT_EQ(SpanSet::from_bitset(empty).to_bitset(), empty);
  const SpanSet sf = SpanSet::from_bitset(full);
  EXPECT_TRUE(sf.is_full_rep());
  EXPECT_EQ(sf.to_bitset(), full);
}

TEST(SpanSet, RandomizedAgainstReference) {
  Rng rng(517);
  for (int round = 0; round < 15; ++round) {
    const std::size_t n = 1 + rng.below(800);
    SpanSet s(n);
    std::vector<bool> ref(n, false);
    for (int k = 0; k < 300; ++k) {
      const std::size_t i = rng.below(n);
      if (rng.chance(0.7)) {
        s.set(i);
        ref[i] = true;
      } else {
        s.reset(i);
        ref[i] = false;
      }
      if (rng.chance(0.05)) s.normalize();
    }
    std::size_t want = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(s.test(i), ref[i]);
      want += ref[i] ? 1 : 0;
    }
    EXPECT_EQ(s.count(), want);
    const SpanSet back = SpanSet::from_bitset(s.to_bitset());
    EXPECT_EQ(back, s);
  }
}

TEST(SpanSet, ResetUniverseKeepsCapacityNotContent) {
  // One set refilled over universes of varying size behaves like a
  // fresh set every time.
  Rng rng(518);
  SpanSet s;
  for (int round = 0; round < 30; ++round) {
    const std::size_t n = 1 + rng.below(2000);
    s.reset_universe(n);
    EXPECT_EQ(s.universe_size(), n);
    EXPECT_TRUE(s.is_empty_rep());
    EXPECT_EQ(s.count(), 0u);
    std::vector<bool> ref(n, false);
    for (int k = 0; k < 200; ++k) {
      const std::size_t i = rng.below(n);
      const bool on = rng.chance(0.8);
      if (on)
        s.set(i);
      else
        s.reset(i);
      ref[i] = on;
    }
    std::size_t want = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(s.test(i), ref[i]) << "round " << round << " bit " << i;
      want += ref[i] ? 1 : 0;
    }
    EXPECT_EQ(s.count(), want);
  }

  // A right-to-left fill grows the blob downward; the same fill after a
  // reset slides the words up inside the kept capacity, allocating
  // nothing.
  SpanSet t(5000);
  const auto fill = [&t] {
    for (std::size_t i = 4000; i > 1000; i -= 7) t.set(i);
  };
  fill();
  const std::size_t bytes = t.memory_bytes();
  t.reset_universe(5000);
  EXPECT_EQ(t.memory_bytes(), bytes);
  fill();
  EXPECT_EQ(t.memory_bytes(), bytes);
  for (std::size_t i = 0; i < 5000; ++i)
    EXPECT_EQ(t.test(i), i > 1000 && i <= 4000 && (4000 - i) % 7 == 0) << i;
}

}  // namespace
}  // namespace ccmm
