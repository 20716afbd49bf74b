// The online-serving differential: a CheckSession fed a trace's binary
// records — in any chunking, in any linear-extension arrival order —
// must produce verdicts AND witness strings byte-identical to the
// definitional answer: large_check over tests/reference_trace.hpp's
// observer completion, or the reference validator's rejection. Mid-
// stream, check() must equal the kernel run over the consumed prefix of
// that observer, also across the feed where a location stops being
// witnessed by the arrival order and materializes.
// The second half drives the whole daemon: framing protocol, many
// concurrent clients, reconnects, snapshot/restore, backpressure and
// the /status endpoint, with the *Parallel* cases running under TSan.
#include "trace/session_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "exec/backer.hpp"
#include "exec/sc_memory.hpp"
#include "kernel_harness.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "exec/schedule.hpp"
#include "exec/weak_memory.hpp"
#include "exec/workload.hpp"
#include "dag/generators.hpp"
#include "io/text.hpp"
#include "proc/random_program.hpp"
#include "reference_trace.hpp"
#include "trace/large_check.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

/// Normalize seq to the sorted arrival order so corrupted streams stay
/// seq-ordered however we perturb them.
void renumber(std::vector<BinaryTraceEvent>& recs) {
  for (std::size_t i = 0; i < recs.size(); ++i) recs[i].seq = i;
}

/// Point some read events at other writes of their location — stale
/// ones violate models, forward ones exercise the oracle and the
/// validity scan. Mirrors test_loc_incremental's observer corruption
/// at the trace level.
void corrupt_records(const Computation& c, std::vector<BinaryTraceEvent>& recs,
                     Rng& rng, int flips) {
  for (int k = 0; k < flips; ++k) {
    const std::size_t i = rng.below(recs.size());
    const NodeId u = recs[i].node;
    if (!c.op(u).is_read()) continue;
    const std::vector<NodeId> ws = c.writers(c.op(u).loc);
    if (ws.empty()) continue;
    recs[i].observed = ws[rng.below(ws.size())];
  }
}

void expect_reports_identical(const LargeCheckReport& got,
                              const LargeCheckReport& want,
                              const std::string& ctx) {
  ASSERT_EQ(got.checked, want.checked) << ctx;
  ASSERT_EQ(got.valid_observer, want.valid_observer)
      << ctx << " got=" << got.detail << " want=" << want.detail;
  EXPECT_EQ(got.satisfied, want.satisfied) << ctx;
  EXPECT_EQ(got.detail, want.detail) << ctx;
  ASSERT_EQ(got.locations.size(), want.locations.size()) << ctx;
  for (std::size_t i = 0; i < got.locations.size(); ++i) {
    EXPECT_EQ(got.locations[i].loc, want.locations[i].loc) << ctx;
    EXPECT_EQ(got.locations[i].valid, want.locations[i].valid) << ctx;
    EXPECT_EQ(got.locations[i].violated, want.locations[i].violated) << ctx;
    EXPECT_EQ(got.locations[i].writers, want.locations[i].writers) << ctx;
    EXPECT_EQ(got.locations[i].detail, want.locations[i].detail) << ctx;
  }
}

/// The definitional report for a record stream: the reference
/// validator's rejection, or large_check over the reference observer.
LargeCheckReport reference_report(const Computation& c,
                                  const std::vector<BinaryTraceEvent>& recs,
                                  std::uint32_t models) {
  const Trace trace{recs};
  std::string why;
  if (!reference_trace_consistent_with(trace, c, &why)) {
    LargeCheckReport r;
    r.checked = models & kLargeCheckExt;
    r.detail = "trace does not fit the computation: " + why;
    return r;
  }
  LargeCheckOptions opt;
  opt.models = models;
  opt.parallel = false;
  return large_check(c, reference_observer_from_trace(c, trace), opt);
}

/// The same records delivered in a random linear extension of the dag
/// (seq renumbered to the new arrival order).
std::vector<BinaryTraceEvent> shuffled_extension(
    const Computation& c, const std::vector<BinaryTraceEvent>& recs,
    Rng& rng) {
  const std::size_t n = c.node_count();
  std::vector<const BinaryTraceEvent*> of(n, nullptr);
  for (const BinaryTraceEvent& r : recs) of[r.node] = &r;
  std::vector<std::size_t> indeg(n);
  std::vector<NodeId> ready;
  for (NodeId u = 0; u < n; ++u) {
    indeg[u] = c.dag().pred(u).size();
    if (indeg[u] == 0) ready.push_back(u);
  }
  std::vector<BinaryTraceEvent> out;
  while (!ready.empty()) {
    const std::size_t i = rng.below(ready.size());
    const NodeId u = ready[i];
    ready[i] = ready.back();
    ready.pop_back();
    out.push_back(*of[u]);
    out.back().seq = out.size() - 1;
    for (const NodeId v : c.dag().succ(u))
      if (--indeg[v] == 0) ready.push_back(v);
  }
  return out;
}

/// Feed sizes every differential runs: single records, odd cuts, the
/// serve client's usual batches, and the whole stream in one feed.
constexpr std::size_t kWhole = ~std::size_t{0};
constexpr std::size_t kFeedSizes[] = {1, 7, 64, 4096, kWhole};

/// Stream `recs` through a CheckSession in `chunk`-sized feeds and
/// demand the finish() report match the reference byte for byte.
void expect_session_matches_batch(const Computation& c,
                                  const std::vector<BinaryTraceEvent>& recs,
                                  std::uint32_t models, std::size_t chunk) {
  SessionOptions sopt;
  sopt.models = models;
  CheckSession session(c, sopt);
  for (std::size_t at = 0; at < recs.size(); at += chunk) {
    const std::size_t k = std::min(chunk, recs.size() - at);
    if (!session.feed(recs.data() + at, k)) break;
  }
  LargeCheckReport got = session.finish();
  const LargeCheckReport want = reference_report(c, recs, models);
  expect_reports_identical(
      got, want,
      "chunk=" + std::to_string(chunk) + " models=" + std::to_string(models));

  // finish() is idempotent: the verdict is a pure function of the
  // consumed stream.
  expect_reports_identical(session.finish(), want, "refinish");
}

TEST(CheckSession, SerialScStreamMatchesBatch) {
  Rng rng(11);
  proc::RandomCilkOptions opt;
  opt.target_ops = 3000;
  opt.nlocations = 8;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> recs =
      run_serial(c, mem).trace.events.to_vector();
  for (const std::vector<BinaryTraceEvent>& arrival :
       {recs, shuffled_extension(c, recs, rng)})
    for (const std::size_t chunk : kFeedSizes)
      for (const std::uint32_t models : std::initializer_list<std::uint32_t>{
               kSuiteLC, kLargeCheckAll, kLargeCheckExt})
        expect_session_matches_batch(c, arrival, models, chunk);
}

TEST(CheckSession, CorruptedStreamsMatchBatch) {
  // Stale and forward observations: violations, invalid observers and
  // oracle-consulting 2.2 pairs, all byte-compared against batch.
  Rng rng(23);
  proc::RandomCilkOptions opt;
  opt.target_ops = 2000;
  opt.nlocations = 5;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> base =
      run_serial(c, mem).trace.events.to_vector();
  for (int round = 0; round < 6; ++round) {
    std::vector<BinaryTraceEvent> recs = base;
    corrupt_records(c, recs, rng, 2 + round);
    renumber(recs);
    if (round % 2 == 1) recs = shuffled_extension(c, recs, rng);
    for (const std::size_t chunk : kFeedSizes)
      expect_session_matches_batch(c, recs, kLargeCheckExt, chunk);
  }
}

TEST(CheckSession, InterleavedScheduleStreamMatchesBatch) {
  // A multi-proc schedule: the arrival order is a nontrivial linear
  // extension, so the kernel's watermark lags arrival and the session
  // exercises the out-of-scan-order path.
  Rng rng(31);
  const Computation c = workload::random_ops(gen::random_dag(400, 0.03, rng),
                                             6, 0.4, 0.4, rng);
  WeakMemory mem(5);
  const Schedule s = greedy_schedule(c, 4);
  const std::vector<BinaryTraceEvent> base =
      run_execution(c, s, mem).trace.events.to_vector();
  for (const std::size_t chunk : kFeedSizes)
    expect_session_matches_batch(c, base, kLargeCheckExt, chunk);
  std::vector<BinaryTraceEvent> bad = base;
  corrupt_records(c, bad, rng, 4);
  renumber(bad);
  for (const std::size_t chunk : kFeedSizes)
    expect_session_matches_batch(c, bad, kLargeCheckExt, chunk);
}

/// Retarget one read of `c` at never-written location `extra`, plant a
/// recorded observation on it mid-stream, and demand online ≡ the
/// reference. The extra row lands in the location-sorted report at a
/// position determined by `extra`, so callers pick it to land before
/// or after the written locations.
void expect_extra_location_matches_batch(Computation c, Location extra) {
  std::vector<Op> ops;
  ops.reserve(c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) ops.push_back(c.op(u));
  NodeId reader = kBottom;
  for (NodeId u = 0; u < c.node_count(); ++u)
    if (ops[u].is_read()) {
      ops[u] = Op::read(extra);
      reader = u;
      break;
    }
  ASSERT_NE(reader, kBottom);
  c.set_ops(ops);
  ScMemory mem;
  std::vector<BinaryTraceEvent> recs =
      run_serial(c, mem).trace.events.to_vector();
  bool planted = false;
  for (BinaryTraceEvent& r : recs)
    if (r.node == reader) {
      r.observed = recs.front().node;  // any node: must fail 2.1
      planted = true;
    }
  ASSERT_TRUE(planted);
  renumber(recs);
  for (const std::size_t chunk : kFeedSizes)
    expect_session_matches_batch(c, recs, kLargeCheckExt, chunk);

  // fast_verdict() turns invalid exactly when the kernel consumes the
  // planted observation's scan position, in step with check().
  SessionOptions sopt;
  sopt.models = kLargeCheckExt;
  CheckSession session(c, sopt);
  bool flipped = false;
  for (const BinaryTraceEvent& r : recs) {
    ASSERT_TRUE(session.feed(&r, 1));
    const bool valid = session.fast_verdict().valid;
    EXPECT_EQ(valid, session.check().valid_observer) << "seq " << r.seq;
    flipped = flipped || !valid;
  }
  EXPECT_TRUE(flipped);
}

TEST(CheckSession, NeverWrittenLocationObservationsMatchBatch) {
  // A recorded observation at a never-written location fails 2.1 in
  // the reference's extra column; online it must yield the same row.
  // Location 999 sorts after every written location: the row lands at
  // the tail of the report.
  Rng rng(41);
  const Computation c = workload::random_ops(gen::random_dag(120, 0.05, rng),
                                             4, 0.5, 0.1, rng);
  expect_extra_location_matches_batch(c, Location{999});
}

TEST(CheckSession, NeverWrittenLowLocationSplicesBeforeWrittenStates) {
  // The mirror case: the extra location sorts BEFORE every written
  // one, so its row precedes every written location's row.
  Rng rng(41);
  Computation c = workload::random_ops(gen::random_dag(120, 0.05, rng), 4,
                                       0.5, 0.1, rng);
  std::vector<Op> ops;
  ops.reserve(c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) {
    Op o = c.op(u);
    if (!o.is_nop()) ++o.loc;  // free up Location 0
    ops.push_back(o);
  }
  c.set_ops(ops);
  expect_extra_location_matches_batch(c, Location{0});
}

TEST(CheckSession, NeverWrittenLocationsCostNoColumns) {
  // A chain whose reads observe 1024 distinct never-written locations:
  // each such location is one earliest observation, not an n-entry
  // column plus an O(n) re-index, so the session's heap stays O(n).
  constexpr std::size_t kReads = 1024;
  constexpr std::size_t kNodes = std::size_t{1} << 18;
  constexpr std::size_t kStride = kNodes / kReads;
  ComputationBuilder b;
  NodeId prev = b.write(0);
  for (std::size_t i = 1; i < kNodes; ++i) {
    prev = i % kStride == kStride - 1
               ? b.read(static_cast<Location>(1 + i / kStride), {prev})
               : b.nop({prev});
  }
  const Computation c = std::move(b).build();
  std::vector<BinaryTraceEvent> recs(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    recs[i].seq = i;
    recs[i].node = static_cast<std::uint32_t>(i);
    if (c.op(static_cast<NodeId>(i)).is_read()) recs[i].observed = 0;
  }
  CheckSession session(c, {});
  const std::size_t before = session.memory_bytes();
  for (std::size_t at = 0; at < kNodes; at += 4096)
    ASSERT_TRUE(session.feed(recs.data() + at, 4096)) << session.error();
  EXPECT_LE(session.memory_bytes(), 64 * kNodes);
  EXPECT_LE(session.memory_bytes(), before + 8 * kNodes);
  const LargeCheckReport r = session.finish();
  ASSERT_EQ(r.locations.size(), 1 + kReads);
  EXPECT_FALSE(r.valid_observer);
  EXPECT_EQ(r.locations[0].loc, 0u);
  EXPECT_TRUE(r.locations[0].valid);
  EXPECT_FALSE(r.locations[1].valid);
  EXPECT_EQ(r.locations[1].writers, 0u);
  EXPECT_EQ(r.detail, r.locations[1].detail);
  EXPECT_NE(r.detail.find("is not a write to location"), std::string::npos);
}

TEST(CheckSession, WitnessedLocationsCostNoColumns) {
  // A serial SC stream over a 2^18-node chain touching 1024 written
  // locations: every read saw the latest write, so every location stays
  // witnessed and the session holds no n-entry column per location —
  // O(n) bytes, not O(n · locations).
  constexpr std::size_t kLocs = 1024;
  constexpr std::size_t kNodes = std::size_t{1} << 18;
  ComputationBuilder b;
  NodeId prev = b.write(0);
  for (std::size_t i = 1; i < kNodes; ++i) {
    const auto l = static_cast<Location>(i % kLocs);
    prev = (i / kLocs) % 2 == 0 ? b.write(l, {prev}) : b.read(l, {prev});
  }
  const Computation c = std::move(b).build();
  std::vector<NodeId> last(kLocs, kBottom);
  std::vector<BinaryTraceEvent> recs(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto u = static_cast<NodeId>(i);
    const Op o = c.op(u);
    recs[i].seq = i;
    recs[i].node = u;
    recs[i].observed = o.is_read() ? last[o.loc] : kBottom;
    if (o.is_write()) last[o.loc] = u;
  }
  SessionOptions sopt;
  sopt.models = kLargeCheckExt;
  CheckSession session(c, sopt);
  for (std::size_t at = 0; at < kNodes; at += 4096)
    ASSERT_TRUE(session.feed(recs.data() + at, 4096)) << session.error();
  // Per node: the written-location index and the arrival order (4 B
  // each) and the validator's arrived flag (1 B); per location, its
  // state. No writer CSR, no writer maps, no identity scan order.
  EXPECT_LE(session.memory_bytes(), 12 * kNodes);
  const LargeCheckReport r = session.finish();
  ASSERT_EQ(r.locations.size(), kLocs);
  EXPECT_EQ(r.satisfied, kLargeCheckExt) << r.detail;
  EXPECT_EQ(r.groups_bytes, 0u);
  EXPECT_LE(session.memory_bytes(), 12 * kNodes);
}

/// `recs` with one read of location `l` made stale: the `which`-th
/// (0 = first, 1 = middle, 2 = last) of the reads that have an earlier
/// write to `l` in arrival order now observes the write before the
/// latest one (⊥ when the latest is the first). False when `l` has no
/// such read.
bool plant_stale_read(const Computation& c, std::vector<BinaryTraceEvent>& recs,
                      Location l, int which) {
  std::vector<std::size_t> reads;
  std::vector<NodeId> stale;
  NodeId last = kBottom;
  NodeId before = kBottom;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Op o = c.op(recs[i].node);
    if (o.is_nop() || o.loc != l) continue;
    if (o.is_write()) {
      before = last;
      last = recs[i].node;
    } else if (last != kBottom) {
      reads.push_back(i);
      stale.push_back(before);
    }
  }
  if (reads.empty()) return false;
  const std::size_t k = which == 0   ? 0
                        : which == 1 ? reads.size() / 2
                                     : reads.size() - 1;
  recs[reads[k]].observed = stale[k];
  return true;
}

/// Feed `recs` in `chunk`-sized feeds and, at every feed boundary,
/// demand check() equal the kernel over the consumed prefix of the
/// complete stream's reference observer, fast_verdict() agree with it
/// (validity and the sticky bits), and finish() equal the reference
/// for the records so far.
void expect_transitions_match_reference(
    const Computation& c, const std::vector<BinaryTraceEvent>& recs,
    std::uint32_t models, std::size_t chunk, const std::string& ctx) {
  const ObserverFunction phi =
      reference_observer_from_trace(c, Trace{recs});
  const KernelPrefixReference prefix_ref(c, phi, models);
  std::vector<Location> observed_unwritten;
  const auto has_row = [&](Location l) {
    return std::find(observed_unwritten.begin(), observed_unwritten.end(),
                     l) != observed_unwritten.end();
  };
  const std::vector<Location> written = c.written_locations();
  SessionOptions sopt;
  sopt.models = models;
  CheckSession session(c, sopt);
  for (std::size_t at = 0; at < recs.size();) {
    const std::size_t k = std::min(chunk, recs.size() - at);
    ASSERT_TRUE(session.feed(recs.data() + at, k)) << session.error();
    for (std::size_t i = at; i < at + k; ++i) {
      const Op o = c.op(recs[i].node);
      if (o.is_read() && recs[i].observed != kBottom &&
          !std::binary_search(written.begin(), written.end(), o.loc))
        observed_unwritten.push_back(o.loc);
    }
    at += k;
    const std::string where = ctx + " chunk=" + std::to_string(chunk) +
                              " at=" + std::to_string(at);
    const LargeCheckReport want = prefix_ref.report(
        static_cast<std::uint32_t>(session.consumed()), has_row);
    expect_reports_identical(session.check(), want, where + " check");
    const SessionVerdict fast = session.fast_verdict();
    EXPECT_EQ(fast.valid, want.valid_observer) << where;
    EXPECT_EQ(fast.violated, prefix_ref.known_violated(
                                 static_cast<std::uint32_t>(fast.consumed)))
        << where;
    expect_reports_identical(
        session.finish(),
        reference_report(c,
                         std::vector<BinaryTraceEvent>(recs.begin(),
                                                       recs.begin() + at),
                         models),
        where + " finish");
  }
}

TEST(CheckSession, MaterializationMidStreamMatchesTheReference) {
  // One stale read at the first, a middle and the last qualifying read
  // of one location, and then one at every location: the location is
  // witnessed up to that record and materializes there, so every feed
  // size puts the transition before, inside and after a feed. Serial
  // and shuffled arrival orders; the plant is relative to the arrival
  // order, so it always disagrees.
  Rng rng(89);
  proc::RandomCilkOptions opt;
  opt.target_ops = 500;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> serial =
      run_serial(c, mem).trace.events.to_vector();
  const std::vector<Location> locs = c.written_locations();
  ASSERT_FALSE(locs.empty());
  for (const bool shuffle : {false, true}) {
    const std::vector<BinaryTraceEvent> base =
        shuffle ? shuffled_extension(c, serial, rng) : serial;
    std::vector<std::pair<std::string, std::vector<BinaryTraceEvent>>> plans;
    for (const int which : {0, 1, 2}) {
      std::vector<BinaryTraceEvent> recs = base;
      ASSERT_TRUE(plant_stale_read(c, recs, locs[0], which));
      plans.emplace_back("one@" + std::to_string(which), std::move(recs));
    }
    std::vector<BinaryTraceEvent> all = base;
    for (const Location l : locs) (void)plant_stale_read(c, all, l, 1);
    plans.emplace_back("every", std::move(all));
    for (const auto& [name, recs] : plans) {
      EXPECT_FALSE(
          reference_disagreeing_locations(c, Trace{recs})
              .empty());
      for (const std::size_t chunk : kFeedSizes)
        expect_transitions_match_reference(
            c, recs, kLargeCheckExt, chunk,
            name + (shuffle ? " shuffled" : " serial"));
    }
  }
}

TEST(CheckSession, FirstStaleReadBuildsTheGroupsOnce) {
  // A serial stream with one stale read: the writer CSR (the report's
  // groups_bytes) is absent while every location is witnessed, built by
  // the feed that carries the stale read, and unchanged by every feed
  // after it. The reports match the kernel over the consumed prefix at
  // every feed boundary, and finish() matches the reference.
  Rng rng(97);
  proc::RandomCilkOptions opt;
  opt.target_ops = 600;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> clean =
      run_serial(c, mem).trace.events.to_vector();
  std::vector<BinaryTraceEvent> recs = clean;
  ASSERT_TRUE(plant_stale_read(c, recs, c.written_locations()[0], 1));
  std::size_t stale = 0;
  while (recs[stale] == clean[stale]) ++stale;
  for (const std::size_t chunk : kFeedSizes) {
    const std::string ctx = "chunk=" + std::to_string(chunk);
    expect_transitions_match_reference(c, recs, kLargeCheckExt, chunk, ctx);
    SessionOptions sopt;
    sopt.models = kLargeCheckExt;
    CheckSession session(c, sopt);
    std::size_t built = 0;
    for (std::size_t at = 0; at < recs.size();) {
      const std::size_t k = std::min(chunk, recs.size() - at);
      ASSERT_TRUE(session.feed(recs.data() + at, k)) << session.error();
      at += k;
      const std::size_t bytes = session.check().groups_bytes;
      if (at <= stale) {
        EXPECT_EQ(bytes, 0u) << ctx << " at=" << at;
      } else if (built == 0) {
        EXPECT_GT(bytes, 0u) << ctx << " at=" << at;
        built = bytes;
      } else {
        EXPECT_EQ(bytes, built) << ctx << " at=" << at;
      }
    }
    EXPECT_EQ(session.finish().groups_bytes, built) << ctx;
  }
}

TEST(CheckSession, MidStreamCheckAndFastVerdictAreConsistent) {
  Rng rng(53);
  proc::RandomCilkOptions opt;
  opt.target_ops = 1500;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  std::vector<BinaryTraceEvent> recs =
      run_serial(c, mem).trace.events.to_vector();
  corrupt_records(c, recs, rng, 5);
  renumber(recs);

  SessionOptions sopt;
  sopt.models = kLargeCheckExt;
  CheckSession session(c, sopt);
  for (std::size_t at = 0; at < recs.size(); at += 97) {
    const std::size_t k = std::min<std::size_t>(97, recs.size() - at);
    ASSERT_TRUE(session.feed(recs.data() + at, k)) << session.error();
    // The fast verdict's sticky bits are a lower bound on the full
    // prefix verdict, and its validity flag matches exactly.
    const SessionVerdict fast = session.fast_verdict();
    const LargeCheckReport mid = session.check();
    EXPECT_EQ(fast.valid, mid.valid_observer);
    std::uint32_t mid_violated = 0;
    for (const LocationCheck& lc : mid.locations) mid_violated |= lc.violated;
    EXPECT_EQ(fast.violated & ~mid_violated, 0u);
    EXPECT_EQ(fast.events, session.events_seen());
  }
  expect_reports_identical(session.finish(),
                           reference_report(c, recs, kLargeCheckExt),
                           "after mid-stream checks");
}

TEST(CheckSession, RejectsInconsistentStreams) {
  Rng rng(61);
  proc::RandomCilkOptions opt;
  opt.target_ops = 200;
  opt.nlocations = 3;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> recs =
      run_serial(c, mem).trace.events.to_vector();
  const std::size_t n = c.node_count();

  {  // duplicate node
    SessionOptions so;
    CheckSession s(c, so);
    ASSERT_TRUE(s.feed(recs.data(), 2));
    BinaryTraceEvent dup = recs[1];
    dup.seq = recs[2].seq;
    EXPECT_FALSE(s.feed(&dup, 1));
    EXPECT_NE(s.error().find("more than one event"), std::string::npos);
    const LargeCheckReport r = s.finish();
    EXPECT_FALSE(r.valid_observer);
    EXPECT_NE(r.detail.find("trace does not fit the computation"),
              std::string::npos);
  }
  {  // unknown node
    CheckSession s(c, {});
    BinaryTraceEvent bad = recs[0];
    bad.node = static_cast<std::uint32_t>(n + 7);
    EXPECT_FALSE(s.feed(&bad, 1));
    EXPECT_NE(s.error().find("unknown node"), std::string::npos);
  }
  {  // successor before its predecessor (flipped dag edge)
    NodeId child = kBottom;
    for (NodeId u = 0; u < n && child == kBottom; ++u)
      if (!c.dag().pred(u).empty()) child = u;
    ASSERT_NE(child, kBottom);
    CheckSession s(c, {});
    BinaryTraceEvent first{};
    first.seq = 0;
    first.node = child;
    first.observed = 0xFFFFFFFFu;
    EXPECT_FALSE(s.feed(&first, 1));
    EXPECT_NE(s.error().find("flips dag edge"), std::string::npos);
  }
  {  // seq going backwards
    std::vector<BinaryTraceEvent> renum = recs;
    renumber(renum);  // seq = 0,1,2,...
    CheckSession s(c, {});
    ASSERT_TRUE(s.feed(renum.data(), 3));
    BinaryTraceEvent back = renum[3];
    back.seq = 1;  // strictly before the last accepted seq (2)
    EXPECT_FALSE(s.feed(&back, 1));
    EXPECT_NE(s.error().find("seq-ordered"), std::string::npos);
  }
  {  // observation of a node that does not exist
    CheckSession s(c, {});
    std::vector<BinaryTraceEvent> bad = recs;
    bad[recs.size() / 2].observed = static_cast<std::uint32_t>(n + 3);
    EXPECT_FALSE(s.feed(bad.data(), bad.size()));
    std::string why;
    EXPECT_FALSE(
        reference_trace_consistent_with(Trace{bad}, c, &why));
    EXPECT_EQ(s.error(), why);
  }
  {  // incomplete stream: the reference's event-count mismatch, verbatim
    CheckSession s(c, {});
    ASSERT_TRUE(s.feed(recs.data(), recs.size() / 2));
    const LargeCheckReport r = s.finish();
    const LargeCheckReport want = reference_report(
        c, std::vector<BinaryTraceEvent>(recs.begin(),
                                         recs.begin() + recs.size() / 2),
        kSuiteLC);
    EXPECT_EQ(r.detail, want.detail);
    // ...and the session is still alive: completing it still works.
    ASSERT_TRUE(s.feed(recs.data() + recs.size() / 2,
                       recs.size() - recs.size() / 2));
    EXPECT_TRUE(s.finish().valid_observer);
  }
}

TEST(CheckSession, RetainedEventReplayReproducesVerdicts) {
  // The snapshot/restore substrate: replaying the retained log through
  // a fresh session lands in an identical state.
  Rng rng(71);
  proc::RandomCilkOptions opt;
  opt.target_ops = 800;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  std::vector<BinaryTraceEvent> recs =
      run_serial(c, mem).trace.events.to_vector();
  corrupt_records(c, recs, rng, 3);
  renumber(recs);

  SessionOptions sopt;
  sopt.models = kLargeCheckExt;
  sopt.retain_events = true;
  CheckSession a(c, sopt);
  ASSERT_TRUE(a.feed(recs.data(), recs.size() / 3));

  CheckSession b(c, sopt);
  ASSERT_TRUE(b.feed(a.retained_events().data(), a.retained_events().size()));
  ASSERT_TRUE(a.feed(recs.data() + recs.size() / 3,
                     recs.size() - recs.size() / 3));
  ASSERT_TRUE(b.feed(recs.data() + recs.size() / 3,
                     recs.size() - recs.size() / 3));
  expect_reports_identical(b.finish(), a.finish(), "retained replay");
}

TEST(CheckSessionParallel, LargeFeedsShardAndMatchTheReference) {
  // Feeds (and a restore-style whole replay) long enough to shard on
  // the pool, plus the batch entry point on a pool of its own: every
  // sharded run must equal the reference and the serial engine. The
  // stream is a 4-processor BACKER run, which has a stale read at every
  // location, so every location materializes and the kernel shards.
  Rng rng(83);
  proc::RandomCilkOptions opt;
  opt.target_ops = 30'000;
  opt.nlocations = 8;
  const Computation c = proc::random_cilk(opt, rng);
  BackerMemory mem;
  const Trace stale = run_execution(c, greedy_schedule(c, 4), mem).trace;
  ASSERT_EQ(reference_disagreeing_locations(c, stale),
            c.written_locations());
  std::vector<BinaryTraceEvent> recs = stale.events.to_vector();
  corrupt_records(c, recs, rng, 3);
  renumber(recs);
  const LargeCheckReport want = reference_report(c, recs, kLargeCheckExt);
  for (const std::size_t feed : {std::size_t{20'000}, kWhole}) {
    SessionOptions sopt;
    sopt.models = kLargeCheckExt;
    CheckSession session(c, sopt);
    for (std::size_t at = 0; at < recs.size(); at += feed)
      ASSERT_TRUE(session.feed(recs.data() + at,
                               std::min(feed, recs.size() - at)));
    expect_reports_identical(session.finish(), want,
                             "feed=" + std::to_string(feed));
  }
  ThreadPool pool(4);
  LargeCheckOptions par;
  par.models = kLargeCheckExt;
  par.pool = &pool;
  const LargeCheckReport sharded =
      large_check_trace(c, Trace{recs}, par);
  EXPECT_TRUE(sharded.pipelined);
  expect_reports_identical(sharded, want, "sharded batch");
}

TEST(CheckSessionParallel, MaterializationInShardedFeedsMatchesTheReference) {
  // 2^15-record feeds over a serial stream with one stale read per
  // location, planted at staggered reads: locations materialize inside
  // feeds large enough to shard, so the column rebuild and the replay
  // run in pool tasks next to locations that stay witnessed.
  constexpr std::uint32_t kModels = kLargeCheckExt;
  Rng rng(97);
  proc::RandomCilkOptions opt;
  opt.target_ops = 40'000;
  opt.nlocations = 8;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  std::vector<BinaryTraceEvent> recs =
      run_serial(c, mem).trace.events.to_vector();
  const std::vector<Location> locs = c.written_locations();
  for (std::size_t i = 0; i < locs.size(); ++i)
    (void)plant_stale_read(c, recs, locs[i], static_cast<int>(i % 3));
  expect_transitions_match_reference(c, recs, kModels, std::size_t{1} << 15,
                                     "sharded");
  ThreadPool pool(4);
  LargeCheckOptions par;
  par.models = kModels;
  par.pool = &pool;
  const LargeCheckReport sharded =
      large_check_trace(c, Trace{recs}, par);
  EXPECT_TRUE(sharded.pipelined);
  expect_reports_identical(sharded, reference_report(c, recs, kModels),
                           "sharded batch");
}

// ---------------------------------------------------------------------------
// The daemon: protocol framing, concurrent clients, reconnects,
// snapshot/restore, backpressure, /status. POSIX sockets only.

#if defined(__unix__) || defined(__APPLE__)

/// A running server on a fresh unix socket, torn down with the test.
struct TestServer {
  explicit TestServer(serve::ServerOptions o = {}) {
    static std::atomic<int> counter{0};
    path = ::testing::TempDir() +
           "ccmm_serve_t" + std::to_string(counter.fetch_add(1)) + ".sock";
    o.listen = "unix:" + path;
    server = std::make_unique<serve::Server>(std::move(o));
    server->start();
  }
  ~TestServer() {
    server->stop();
    ::unlink(path.c_str());
  }
  [[nodiscard]] std::string addr() const { return "unix:" + path; }

  std::string path;
  std::unique_ptr<serve::Server> server;
};

/// The shared fixture workload: a corrupted interleaved execution, so
/// verdicts carry real violations and witnesses.
struct Workload {
  Computation c;
  std::vector<BinaryTraceEvent> recs;
  LargeCheckReport batch;
};

Workload make_workload(std::uint64_t seed, std::size_t ops,
                       std::uint32_t models, int flips) {
  Rng rng(seed);
  proc::RandomCilkOptions opt;
  opt.target_ops = ops;
  opt.nlocations = 8;
  Workload w{proc::random_cilk(opt, rng), {}, {}};
  ScMemory mem;
  w.recs = run_serial(w.c, mem).trace.events.to_vector();
  corrupt_records(w.c, w.recs, rng, flips);
  renumber(w.recs);
  w.batch = reference_report(w.c, w.recs, models);
  return w;
}

TEST(Serve, EndToEndMatchesBatchAcrossChunkSizes) {
  const Workload w = make_workload(71, 2000, kLargeCheckExt, 4);
  for (const serve::ServerOptions& base :
       {serve::ServerOptions{}, [] {
          serve::ServerOptions o;
          o.kernel_offload = false;  // 1-core inline mode
          return o;
        }()}) {
    TestServer ts(base);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{64},
                                    std::size_t{4096}}) {
      serve::ClientOptions copts;
      copts.session.models = kLargeCheckExt;
      copts.batch_events = chunk;
      serve::ServeClient client(ts.addr(), copts);
      client.open(w.c);
      EXPECT_EQ(client.node_count(), w.c.node_count());
      client.feed(w.recs);
      const SessionVerdict v = client.verdict();
      EXPECT_EQ(v.events, w.recs.size());
      expect_reports_identical(client.finish(), w.batch,
                               "serve chunk=" + std::to_string(chunk));
      client.close_session();
    }
    EXPECT_EQ(ts.server->session_count(), 0u);
  }
}

TEST(Serve, MidStreamCheckMatchesBatchPrefix) {
  const Workload w = make_workload(72, 1500, kLargeCheckExt, 3);
  TestServer ts;
  serve::ClientOptions copts;
  copts.session.models = kLargeCheckExt;
  serve::ServeClient client(ts.addr(), copts);
  client.open(w.c);
  const std::size_t half = w.recs.size() / 2;
  client.feed(w.recs.data(), half);
  // The serve-side check() equals a local session's check() on the
  // same prefix (itself differentially pinned against batch prefixes
  // in the CheckSession tests above).
  SessionOptions sopt;
  sopt.models = kLargeCheckExt;
  CheckSession local(w.c, sopt);
  ASSERT_TRUE(local.feed(w.recs.data(), half));
  expect_reports_identical(client.check(), local.check(), "mid check");
  client.feed(w.recs.data() + half, w.recs.size() - half);
  expect_reports_identical(client.finish(), w.batch, "after mid check");
}

TEST(Serve, ReconnectAttachResumesTheSession) {
  const Workload w = make_workload(73, 1500, kLargeCheckExt, 4);
  TestServer ts;
  std::uint64_t id = 0;
  const std::size_t third = w.recs.size() / 3;
  {
    serve::ClientOptions copts;
    copts.session.models = kLargeCheckExt;
    serve::ServeClient client(ts.addr(), copts);
    id = client.open(w.c);
    client.feed(w.recs.data(), third);
    client.flush();
    (void)client.verdict();  // drain: everything applied server-side
  }  // connection drops; the session must survive
  EXPECT_EQ(ts.server->session_count(), 1u);
  {
    serve::ServeClient client(ts.addr());
    client.attach(id);
    EXPECT_EQ(client.node_count(), w.c.node_count());
    client.feed(w.recs.data() + third, w.recs.size() - third);
    expect_reports_identical(client.finish(), w.batch, "post attach");
    client.close_session();
  }
  EXPECT_EQ(ts.server->session_count(), 0u);
}

TEST(Serve, SnapshotRestoreReproducesVerdicts) {
  const Workload w = make_workload(74, 1200, kLargeCheckExt, 4);
  TestServer ts;
  serve::ClientOptions copts;
  copts.session.models = kLargeCheckExt;
  copts.session.retain_events = true;
  serve::ServeClient client(ts.addr(), copts);
  client.open(w.c);
  const std::size_t half = w.recs.size() / 2;
  client.feed(w.recs.data(), half);
  client.flush();
  const std::string blob = client.snapshot();
  ASSERT_GT(blob.size(), 8u);

  // Restore on the SAME server: an independent session that must reach
  // the identical final report.
  {
    serve::ServeClient other(ts.addr());
    const std::uint64_t rid = other.restore(blob);
    EXPECT_NE(rid, client.session_id());
    other.feed(w.recs.data() + half, w.recs.size() - half);
    expect_reports_identical(other.finish(), w.batch, "restore same server");
    other.close_session();
  }
  // Restore on a FRESH server (migration).
  {
    TestServer ts2;
    serve::ServeClient other(ts2.addr());
    other.restore(blob);
    other.feed(w.recs.data() + half, w.recs.size() - half);
    expect_reports_identical(other.finish(), w.batch, "restore migration");
  }
  // The original session is unaffected.
  client.feed(w.recs.data() + half, w.recs.size() - half);
  expect_reports_identical(client.finish(), w.batch, "snapshot source");
}

/// Little-endian bytes, spelled out by hand so the wire layout is
/// pinned independently of protocol.cpp's encoders.
void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// SessionOptions as kOpen and snapshots carry them: models, flags
/// (1 = retain_events), oracle choice (0 = auto), simd (0xFF = process
/// dispatch), closure threshold.
std::string options_bytes(std::uint32_t models, bool retain) {
  std::string out;
  put_le(out, models, 4);
  put_le(out, retain ? 1 : 0, 4);
  put_le(out, 0, 1);
  put_le(out, 0xFF, 1);
  put_le(out, 2048, 8);
  return out;
}

TEST(Serve, HandEncodedTextOpenMatchesBatch) {
  // ServeClient sends the binary image; a client that prints the text
  // format instead still opens a session.
  const Workload w = make_workload(78, 900, kLargeCheckExt, 3);
  TestServer ts;
  std::string payload = options_bytes(kLargeCheckExt, false);
  const std::string text = io::write_computation(w.c);
  put_le(payload, text.size(), 8);
  payload += text;
  std::uint64_t id = 0, nodes = 0;
  {
    const net::Fd fd = net::connect_to(net::Addr::parse(ts.addr()));
    serve::write_frame(fd.get(), serve::FrameType::kOpen, 0, payload.data(),
                       payload.size());
    serve::FrameHeader h;
    std::vector<unsigned char> reply;
    ASSERT_TRUE(serve::read_frame(fd.get(), h, reply, 1u << 20));
    ASSERT_EQ(h.type, serve::FrameType::kOpened)
        << std::string(reply.begin(), reply.end());
    serve::decode_opened(reply.data(), reply.size(), id, nodes);
  }
  EXPECT_EQ(nodes, w.c.node_count());
  serve::ServeClient client(ts.addr());
  client.attach(id);
  client.feed(w.recs);
  expect_reports_identical(client.finish(), w.batch, "text kOpen");
  client.close_session();
}

TEST(Serve, SnapshotCarryingTextRestores) {
  // Snapshots now carry the image; a CCMMSNP1 blob that carries the
  // computation as text restores through read_computation's detection.
  const Workload w = make_workload(79, 900, kLargeCheckExt, 3);
  const std::size_t half = w.recs.size() / 2;
  std::string blob(serve::kSnapshotMagic, sizeof serve::kSnapshotMagic);
  blob += options_bytes(kLargeCheckExt, true);
  const std::string text = io::write_computation(w.c);
  put_le(blob, text.size(), 8);
  blob += text;
  put_le(blob, half, 8);
  const std::size_t at = blob.size();
  blob.resize(at + half * kTraceBinaryEventBytes);
  encode_trace_records(w.recs.data(), half,
                       reinterpret_cast<unsigned char*>(blob.data() + at));
  TestServer ts;
  serve::ServeClient client(ts.addr());
  client.restore(blob);
  EXPECT_EQ(client.node_count(), w.c.node_count());
  client.feed(w.recs.data() + half, w.recs.size() - half);
  expect_reports_identical(client.finish(), w.batch, "text snapshot");
  client.close_session();

  // A live session's snapshot is the same blob with the image in the
  // computation's place.
  serve::ClientOptions copts;
  copts.session.models = kLargeCheckExt;
  copts.session.retain_events = true;
  serve::ServeClient live(ts.addr(), copts);
  live.open(w.c);
  live.feed(w.recs.data(), half);
  const std::string image = io::write_computation_image(w.c);
  std::string want = blob.substr(0, 8 + 18);
  put_le(want, image.size(), 8);
  want += image + blob.substr(8 + 18 + 8 + text.size());
  EXPECT_TRUE(live.snapshot() == want);
}

TEST(Serve, RejectedStreamsReportTheBatchError) {
  const Workload w = make_workload(75, 800, kSuiteLC, 0);
  TestServer ts;
  serve::ServeClient client(ts.addr());
  client.open(w.c);

  // Flip a dag edge: stream an event whose predecessor never arrived.
  std::vector<BinaryTraceEvent> bad = w.recs;
  std::reverse(bad.begin(), bad.end());
  renumber(bad);
  client.feed(bad);
  try {
    (void)client.verdict();
    FAIL() << "verdict on a rejected stream must throw";
  } catch (const serve::ServeError& e) {
    EXPECT_TRUE(e.stream_rejected());
    EXPECT_NE(std::string(e.what()).find("trace order flips"),
              std::string::npos)
        << e.what();
  }
  // finish() still answers, with the reference validator's message.
  expect_reports_identical(client.finish(), reference_report(w.c, bad, kSuiteLC),
                           "rejected stream");
}

TEST(Serve, ProtocolErrorPaths) {
  TestServer ts;
  {
    serve::ServeClient client(ts.addr());
    EXPECT_THROW((void)client.attach(999999), serve::ServeError);
  }
  {
    // kEvents with no session.
    serve::ServeClient client(ts.addr());
    BinaryTraceEvent e{};
    client.feed(&e, 1);
    EXPECT_THROW((void)client.verdict(), serve::ServeError);
  }
  {
    // Snapshot without retain_events.
    const Workload w = make_workload(76, 200, kSuiteLC, 0);
    serve::ServeClient client(ts.addr());
    client.open(w.c);
    EXPECT_THROW((void)client.snapshot(), serve::ServeError);
  }
}

TEST(Serve, StatusOverProtocolAndHttp) {
  const Workload w = make_workload(77, 400, kSuiteLC, 0);
  TestServer ts;
  serve::ServeClient client(ts.addr());
  client.open(w.c);
  client.feed(w.recs);
  (void)client.finish();

  const std::string status = client.status();
  EXPECT_NE(status.find("ccmm_serve status"), std::string::npos);
  EXPECT_NE(status.find("events_ingested: " +
                        std::to_string(w.recs.size())),
            std::string::npos)
      << status;

  // Raw HTTP GET on the same socket.
  net::Fd http = net::connect_to(net::Addr::parse(ts.addr()));
  const std::string req = "GET /status HTTP/1.0\r\n\r\n";
  net::write_all(http.get(), req.data(), req.size());
  std::string page;
  char buf[4096];
  for (;;) {
    const ssize_t k = ::read(http.get(), buf, sizeof buf);
    if (k <= 0) break;
    page.append(buf, static_cast<std::size_t>(k));
  }
  EXPECT_NE(page.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(page.find("ccmm_serve status"), std::string::npos);
}

TEST(Serve, BackpressureBoundsInFlightBatches) {
  // A tiny in-flight cap with the kernel offloaded: the shard must
  // throttle the connection instead of queueing without bound, and the
  // stream must still complete byte-identically.
  const Workload w = make_workload(78, 2000, kSuiteLC, 2);
  serve::ServerOptions sopt;
  sopt.max_pending_batches = 2;
  TestServer ts(sopt);
  serve::ClientOptions copts;
  copts.batch_events = 16;  // many small batches -> deep pipelining
  serve::ServeClient client(ts.addr(), copts);
  client.open(w.c);
  client.feed(w.recs);
  expect_reports_identical(client.finish(), w.batch, "backpressure");
}

TEST(Serve, ParallelManyClientsMatchBatch) {
  // The TSan target: concurrent sessions across shards, every final
  // report diffed against the batch engine.
  const Workload w = make_workload(79, 1000, kLargeCheckExt, 3);
  serve::ServerOptions sopt;
  sopt.shards = 2;
  TestServer ts(sopt);
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int s = 0; s < kSessionsPerThread; ++s) {
          serve::ClientOptions copts;
          copts.session.models = kLargeCheckExt;
          copts.batch_events = 64 + 97 * static_cast<std::size_t>(t);
          serve::ServeClient client(ts.addr(), copts);
          client.open(w.c);
          client.feed(w.recs);
          const LargeCheckReport got = client.finish();
          if (got.satisfied != w.batch.satisfied ||
              got.detail != w.batch.detail ||
              got.valid_observer != w.batch.valid_observer)
            failures.fetch_add(1);
          client.close_session();
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ts.server->session_count(), 0u);
  EXPECT_GE(ts.server->stats().sessions_opened.load(),
            static_cast<std::uint64_t>(kThreads * kSessionsPerThread));
}

#endif  // POSIX

}  // namespace
}  // namespace ccmm
