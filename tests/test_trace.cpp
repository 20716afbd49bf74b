#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "exec/sc_memory.hpp"
#include "exec/workload.hpp"
#include "proc/random_program.hpp"
#include "reference_trace.hpp"
#include "trace/large_check.hpp"
#include "trace/session_kernel.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

ExecutionResult sample_run(const Computation& c) {
  ScMemory mem;
  return run_serial(c, mem);
}

TEST(Trace, OrderFollowsSequenceNumbers) {
  const Computation c = workload::reduction(4);
  const ExecutionResult r = sample_run(c);
  const auto order = trace_order(r.trace);
  EXPECT_EQ(order.size(), c.node_count());
  // Serial schedule = canonical topological order.
  EXPECT_EQ(order, c.dag().topological_order());
}

TEST(Trace, OrderSortsShuffledEvents) {
  Trace t;
  t.events.push_back({2, 2, 0, 7, kBottom});
  t.events.push_back({0, 0, 0, 3, kBottom});
  t.events.push_back({1, 1, 0, 5, kBottom});
  EXPECT_EQ(trace_order(t), (std::vector<NodeId>{3, 5, 7}));
}

TEST(Trace, ConsistencyChecker) {
  const Computation c = workload::contended_counter(3);
  const ExecutionResult r = sample_run(c);
  EXPECT_TRUE(trace_consistent_with(r.trace, c));

  // Wrong size.
  Trace shorter = r.trace;
  shorter.events.pop_back();
  EXPECT_FALSE(trace_consistent_with(shorter, c));

  // Non-topological order: swap seq of a dependent pair.
  Trace reordered = r.trace;
  // init (node 0) must precede everything; give it the largest seq.
  for (auto& e : reordered.events)
    if (e.node == 0) e.seq = 1000;
  EXPECT_FALSE(trace_consistent_with(reordered, c));

  // Duplicate node.
  Trace dup = r.trace;
  dup.events[1].node = dup.events[0].node;
  EXPECT_FALSE(trace_consistent_with(dup, c));
}

TEST(Trace, RenderingMentionsOpsAndObservations) {
  const Computation c = workload::contended_counter(2);
  const ExecutionResult r = sample_run(c);
  const std::string s = trace_to_string(r.trace, c);
  EXPECT_NE(s.find("W(0)"), std::string::npos);
  EXPECT_NE(s.find("R(0)"), std::string::npos);
  EXPECT_NE(s.find("seq"), std::string::npos);

  // An unvalidated event naming a node `c` lacks renders without an op.
  Trace stray;
  stray.events.push_back({0, 0, 0, 99, kBottom});
  EXPECT_NE(trace_to_string(stray, c).find("99    ?"), std::string::npos);
}

TEST(Trace, ConsistencyCheckerNamesTheProblem) {
  const Computation c = workload::contended_counter(3);
  const ExecutionResult r = sample_run(c);
  std::string why;

  Trace shorter = r.trace;
  shorter.events.pop_back();
  EXPECT_FALSE(trace_consistent_with(shorter, c, &why));
  EXPECT_NE(why.find("events"), std::string::npos);

  Trace reordered = r.trace;
  for (auto& e : reordered.events)
    if (e.node == 0) e.seq = 1000;
  EXPECT_FALSE(trace_consistent_with(reordered, c, &why));
  EXPECT_NE(why.find("flips dag edge"), std::string::npos);
}

TEST(Trace, RenderingElidesLongTraces) {
  const Computation c = workload::contended_counter(6);
  const ExecutionResult r = sample_run(c);
  const std::string s = trace_to_string(r.trace, c, 3);
  EXPECT_NE(s.find("more events elided"), std::string::npos);
  // 3 rows + header + rule + elision note.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 6);
}

TEST(Trace, TextRoundTrip) {
  const Computation c = workload::contended_counter(4);
  const ExecutionResult r = sample_run(c);
  std::istringstream in(write_trace(r.trace));
  const Trace back = read_trace(in, c);
  EXPECT_EQ(back.events, r.trace.events);
  EXPECT_TRUE(trace_consistent_with(back, c));

  // Malformed lines: a non-number, an unknown node, a field too many, and
  // negative numbers, which must not wrap around.
  for (const char* line : {"1 0 0 not-a-node _", "1 0 0 99999 _",
                           "0 0 0 0 _ trailing junk", "0 0 -1 0 _",
                           "-3 0 0 0 _"}) {
    std::istringstream bad(std::string("# header\n") + line + "\n");
    try {
      (void)read_trace(bad, c);
      ADD_FAILURE() << "accepted `" << line << "`";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("trace line 2:"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Trace, OrderIsStableOnSeqTies) {
  // Events with equal seq keep their array order — the order the
  // validator and the observer completion also use.
  Trace t;
  std::vector<NodeId> want;
  for (std::uint64_t seq = 0; seq < 3; ++seq)
    for (NodeId u = 0; u < 100; ++u)
      if (u % 3 == seq) want.push_back(u);
  for (NodeId u = 0; u < 100; ++u)
    t.events.push_back({u % 3, 0, 0, u, kBottom});
  EXPECT_EQ(trace_order(t), want);
}

/// A trace plus whether it carries at most one defect (then the
/// validator's message must match the reference's byte for byte).
struct Mutant {
  std::string what;
  Trace trace;
  bool single = true;
};

/// Seeded mutations of a valid trace: every defect kind the validator
/// names, seq ties in shuffled traces, and a few multi-defect mixes.
std::vector<Mutant> mutants(const Computation& c, const Trace& base,
                            Rng& rng) {
  const std::size_t n = base.events.size();
  const auto pick = [&] { return rng.below(n); };
  std::vector<Mutant> out;
  out.push_back({"clean", base});
  {
    Mutant m{"dropped", base};
    m.trace.events.erase(m.trace.events.begin() +
                         static_cast<std::ptrdiff_t>(pick()));
    out.push_back(std::move(m));
  }
  {
    Mutant m{"appended copy", base};
    BinaryTraceEvent e = base.events[pick()];
    e.seq = base.events.back().seq + 1;
    m.trace.events.push_back(e);
    out.push_back(std::move(m));
  }
  {
    // The last event's node is a sink: replacing it with a copy of an
    // earlier event duplicates that node and loses only a sink.
    Mutant m{"duplicated", base};
    BinaryTraceEvent& last = m.trace.events.back();
    const BinaryTraceEvent& src = base.events[rng.below(n - 1)];
    last.node = src.node;
    last.observed = src.observed;
    out.push_back(std::move(m));
  }
  {
    Mutant m{"swapped", base};
    std::swap(m.trace.events[pick()].seq, m.trace.events[pick()].seq);
    out.push_back(std::move(m));
  }
  {
    // Shuffle the array and halve every seq: the stable order now
    // depends on where tied events landed.
    Mutant m{"ties", base};
    std::vector<BinaryTraceEvent>& ev = m.trace.events;
    for (std::size_t i = ev.size(); i > 1; --i)
      std::swap(ev[i - 1], ev[rng.below(i)]);
    for (BinaryTraceEvent& e : ev) e.seq /= 2;
    out.push_back(std::move(m));
  }
  {
    Mutant m{"observes unknown", base};
    m.trace.events[pick()].observed =
        static_cast<NodeId>(c.node_count() + rng.below(5));
    out.push_back(std::move(m));
  }
  {
    Mutant m{"unknown node", base};
    m.trace.events[pick()].node = static_cast<NodeId>(c.node_count() + 3);
    out.push_back(std::move(m));
  }
  {
    Mutant m{"observes unknown + swap", base};
    m.trace.events[pick()].observed = static_cast<NodeId>(c.node_count());
    std::swap(m.trace.events[pick()].seq, m.trace.events[pick()].seq);
    m.single = false;
    out.push_back(std::move(m));
  }
  {
    Mutant m{"duplicate + ties", base};
    m.trace.events[pick()].node = m.trace.events[pick()].node;
    for (BinaryTraceEvent& e : m.trace.events) e.seq /= 3;
    m.single = false;
    out.push_back(std::move(m));
  }
  return out;
}

void expect_same_observer(const ObserverFunction& got,
                          const ObserverFunction& want,
                          const std::string& ctx) {
  ASSERT_EQ(got.node_count(), want.node_count()) << ctx;
  ASSERT_EQ(got.active_locations(), want.active_locations()) << ctx;
  for (const Location l : want.active_locations()) {
    for (NodeId u = 0; u < want.node_count(); ++u) {
      ASSERT_EQ(got.get(l, u), want.get(l, u))
          << ctx << ": location " << l << ", node " << u;
    }
  }
}

TEST(Trace, ValidatorAndCompletionMatchTheReferences) {
  Rng rng(2027);
  for (int round = 0; round < 24; ++round) {
    proc::RandomCilkOptions opt;
    opt.target_ops = 60 + rng.below(400);
    opt.nlocations = 1 + rng.below(6);
    const Computation c = proc::random_cilk(opt, rng);
    ScMemory mem;
    const Trace base = run_serial(c, mem).trace;
    for (const Mutant& m : mutants(c, base, rng)) {
      const std::string ctx =
          "round " + std::to_string(round) + " (" + m.what + ")";
      std::string got_why;
      std::string want_why;
      const bool got = trace_consistent_with(m.trace, c, &got_why);
      const bool want = reference_trace_consistent_with(m.trace, c, &want_why);
      ASSERT_EQ(got, want) << ctx << ": " << got_why << " / " << want_why;
      if (m.single) {
        EXPECT_EQ(got_why, want_why) << ctx;
      }
      expect_same_observer(observer_from_trace(c, m.trace),
                           reference_observer_from_trace(c, m.trace), ctx);
    }
  }
}

TEST(Trace, RejectedFeedsMatchTheReferenceAndChangeNothing) {
  // Every single-defect mutant fed to a session in stable seq order, at
  // several feed sizes. A stream cannot see its event count before its
  // end, so the feed that fails names the reference's first per-record
  // defect, and a count-only defect shows at finish(). A rejected feed
  // moves no counter and retains none of its records: events_seen(),
  // consumed() and the retained log stay where the accepted feeds left
  // them, and fast_verdict() keeps those counters and turns invalid.
  constexpr std::size_t kWhole = ~std::size_t{0};
  Rng rng(2029);
  for (int round = 0; round < 16; ++round) {
    proc::RandomCilkOptions opt;
    opt.target_ops = 60 + rng.below(400);
    opt.nlocations = 1 + rng.below(6);
    const Computation c = proc::random_cilk(opt, rng);
    ScMemory mem;
    const Trace base = run_serial(c, mem).trace;
    for (const Mutant& m : mutants(c, base, rng)) {
      if (!m.single) continue;
      std::string stream_why;
      const bool stream_ok =
          reference_stream_consistent_with(m.trace, c, &stream_why);
      std::string trace_why;
      const bool trace_ok =
          reference_trace_consistent_with(m.trace, c, &trace_why);
      std::vector<BinaryTraceEvent> recs;
      for (const std::uint32_t i : reference_seq_order(m.trace))
        recs.push_back(m.trace.events[i]);
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{7}, std::size_t{4096}, kWhole}) {
        const std::string ctx = "round " + std::to_string(round) + " (" +
                                m.what + ") chunk " + std::to_string(chunk);
        SessionOptions so;
        so.retain_events = true;
        CheckSession s(c, so);
        bool rejected = false;
        for (std::size_t at = 0; at < recs.size() && !rejected;) {
          const std::size_t k = std::min(chunk, recs.size() - at);
          const std::uint64_t seen = s.events_seen();
          const std::uint64_t consumed = s.consumed();
          const SessionVerdict before = s.fast_verdict();
          if (s.feed(recs.data() + at, k)) {
            at += k;
            continue;
          }
          rejected = true;
          EXPECT_EQ(s.error(), stream_why) << ctx;
          EXPECT_EQ(s.events_seen(), seen) << ctx;
          EXPECT_EQ(s.consumed(), consumed) << ctx;
          const SessionVerdict after = s.fast_verdict();
          EXPECT_FALSE(after.valid) << ctx;
          EXPECT_EQ(after.events, before.events) << ctx;
          EXPECT_EQ(after.consumed, before.consumed) << ctx;
          EXPECT_EQ(s.retained_events(),
                    std::vector<BinaryTraceEvent>(
                        recs.begin(),
                        recs.begin() + static_cast<std::ptrdiff_t>(at)))
              << ctx;
        }
        EXPECT_EQ(rejected, !stream_ok) << ctx;
        const std::string detail = s.finish().detail;
        if (!stream_ok || !trace_ok) {
          EXPECT_EQ(detail, "trace does not fit the computation: " +
                                (stream_ok ? trace_why : stream_why))
              << ctx;
        }
      }
    }
  }
}

TEST(Trace, EmptyTrace) {
  Trace t;
  EXPECT_TRUE(trace_order(t).empty());
  EXPECT_TRUE(trace_consistent_with(t, Computation()));
  EXPECT_FALSE(trace_consistent_with(t, workload::reduction(2)));
}

}  // namespace
}  // namespace ccmm
