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
  const Trace t({{2, 2, 0, 7, kBottom},
                 {0, 0, 0, 3, kBottom},
                 {1, 1, 0, 5, kBottom}});
  EXPECT_EQ(trace_order(t), (std::vector<NodeId>{3, 5, 7}));
}

TEST(Trace, ConsistencyChecker) {
  const Computation c = workload::contended_counter(3);
  const ExecutionResult r = sample_run(c);
  EXPECT_TRUE(trace_consistent_with(r.trace, c));

  // Wrong size.
  std::vector<BinaryTraceEvent> shorter = r.trace.events.to_vector();
  shorter.pop_back();
  EXPECT_FALSE(trace_consistent_with(Trace(shorter), c));

  // Non-topological order: swap seq of a dependent pair.
  std::vector<BinaryTraceEvent> reordered = r.trace.events.to_vector();
  // init (node 0) must precede everything; give it the largest seq.
  for (auto& e : reordered)
    if (e.node == 0) e.seq = 1000;
  EXPECT_FALSE(trace_consistent_with(Trace(reordered), c));

  // Duplicate node.
  std::vector<BinaryTraceEvent> dup = r.trace.events.to_vector();
  dup[1].node = dup[0].node;
  EXPECT_FALSE(trace_consistent_with(Trace(dup), c));
}

TEST(Trace, RenderingMentionsOpsAndObservations) {
  const Computation c = workload::contended_counter(2);
  const ExecutionResult r = sample_run(c);
  const std::string s = trace_to_string(r.trace, c);
  EXPECT_NE(s.find("W(0)"), std::string::npos);
  EXPECT_NE(s.find("R(0)"), std::string::npos);
  EXPECT_NE(s.find("seq"), std::string::npos);

  // An unvalidated event naming a node `c` lacks renders without an op.
  const Trace stray({{0, 0, 0, 99, kBottom}});
  EXPECT_NE(trace_to_string(stray, c).find("99    ?"), std::string::npos);
}

TEST(Trace, ConsistencyCheckerNamesTheProblem) {
  const Computation c = workload::contended_counter(3);
  const ExecutionResult r = sample_run(c);
  std::string why;

  std::vector<BinaryTraceEvent> shorter = r.trace.events.to_vector();
  shorter.pop_back();
  EXPECT_FALSE(trace_consistent_with(Trace(shorter), c, &why));
  EXPECT_NE(why.find("events"), std::string::npos);

  std::vector<BinaryTraceEvent> reordered = r.trace.events.to_vector();
  for (auto& e : reordered)
    if (e.node == 0) e.seq = 1000;
  EXPECT_FALSE(trace_consistent_with(Trace(reordered), c, &why));
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
  std::vector<BinaryTraceEvent> events;
  std::vector<NodeId> want;
  for (std::uint64_t seq = 0; seq < 3; ++seq)
    for (NodeId u = 0; u < 100; ++u)
      if (u % 3 == seq) want.push_back(u);
  for (NodeId u = 0; u < 100; ++u)
    events.push_back({u % 3, 0, 0, u, kBottom});
  EXPECT_EQ(trace_order(Trace(std::move(events))), want);
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
  // Each mutant edits its own copy of the base records.
  std::vector<BinaryTraceEvent> ev;
  const auto add = [&](std::string what, bool single = true) {
    out.push_back({std::move(what), Trace(std::move(ev)), single});
    ev = base.events.to_vector();
  };
  ev = base.events.to_vector();
  ev.erase(ev.begin() + static_cast<std::ptrdiff_t>(pick()));
  add("dropped");
  {
    BinaryTraceEvent e = base.events[pick()];
    e.seq = base.events.back().seq + 1;
    ev.push_back(e);
    add("appended copy");
  }
  {
    // The last event's node is a sink: replacing it with a copy of an
    // earlier event duplicates that node and loses only a sink.
    BinaryTraceEvent& last = ev.back();
    const BinaryTraceEvent& src = base.events[rng.below(n - 1)];
    last.node = src.node;
    last.observed = src.observed;
    add("duplicated");
  }
  std::swap(ev[pick()].seq, ev[pick()].seq);
  add("swapped");
  // Shuffle the array and halve every seq: the stable order now depends
  // on where tied events landed.
  for (std::size_t i = ev.size(); i > 1; --i)
    std::swap(ev[i - 1], ev[rng.below(i)]);
  for (BinaryTraceEvent& e : ev) e.seq /= 2;
  add("ties");
  ev[pick()].observed = static_cast<NodeId>(c.node_count() + rng.below(5));
  add("observes unknown");
  ev[pick()].node = static_cast<NodeId>(c.node_count() + 3);
  add("unknown node");
  ev[pick()].observed = static_cast<NodeId>(c.node_count());
  std::swap(ev[pick()].seq, ev[pick()].seq);
  add("observes unknown + swap", false);
  ev[pick()].node = ev[pick()].node;
  for (BinaryTraceEvent& e : ev) e.seq /= 3;
  add("duplicate + ties", false);
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
