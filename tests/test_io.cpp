#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "construct/witness.hpp"
#include "core/last_writer.hpp"
#include "dag/generators.hpp"
#include "enumerate/dag_enum.hpp"
#include "io/dot.hpp"
#include "io/text.hpp"
#include "models/examples.hpp"
#include "proc/random_program.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

// Allocation accounting for the hostile-image test: while a thread's
// counter is armed, every operator new request adds its size. The
// array, sized and nothrow forms of the library forward here.
namespace {
thread_local bool g_count_allocations = false;
thread_local std::size_t g_allocated = 0;
}  // namespace

// GCC inlines these into library code that it sees pair a new
// expression with free(); they are a matched malloc/free pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (g_count_allocations) g_allocated += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ccmm::io {
namespace {

// ---------------------------------------------------------------------
// The definitional reference: the original line-at-a-time parser
// (std::getline, an istringstream per line, a vector of string tokens)
// and the original format()-per-line writer. The parser is kept as it
// was except at the sites where it mishandled malformed input — an id
// accepted for a 0-node computation (an out-of-bounds op write), a
// self-loop, a 'nodes' line shrinking the computation under edges or
// strands already read. There it throws KnownBug with the line, and
// the differential expects the scanner's line-numbered error instead.
// ---------------------------------------------------------------------
namespace reference {

struct KnownBug {
  std::size_t line;
};

[[noreturn]] void parse_error(std::size_t line, const std::string& what) {
  throw std::runtime_error(format("ccmm text parse error, line %zu: %s",
                                  line, what.c_str()));
}

class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  std::vector<std::string> next() {
    std::string raw;
    while (std::getline(in_, raw)) {
      ++line_;
      const auto hash = raw.find('#');
      if (hash != std::string::npos) raw.erase(hash);
      std::istringstream ss(raw);
      std::vector<std::string> tokens;
      std::string tok;
      while (ss >> tok) tokens.push_back(tok);
      if (!tokens.empty()) return tokens;
    }
    return {};
  }

  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::istream& in_;
  std::size_t line_ = 0;
};

std::uint64_t parse_number(const LineReader& r, const std::string& tok,
                           std::uint64_t max) {
  std::uint64_t value = 0;
  if (tok.empty()) parse_error(r.line(), "expected a number");
  for (const char ch : tok) {
    if (ch < '0' || ch > '9')
      parse_error(r.line(), "expected a number, got '" + tok + "'");
    value = value * 10 + static_cast<std::uint64_t>(ch - '0');
    if (value > max)
      parse_error(r.line(), "number out of range: " + tok);
  }
  return value;
}

Computation read_computation_body(LineReader& r) {
  auto header = r.next();
  if (header.empty() || header[0] != "computation")
    parse_error(r.line(), "expected 'computation'");

  std::optional<std::size_t> n;
  std::vector<Op> ops;
  std::vector<Edge> edges;
  std::vector<std::vector<SpEvent>> strands;
  for (;;) {
    const auto t = r.next();
    if (t.empty()) parse_error(r.line(), "unexpected end of input");
    if (t[0] == "end") break;
    if (t[0] == "nodes") {
      if (t.size() != 2) parse_error(r.line(), "usage: nodes <n>");
      n = static_cast<std::size_t>(
          parse_number(r, t[1], std::uint64_t{1} << 28));
      // Bug site: earlier edges or strands may name nodes >= n now.
      for (const Edge& e : edges)
        if (e.from >= *n || e.to >= *n) throw KnownBug{r.line()};
      for (const auto& s : strands)
        for (const SpEvent& e : s)
          if (e.node != kBottom && e.node >= *n) throw KnownBug{r.line()};
      ops.assign(*n, Op::nop());
    } else if (t[0] == "op") {
      if (!n.has_value()) parse_error(r.line(), "'op' before 'nodes'");
      if (t.size() < 3) parse_error(r.line(), "usage: op <id> N|R|W [loc]");
      const auto id =
          static_cast<NodeId>(parse_number(r, t[1], *n > 0 ? *n - 1 : 0));
      if (*n == 0) throw KnownBug{r.line()};  // bug site: ops is empty
      if (t[2] == "N") {
        if (t.size() != 3) parse_error(r.line(), "N takes no location");
        ops[id] = Op::nop();
      } else if (t[2] == "R" || t[2] == "W") {
        if (t.size() != 4) parse_error(r.line(), "R/W need a location");
        const auto loc = static_cast<Location>(parse_number(r, t[3], 1u << 30));
        ops[id] = t[2] == "R" ? Op::read(loc) : Op::write(loc);
      } else {
        parse_error(r.line(), "unknown op kind '" + t[2] + "'");
      }
    } else if (t[0] == "edge") {
      if (!n.has_value()) parse_error(r.line(), "'edge' before 'nodes'");
      if (t.size() != 3) parse_error(r.line(), "usage: edge <from> <to>");
      const auto max_id = *n > 0 ? *n - 1 : 0;
      // Bug sites: Dag(n, edges) later throws an unnumbered check
      // failure for an edge of a 0-node computation or a self-loop.
      const auto from = static_cast<NodeId>(parse_number(r, t[1], max_id));
      if (*n == 0) throw KnownBug{r.line()};
      const auto to = static_cast<NodeId>(parse_number(r, t[2], max_id));
      if (from == to) throw KnownBug{r.line()};
      edges.push_back({from, to});
    } else if (t[0] == "strand") {
      if (!n.has_value()) parse_error(r.line(), "'strand' before 'nodes'");
      const auto max_id = *n > 0 ? *n - 1 : 0;
      std::vector<SpEvent> events;
      events.reserve(t.size() - 1);
      for (std::size_t i = 1; i < t.size(); ++i) {
        const std::string& tok = t[i];
        if (tok.size() < 2)
          parse_error(r.line(), "bad strand event '" + tok + "'");
        const std::string num = tok.substr(1);
        SpEvent e;
        switch (tok[0]) {
          case 'n':
            e.kind = SpEvent::Kind::kNode;
            e.node = static_cast<NodeId>(parse_number(r, num, max_id));
            if (*n == 0) throw KnownBug{r.line()};  // bug site
            break;
          case 's':
            e.kind = SpEvent::Kind::kSpawn;
            e.child =
                static_cast<std::uint32_t>(parse_number(r, num, UINT32_MAX));
            break;
          case 'y':
            e.kind = SpEvent::Kind::kSync;
            e.node = num == "_" ? kBottom
                                : static_cast<NodeId>(
                                      parse_number(r, num, max_id));
            if (*n == 0 && num != "_") throw KnownBug{r.line()};  // bug site
            break;
          case 'a':
            e.kind = SpEvent::Kind::kAdopt;
            e.child =
                static_cast<std::uint32_t>(parse_number(r, num, UINT32_MAX));
            break;
          default:
            parse_error(r.line(), "bad strand event '" + tok + "'");
        }
        events.push_back(e);
      }
      strands.push_back(std::move(events));
    } else {
      parse_error(r.line(), "unknown directive '" + t[0] + "'");
    }
  }
  if (!n.has_value()) parse_error(r.line(), "missing 'nodes'");
  Dag dag(*n, edges);
  if (!dag.is_acyclic()) parse_error(r.line(), "edges form a cycle");
  Computation c(std::move(dag), std::move(ops));
  if (!strands.empty()) {
    auto sp = std::make_shared<SpStructure>();
    for (const auto& stream : strands) {
      sp->events.insert(sp->events.end(), stream.begin(), stream.end());
      sp->end_strand();
    }
    sp->node_count = *n;
    for (const auto& stream : strands)
      for (const SpEvent& e : stream)
        if ((e.kind == SpEvent::Kind::kSpawn ||
             e.kind == SpEvent::Kind::kAdopt) &&
            e.child >= strands.size())
          parse_error(r.line(),
                      format("strand event names unknown strand %u", e.child));
    c.set_sp_structure(std::move(sp));
  }
  return c;
}

ObserverFunction read_observer_body(LineReader& r, std::size_t node_count) {
  ObserverFunction phi(node_count);
  for (;;) {
    const auto t = r.next();
    if (t.empty()) parse_error(r.line(), "unexpected end of input");
    if (t[0] == "end") break;
    if (t[0] != "phi")
      parse_error(r.line(), "unknown directive '" + t[0] + "'");
    if (t.size() != 4)
      parse_error(r.line(), "usage: phi <loc> <node> <observed|_>");
    const auto loc = static_cast<Location>(parse_number(r, t[1], 1u << 30));
    const auto max_id = node_count > 0 ? node_count - 1 : 0;
    const auto u = static_cast<NodeId>(parse_number(r, t[2], max_id));
    // Bug site: ObserverFunction::set throws an unnumbered check failure.
    if (node_count == 0) throw KnownBug{r.line()};
    const NodeId v = t[3] == "_"
                         ? kBottom
                         : static_cast<NodeId>(parse_number(r, t[3], max_id));
    phi.set(loc, u, v);
  }
  return phi;
}

Computation read_computation(std::istream& in) {
  LineReader r(in);
  return read_computation_body(r);
}

TextPair read_pair(std::istream& in) {
  LineReader r(in);
  TextPair pair;
  pair.c = read_computation_body(r);
  const auto t = r.next();
  if (t.empty()) return pair;
  if (t[0] != "observer")
    parse_error(r.line(), "expected 'observer' or end of file");
  pair.phi = read_observer_body(r, pair.c.node_count());
  return pair;
}

std::string write_computation(const Computation& c) {
  std::string out = "computation\n";
  out += format("nodes %zu\n", c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (o.is_nop()) continue;
    out += format("op %u %s %u\n", u, o.is_read() ? "R" : "W", o.loc);
  }
  for (const auto& e : c.dag().edges())
    out += format("edge %u %u\n", e.from, e.to);
  const SpStructure* sp = c.sp_structure().get();
  if (sp != nullptr && sp->node_count == c.node_count()) {
    for (std::size_t s = 0; s < sp->strand_count(); ++s) {
      out += "strand";
      for (const SpEvent& e : sp->strand(s)) {
        switch (e.kind) {
          case SpEvent::Kind::kNode:
            out += format(" n%u", e.node);
            break;
          case SpEvent::Kind::kSpawn:
            out += format(" s%u", e.child);
            break;
          case SpEvent::Kind::kSync:
            if (e.node == kBottom)
              out += " y_";
            else
              out += format(" y%u", e.node);
            break;
          case SpEvent::Kind::kAdopt:
            out += format(" a%u", e.child);
            break;
        }
      }
      out += "\n";
    }
  }
  out += "end\n";
  return out;
}

}  // namespace reference

/// What one parser made of one input.
struct Outcome {
  std::optional<TextPair> parsed;
  std::string error;                     // what(), when parsing threw
  std::optional<std::size_t> known_bug;  // reference only
};

Outcome outcome_of(const std::function<TextPair()>& parse) {
  Outcome o;
  try {
    o.parsed = parse();
  } catch (const reference::KnownBug& b) {
    o.known_bug = b.line;
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

void expect_same_sp(const Computation& a, const Computation& b) {
  ASSERT_EQ(a.sp_structure() == nullptr, b.sp_structure() == nullptr);
  if (a.sp_structure() == nullptr) return;
  EXPECT_EQ(a.sp_structure()->node_count, b.sp_structure()->node_count);
  EXPECT_EQ(a.sp_structure()->offsets, b.sp_structure()->offsets);
  EXPECT_EQ(a.sp_structure()->events, b.sp_structure()->events);
}

/// The scanner agrees with the reference on `text`: both accept with
/// equal results, or both throw the same message (hence line) — except
/// where the reference hit a known bug, which the scanner must reject
/// as a parse error on that line.
void expect_agrees(const Outcome& ref, const Outcome& got,
                   const std::string& text) {
  if (ref.known_bug.has_value()) {
    ASSERT_FALSE(got.parsed.has_value()) << text;
    EXPECT_EQ(got.error.rfind(format("ccmm text parse error, line %zu: ",
                                     *ref.known_bug),
                              0),
              0u)
        << got.error << "\n" << text;
    return;
  }
  ASSERT_EQ(got.parsed.has_value(), ref.parsed.has_value())
      << "reference: " << ref.error << "\nscanner: " << got.error << "\n"
      << text;
  if (!ref.parsed.has_value()) {
    EXPECT_EQ(got.error, ref.error) << text;
    return;
  }
  EXPECT_EQ(got.parsed->c, ref.parsed->c) << text;
  expect_same_sp(got.parsed->c, ref.parsed->c);
  ASSERT_EQ(got.parsed->phi.has_value(), ref.parsed->phi.has_value()) << text;
  if (ref.parsed->phi.has_value()) {
    EXPECT_EQ(*got.parsed->phi, *ref.parsed->phi) << text;
  }
}

/// Which way the inputs of a differential went, so a test can insist
/// that it reached all three.
struct Tally {
  std::size_t accepted = 0, rejected = 0, known_bugs = 0;
};

/// A reader's strand table is well formed: its offsets start at 0,
/// never decrease and end at the event count.
void expect_well_formed_strands(const Outcome& got) {
  if (!got.parsed.has_value()) return;
  const SpStructure* sp = got.parsed->c.sp_structure().get();
  if (sp == nullptr) return;
  ASSERT_FALSE(sp->offsets.empty());
  EXPECT_EQ(sp->offsets.front(), 0u);
  EXPECT_TRUE(std::is_sorted(sp->offsets.begin(), sp->offsets.end()));
  EXPECT_EQ(sp->offsets.back(), sp->events.size());
}

/// Runs every entry point over `text` against the reference.
void differential(const std::string& text, Tally& tally) {
  const Outcome ref_pair = outcome_of([&] {
    std::istringstream in(text);
    return reference::read_pair(in);
  });
  const Outcome got_pair = outcome_of([&] {
    std::istringstream in(text);
    return read_pair(in);
  });
  expect_agrees(ref_pair, got_pair, text);
  expect_well_formed_strands(got_pair);
  if (ref_pair.known_bug.has_value())
    ++tally.known_bugs;
  else if (ref_pair.parsed.has_value())
    ++tally.accepted;
  else
    ++tally.rejected;

  const Outcome ref_c = outcome_of([&] {
    std::istringstream in(text);
    return TextPair{reference::read_computation(in), std::nullopt};
  });
  const Outcome got_stream = outcome_of([&] {
    std::istringstream in(text);
    return TextPair{read_computation(in), std::nullopt};
  });
  const Outcome got_view = outcome_of([&] {
    return TextPair{read_computation(std::string_view(text)), std::nullopt};
  });
  expect_agrees(ref_c, got_stream, text);
  expect_agrees(ref_c, got_view, text);
  expect_well_formed_strands(got_stream);
  expect_well_formed_strands(got_view);
}

/// A random fork/join instance with its SP strands and a last-writer
/// observer, as a pair file.
std::string random_pair_text(Rng& rng, std::size_t ops) {
  proc::RandomCilkOptions opt;
  opt.target_ops = ops;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  std::vector<NodeId> order = c.dag().topological_order();
  return write_pair(c, last_writer(c, order));
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) lines.push_back(l + "\n");
  return lines;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l;
  return out;
}

std::string with_crlf(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '\n') out += '\r';
    out += ch;
  }
  return out;
}

/// One seeded mutation: a bit flip, a truncation, a line splice
/// (duplicate, drop or swap), CRLF endings plus a bit flip, or a blank
/// or comment line inserted.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  const auto flip = [&](std::string& s) {
    if (s.empty()) return;
    const std::size_t at = rng.below(s.size());
    s[at] = static_cast<char>(s[at] ^ (1 << rng.below(8)));
  };
  switch (rng.below(5)) {
    case 0:
      flip(out);
      break;
    case 1:
      out.resize(rng.below(out.size() + 1));
      break;
    case 2: {
      std::vector<std::string> lines = lines_of(text);
      const std::size_t i = rng.below(lines.size());
      const std::size_t j = rng.below(lines.size());
      switch (rng.below(3)) {
        case 0:
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(j),
                       lines[i]);
          break;
        case 1:
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        default:
          std::swap(lines[i], lines[j]);
      }
      out = joined(lines);
      break;
    }
    case 3: {
      std::vector<std::string> lines = lines_of(text);
      const char* const filler[] = {"\n", " \t\n", "# note\n"};
      lines.insert(lines.begin() +
                       static_cast<std::ptrdiff_t>(rng.below(lines.size() + 1)),
                   filler[rng.below(3)]);
      out = joined(lines);
      break;
    }
    default:
      out = with_crlf(text);
      flip(out);
  }
  return out;
}

TEST(TextIo, ComputationRoundTrip) {
  const auto p = examples::figure2();
  const std::string text = write_computation(p.c);
  std::istringstream in(text);
  const Computation back = read_computation(in);
  EXPECT_EQ(back, p.c);
}

TEST(TextIo, ObserverRoundTrip) {
  const auto p = examples::figure2();
  const std::string text = write_observer(p.phi);
  std::istringstream in(text);
  const ObserverFunction back = read_observer(in, p.c.node_count());
  EXPECT_EQ(back, p.phi);
}

TEST(TextIo, PairRoundTrip) {
  for (const auto& p : examples::all()) {
    std::istringstream in(write_pair(p.c, p.phi));
    const TextPair back = read_pair(in);
    EXPECT_EQ(back.c, p.c) << p.name;
    ASSERT_TRUE(back.phi.has_value()) << p.name;
    EXPECT_EQ(*back.phi, p.phi) << p.name;
  }
}

TEST(TextIo, PairWithoutObserver) {
  const auto p = examples::figure3();
  std::istringstream in(write_computation(p.c));
  const TextPair back = read_pair(in);
  EXPECT_EQ(back.c, p.c);
  EXPECT_FALSE(back.phi.has_value());
}

TEST(TextIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n\ncomputation\n nodes 2 # trailing\n"
      "op 0 W 3\nedge 0 1\nend\n";
  std::istringstream in(text);
  const Computation c = read_computation(in);
  EXPECT_EQ(c.node_count(), 2u);
  EXPECT_EQ(c.op(0), Op::write(3));
  EXPECT_EQ(c.op(1), Op::nop());  // default
  EXPECT_TRUE(c.precedes(0, 1));
}

TEST(TextIo, BottomSpelledAsUnderscore) {
  const std::string text = "observer\nphi 0 1 _\nphi 0 0 0\nend\n";
  std::istringstream in(text);
  const ObserverFunction phi = read_observer(in, 2);
  EXPECT_EQ(phi.get(0, 1), kBottom);
  EXPECT_EQ(phi.get(0, 0), 0u);
}

TEST(TextIo, ParseErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    try {
      (void)read_computation(in);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("bogus\n", "expected 'computation'");
  expect_error("computation\nop 0 W 0\nend\n", "'op' before 'nodes'");
  expect_error("computation\nnodes 2\nop 0 X\nend\n", "unknown op kind");
  expect_error("computation\nnodes 2\nedge 0 9\nend\n", "out of range");
  expect_error("computation\nnodes 1\n", "unexpected end");
  expect_error("computation\nnodes 2\nedge 0 1\nedge 1 0\nend\n", "cycle");
}

TEST(TextIo, SpStructureRoundTripsThroughText) {
  Rng rng(17);
  proc::RandomCilkOptions opt;
  opt.target_ops = 400;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ASSERT_NE(c.sp_structure(), nullptr);
  std::istringstream in(write_computation(c));
  const Computation back = read_computation(in);
  EXPECT_EQ(back, c);
  // The series-parallel parse must survive: dropping it silently
  // demotes every reader to generic-dag oracles (a ~100x slowdown for
  // online checking), so this is a correctness property of the format.
  ASSERT_NE(back.sp_structure(), nullptr);
  EXPECT_EQ(back.sp_structure()->node_count, c.sp_structure()->node_count);
  EXPECT_EQ(back.sp_structure()->offsets, c.sp_structure()->offsets);
  EXPECT_EQ(back.sp_structure()->events, c.sp_structure()->events);
}

TEST(TextIo, StrandParseErrors) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    try {
      (void)read_computation(in);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("computation\nstrand n0\nnodes 1\nend\n",
               "'strand' before 'nodes'");
  expect_error("computation\nnodes 2\nstrand x0\nend\n", "bad strand event");
  expect_error("computation\nnodes 2\nstrand n5\nend\n", "out of range");
  expect_error("computation\nnodes 2\nstrand n0 s3\nend\n",
               "unknown strand");
}

TEST(TextIo, Figure4WitnessRoundTripsThroughText) {
  const NonconstructibilityWitness w = figure4_witness();
  std::istringstream in(write_pair(w.c, w.phi));
  const TextPair back = read_pair(in);
  EXPECT_EQ(back.c, w.c);
  EXPECT_EQ(*back.phi, w.phi);
}

/// Parsing `text` as a pair file fails on `line` with `needle` in the
/// message.
void expect_error_at(const std::string& text, std::size_t line,
                     const std::string& needle) {
  std::istringstream in(text);
  try {
    (void)read_pair(in);
    ADD_FAILURE() << "expected parse error for: " << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(format("ccmm text parse error, line %zu: ", line), 0),
              0u)
        << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(TextIo, MalformedIdsAreLineNumberedErrors) {
  // A 0-node computation has no valid id: 'op 0' used to write into an
  // empty op table, 'strand n0' and 'y0' were accepted.
  expect_error_at("computation\nnodes 0\nop 0 W 1\nend\n", 3, "out of range");
  expect_error_at("computation\nnodes 0\nop 0 N\nend\n", 3, "out of range");
  expect_error_at("computation\nnodes 0\nstrand n0\nend\n", 3,
                  "out of range");
  expect_error_at("computation\nnodes 0\nstrand y0\nend\n", 3,
                  "out of range");
  expect_error_at("computation\nnodes 0\nedge 0 0\nend\n", 3, "out of range");
  expect_error_at("computation\nnodes 0\nend\nobserver\nphi 0 0 _\nend\n", 5,
                  "out of range");
  // A later 'nodes' may not shrink the computation under edges or
  // strands already read.
  expect_error_at("computation\nnodes 3\nedge 0 2\nnodes 2\nend\n", 4,
                  "out of range");
  expect_error_at("computation\nnodes 3\nstrand n2\nnodes 2\nend\n", 4,
                  "out of range");
  // Self-loops used to escape as an unnumbered dag check failure.
  expect_error_at("computation\nnodes 2\nedge 1 1\nend\n", 3, "self-loop");
  // The fixed paths still accept what they accepted before.
  EXPECT_TRUE(read_computation("computation\nnodes 0\nstrand y_\nend\n")
                  .empty());
  const Computation grown = read_computation(
      "computation\nnodes 2\nedge 0 1\nnodes 3\nstrand n2\nend\n");
  EXPECT_EQ(grown.node_count(), 3u);
  EXPECT_TRUE(grown.precedes(0, 1));
}

TEST(TextIo, ScannerMatchesReferenceOnRandomCilkAndMutations) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::string text = random_pair_text(rng, 8 + rng.below(120));
    differential(text, tally);
    differential(with_crlf(text), tally);
    for (int i = 0; i < 40; ++i) differential(mutate(text, rng), tally);
    if (HasFatalFailure()) return;
  }
  // The known-bug inputs take the same path through the comparison.
  for (const char* text :
       {"computation\nnodes 0\nop 0 W 1\nend\n",
        "computation\nnodes 0\nedge 0 x\nend\n",
        "computation\nnodes 2\nedge 1 1\nbogus\nend\n",
        "computation\nnodes 0\nstrand s0 n0\nend\n",
        "computation\nnodes 3\nedge 0 2\nnodes 2\nend\n",
        "computation\nnodes 0\nend\nobserver\nphi 0 0 x\nend\n"})
    differential(text, tally);
  EXPECT_GT(tally.accepted, 100u);
  EXPECT_GT(tally.rejected, 1000u);
  EXPECT_GE(tally.known_bugs, 6u);
}

TEST(TextIo, WriterMatchesReferenceByteForByte) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7);
    proc::RandomCilkOptions opt;
    opt.target_ops = 50 + rng.below(2000);
    opt.nlocations = 1 + rng.below(300);
    const Computation c = proc::random_cilk(opt, rng);
    EXPECT_EQ(write_computation(c), reference::write_computation(c));
  }
  for (const auto& p : examples::all())
    EXPECT_EQ(write_computation(p.c), reference::write_computation(p.c))
        << p.name;
  EXPECT_EQ(write_computation(Computation()),
            reference::write_computation(Computation()));
}

/// The stream reader's block size (src/io/text.cpp).
constexpr std::size_t kBlock = std::size_t{1} << 20;

TEST(TextIo, StrandLineSpanningSeveralBlocks) {
  // One strand naming 400k nodes is ~2.8 MB: it starts mid-block and
  // crosses at least two block boundaries.
  constexpr std::size_t kNodes = 400000;
  std::string text = "computation\n# " + std::string(kBlock / 2, 'x') +
                     "\nnodes " + std::to_string(kNodes) + "\nstrand";
  std::vector<SpEvent> expected;
  for (NodeId u = 0; u < kNodes; ++u) {
    text += " n" + std::to_string(u);
    expected.push_back({SpEvent::Kind::kNode, u, 0});
  }
  text += "\nop 7 W 3\nend\n";
  ASSERT_GT(text.size(), 3 * kBlock);
  std::istringstream in(text);
  const Computation c = read_computation(in);
  ASSERT_NE(c.sp_structure(), nullptr);
  ASSERT_EQ(c.sp_structure()->strand_count(), 1u);
  EXPECT_EQ(c.sp_structure()->events, expected);
  EXPECT_EQ(c.op(7), Op::write(3));
  const Computation from_text = read_computation(std::string_view(text));
  EXPECT_EQ(from_text, c);
  expect_same_sp(from_text, c);
}

TEST(TextIo, RandomCilkAcrossSeveralBlocksMatchesTheReference) {
  // The random differential above stays within one block; this pair
  // fills several, so whole instances and their mutations run through
  // the refills.
  Rng rng(64);
  const std::string text = random_pair_text(rng, std::size_t{1} << 16);
  ASSERT_GE(text.size(), 3 * kBlock);
  Tally tally;
  differential(text, tally);
  EXPECT_EQ(tally.accepted, 1u);
  for (int i = 0; i < 3; ++i) differential(mutate(text, rng), tally);
}

TEST(TextIo, LinesStraddlingABlockBoundary) {
  // Put each byte of "op 1 W 7\n" (and the next line's start) on the
  // boundary in turn; line numbers must not drift either.
  const std::string op = "op 1 W 7\n";
  for (std::size_t cut = 0; cut <= op.size(); ++cut) {
    std::string text = "computation\nnodes 3\n#";
    text += std::string(kBlock - text.size() - 1 - cut, 'x') + "\n";
    text += op + "edge 0 1\nop 2 Q\nend\n";
    ASSERT_EQ(text.compare(kBlock - cut, op.size(), op), 0);
    std::istringstream in(text);
    try {
      (void)read_computation(in);
      ADD_FAILURE() << "cut " << cut;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   "ccmm text parse error, line 6: unknown op kind 'Q'");
    }
    text.replace(text.find("op 2 Q"), 6, "op 2 N");
    std::istringstream ok(text);
    const Computation c = read_computation(ok);
    EXPECT_EQ(c.op(1), Op::write(7)) << "cut " << cut;
    EXPECT_TRUE(c.precedes(0, 1));
  }
}

TEST(TextIo, ScannerWhitespaceAndCommentEdgeCases) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_computation(in);
  };
  // No trailing newline, on the stream and on the text overload.
  EXPECT_EQ(parse("computation\nnodes 2\nop 1 R 4\nend").op(1), Op::read(4));
  EXPECT_EQ(read_computation("computation\nnodes 2\nop 1 R 4\nend").op(1),
            Op::read(4));
  // Tabs, vertical tabs, form feeds and CRLF are all separators.
  const Computation tabs =
      parse("computation\r\n\tnodes\t2\r\nop\v0\fW 3 \r\nedge 0\t1\r\nend\r\n");
  EXPECT_EQ(tabs.op(0), Op::write(3));
  EXPECT_TRUE(tabs.precedes(0, 1));
  // '#' cuts a token short.
  EXPECT_EQ(parse("computation\nnodes 1\nop 0 W 3#x\nend\n").op(0),
            Op::write(3));
  // Empty input and a lone comment: nothing to read, line 0 / 1.
  for (const auto& [text, line] :
       {std::pair<std::string, std::size_t>{"", 0}, {"# only\n", 1}}) {
    try {
      (void)parse(text);
      ADD_FAILURE();
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                format("ccmm text parse error, line %zu: expected "
                       "'computation'",
                       line));
    }
  }
}

// Edge and op lines as write_computation spells them, and near misses
// of them (spacing, leading zeros, ranges, comments, CR), must agree
// with the reference, errors and line numbers included.
TEST(TextIo, CommonLinesAndTheirNearMissesMatchTheReference) {
  const std::vector<std::string> lines = {
      "edge 0 1", "edge 1 0", "edge 00 2", "edge 0  1", "edge  0 1",
      "edge 0 1 ", "edge 0 1 # c", "edge 0 1#c", "edge 0 1\r",
      "edge\t0 1", "edge 0 3", "edge 2 2", "edge 0", "edge 0 1 2",
      "edge -1 1", "edge 0 +1", "edge 99999999999999999999 1", "edge ",
      "op 0 R 4", "op 2 W 1073741824", "op 2 W 1073741825", "op 3 R 1",
      "op 0 N", "op 0 N 1", "op 0 R", "op 0 X 1", "op 0  R 1",
      "op 0 R  1", "op 0 R 1 ", "op 0 r 1", "op 00 W 007", "op 0 RW 1",
      "op 0 R -1", "op 0 R 1\r"};
  Tally tally;
  for (const std::string& line : lines)
    for (const char* nodes : {"nodes 3\n", "nodes 0\n", ""})
      differential("computation\n" + std::string(nodes) + line +
                       "\nedge 0 2\nend\n",
                   tally);
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(TextIo, PairWithObserverAfterEndWithoutNewline) {
  const TextPair p = [] {
    std::istringstream in(
        "computation\nnodes 2\nop 0 W 0\nop 1 R 0\nedge 0 1\nend\n"
        "\n# observer follows\nobserver\nphi 0 1 0\nphi 0 0 0\nend");
    return read_pair(in);
  }();
  ASSERT_TRUE(p.phi.has_value());
  EXPECT_EQ(p.phi->get(0, 1), 0u);
  EXPECT_EQ(p.phi->get(0, 0), 0u);
}

TEST(TextIo, StreamIsLeftAfterTheBlockItRead) {
  // Separate readers on one stream, as with a line-at-a-time reader.
  const auto p = examples::figure2();
  std::istringstream in(write_pair(p.c, p.phi) + "trailing\n");
  const Computation c = read_computation(in);
  EXPECT_EQ(c, p.c);
  EXPECT_EQ(read_observer(in, c.node_count()), p.phi);
  std::string rest;
  std::getline(in, rest);
  EXPECT_EQ(rest, "trailing");
}

/// A stream whose reads return at most `k` bytes however many are
/// asked for, as a socket or pipe may.
class TrickleBuf : public std::streambuf {
 public:
  TrickleBuf(std::string bytes, std::size_t k)
      : bytes_(std::move(bytes)), k_(k) {}

 protected:
  std::streamsize xsgetn(char* out, std::streamsize n) override {
    const std::size_t k = std::min({static_cast<std::size_t>(n), k_,
                                    bytes_.size() - at_});
    std::memcpy(out, bytes_.data() + at_, k);
    at_ += k;
    return static_cast<std::streamsize>(k);
  }

 private:
  std::string bytes_;
  std::size_t k_;
  std::size_t at_ = 0;
};

TEST(TextIo, ShortReadsMatchTheWholeText) {
  Rng rng(3);
  std::string text = random_pair_text(rng, 600);
  // A strand line longer than a block, and no '\n' after the last line.
  text.insert(text.find("strand"), "strand" + std::string(kBlock + 7, ' ') +
                                       "n0\n");
  text.pop_back();
  std::istringstream whole(text);
  const TextPair want = read_pair(whole);
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, kBlock / 3}) {
    TrickleBuf buf(text, k);
    std::istream in(&buf);
    const TextPair got = read_pair(in);
    EXPECT_EQ(got.c, want.c) << k;
    expect_same_sp(got.c, want.c);
    ASSERT_TRUE(got.phi.has_value());
    EXPECT_EQ(*got.phi, *want.phi) << k;
  }
}

// ---------------------------------------------------------------------
// The computation image (layout table in io/text.hpp).
// ---------------------------------------------------------------------

/// Text → image → text on one computation: the image decodes, through
/// the view and the stream overload, to what the text reader returned,
/// strands included, and re-encodes to itself and to the same text.
void expect_image_round_trip(const Computation& c, const std::string& ctx) {
  const std::string text = write_computation(c);
  const Computation parsed = read_computation(std::string_view(text));
  const std::string image = write_computation_image(parsed);
  ASSERT_TRUE(is_computation_image(image)) << ctx;
  std::istringstream in(image);
  for (const Computation& back :
       {read_computation(std::string_view(image)), read_computation(in)}) {
    EXPECT_EQ(back, parsed) << ctx;
    expect_same_sp(back, parsed);
    EXPECT_EQ(write_computation(back), text) << ctx;
    EXPECT_EQ(write_computation_image(back), image) << ctx;
  }
}

/// `c`'s dag with ops drawn from the alphabet over `nlocations`.
Computation labeled(Dag dag, std::size_t nlocations, Rng& rng) {
  const std::vector<Op> alphabet = op_alphabet(nlocations);
  std::vector<Op> ops(dag.node_count());
  for (Op& o : ops) o = alphabet[rng.below(alphabet.size())];
  return Computation(std::move(dag), std::move(ops));
}

/// The same graph with node ids permuted, so ids are no longer a
/// topological order and the acyclicity check has to run.
Dag shuffled(const Dag& dag, Rng& rng) {
  std::vector<NodeId> perm(dag.node_count());
  for (NodeId u = 0; u < perm.size(); ++u) perm[u] = u;
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  std::vector<Edge> edges;
  for (const Edge& e : dag.edges()) edges.push_back({perm[e.from], perm[e.to]});
  return Dag(dag.node_count(), edges);
}

TEST(ComputationImage, TextImageTextRoundTripsOnEveryFamily) {
  Rng rng(2024);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng g(seed);
    proc::RandomCilkOptions opt;
    opt.target_ops = 1 + g.below(3000);
    opt.nlocations = 1 + g.below(40);
    const Computation c = proc::random_cilk(opt, g);
    ASSERT_NE(c.sp_structure(), nullptr);
    expect_image_round_trip(c, "random_cilk " + std::to_string(seed));
    expect_image_round_trip(Computation(c.dag(), c.ops()),
                            "random_cilk without its parse " +
                                std::to_string(seed));
  }
  for (int i = 0; i < 10; ++i) {
    const std::vector<std::size_t> widths = {1 + rng.below(6), 1 + rng.below(9),
                                             1 + rng.below(9), 1 + rng.below(4)};
    const Dag dag = gen::layered(widths, 0.3, rng);
    expect_image_round_trip(labeled(dag, 3, rng), "layered");
    expect_image_round_trip(labeled(shuffled(dag, rng), 3, rng),
                            "layered, shuffled ids");
    const Dag sparse = gen::random_dag(50 + rng.below(400), 0.01, rng);
    expect_image_round_trip(labeled(sparse, 5, rng), "sparse");
    expect_image_round_trip(labeled(shuffled(sparse, rng), 5, rng),
                            "sparse, shuffled ids");
  }
  for (std::size_t n = 0; n <= 4; ++n)
    for_each_topo_dag(n, [&](const Dag& dag) {
      expect_image_round_trip(labeled(dag, 2, rng),
                              "exhaustive n=" + std::to_string(n));
      return !HasFailure();
    });
  for (const auto& p : examples::all()) expect_image_round_trip(p.c, p.name);
}

TEST(ComputationImage, EdgeCases) {
  for (const char* text :
       {"computation\nnodes 0\nend\n", "computation\nnodes 0\nstrand y_\nend\n",
        "computation\nnodes 3\nedge 0 1\nedge 1 2\nedge 0 1\nedge 1 2\n"
        "edge 0 1\nend\n",
        "computation\nnodes 4\nedge 2 1\nedge 3 2\nedge 2 1\nop 3 W 1073741824\n"
        "strand n3 s1 y_\nstrand\nend\n"}) {
    const Computation c = read_computation(std::string_view(text));
    expect_image_round_trip(c, text);
  }
  // nodes 0: a bare header. A lone y_ sync: one strand of one event
  // whose node is 0xFFFFFFFF.
  EXPECT_EQ(write_computation_image(Computation()).size(),
            kComputationImageHeaderBytes);
  const std::string lone = write_computation_image(
      read_computation("computation\nnodes 0\nstrand y_\nend\n"));
  ASSERT_EQ(lone.size(), kComputationImageHeaderBytes + 4 + 8);
  EXPECT_EQ(lone.substr(40), std::string("\x01\0\0\0\x02\0\0\0\xff\xff\xff\xff",
                                         12));
  // The text reader keeps the first of repeated edges; an image that
  // repeats one is not what the writer writes, and names the repeat.
  std::string twice = write_computation_image(
      read_computation("computation\nnodes 2\nedge 0 1\nend\n"));
  twice[24] = 2;  // edge_count 2
  twice += twice.substr(twice.size() - 8);
  try {
    (void)read_computation_image(twice);
    ADD_FAILURE() << "a repeated edge must not decode";
  } catch (const ImageReadError& e) {
    EXPECT_EQ(e.offset(), 40u + 16 + 8) << e.what();
    EXPECT_NE(std::string(e.what()).find("repeated edge"), std::string::npos);
  }
}

/// Bytes spelled as hex pairs, whitespace ignored.
std::string unhex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i < hex.size();) {
    if (hex[i] == ' ' || hex[i] == '\n') {
      ++i;
      continue;
    }
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    i += 2;
  }
  return out;
}

const char* const kThreeNodeText =
    "computation\nnodes 3\nop 0 W 5\nop 1 R 5\nedge 0 1\nedge 0 2\n"
    "edge 1 2\nstrand n0 s1 y2\nstrand n1\nend\n";

TEST(ComputationImage, PinsTheBytesOfAThreeNodeImage) {
  const std::string want = unhex(
      // magic, version 1, reserved, 3 nodes, 3 edges, 2 strands
      "43434d4d434d5030 01000000 00000000"
      "0300000000000000 0300000000000000 0200000000000000"
      // ops: W 5, R 5, N
      "0200000005000000 0100000005000000 0000000000000000"
      // edges 0→1, 0→2, 1→2
      "0000000001000000 0000000002000000 0100000002000000"
      // strand lengths 3, 1
      "03000000 01000000"
      // n0 s1 y2 | n1
      "0000000000000000 0100000001000000 0200000002000000"
      "0000000001000000");
  ASSERT_EQ(want.size(), 128u);
  const Computation c = read_computation(std::string_view(kThreeNodeText));
  EXPECT_EQ(write_computation_image(c), want);
  EXPECT_EQ(write_computation(read_computation(std::string_view(want))),
            kThreeNodeText);
}

/// One field the decoder must refuse, at the offset it must name.
TEST(ComputationImage, ErrorsNameTheOffsetOfTheBadField) {
  const std::string good = write_computation_image(
      read_computation(std::string_view(kThreeNodeText)));
  const auto expect_bad = [&](std::size_t at, std::string bytes,
                              std::size_t offset, const std::string& needle) {
    std::string image = good;
    image.replace(at, bytes.size(), bytes);
    try {
      (void)read_computation_image(image);
      ADD_FAILURE() << needle;
    } catch (const ImageReadError& e) {
      EXPECT_EQ(e.offset(), offset) << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
      EXPECT_EQ(std::string(e.what()).rfind(
                    format("computation image, offset %zu: ", offset), 0),
                0u)
          << e.what();
    }
  };
  const auto le32 = [](std::uint32_t v) {
    std::string b(4, '\0');
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
    return b;
  };
  expect_bad(0, "CCMMTRC0", 0, "bad magic");
  expect_bad(8, le32(2), 8, "version 2");
  expect_bad(12, le32(1), 12, "reserved");
  expect_bad(16, le32(1u << 29), 16, "exceeds 2^28");
  expect_bad(16, le32(20), 16, "node_count needs");
  expect_bad(24, le32(9), 24, "edge_count needs");
  expect_bad(32, le32(40), 32, "strand_count needs");
  expect_bad(40, "\x03", 40, "unknown op kind 3");
  expect_bad(49, "\x01", 49, "op reserved");
  expect_bad(48, std::string(1, '\0'), 52, "N op carries location 5");
  expect_bad(52, le32((1u << 30) + 1), 52, "exceeds 2^30");
  expect_bad(64, le32(3), 64, "names node 3");
  expect_bad(68, le32(7), 68, "names node 7");
  expect_bad(68, le32(0), 64, "self-loop");
  expect_bad(72, le32(1) + le32(2) + le32(0), 80, "follows row 1");
  expect_bad(76, le32(1), 72, "repeated edge");  // edges 0→1, 0→1, 1→2
  expect_bad(84, le32(0), 64, "cycle");          // edges 0→1, 0→2, 1→0
  expect_bad(88, le32(99), 88, "strand 0 ends past");
  expect_bad(96, "\x04", 96, "unknown strand event kind 4");
  expect_bad(99, "\x01", 97, "strand event reserved");
  expect_bad(100, le32(3), 100, "names node 3");
  expect_bad(108, le32(2), 108, "unknown strand 2");
  expect_bad(116, le32(3), 116, "names node 3");
  expect_bad(124, le32(kBottom), 124, "names node 4294967295");
  expect_bad(0, good + "x", 128, "1 bytes follow");
}

/// A forward-only stream that hands out a few bytes per refill and
/// cannot seek, like a pipe.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (at_ == bytes_.size()) return traits_type::eof();
    const std::size_t k = std::min(sizeof buf_, bytes_.size() - at_);
    std::memcpy(buf_, bytes_.data() + at_, k);
    at_ += k;
    setg(buf_, buf_, buf_ + k);
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  std::string bytes_;
  std::size_t at_ = 0;
  char buf_[7];
};

TEST(ComputationImage, StreamIsLeftJustPastTheImage) {
  const auto p = examples::figure2();
  const std::string image = write_computation_image(p.c);
  const std::string tail = write_observer(p.phi) + "trailing\n";
  {
    std::istringstream in(image + tail);
    EXPECT_EQ(read_computation(in), p.c);
    EXPECT_EQ(read_observer(in, p.c.node_count()), p.phi);
    std::string rest;
    std::getline(in, rest);
    EXPECT_EQ(rest, "trailing");
  }
  {
    std::istringstream in(image + write_observer(p.phi));
    const TextPair pair = read_pair(in);
    EXPECT_EQ(pair.c, p.c);
    ASSERT_TRUE(pair.phi.has_value());
    EXPECT_EQ(*pair.phi, p.phi);
  }
}

TEST(ComputationImage, NonSeekableStreams) {
  Rng rng(5);
  proc::RandomCilkOptions opt;
  opt.target_ops = 3000;
  const Computation c = proc::random_cilk(opt, rng);
  const std::string image = write_computation_image(c);
  {
    // The image reader asks for exactly its bytes, so even a stream
    // that cannot seek back is left just past it.
    PipeBuf buf(image + "trailing\n");
    std::istream in(&buf);
    const Computation back = read_computation(in);
    EXPECT_EQ(back, c);
    expect_same_sp(back, c);
    std::string rest;
    std::getline(in, rest);
    EXPECT_EQ(rest, "trailing");
  }
  {
    PipeBuf buf(write_computation(c));
    std::istream in(&buf);
    const Computation back = read_computation(in);
    EXPECT_EQ(back, c);
    expect_same_sp(back, c);
  }
  {
    const ObserverFunction phi = last_writer(c, c.dag().topological_order());
    PipeBuf buf(image + write_observer(phi));
    std::istream in(&buf);
    const TextPair pair = read_pair(in);
    EXPECT_EQ(pair.c, c);
    ASSERT_TRUE(pair.phi.has_value());
    EXPECT_EQ(*pair.phi, phi);
  }
}

/// Decodes `bytes` through the view and (when it carries the magic) the
/// stream entry: each either returns a computation whose image is the
/// bytes it read, or throws ImageReadError at an offset within them,
/// and neither asks for more memory than a constant times the input.
/// Returns whether either decoded.
bool expect_decodes_or_names_an_offset(const std::string& bytes) {
  bool decoded = false;
  const auto attempt = [&](const char* how, auto&& check, auto&& decode) {
    g_allocated = 0;
    g_count_allocations = true;
    std::optional<Computation> c;
    std::string error;
    std::size_t offset = 0;
    try {
      c = decode();
    } catch (const ImageReadError& e) {
      error = e.what();
      offset = e.offset();
    }
    g_count_allocations = false;
    EXPECT_LE(g_allocated, 32 * bytes.size() + (std::size_t{64} << 10))
        << how << ": " << error;
    if (c.has_value()) {
      SCOPED_TRACE(how);
      check(*c);
      decoded = true;
    } else {
      EXPECT_LE(offset, bytes.size()) << how << ": " << error;
    }
  };
  attempt("view", [&](const Computation& c) {
    EXPECT_TRUE(write_computation_image(c) == bytes);
  }, [&] { return read_computation_image(bytes); });
  if (is_computation_image(bytes)) {
    // A stream reads one image and leaves what follows it.
    std::istringstream in(bytes);
    attempt("stream", [&](const Computation& c) {
      const std::string again = write_computation_image(c);
      EXPECT_EQ(bytes.compare(0, again.size(), again), 0);
      EXPECT_EQ(static_cast<std::size_t>(in.tellg()), again.size());
    }, [&] { return read_computation(in); });
  }
  return decoded;
}

void put_le64(std::string& image, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    image[at + i] = static_cast<char>(v >> (8 * i));
}

TEST(ComputationImage, HostileImagesDecodeCanonicallyOrNameAnOffset) {
  std::vector<std::string> seeds = {write_computation_image(read_computation(
      std::string_view(kThreeNodeText)))};
  Rng rng(99);
  for (int i = 0; i < 3; ++i) {
    proc::RandomCilkOptions opt;
    opt.target_ops = 20 + rng.below(60);
    opt.nlocations = 3;
    const Computation c = proc::random_cilk(opt, rng);
    seeds.push_back(write_computation_image(c));
    seeds.push_back(write_computation_image(Computation(c.dag(), c.ops())));
  }
  std::size_t decoded = 0, rejected = 0;
  const auto run = [&](const std::string& bytes) {
    (expect_decodes_or_names_an_offset(bytes) ? decoded : rejected) += 1;
  };
  for (const std::string& image : seeds) {
    run(image);
    // Every truncation.
    for (std::size_t k = 0; k < image.size(); ++k) run(image.substr(0, k));
    // Seeded bit flips, one to three per mutant.
    for (int i = 0; i < 400; ++i) {
      std::string m = image;
      for (std::size_t f = 1 + rng.below(3); f > 0; --f) {
        const std::size_t at = rng.below(m.size());
        m[at] = static_cast<char>(m[at] ^ (1 << rng.below(8)));
      }
      run(m);
    }
    // Count fields at the edges of their ranges and past them.
    for (const std::size_t field : {16u, 24u, 32u})
      for (const std::uint64_t v :
           {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 28,
            (std::uint64_t{1} << 28) + 1, std::uint64_t{UINT32_MAX},
            std::uint64_t{1} << 32, (std::uint64_t{1} << 32) + 1,
            std::uint64_t{1} << 63, UINT64_MAX}) {
        std::string m = image;
        put_le64(m, field, v);
        run(m);
      }
  }
  // A bare header that claims 2^28 nodes.
  std::string header(kComputationImageHeaderBytes, '\0');
  std::memcpy(header.data(), kComputationImageMagic, 8);
  header[8] = 1;
  put_le64(header, 16, std::uint64_t{1} << 28);
  ASSERT_EQ(header.size(), 40u);
  run(header);
  EXPECT_GT(decoded, seeds.size());
  EXPECT_GT(rejected, 1000u);
}

TEST(DotIo, ContainsNodesEdgesAndObserver) {
  const auto p = examples::figure2();
  const std::string dot = to_dot(p.c, &p.phi);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("0: W(0)"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("rf"), std::string::npos);  // reads-from edge
  EXPECT_NE(dot.find("Φ(0)="), std::string::npos);
}

TEST(DotIo, PlainDag) {
  const std::string dot = to_dot(Dag(2, {{0, 1}}));
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

}  // namespace
}  // namespace ccmm::io
