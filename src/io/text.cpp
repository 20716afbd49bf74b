#include "io/text.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "util/str.hpp"

namespace ccmm::io {
namespace {

constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

/// Splits input into directive lines of whitespace-separated tokens,
/// skipping '#' comments and blank lines. The input is either a whole
/// in-memory text or a stream read in fixed blocks; a line that
/// straddles blocks is carried in one reused string. Tokens view the
/// text, the current block or the carry, and stay valid until the next
/// call to next().
class Scanner {
 public:
  explicit Scanner(std::string_view text) : rest_(text) {}
  /// A stream whose first bytes, `head`, the caller already read.
  explicit Scanner(std::istream& in, std::string_view head = {})
      : src_(in.rdbuf()),
        stream_(src_),
        block_(std::make_unique_for_overwrite<char[]>(kBlockBytes)) {
    if (!head.empty()) std::memcpy(block_.get(), head.data(), head.size());
    rest_ = {block_.get(), head.size()};
  }

  /// Next directive as tokens; empty at end of input.
  const std::vector<std::string_view>& next() {
    toks_.clear();
    std::string_view line;
    while (toks_.empty() && next_line(line)) {
      ++line_;
      split(line);
    }
    return toks_;
  }

  [[nodiscard]] std::size_t line() const { return line_; }

  /// Seek a stream back over the bytes read past the last line handed
  /// out, so it is left where a line-at-a-time reader would leave it.
  /// A stream that cannot seek keeps them consumed.
  void give_back() {
    if (stream_ != nullptr && !rest_.empty())
      stream_->pubseekoff(-static_cast<std::streamoff>(rest_.size()),
                          std::ios_base::cur, std::ios_base::in);
  }

 private:
  enum Class : std::uint8_t { kToken, kSpace, kComment };

  /// kSpace for the isspace() set of the C locale, kComment for '#'.
  static constexpr std::array<Class, 256> kClass = [] {
    std::array<Class, 256> cls{};
    for (const char ch : {' ', '\t', '\n', '\v', '\f', '\r'})
      cls[static_cast<unsigned char>(ch)] = kSpace;
    cls['#'] = kComment;
    return cls;
  }();
  static Class class_of(char ch) {
    return kClass[static_cast<unsigned char>(ch)];
  }

  /// One raw line, without its '\n'; false once the input is exhausted.
  bool next_line(std::string_view& line) {
    carry_.clear();
    for (;;) {
      const std::size_t nl = rest_.find('\n');
      if (nl != std::string_view::npos || src_ == nullptr) {
        line = rest_.substr(0, nl);
        rest_.remove_prefix(std::min(line.size() + 1, rest_.size()));
        if (!carry_.empty()) {
          carry_.append(line);
          line = carry_;
        }
        return nl != std::string_view::npos || !line.empty();
      }
      carry_.append(rest_);
      refill();
    }
  }

  void refill() {
    const std::streamsize got =
        src_->sgetn(block_.get(), static_cast<std::streamsize>(kBlockBytes));
    if (got <= 0) {
      src_ = nullptr;
      rest_ = {};
    } else {
      rest_ = {block_.get(), static_cast<std::size_t>(got)};
    }
  }

  /// Tokens of `line` up to its first '#'.
  void split(std::string_view line) {
    const char* p = line.data();
    const char* const end = p + line.size();
    for (;;) {
      while (p != end && class_of(*p) == kSpace) ++p;
      if (p == end || class_of(*p) == kComment) return;
      const char* const start = p;
      while (p != end && class_of(*p) == kToken) ++p;
      toks_.emplace_back(start, static_cast<std::size_t>(p - start));
    }
  }

  std::streambuf* src_ = nullptr;     // null once the stream is drained
  std::streambuf* stream_ = nullptr;  // the stream, for give_back()
  std::unique_ptr<char[]> block_;
  std::string_view rest_;  // unread part of the text or current block
  std::string carry_;
  std::vector<std::string_view> toks_;
  std::size_t line_ = 0;
};

/// The first bytes of a stream, up to the image magic's length: the
/// whole magic when the stream holds an image, else the start of a text
/// for the scanner to pick up.
std::string_view sniff(std::istream& in,
                       char (&head)[sizeof kComputationImageMagic]) {
  const std::streamsize got = in.rdbuf()->sgetn(head, sizeof head);
  return {head, static_cast<std::size_t>(std::max<std::streamsize>(got, 0))};
}

[[noreturn]] void parse_error(std::size_t line, const std::string& what) {
  throw std::runtime_error(format("ccmm text parse error, line %zu: %s",
                                  line, what.c_str()));
}

[[noreturn]] void out_of_range(const Scanner& r, std::string_view tok) {
  parse_error(r.line(), "number out of range: " + std::string(tok));
}

std::uint64_t parse_number(const Scanner& r, std::string_view tok,
                           std::uint64_t max) {
  std::uint64_t value = 0;
  if (tok.empty()) parse_error(r.line(), "expected a number");
  for (const char ch : tok) {
    if (ch < '0' || ch > '9')
      parse_error(r.line(),
                  "expected a number, got '" + std::string(tok) + "'");
    value = value * 10 + static_cast<std::uint64_t>(ch - '0');
    if (value > max) out_of_range(r, tok);
  }
  return value;
}

/// A node id of an n-node computation; every id is out of range when
/// n = 0.
NodeId parse_node(const Scanner& r, std::string_view tok, std::size_t n) {
  const std::uint64_t v = parse_number(r, tok, n > 0 ? n - 1 : 0);
  if (n == 0) out_of_range(r, tok);
  return static_cast<NodeId>(v);
}

Location parse_location(const Scanner& r, std::string_view tok) {
  return static_cast<Location>(parse_number(r, tok, 1u << 30));
}

Computation read_computation_body(Scanner& r) {
  {
    const auto& header = r.next();
    if (header.empty() || header[0] != "computation")
      parse_error(r.line(), "expected 'computation'");
  }

  std::optional<std::size_t> n;
  // One past the highest node id an edge or strand has named, so a
  // later 'nodes' cannot shrink the computation under them.
  std::size_t named = 0;
  std::vector<Op> ops;
  std::vector<Edge> edges;
  std::vector<std::vector<SpEvent>> strands;
  const auto node = [&](std::string_view tok) {
    const NodeId u = parse_node(r, tok, *n);
    named = std::max(named, std::size_t{u} + 1);
    return u;
  };
  for (;;) {
    const auto& t = r.next();
    if (t.empty()) parse_error(r.line(), "unexpected end of input");
    if (t[0] == "end") break;
    if (t[0] == "nodes") {
      if (t.size() != 2) parse_error(r.line(), "usage: nodes <n>");
      n = static_cast<std::size_t>(
          parse_number(r, t[1], std::uint64_t{1} << 28));
      if (named > *n)
        parse_error(r.line(),
                    format("node %zu named earlier is out of range for "
                           "nodes %zu",
                           named - 1, *n));
      ops.assign(*n, Op::nop());
    } else if (t[0] == "op") {
      if (!n.has_value()) parse_error(r.line(), "'op' before 'nodes'");
      if (t.size() < 3) parse_error(r.line(), "usage: op <id> N|R|W [loc]");
      const NodeId id = parse_node(r, t[1], *n);
      if (t[2] == "N") {
        if (t.size() != 3) parse_error(r.line(), "N takes no location");
        ops[id] = Op::nop();
      } else if (t[2] == "R" || t[2] == "W") {
        if (t.size() != 4) parse_error(r.line(), "R/W need a location");
        const Location loc = parse_location(r, t[3]);
        ops[id] = t[2] == "R" ? Op::read(loc) : Op::write(loc);
      } else {
        parse_error(r.line(), "unknown op kind '" + std::string(t[2]) + "'");
      }
    } else if (t[0] == "edge") {
      if (!n.has_value()) parse_error(r.line(), "'edge' before 'nodes'");
      if (t.size() != 3) parse_error(r.line(), "usage: edge <from> <to>");
      const NodeId from = node(t[1]);
      const NodeId to = node(t[2]);
      if (from == to)
        parse_error(r.line(), format("edge %u %u is a self-loop", from, to));
      if (edges.size() == kMaxDagEdges)
        parse_error(r.line(), format("more than %zu edges", kMaxDagEdges));
      edges.push_back({from, to});
    } else if (t[0] == "strand") {
      // One series-parallel strand per line, events in stream order:
      // n<node> (executed), s<strand> (spawn), y<node>|y_ (sync, '_' =
      // no join node), a<strand> (plain-call adoption). Strand indices
      // may point forward; they are validated once all lines are in.
      if (!n.has_value()) parse_error(r.line(), "'strand' before 'nodes'");
      std::vector<SpEvent> events;
      events.reserve(t.size() - 1);
      for (std::size_t i = 1; i < t.size(); ++i) {
        const std::string_view tok = t[i];
        if (tok.size() < 2)
          parse_error(r.line(), "bad strand event '" + std::string(tok) + "'");
        const std::string_view num = tok.substr(1);
        SpEvent e;
        switch (tok[0]) {
          case 'n':
            e.kind = SpEvent::Kind::kNode;
            e.node = node(num);
            break;
          case 's':
            e.kind = SpEvent::Kind::kSpawn;
            e.child =
                static_cast<std::uint32_t>(parse_number(r, num, UINT32_MAX));
            break;
          case 'y':
            e.kind = SpEvent::Kind::kSync;
            e.node = num == "_" ? kBottom : node(num);
            break;
          case 'a':
            e.kind = SpEvent::Kind::kAdopt;
            e.child =
                static_cast<std::uint32_t>(parse_number(r, num, UINT32_MAX));
            break;
          default:
            parse_error(r.line(),
                        "bad strand event '" + std::string(tok) + "'");
        }
        events.push_back(e);
      }
      strands.push_back(std::move(events));
    } else {
      parse_error(r.line(), "unknown directive '" + std::string(t[0]) + "'");
    }
  }
  if (!n.has_value()) parse_error(r.line(), "missing 'nodes'");
  Dag dag(*n, edges);
  if (!dag.is_acyclic()) parse_error(r.line(), "edges form a cycle");
  Computation c(std::move(dag), std::move(ops));
  if (!strands.empty()) {
    auto sp = std::make_shared<SpStructure>();
    sp->strands = std::move(strands);
    sp->node_count = *n;
    for (const auto& stream : sp->strands)
      for (const SpEvent& e : stream)
        if ((e.kind == SpEvent::Kind::kSpawn ||
             e.kind == SpEvent::Kind::kAdopt) &&
            e.child >= sp->strands.size())
          parse_error(r.line(),
                      format("strand event names unknown strand %u", e.child));
    c.set_sp_structure(std::move(sp));
  }
  return c;
}

/// The lines of an observer block after its 'observer' header.
ObserverFunction read_observer_body(Scanner& r, std::size_t node_count) {
  ObserverFunction phi(node_count);
  for (;;) {
    const auto& t = r.next();
    if (t.empty()) parse_error(r.line(), "unexpected end of input");
    if (t[0] == "end") break;
    if (t[0] != "phi")
      parse_error(r.line(), "unknown directive '" + std::string(t[0]) + "'");
    if (t.size() != 4)
      parse_error(r.line(), "usage: phi <loc> <node> <observed|_>");
    const Location loc = parse_location(r, t[1]);
    const NodeId u = parse_node(r, t[2], node_count);
    const NodeId v = t[3] == "_" ? kBottom : parse_node(r, t[3], node_count);
    phi.set(loc, u, v);
  }
  return phi;
}

/// Appends decimal integers and literals; the same bytes format()'s
/// %u / %zu would produce.
class Out {
 public:
  explicit Out(std::size_t reserve) { s_.reserve(reserve); }
  Out& operator<<(std::string_view text) {
    s_.append(text);
    return *this;
  }
  Out& operator<<(std::uint64_t v) {
    char buf[20];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    s_.append(buf, res.ptr);
    return *this;
  }
  std::string take() { return std::move(s_); }

 private:
  std::string s_;
};

}  // namespace

std::string write_computation(const Computation& c) {
  Out out(24 * (c.node_count() + c.dag().edge_count()) + 32);
  out << "computation\nnodes " << c.node_count() << "\n";
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    if (o.is_nop()) continue;  // N is the default
    out << "op " << u << (o.is_read() ? " R " : " W ") << o.loc << "\n";
  }
  const Dag& dag = c.dag();
  for (NodeId u = 0; u < c.node_count(); ++u)
    for (const NodeId v : dag.succ(u)) out << "edge " << u << " " << v << "\n";
  // The series-parallel parse rides along when the front end recorded
  // one: without it a reader falls back to generic-dag oracles, which
  // is a silent order-of-magnitude checking slowdown, not an error.
  const SpStructure* sp = c.sp_structure().get();
  if (sp != nullptr && sp->node_count == c.node_count()) {
    for (const auto& stream : sp->strands) {
      out << "strand";
      for (const SpEvent& e : stream) {
        switch (e.kind) {
          case SpEvent::Kind::kNode:
            out << " n" << e.node;
            break;
          case SpEvent::Kind::kSpawn:
            out << " s" << e.child;
            break;
          case SpEvent::Kind::kSync:
            if (e.node == kBottom)
              out << " y_";
            else
              out << " y" << e.node;
            break;
          case SpEvent::Kind::kAdopt:
            out << " a" << e.child;
            break;
        }
      }
      out << "\n";
    }
  }
  out << "end\n";
  return out.take();
}

Computation read_computation(std::istream& in) {
  char buf[sizeof kComputationImageMagic];
  const std::string_view head = sniff(in, buf);
  if (is_computation_image(head))
    return detail::read_computation_image_rest(*in.rdbuf());
  Scanner r(in, head);
  Computation c = read_computation_body(r);
  r.give_back();
  return c;
}

Computation read_computation(std::string_view text) {
  if (is_computation_image(text)) return read_computation_image(text);
  Scanner r(text);
  return read_computation_body(r);
}

std::string write_observer(const ObserverFunction& phi) {
  std::string out = "observer\n";
  for (const Location l : phi.active_locations())
    for (NodeId u = 0; u < phi.node_count(); ++u) {
      const NodeId v = phi.get(l, u);
      if (v != kBottom) out += format("phi %u %u %u\n", l, u, v);
    }
  out += "end\n";
  return out;
}

ObserverFunction read_observer(std::istream& in, std::size_t node_count) {
  Scanner r(in);
  {
    const auto& header = r.next();
    if (header.empty() || header[0] != "observer")
      parse_error(r.line(), "expected 'observer'");
  }
  ObserverFunction phi = read_observer_body(r, node_count);
  r.give_back();
  return phi;
}

std::string write_pair(const Computation& c, const ObserverFunction& phi) {
  return write_computation(c) + write_observer(phi);
}

TextPair read_pair(std::istream& in) {
  char buf[sizeof kComputationImageMagic];
  const std::string_view head = sniff(in, buf);
  const bool image = is_computation_image(head);
  TextPair pair;
  if (image) pair.c = detail::read_computation_image_rest(*in.rdbuf());
  Scanner r(in, image ? std::string_view{} : head);
  if (!image) pair.c = read_computation_body(r);
  // Optional observer block: peek for the header.
  {
    const auto& t = r.next();
    if (t.empty()) return pair;
    if (t[0] != "observer")
      parse_error(r.line(), "expected 'observer' or end of file");
  }
  pair.phi = read_observer_body(r, pair.c.node_count());
  r.give_back();
  return pair;
}

}  // namespace ccmm::io
