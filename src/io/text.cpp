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

/// kSpace for the isspace() set of the C locale except '\n', which ends
/// a line; kEnd for '\n' and for '#', which ends a line's tokens.
enum Class : std::uint8_t { kToken, kSpace, kEnd };
constexpr std::array<Class, 256> kClass = [] {
  std::array<Class, 256> cls{};
  for (const char ch : {' ', '\t', '\v', '\f', '\r'})
    cls[static_cast<unsigned char>(ch)] = kSpace;
  cls['\n'] = kEnd;
  cls['#'] = kEnd;
  return cls;
}();

Class class_of(char ch) { return kClass[static_cast<unsigned char>(ch)]; }

/// A token read as a decimal number no larger than the max it was
/// scanned against. `status` is the first failure left to right: a
/// byte that is not a digit, or a digit that takes the value past max.
/// The error waits until the caller has checked the line's token
/// count, which the grammar reports first.
struct Number {
  enum class Status : std::uint8_t { kOk, kNotANumber, kOutOfRange };
  std::string_view text;  // empty: the line had no token left
  std::uint64_t value = 0;
  Status status = Status::kOk;
};

/// The slow half of Reader::digits: the token at `tok`, through its
/// last byte, with the first failure kept.
[[gnu::cold]] Number scan_number(const char* tok, std::uint64_t max) {
  Number num;
  const char* p = tok;
  for (; class_of(*p) == kToken; ++p) {
    if (num.status != Number::Status::kOk) continue;
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d > 9) {
      num.status = Number::Status::kNotANumber;
    } else if ((num.value = num.value * 10 + d) > max) {
      num.status = Number::Status::kOutOfRange;
    }
  }
  num.text = {tok, static_cast<std::size_t>(p - tok)};
  return num;
}

/// One pass over a text: hands out its directive lines, skipping blank
/// and '#' comment lines and counting every line, and reads each line's
/// tokens in place, left to right, converting numbers as it scans them.
/// Tokens are split on the C locale's whitespace and cut at the first
/// '#'. The input is a whole in-memory text, or a stream read into a
/// 1 MiB block: the block's complete lines are parsed where they lie,
/// then the partial last line is moved to the front and the rest
/// refilled by one sgetn; a line longer than the block doubles it. So
/// memory beyond the result is one block, or the longest line rounded
/// up to a power of two. Every line handed out ends in a '\n' inside
/// the block (the stream's unterminated last line gets one in the
/// block's spare byte, the view's is copied), so the scan stops there
/// without a bounds check and never reads past the block.
class Reader {
 public:
  explicit Reader(std::string_view text)
      : p_(text.data()),
        end_(past_last_newline(p_, p_ + text.size())),
        tail_(p_ + text.size()) {
    if (end_ != tail_) {
      last_.assign(end_, tail_);
      last_ += '\n';
    }
  }
  /// A stream whose first bytes, `head`, the caller already read.
  explicit Reader(std::istream& in, std::string_view head = {})
      : src_(in.rdbuf()),
        stream_(src_),
        cap_(kBlockBytes),
        block_(std::make_unique_for_overwrite<char[]>(cap_ + 1)) {
    if (!head.empty()) std::memcpy(block_.get(), head.data(), head.size());
    p_ = block_.get();
    tail_ = p_ + head.size();
    end_ = past_last_newline(p_, tail_);
  }

  /// Moves to the next line that holds a token, past the rest of the
  /// current one; false at the end of the input.
  bool next() {
    if (in_line_) skip_line();
    for (;;) {
      if (p_ == end_ && !fill()) {
        in_line_ = false;
        return false;
      }
      ++line_;
      in_line_ = true;
      if (!done()) return true;
      skip_line();
    }
  }

  [[nodiscard]] std::size_t line() const { return line_; }

  /// True when the current line has no token left.
  bool done() {
    while (class_of(*p_) == kSpace) ++p_;
    return class_of(*p_) == kEnd;
  }

  /// The next token; empty when none is left.
  std::string_view word() {
    (void)done();
    const char* const start = p_;
    while (class_of(*p_) == kToken) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// The next token as a number; empty text when none is left.
  Number number(std::uint64_t max) {
    (void)done();
    return digits(max);
  }

  /// The first byte of the next token, which must exist (!done()).
  char take() { return *p_++; }
  [[nodiscard]] const char* at() const { return p_; }

  /// The rest of the current token as a number.
  Number digits(std::uint64_t max) {
    const char* const start = p_;
    std::uint64_t v = 0;
    for (unsigned d; (d = static_cast<unsigned char>(*p_) - unsigned{'0'}) <= 9;
         ++p_)
      v = v * 10 + d;
    const auto len = static_cast<std::size_t>(p_ - start);
    // Past 19 digits v may have wrapped; the slow scan decides.
    if (class_of(*p_) == kToken || len > 19 || v > max) [[unlikely]] {
      const Number num = scan_number(start, max);
      p_ = num.text.data() + num.text.size();
      return num;
    }
    return {{start, len}, v};
  }

  /// Seek a stream back over the bytes read past the current line, so
  /// it is left where a line-at-a-time reader would leave it. A stream
  /// that cannot seek keeps them consumed.
  void give_back() {
    if (in_line_) skip_line();
    in_line_ = false;
    if (stream_ != nullptr && p_ < tail_)
      stream_->pubseekoff(-static_cast<std::streamoff>(tail_ - p_),
                          std::ios_base::cur, std::ios_base::in);
  }

 private:
  /// Past the last '\n' in [from, to), or `from` when there is none.
  static const char* past_last_newline(const char* from, const char* to) {
    while (to != from && to[-1] != '\n') --to;
    return to;
  }

  void skip_line() {
    while (*p_ != '\n') ++p_;
    ++p_;
  }

  /// Makes [p_, end_) hold at least one whole line; false once the
  /// input is exhausted.
  bool fill() {
    if (src_ == nullptr) {  // a view, or a drained stream
      if (last_.empty() || end_ == last_.data() + last_.size()) return false;
      p_ = last_.data();
      end_ = p_ + last_.size();
      return true;
    }
    // [end_, tail_) is the partial last line, already scanned: only
    // the bytes a refill adds are searched for a '\n', so a source that
    // trickles a long line in still costs time linear in it.
    for (;;) {
      const auto keep = static_cast<std::size_t>(tail_ - end_);
      if (keep == cap_) {
        auto grown = std::make_unique_for_overwrite<char[]>(2 * cap_ + 1);
        std::memcpy(grown.get(), end_, keep);
        block_ = std::move(grown);
        cap_ *= 2;
      } else if (end_ != block_.get()) {
        std::memmove(block_.get(), end_, keep);
      }
      char* const block = block_.get();
      const std::streamsize got = src_->sgetn(
          block + keep, static_cast<std::streamsize>(cap_ - keep));
      p_ = block;
      tail_ = block + keep + std::max<std::streamsize>(got, 0);
      if (got <= 0) {
        src_ = nullptr;
        if (keep == 0) {
          end_ = tail_;
          return false;
        }
        block[keep] = '\n';  // ends the last line, in the spare byte
        end_ = tail_ + 1;
        return true;
      }
      end_ = past_last_newline(block + keep, tail_);
      if (end_ != block + keep) return true;
      end_ = block;  // no line ends yet: all of it is the partial line
    }
  }

  std::streambuf* src_ = nullptr;     // null once nothing is left to read
  std::streambuf* stream_ = nullptr;  // the stream, for give_back()
  std::size_t cap_ = 0;
  std::unique_ptr<char[]> block_;     // cap_ + 1 bytes
  std::string last_;  // a view's unterminated last line, plus '\n'
  const char* p_ = nullptr;     // the scan position
  const char* end_ = nullptr;   // past the last whole line read
  const char* tail_ = nullptr;  // past the last byte the stream gave
  std::size_t line_ = 0;
  bool in_line_ = false;
};

/// The first bytes of a stream, up to the image magic's length: the
/// whole magic when the stream holds an image, else the start of a text
/// for the reader to pick up.
std::string_view sniff(std::istream& in,
                       char (&head)[sizeof kComputationImageMagic]) {
  const std::streamsize got = in.rdbuf()->sgetn(head, sizeof head);
  return {head, static_cast<std::size_t>(std::max<std::streamsize>(got, 0))};
}

[[noreturn]] void parse_error(std::size_t line, const std::string& what) {
  throw std::runtime_error(format("ccmm text parse error, line %zu: %s",
                                  line, what.c_str()));
}

[[noreturn]] void out_of_range(const Reader& r, std::string_view tok) {
  parse_error(r.line(), "number out of range: " + std::string(tok));
}

[[noreturn, gnu::cold]] void bad_number(const Reader& r, const Number& num) {
  if (num.text.empty()) parse_error(r.line(), "expected a number");
  if (num.status == Number::Status::kOutOfRange) out_of_range(r, num.text);
  parse_error(r.line(),
              "expected a number, got '" + std::string(num.text) + "'");
}

/// The value of a number token, or its error.
std::uint64_t value(const Reader& r, const Number& num) {
  if (num.text.empty() || num.status != Number::Status::kOk) [[unlikely]]
    bad_number(r, num);
  return num.value;
}

/// The largest id of an n-node computation, which a node token is
/// scanned against; every id is out of range when n = 0.
std::uint64_t max_id(std::size_t n) { return n > 0 ? n - 1 : 0; }

/// A node id scanned against max_id(n).
NodeId node_id(const Reader& r, const Number& num, std::size_t n) {
  const std::uint64_t v = value(r, num);
  if (n == 0) out_of_range(r, num.text);
  return static_cast<NodeId>(v);
}

constexpr std::uint64_t kMaxLocation = std::uint64_t{1} << 30;

/// Everything up to and including the 'end' line; the reader is left
/// on that line.
Computation read_computation_body(Reader& r) {
  if (!r.next() || r.word() != "computation")
    parse_error(r.line(), "expected 'computation'");

  std::optional<std::size_t> n;
  std::uint64_t max_node = 0;
  // One past the highest node id an edge or strand has named, so a
  // later 'nodes' cannot shrink the computation under them.
  std::size_t named = 0;
  std::vector<Op> ops;
  std::vector<Edge> edges;
  SpStructure sp;
  std::uint32_t max_child = 0;  // the largest s/a strand index named
  const auto node = [&](const Number& num) {
    const NodeId u = node_id(r, num, *n);
    named = std::max(named, std::size_t{u} + 1);
    return u;
  };
  for (;;) {
    if (!r.next()) parse_error(r.line(), "unexpected end of input");
    const std::string_view directive = r.word();
    if (directive == "edge") {
      if (!n.has_value()) parse_error(r.line(), "'edge' before 'nodes'");
      const Number a = r.number(max_node);
      const Number b = r.number(max_node);
      if (b.text.empty() || !r.done())
        parse_error(r.line(), "usage: edge <from> <to>");
      const NodeId from = node(a);
      const NodeId to = node(b);
      if (from == to)
        parse_error(r.line(), format("edge %u %u is a self-loop", from, to));
      if (edges.size() == kMaxDagEdges)
        parse_error(r.line(), format("more than %zu edges", kMaxDagEdges));
      edges.push_back({from, to});
    } else if (directive == "op") {
      if (!n.has_value()) parse_error(r.line(), "'op' before 'nodes'");
      const Number id = r.number(max_node);
      const std::string_view kind = r.word();
      if (kind.empty()) parse_error(r.line(), "usage: op <id> N|R|W [loc]");
      const NodeId u = node_id(r, id, *n);
      if (kind == "N") {
        if (!r.done()) parse_error(r.line(), "N takes no location");
        ops[u] = Op::nop();
      } else if (kind == "R" || kind == "W") {
        const Number loc = r.number(kMaxLocation);
        if (loc.text.empty() || !r.done())
          parse_error(r.line(), "R/W need a location");
        const auto l = static_cast<Location>(value(r, loc));
        ops[u] = kind == "R" ? Op::read(l) : Op::write(l);
      } else {
        parse_error(r.line(), "unknown op kind '" + std::string(kind) + "'");
      }
    } else if (directive == "strand") {
      // One series-parallel strand per line, events in stream order:
      // n<node> (executed), s<strand> (spawn), y<node>|y_ (sync, '_' =
      // no join node), a<strand> (plain-call adoption). Strand indices
      // may point forward; they are validated once all lines are in.
      if (!n.has_value()) parse_error(r.line(), "'strand' before 'nodes'");
      while (!r.done()) {
        const char* const tok = r.at();
        const char kind = r.take();
        const bool names_node = kind == 'n' || kind == 'y';
        const Number num = r.digits(names_node ? max_node : UINT32_MAX);
        if (num.text.empty() || (!names_node && kind != 's' && kind != 'a'))
          parse_error(r.line(), "bad strand event '" +
                                    std::string(tok, r.at()) + "'");
        SpEvent e;
        switch (kind) {
          case 'n':
            e.kind = SpEvent::Kind::kNode;
            e.node = node(num);
            break;
          case 'y':
            e.kind = SpEvent::Kind::kSync;
            e.node = num.text == "_" ? kBottom : node(num);
            break;
          default:
            e.kind =
                kind == 's' ? SpEvent::Kind::kSpawn : SpEvent::Kind::kAdopt;
            e.child = static_cast<std::uint32_t>(value(r, num));
            max_child = std::max(max_child, e.child);
        }
        sp.events.push_back(e);
      }
      sp.end_strand();
    } else if (directive == "end") {
      break;
    } else if (directive == "nodes") {
      const Number count = r.number(std::uint64_t{1} << 28);
      if (count.text.empty() || !r.done())
        parse_error(r.line(), "usage: nodes <n>");
      n = static_cast<std::size_t>(value(r, count));
      max_node = max_id(*n);
      if (named > *n)
        parse_error(r.line(),
                    format("node %zu named earlier is out of range for "
                           "nodes %zu",
                           named - 1, *n));
      ops.assign(*n, Op::nop());
    } else {
      parse_error(r.line(),
                  "unknown directive '" + std::string(directive) + "'");
    }
  }
  if (!n.has_value()) parse_error(r.line(), "missing 'nodes'");
  Dag dag(*n, edges);
  edges = {};
  if (!dag.is_acyclic()) parse_error(r.line(), "edges form a cycle");
  Computation c(std::move(dag), std::move(ops));
  if (sp.strand_count() != 0) {
    if (max_child >= sp.strand_count())  // name the first such event
      for (const SpEvent& e : sp.events)
        if ((e.kind == SpEvent::Kind::kSpawn ||
             e.kind == SpEvent::Kind::kAdopt) &&
            e.child >= sp.strand_count())
          parse_error(r.line(), format("strand event names unknown strand %u",
                                       e.child));
    sp.node_count = *n;
    c.set_sp_structure(std::make_shared<SpStructure>(std::move(sp)));
  }
  return c;
}

/// The lines of an observer block after its 'observer' header.
ObserverFunction read_observer_body(Reader& r, std::size_t node_count) {
  ObserverFunction phi(node_count);
  const std::uint64_t max_node = max_id(node_count);
  for (;;) {
    if (!r.next()) parse_error(r.line(), "unexpected end of input");
    const std::string_view directive = r.word();
    if (directive == "end") break;
    if (directive != "phi")
      parse_error(r.line(),
                  "unknown directive '" + std::string(directive) + "'");
    const Number loc = r.number(kMaxLocation);
    const Number u = r.number(max_node);
    const Number v = r.number(max_node);
    if (v.text.empty() || !r.done())
      parse_error(r.line(), "usage: phi <loc> <node> <observed|_>");
    const auto l = static_cast<Location>(value(r, loc));
    const NodeId from = node_id(r, u, node_count);
    const NodeId to = v.text == "_" ? kBottom : node_id(r, v, node_count);
    phi.set(l, from, to);
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
    for (std::size_t s = 0; s < sp->strand_count(); ++s) {
      out << "strand";
      for (const SpEvent& e : sp->strand(s)) {
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
  Reader r(in, head);
  Computation c = read_computation_body(r);
  r.give_back();
  return c;
}

Computation read_computation(std::string_view text) {
  if (is_computation_image(text)) return read_computation_image(text);
  Reader r(text);
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
  Reader r(in);
  if (!r.next() || r.word() != "observer")
    parse_error(r.line(), "expected 'observer'");
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
  Reader r(in, image ? std::string_view{} : head);
  if (!image) pair.c = read_computation_body(r);
  // Optional observer block: peek for the header.
  if (!r.next()) return pair;
  if (r.word() != "observer")
    parse_error(r.line(), "expected 'observer' or end of file");
  pair.phi = read_observer_body(r, pair.c.node_count());
  r.give_back();
  return pair;
}

}  // namespace ccmm::io
