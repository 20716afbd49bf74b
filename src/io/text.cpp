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
#include "util/thread_pool.hpp"

namespace ccmm::io {
namespace {

constexpr std::size_t kBlockBytes = std::size_t{1} << 20;
/// The fewest bytes of whole lines a parallel round is worth its two
/// pool passes for.
constexpr std::size_t kMinRoundBytes = std::size_t{64} << 10;
/// A round's chunks per pool worker: the pool's work stealing evens
/// out chunks whose lines cost more per byte (strands against edges).
constexpr std::size_t kChunksPerWorker = 4;

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

/// Reads whole lines in place: hands out the lines that hold a token,
/// skipping blank and '#' comment lines and counting every line, and
/// reads each line's tokens left to right, converting numbers as it
/// scans them. Tokens are split on the C locale's whitespace and cut at
/// the first '#'. Every line in [p_, end_) ends in a '\n', so the scan
/// stops there without a bounds check.
class Cursor {
 public:
  Cursor() = default;
  /// [p, end) holds whole lines.
  Cursor(const char* p, const char* end) : p_(p), end_(end) {}

  /// Moves to the next line that holds a token, past the rest of the
  /// current one; false when no line is left.
  bool next_line() {
    if (in_line_) skip_line();
    for (;;) {
      if (p_ == end_) {
        in_line_ = false;
        return false;
      }
      ++line_;
      in_line_ = true;
      if (!done()) return true;
      skip_line();
    }
  }

  /// Past the current line: the start of the lines not yet read.
  const char* line_end() {
    if (in_line_) skip_line();
    in_line_ = false;
    return p_;
  }

  /// Lines passed so far, the current one included.
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

  /// Passes the tokens left on the current line; returns how many.
  std::size_t tokens() {
    std::size_t count = 0;
    bool in_token = false;
    for (Class c; (c = class_of(*p_)) != kEnd; ++p_) {
      count += static_cast<std::size_t>(c == kToken && !in_token);
      in_token = c == kToken;
    }
    return count;
  }

  /// Passes the rest of the current line unread.
  void skip_rest() {
    p_ = static_cast<const char*>(
             std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_))) +
         1;
    in_line_ = false;
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

 protected:
  void skip_line() {
    while (*p_ != '\n') ++p_;
    ++p_;
  }

  const char* p_ = nullptr;    // the scan position
  const char* end_ = nullptr;  // past the last whole line
  std::size_t line_ = 0;
  bool in_line_ = false;
};

/// A whole input as a Cursor over blocks of whole lines. A stream is
/// read into a 1 MiB block: the block's whole lines are read where they
/// lie, then the partial last line is moved to the front and the rest
/// refilled by one sgetn; a line longer than the block doubles it. So
/// memory beyond the result is one block, or the longest line rounded
/// up to a power of two. A view is read where it lies, in windows of
/// about a block of whole lines; its unterminated last line is copied
/// with a '\n' added, and a stream's gets one in the block's spare
/// byte, so no scan reads past the block or the view.
class Reader : public Cursor {
 public:
  explicit Reader(std::string_view text)
      : big_(text.size() >= kBlockBytes),
        view_end_(past_last_newline(text.data(), text.data() + text.size())) {
    const char* const tail = text.data() + text.size();
    if (view_end_ != tail) {
      last_.assign(view_end_, tail);
      last_ += '\n';
    }
    p_ = end_ = text.data();
    if (view_end_ != p_) end_ = window(p_);
  }
  /// A stream whose first bytes, `head`, the caller already read.
  explicit Reader(std::istream& in, std::string_view head = {})
      : src_(in.rdbuf()),
        stream_(src_),
        cap_(kBlockBytes),
        block_(std::make_unique_for_overwrite<char[]>(cap_ + 1)),
        read_(head.size()) {
    if (!head.empty()) std::memcpy(block_.get(), head.data(), head.size());
    p_ = block_.get();
    tail_ = p_ + head.size();
    end_ = past_last_newline(p_, tail_);
  }

  /// Moves to the next line that holds a token, past the rest of the
  /// current one; false at the end of the input.
  bool next() {
    while (!next_line())
      if (!fill()) return false;
    return true;
  }

  /// Whether to try a parallel round before the next line: the input
  /// holds a block or more, and none was tried on the current block or
  /// the current block is used up.
  bool round_due() {
    return big_ && (round_fill_ != fills_ || line_end() == end_);
  }

  /// The whole lines after the current one, filling the block first
  /// when none is left (empty at the end of the input); the block's
  /// round counts as tried.
  std::string_view round_lines() {
    if (line_end() == end_ && !fill()) return {};
    round_fill_ = fills_;
    return {p_, static_cast<std::size_t>(end_ - p_)};
  }

  /// Moves past whole lines a round took: `lines` of them, ending at
  /// `to`.
  void advance(const char* to, std::size_t lines) {
    p_ = to;
    line_ += lines;
  }

  /// Seek a stream back over the bytes read past the current line, so
  /// it is left where a line-at-a-time reader would leave it. A stream
  /// that cannot seek keeps them consumed.
  void give_back() {
    (void)line_end();
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

  /// A view's window from `from`: its whole lines up to about a block
  /// on, and at least one.
  [[nodiscard]] const char* window(const char* from) const {
    const auto left = static_cast<std::size_t>(view_end_ - from);
    if (left <= kBlockBytes) return view_end_;
    const char* const end = past_last_newline(from, from + kBlockBytes);
    if (end != from) return end;
    return static_cast<const char*>(std::memchr(from + kBlockBytes, '\n',
                                                left - kBlockBytes)) +
           1;
  }

  /// Makes [p_, end_) hold at least one whole line; false once the
  /// input is exhausted.
  bool fill() {
    if (src_ == nullptr) {  // a view, or a drained stream
      if (block_ != nullptr || end_ == last_.data() + last_.size())
        return false;
      if (end_ != view_end_) {
        p_ = end_;
        end_ = window(p_);
      } else if (!last_.empty()) {
        p_ = last_.data();
        end_ = p_ + last_.size();
      } else {
        return false;
      }
      ++fills_;
      return true;
    }
    ++fills_;
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
      read_ += static_cast<std::size_t>(got);
      big_ = big_ || read_ >= kBlockBytes;
      end_ = past_last_newline(block + keep, tail_);
      if (end_ != block + keep) return true;
      end_ = block;  // no line ends yet: all of it is the partial line
    }
  }

  std::streambuf* src_ = nullptr;     // null once nothing is left to read
  std::streambuf* stream_ = nullptr;  // the stream, for give_back()
  std::size_t cap_ = 0;
  std::unique_ptr<char[]> block_;     // cap_ + 1 bytes; null for a view
  const char* tail_ = nullptr;  // past the last byte the stream gave
  std::size_t read_ = 0;        // bytes taken from the stream so far
  bool big_ = false;            // the input holds a block or more
  const char* view_end_ = nullptr;  // past a view's last whole line
  std::string last_;  // a view's unterminated last line, plus '\n'
  std::size_t fills_ = 0;       // blocks (windows) read so far
  std::size_t round_fill_ = SIZE_MAX;  // the block whose round was tried
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

[[noreturn]] void out_of_range(const Cursor& r, std::string_view tok) {
  parse_error(r.line(), "number out of range: " + std::string(tok));
}

[[noreturn, gnu::cold]] void bad_number(const Cursor& r, const Number& num) {
  if (num.text.empty()) parse_error(r.line(), "expected a number");
  if (num.status == Number::Status::kOutOfRange) out_of_range(r, num.text);
  parse_error(r.line(),
              "expected a number, got '" + std::string(num.text) + "'");
}

/// The value of a number token, or its error.
std::uint64_t value(const Cursor& r, const Number& num) {
  if (num.text.empty() || num.status != Number::Status::kOk) [[unlikely]]
    bad_number(r, num);
  return num.value;
}

/// The largest id of an n-node computation, which a node token is
/// scanned against; every id is out of range when n = 0.
std::uint64_t max_id(std::size_t n) { return n > 0 ? n - 1 : 0; }

/// A node id scanned against max_id(n).
NodeId node_id(const Cursor& r, const Number& num, std::size_t n) {
  const std::uint64_t v = value(r, num);
  if (n == 0) out_of_range(r, num.text);
  return static_cast<NodeId>(v);
}

constexpr std::uint64_t kMaxLocation = std::uint64_t{1} << 30;

/// The node count a block's lines are read against, from its last
/// 'nodes' line.
struct Nodes {
  std::size_t n = 0;
  std::uint64_t max = 0;  // max_id(n)
};

// The lines a computation block repeats, after their directive. The
// serial loop and the parallel rounds read them through these, so both
// take and reject exactly the same lines with the same messages.

std::pair<NodeId, Op> op_line(Cursor& r, const Nodes& g) {
  const Number id = r.number(g.max);
  const std::string_view kind = r.word();
  if (kind.empty()) parse_error(r.line(), "usage: op <id> N|R|W [loc]");
  const NodeId u = node_id(r, id, g.n);
  if (kind == "N") {
    if (!r.done()) parse_error(r.line(), "N takes no location");
    return {u, Op::nop()};
  }
  if (kind != "R" && kind != "W")
    parse_error(r.line(), "unknown op kind '" + std::string(kind) + "'");
  const Number loc = r.number(kMaxLocation);
  if (loc.text.empty() || !r.done())
    parse_error(r.line(), "R/W need a location");
  const auto l = static_cast<Location>(value(r, loc));
  return {u, kind == "R" ? Op::read(l) : Op::write(l)};
}

Edge edge_line(Cursor& r, const Nodes& g) {
  const Number a = r.number(g.max);
  const Number b = r.number(g.max);
  if (b.text.empty() || !r.done())
    parse_error(r.line(), "usage: edge <from> <to>");
  const NodeId from = node_id(r, a, g.n);
  const NodeId to = node_id(r, b, g.n);
  if (from == to)
    parse_error(r.line(), format("edge %u %u is a self-loop", from, to));
  return {from, to};
}

/// One series-parallel strand, events in stream order: n<node>
/// (executed), s<strand> (spawn), y<node>|y_ (sync, '_' = no join
/// node), a<strand> (plain-call adoption). Each event goes to put(e).
/// Strand indices may point forward; they are validated once all lines
/// are in.
template <typename Put>
void strand_line(Cursor& r, const Nodes& g, const Put& put) {
  while (!r.done()) {
    const char* const tok = r.at();
    const char kind = r.take();
    const bool names_node = kind == 'n' || kind == 'y';
    const Number num = r.digits(names_node ? g.max : UINT32_MAX);
    if (num.text.empty() || (!names_node && kind != 's' && kind != 'a'))
      parse_error(r.line(),
                  "bad strand event '" + std::string(tok, r.at()) + "'");
    switch (kind) {
      case 'n':
        put(SpEvent{SpEvent::Kind::kNode, node_id(r, num, g.n)});
        break;
      case 'y':
        put(SpEvent{SpEvent::Kind::kSync,
                    num.text == "_" ? kBottom : node_id(r, num, g.n)});
        break;
      default:
        put(SpEvent{kind == 's' ? SpEvent::Kind::kSpawn
                                : SpEvent::Kind::kAdopt,
                    static_cast<std::uint32_t>(value(r, num))});
    }
  }
}

/// What a block's edges and strands have named: one past the highest
/// node id, so a later 'nodes' cannot shrink the computation under
/// them, and the largest s/a strand index.
struct Named {
  std::size_t nodes = 0;
  std::uint32_t strand = 0;

  void node(NodeId u) { nodes = std::max(nodes, std::size_t{u} + 1); }
  void event(const SpEvent& e) {
    if (e.kind == SpEvent::Kind::kSpawn || e.kind == SpEvent::Kind::kAdopt)
      strand = std::max(strand, e.id);
    else if (e.id != kBottom)
      node(e.id);
  }
  void add(const Named& o) {
    nodes = std::max(nodes, o.nodes);
    strand = std::max(strand, o.strand);
  }
};

/// The edges as the dag's succ rows while their sources never decrease
/// (write_computation's order), so the dag adopts them as they are;
/// the first edge out of row order turns them into an edge list.
struct EdgeRows {
  std::vector<std::uint32_t> off;  // n + 1 entries; off[0, rows) are set
  std::vector<NodeId> tgt;
  std::size_t rows = 0;  // the rows whose start is set
  std::vector<Edge> list;
  bool listed = false;

  [[nodiscard]] std::size_t size() const {
    return listed ? list.size() : tgt.size();
  }
  void add(Edge e) {
    if (!listed && e.from + std::size_t{1} < rows) to_list();
    if (listed) {
      list.push_back(e);
      return;
    }
    for (; rows <= e.from; ++rows)
      off[rows] = static_cast<std::uint32_t>(tgt.size());
    tgt.push_back(e.to);
  }
  void to_list() {
    for (NodeId u = 0; u < rows; ++u) {
      const std::size_t end =
          u + std::size_t{1} < rows ? off[u + 1] : tgt.size();
      for (std::size_t k = off[u]; k < end; ++k) list.push_back({u, tgt[k]});
    }
    off = {};
    tgt = {};
    listed = true;
  }
  Dag dag(std::size_t n) && {
    if (listed) return Dag(n, list);
    for (; rows <= n; ++rows)
      off[rows] = static_cast<std::uint32_t>(tgt.size());
    return Dag(n, std::move(off), std::move(tgt));
  }
};

/// A computation block's state between its 'nodes' line and 'end'.
struct Block {
  std::optional<Nodes> nodes;
  std::vector<Op> ops;
  EdgeRows edges;
  SpStructure sp;
  Named named;
};

/// One slice of a parallel round's lines. The count pass reads what
/// its slots need and writes only here; the write pass reads the lines
/// the round took in full, into those slots.
struct Chunk {
  const char* begin = nullptr;
  const char* end = nullptr;  // where it stopped taking lines
  std::size_t lines = 0;      // lines in [begin, end)
  bool whole = true;          // it took every line it was given
  bool failed = false;        // the write pass met an error at `end`
  std::size_t edges = 0, strands = 0, events = 0;
  NodeId op_lo = kBottom, op_hi = 0;  // the range of its op ids
  NodeId from_lo = 0, from_hi = 0;    // its first and last edge's source
  Named named;                        // from the write pass
  // Its first edge, strand and event slot, and the rows already set.
  std::size_t edge_at = 0, strand_at = 0, event_at = 0, rows = 0;
};

/// A node id token, or nothing when the serial loop would reject it.
std::optional<NodeId> id_token(Cursor& r, const Nodes& g) {
  const Number num = r.number(g.max);
  if (num.text.empty() || num.status != Number::Status::kOk || g.n == 0)
    return std::nullopt;
  return static_cast<NodeId>(num.value);
}

/// Counts one line of a chunk after its directive: an op's id, an
/// edge's source, a strand's tokens (one per event). False for a line
/// the chunk does not take: another directive, an id that is not one,
/// or an edge out of row order.
bool count_line(Cursor& r, std::string_view directive, const Nodes& g,
                Chunk& k) {
  if (directive == "op") {
    const std::optional<NodeId> u = id_token(r, g);
    if (!u.has_value()) return false;
    k.op_lo = std::min(k.op_lo, *u);
    k.op_hi = std::max(k.op_hi, *u);
    r.skip_rest();
  } else if (directive == "edge") {
    const std::optional<NodeId> from = id_token(r, g);
    if (!from.has_value() || (k.edges > 0 && *from < k.from_hi))
      return false;
    if (k.edges++ == 0) k.from_lo = *from;
    k.from_hi = *from;
    r.skip_rest();
  } else if (directive == "strand") {
    k.events += r.tokens();
    ++k.strands;
  } else {
    return false;
  }
  return true;
}

/// The count pass over one chunk: counts its op, edge and strand lines
/// in order and stops before the first it does not take, which the
/// serial loop then reads ('nodes', 'end', …).
void count_chunk(Chunk& chunk, const Nodes& g) {
  Chunk k = chunk;  // a local copy: neighbouring chunks share cache lines
  Cursor r(k.begin, k.end);
  const char* at = k.begin;
  std::size_t lines = 0;
  for (; r.next_line(); at = r.line_end(), lines = r.line())
    if (!count_line(r, r.word(), g, k)) {
      k.end = at;
      k.whole = false;
      break;
    }
  k.lines = k.whole ? r.line() : lines;
  chunk = k;
}

/// The write pass over the lines a count pass took, through the serial
/// loop's line functions: ops by id, edge targets, row starts, strand
/// events and strand ends into the chunk's slots. A line the grammar
/// rejects stops it there, and the serial loop reads that line again.
void write_chunk(Chunk& chunk, const Nodes& g, Block& b) {
  Chunk k = chunk;
  Cursor r(k.begin, k.end);
  Op* const ops = b.ops.data();
  std::uint32_t* const off = b.edges.off.data();
  NodeId* const tgt = b.edges.tgt.data();
  SpEvent* const events = b.sp.events.data();
  std::size_t* const ends = b.sp.offsets.data();
  std::size_t edge = k.edge_at, rows = k.rows;
  std::size_t strand = k.strand_at, event = k.event_at;
  const char* at = k.begin;
  std::size_t lines = 0;
  try {
    for (; r.next_line(); at = r.line_end(), lines = r.line()) {
      const std::string_view directive = r.word();
      if (directive == "op") {
        const auto [u, o] = op_line(r, g);
        ops[u] = o;
      } else if (directive == "edge") {
        const Edge e = edge_line(r, g);
        k.named.node(std::max(e.from, e.to));
        for (; rows <= e.from; ++rows)
          off[rows] = static_cast<std::uint32_t>(edge);
        tgt[edge++] = e.to;
      } else {
        strand_line(r, g, [&](const SpEvent& e) {
          k.named.event(e);
          events[event++] = e;
        });
        ends[++strand] = event;
      }
    }
  } catch (const std::exception&) {
    k.end = at;
    k.lines = lines;
    k.failed = true;
  }
  chunk = k;
}

/// Resizes `v` to `size` for a round's writes. The first growth
/// reserves 1.5 entries per node, about what a fork/join text has of
/// edges and of strand events, so the array is not copied as it grows;
/// past that it doubles.
template <typename T>
void grow(std::vector<T>& v, std::size_t size, std::size_t n) {
  if (size > v.capacity())
    v.reserve(std::max({size, n + n / 2, 2 * v.capacity()}));
  v.resize(size);
}

/// One parallel round over the whole lines the reader's block holds
/// after the current one, split into a chunk per pool worker at line
/// starts. The chunks are counted in parallel, then taken in order up
/// to the first that stopped early, or up to the first whose op ids
/// could meet an earlier chunk's, whose first edge breaks row order or
/// whose edges pass kMaxDagEdges. The taken chunks are written in
/// parallel into slots the counts gave them, no two writing one slot,
/// and the serial loop goes on at the first line not taken, or at the
/// first line a write pass rejected, which it rejects again. Chunks
/// allocate nothing; `chunks` is reused.
void parallel_round(Reader& r, const Nodes& g, Block& b,
                    std::vector<Chunk>& chunks) {
  const std::string_view lines = r.round_lines();
  ThreadPool& pool = global_pool();
  if (lines.size() < kMinRoundBytes || pool.size() < 2) return;
  chunks.assign(kChunksPerWorker * pool.size(), Chunk{});
  const char* at = lines.data();
  const char* const end = at + lines.size();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].begin = at;
    if (i + 1 == chunks.size()) {
      at = end;
    } else {
      const char* cut = lines.data() + lines.size() * (i + 1) / chunks.size();
      if (cut > at && cut[-1] != '\n')
        cut = static_cast<const char*>(std::memchr(cut, '\n', end - cut)) + 1;
      at = std::max(at, cut);
    }
    chunks[i].end = at;
  }
  pool.parallel_for(chunks.size(),
                    [&](std::size_t i) { count_chunk(chunks[i], g); });

  std::size_t edges = b.edges.size(), strands = b.sp.strand_count();
  std::size_t events = b.sp.events.size(), rows = b.edges.rows;
  bool any_op = false;
  NodeId op_hi = 0;
  std::size_t taken = 0;
  for (Chunk& k : chunks) {
    const bool has_ops = k.op_lo <= k.op_hi;
    if ((has_ops && any_op && k.op_lo <= op_hi) ||
        (k.edges > 0 && k.from_lo + std::size_t{1} < rows) ||
        k.edges > kMaxDagEdges - edges)
      break;
    if (has_ops) {
      any_op = true;
      op_hi = k.op_hi;
    }
    k.edge_at = edges;
    k.strand_at = strands;
    k.event_at = events;
    k.rows = rows;
    edges += k.edges;
    strands += k.strands;
    events += k.events;
    if (k.edges > 0) rows = std::size_t{k.from_hi} + 1;
    ++taken;
    if (!k.whole) break;
  }
  if (taken == 0) return;
  grow(b.edges.tgt, edges, g.n);
  grow(b.sp.events, events, g.n);
  b.sp.offsets.resize(strands + 1);
  pool.parallel_for(taken,
                    [&](std::size_t i) { write_chunk(chunks[i], g, b); });
  const char* stop = lines.data();
  std::size_t passed = 0;
  for (std::size_t i = 0; i < taken; ++i) {
    const Chunk& k = chunks[i];
    stop = k.end;
    passed += k.lines;
    if (k.failed) break;  // the serial loop rejects that line again
    b.named.add(k.named);
  }
  b.edges.rows = rows;
  r.advance(stop, passed);
}

/// Everything up to and including the 'end' line; the reader is left
/// on that line. Once 'nodes' is read, a block's whole lines are read
/// in parallel rounds while the input holds a block or more and the
/// edges keep row order; every other line goes through the serial loop.
Computation read_computation_body(Reader& r) {
  if (!r.next() || r.word() != "computation")
    parse_error(r.line(), "expected 'computation'");

  Block b;
  std::vector<Chunk> chunks;
  for (;;) {
    if (b.nodes.has_value() && !b.edges.listed && r.round_due())
      parallel_round(r, *b.nodes, b, chunks);
    if (!r.next()) parse_error(r.line(), "unexpected end of input");
    const std::string_view directive = r.word();
    if (directive == "edge") {
      if (!b.nodes.has_value()) parse_error(r.line(), "'edge' before 'nodes'");
      const Edge e = edge_line(r, *b.nodes);
      b.named.node(std::max(e.from, e.to));
      if (b.edges.size() == kMaxDagEdges)
        parse_error(r.line(), format("more than %zu edges", kMaxDagEdges));
      b.edges.add(e);
    } else if (directive == "op") {
      if (!b.nodes.has_value()) parse_error(r.line(), "'op' before 'nodes'");
      const auto [u, o] = op_line(r, *b.nodes);
      b.ops[u] = o;
    } else if (directive == "strand") {
      if (!b.nodes.has_value())
        parse_error(r.line(), "'strand' before 'nodes'");
      strand_line(r, *b.nodes, [&](const SpEvent& e) {
        b.named.event(e);
        b.sp.events.push_back(e);
      });
      b.sp.end_strand();
    } else if (directive == "end") {
      break;
    } else if (directive == "nodes") {
      const Number count = r.number(std::uint64_t{1} << 28);
      if (count.text.empty() || !r.done())
        parse_error(r.line(), "usage: nodes <n>");
      const auto n = static_cast<std::size_t>(value(r, count));
      if (b.named.nodes > n)
        parse_error(r.line(),
                    format("node %zu named earlier is out of range for "
                           "nodes %zu",
                           b.named.nodes - 1, n));
      b.nodes = Nodes{n, max_id(n)};
      b.ops.assign(n, Op::nop());
      if (!b.edges.listed) b.edges.off.resize(n + 1);
    } else {
      parse_error(r.line(),
                  "unknown directive '" + std::string(directive) + "'");
    }
  }
  if (!b.nodes.has_value()) parse_error(r.line(), "missing 'nodes'");
  const std::size_t n = b.nodes->n;
  Dag dag = std::move(b.edges).dag(n);
  if (!dag.is_acyclic()) parse_error(r.line(), "edges form a cycle");
  Computation c(std::move(dag), std::move(b.ops));
  SpStructure& sp = b.sp;
  if (sp.strand_count() != 0) {
    if (b.named.strand >= sp.strand_count())  // name the first such event
      for (const SpEvent& e : sp.events)
        if ((e.kind == SpEvent::Kind::kSpawn ||
             e.kind == SpEvent::Kind::kAdopt) &&
            e.id >= sp.strand_count())
          parse_error(r.line(),
                      format("strand event names unknown strand %u", e.id));
    sp.node_count = n;
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
            out << " n" << e.id;
            break;
          case SpEvent::Kind::kSpawn:
            out << " s" << e.id;
            break;
          case SpEvent::Kind::kSync:
            if (e.id == kBottom)
              out << " y_";
            else
              out << " y" << e.id;
            break;
          case SpEvent::Kind::kAdopt:
            out << " a" << e.id;
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
