// ccmm/io/image.cpp — the computation image codec; the layout table is
// in text.hpp. This file is the only code that spells the layout.
#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <streambuf>
#include <vector>

#include "io/text.hpp"
#include "util/str.hpp"

namespace ccmm::io {
namespace {

constexpr bool kHostLittle = std::endian::native == std::endian::little;

std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (!kHostLittle) v = __builtin_bswap32(v);
  return v;
}

std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (!kHostLittle) v = __builtin_bswap64(v);
  return v;
}

void store_le32(unsigned char* p, std::uint32_t v) {
  if constexpr (!kHostLittle) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof v);
}

void store_le64(unsigned char* p, std::uint64_t v) {
  if constexpr (!kHostLittle) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

constexpr std::size_t kMagicBytes = sizeof kComputationImageMagic;
constexpr std::size_t kOpBytes = 8;
constexpr std::size_t kEdgeBytes = 8;
constexpr std::size_t kLengthBytes = 4;
constexpr std::size_t kEventBytes = 8;
constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 28;
constexpr std::uint64_t kMaxLocation = std::uint64_t{1} << 30;
constexpr std::uint64_t kMaxStrands = std::uint64_t{1} << 32;

[[noreturn]] void bad(std::size_t offset, const std::string& what) {
  throw ImageReadError(
      format("computation image, offset %zu: %s", offset, what.c_str()),
      offset);
}

/// The bytes of one image: a whole view, or a stream read in chunks
/// no larger than what has arrived so far (4 KiB at first, 1 MiB at
/// most), so a reader holds about what has arrived rather than what
/// the header claims.
class Input {
 public:
  explicit Input(std::string_view image)
      : data_(reinterpret_cast<const unsigned char*>(image.data())),
        size_(image.size()) {}
  /// A stream whose first `at` bytes were already read.
  Input(std::streambuf& in, std::size_t at) : in_(&in), at_(at) {}

  [[nodiscard]] std::size_t at() const noexcept { return at_; }

  /// Bytes known to be left: exact for a view, unbounded for a stream,
  /// which learns its end by reading.
  [[nodiscard]] std::uint64_t left() const noexcept {
    return in_ == nullptr ? size_ - at_ : UINT64_MAX;
  }

  /// How many of `want` records of `bytes` bytes the next take() should
  /// cover: all of them from a view, a chunk's worth from a stream.
  [[nodiscard]] std::size_t batch(std::size_t want,
                                  std::size_t bytes) const noexcept {
    return in_ == nullptr ? want : std::min(want, std::max<std::size_t>(
                                                      1, chunk_ / bytes));
  }

  /// The next k bytes; throws at the offset where the input ran out.
  const unsigned char* take(std::size_t k) {
    if (in_ == nullptr) {
      if (k > size_ - at_) bad(size_, "truncated image");
      const unsigned char* p = data_ + at_;
      at_ += k;
      return p;
    }
    buf_.resize(k);
    const auto got = static_cast<std::size_t>(std::max<std::streamsize>(
        0, in_->sgetn(reinterpret_cast<char*>(buf_.data()),
                      static_cast<std::streamsize>(k))));
    if (got < k) bad(at_ + got, "truncated image");
    at_ += k;
    chunk_ = std::clamp(at_, chunk_, kMaxChunk);
    return buf_.data();
  }

 private:
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 20;

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::streambuf* in_ = nullptr;
  std::vector<unsigned char> buf_;
  std::size_t chunk_ = std::size_t{1} << 12;
  std::size_t at_ = 0;
};

/// Appends `count` records of `bytes` bytes to `out`, each decoded by
/// `decode(record, offset)`; `out` grows with the batches read.
template <class T, class Decode>
void read_records(Input& in, std::size_t count, std::size_t bytes,
                  std::vector<T>& out, Decode decode) {
  for (std::size_t done = 0; done < count;) {
    const std::size_t k = in.batch(count - done, bytes);
    const std::size_t at = in.at();
    const unsigned char* p = in.take(k * bytes);
    const std::size_t first = out.size();
    out.resize(first + k);
    for (std::size_t i = 0; i < k; ++i)
      out[first + i] = decode(p + i * bytes, at + i * bytes);
    done += k;
  }
}

/// Everything after the magic.
Computation decode(Input& in) {
  const unsigned char* h =
      in.take(kComputationImageHeaderBytes - kMagicBytes);
  const std::uint32_t version = load_le32(h);
  if (version != kComputationImageVersion)
    bad(8, format("version %u unsupported (reader speaks %u)", version,
                  kComputationImageVersion));
  if (load_le32(h + 4) != 0) bad(12, "reserved header field is nonzero");
  const std::uint64_t n = load_le64(h + 8);
  const std::uint64_t m = load_le64(h + 16);
  const std::uint64_t s = load_le64(h + 24);
  if (n > kMaxNodes)
    bad(16, format("node_count %llu exceeds 2^28",
                   static_cast<unsigned long long>(n)));
  if (m > kMaxDagEdges)
    bad(24, format("edge_count %llu exceeds 2^32 - 1",
                   static_cast<unsigned long long>(m)));
  if (s > kMaxStrands)
    bad(32, format("strand_count %llu exceeds 2^32",
                   static_cast<unsigned long long>(s)));
  // Each count's records must fit in what is left of a view before any
  // of them is allocated. The bounds above keep these sums below 2^36.
  const char* const names[] = {"node_count", "edge_count", "strand_count"};
  const std::uint64_t need[] = {n * kOpBytes, n * kOpBytes + m * kEdgeBytes,
                                n * kOpBytes + m * kEdgeBytes +
                                    s * kLengthBytes};
  for (std::size_t i = 0; i < 3; ++i)
    if (need[i] > in.left())
      bad(16 + 8 * i,
          format("%s needs %llu bytes past the header, the image has %llu",
                 names[i], static_cast<unsigned long long>(need[i]),
                 static_cast<unsigned long long>(in.left())));

  std::vector<Op> ops;
  read_records(in, n, kOpBytes, ops,
               [](const unsigned char* p, std::size_t at) {
                 if (p[0] > 2) bad(at, format("unknown op kind %u", p[0]));
                 if ((p[1] | p[2] | p[3]) != 0)
                   bad(at + 1, "op reserved bytes are nonzero");
                 const std::uint32_t loc = load_le32(p + 4);
                 if (p[0] == 0 && loc != 0)
                   bad(at + 4, format("N op carries location %u", loc));
                 if (loc > kMaxLocation)
                   bad(at + 4, format("location %u exceeds 2^30", loc));
                 return Op{static_cast<OpKind>(p[0]), loc};
               });

  // The edges arrive in succ-row order, so their targets are the dag's
  // succ rows as they will be stored, and each row starts where its
  // first edge lands.
  const std::size_t edges_at = in.at();
  std::vector<std::uint32_t> off(n + 1);
  std::vector<NodeId> tgt;
  std::size_t rows = 0;  // rows whose start is set
  read_records(in, m, kEdgeBytes, tgt,
               [&](const unsigned char* p, std::size_t at) {
                 const Edge e{load_le32(p), load_le32(p + 4)};
                 if (e.from >= n)
                   bad(at, format("edge names node %u of %llu", e.from,
                                  static_cast<unsigned long long>(n)));
                 if (e.to >= n)
                   bad(at + 4, format("edge names node %u of %llu", e.to,
                                      static_cast<unsigned long long>(n)));
                 if (e.from == e.to)
                   bad(at, format("edge %u %u is a self-loop", e.from, e.to));
                 if (e.from + std::size_t{1} < rows)
                   bad(at, format("edge from %u follows row %zu", e.from,
                                  rows - 1));
                 const auto k = static_cast<std::uint32_t>(
                     (at - edges_at) / kEdgeBytes);
                 for (; rows <= e.from; ++rows) off[rows] = k;
                 return e.to;
               });
  for (; rows <= n; ++rows) off[rows] = static_cast<std::uint32_t>(m);
  std::size_t repeat = 0;
  Dag dag(n, std::move(off), std::move(tgt), &repeat);
  if (repeat != m) bad(edges_at + repeat * kEdgeBytes, "repeated edge");
  if (!dag.is_acyclic()) bad(edges_at, "edges form a cycle");
  Computation c(std::move(dag), std::move(ops));
  if (s == 0) return c;

  // The lengths arrive as the strand table's offsets, each checked
  // against what is left of a view before any event is allocated.
  const std::size_t lengths_at = in.at();
  auto sp = std::make_shared<SpStructure>();
  sp->node_count = n;
  std::uint64_t events = 0;
  read_records(in, s, kLengthBytes, sp->offsets,
               [&](const unsigned char* p, std::size_t at) {
                 events += load_le32(p);
                 if (events > in.left() / kEventBytes)
                   bad(at, format("strand %zu ends past the image's last byte",
                                  (at - lengths_at) / kLengthBytes));
                 return static_cast<std::size_t>(events);
               });
  read_records(
      in, events, kEventBytes, sp->events,
      [&](const unsigned char* p, std::size_t at) {
        if (p[0] > 3) bad(at, format("unknown strand event kind %u", p[0]));
        if ((p[1] | p[2] | p[3]) != 0)
          bad(at + 1, "strand event reserved bytes are nonzero");
        const SpEvent e{static_cast<SpEvent::Kind>(p[0]), load_le32(p + 4)};
        switch (e.kind) {
          case SpEvent::Kind::kNode:
          case SpEvent::Kind::kSync:
            if (e.id >= n &&
                !(e.kind == SpEvent::Kind::kSync && e.id == kBottom))
              bad(at + 4, format("strand event names node %u of %llu", e.id,
                                 static_cast<unsigned long long>(n)));
            break;
          case SpEvent::Kind::kSpawn:
          case SpEvent::Kind::kAdopt:
            if (e.id >= s)
              bad(at + 4, format("strand event names unknown strand %u", e.id));
            break;
        }
        return e;
      });
  c.set_sp_structure(std::move(sp));
  return c;
}

}  // namespace

std::string write_computation_image(const Computation& c) {
  const std::size_t n = c.node_count();
  const Dag& dag = c.dag();
  const std::size_t m = dag.edge_count();
  const SpStructure* sp = c.sp_structure().get();
  if (sp != nullptr && sp->node_count != n) sp = nullptr;
  const std::size_t s = sp != nullptr ? sp->strand_count() : 0;
  const std::size_t events = sp != nullptr ? sp->events.size() : 0;
  for (std::size_t i = 0; i < s; ++i)
    CCMM_CHECK(sp->strand(i).size() <= UINT32_MAX,
               "a strand of the image holds at most 2^32 - 1 events");
  std::string out(kComputationImageHeaderBytes + n * kOpBytes +
                      m * kEdgeBytes + s * kLengthBytes +
                      events * kEventBytes,
                  '\0');  // reserved fields stay 0
  auto* p = reinterpret_cast<unsigned char*>(out.data());
  std::memcpy(p, kComputationImageMagic, kMagicBytes);
  store_le32(p + 8, kComputationImageVersion);
  store_le64(p + 16, n);
  store_le64(p + 24, m);
  store_le64(p + 32, s);
  p += kComputationImageHeaderBytes;
  for (NodeId u = 0; u < n; ++u, p += kOpBytes) {
    const Op o = c.op(u);
    p[0] = static_cast<unsigned char>(o.kind);
    store_le32(p + 4, o.is_nop() ? 0 : o.loc);
  }
  for (NodeId u = 0; u < n; ++u)
    for (const NodeId v : dag.succ(u)) {
      store_le32(p, u);
      store_le32(p + 4, v);
      p += kEdgeBytes;
    }
  for (std::size_t i = 0; i < s; ++i, p += kLengthBytes)
    store_le32(p, static_cast<std::uint32_t>(sp->strand(i).size()));
  for (std::size_t i = 0; i < events; ++i, p += kEventBytes) {
    p[0] = static_cast<unsigned char>(sp->events[i].kind);
    store_le32(p + 4, sp->events[i].id);
  }
  return out;
}

bool is_computation_image(std::string_view bytes) noexcept {
  return bytes.size() >= kMagicBytes &&
         std::memcmp(bytes.data(), kComputationImageMagic, kMagicBytes) == 0;
}

Computation read_computation_image(std::string_view image) {
  if (!is_computation_image(image))
    bad(0, "bad magic (not a CCMMCMP0 image)");
  Input in(image);
  (void)in.take(kMagicBytes);
  Computation c = decode(in);
  if (in.at() != image.size())
    bad(in.at(), format("%zu bytes follow the image",
                        image.size() - in.at()));
  return c;
}

Computation detail::read_computation_image_rest(std::streambuf& in) {
  Input src(in, kMagicBytes);
  return decode(src);
}

}  // namespace ccmm::io
