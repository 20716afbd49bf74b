#include "trace/trace_binary.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>

#include "util/str.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define CCMM_HAS_MMAP 1
#else
#define CCMM_HAS_MMAP 0
#endif

namespace ccmm {
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

/// Validate the 32-byte header and return the event count. Shared by
/// the zero-copy and the portable reader.
std::size_t check_header(const unsigned char* p, std::size_t size) {
  if (size < kTraceBinaryHeaderBytes)
    throw TraceReadError(
        format("binary trace truncated: %zu-byte file, 32-byte header", size),
        size);
  if (std::memcmp(p, kTraceBinaryMagic, sizeof kTraceBinaryMagic) != 0)
    throw TraceReadError("binary trace has bad magic (not a CCMMTRC0 file)",
                         0);
  const std::uint32_t version = load_le32(p + 8);
  if (version != kTraceBinaryVersion)
    throw TraceReadError(
        format("binary trace version %u unsupported (reader speaks %u)",
               version, kTraceBinaryVersion),
        8);
  const std::uint32_t flags = load_le32(p + 12);
  if (flags != 0)
    throw TraceReadError(format("binary trace has unknown flags 0x%x", flags),
                         12);
  const std::uint64_t count = load_le64(p + 16);
  if (load_le64(p + 24) != 0)
    throw TraceReadError("binary trace reserved header field is nonzero", 24);
  const std::uint64_t need =
      kTraceBinaryHeaderBytes + count * kTraceBinaryEventBytes;
  if (count > (SIZE_MAX - kTraceBinaryHeaderBytes) / kTraceBinaryEventBytes ||
      need != size)
    throw TraceReadError(
        format("binary trace event_count %llu disagrees with file size %zu "
               "(expected %llu bytes)",
               static_cast<unsigned long long>(count), size,
               static_cast<unsigned long long>(need)),
        16);
  return static_cast<std::size_t>(count);
}

/// Range-check the node/observed/reserved fields of the image's `count`
/// records, held decoded in `events`; errors carry image offsets.
void check_records(const BinaryTraceEvent* events, std::size_t count,
                   std::size_t n) {
  for (std::size_t i = 0; i < count; ++i) {
    const BinaryTraceEvent& e = events[i];
    const std::size_t at = kTraceBinaryHeaderBytes + i * kTraceBinaryEventBytes;
    if (e.node >= n)
      throw TraceReadError(
          format("binary trace event at offset %zu names node %u, but the "
                 "computation has %zu nodes",
                 at, e.node, n),
          at + 20);
    if (e.observed != kBottom && e.observed >= n)
      throw TraceReadError(
          format("binary trace event at offset %zu observes node %u, but "
                 "the computation has %zu nodes",
                 at, e.observed, n),
          at + 24);
    if (e.reserved != 0)
      throw TraceReadError(
          format("binary trace event at offset %zu has a nonzero reserved "
                 "field",
                 at),
          at + 28);
  }
}

}  // namespace

void encode_trace_records(const BinaryTraceEvent* events, std::size_t count,
                          unsigned char* out) noexcept {
  for (std::size_t i = 0; i < count; ++i, out += kTraceBinaryEventBytes) {
    const BinaryTraceEvent& e = events[i];
    store_le64(out + 0, e.seq);
    store_le64(out + 8, e.time);
    store_le32(out + 16, e.proc);
    store_le32(out + 20, e.node);
    store_le32(out + 24, e.observed);
    store_le32(out + 28, e.reserved);
  }
}

void decode_trace_records(const unsigned char* in, std::size_t count,
                          BinaryTraceEvent* out) noexcept {
  for (std::size_t i = 0; i < count; ++i, in += kTraceBinaryEventBytes) {
    BinaryTraceEvent& e = out[i];
    e.seq = load_le64(in + 0);
    e.time = load_le64(in + 8);
    e.proc = load_le32(in + 16);
    e.node = load_le32(in + 20);
    e.observed = load_le32(in + 24);
    e.reserved = load_le32(in + 28);
  }
}

void write_trace_binary(const Trace& trace, std::ostream& out) {
  unsigned char header[kTraceBinaryHeaderBytes] = {0};
  std::memcpy(header, kTraceBinaryMagic, sizeof kTraceBinaryMagic);
  store_le32(header + 8, kTraceBinaryVersion);
  store_le32(header + 12, 0);
  store_le64(header + 16, trace.events.size());
  store_le64(header + 24, 0);
  out.write(reinterpret_cast<const char*>(header), sizeof header);

  // Chunked through a fixed 64 KiB buffer: the serialized image never
  // exists in memory, whatever the trace size.
  constexpr std::size_t kChunkEvents = 2048;
  unsigned char buf[kChunkEvents * kTraceBinaryEventBytes];
  const std::size_t total = trace.events.size();
  for (std::size_t i = 0; i < total; i += kChunkEvents) {
    const std::size_t k = std::min(kChunkEvents, total - i);
    encode_trace_records(trace.events.data() + i, k, buf);
    out.write(reinterpret_cast<const char*>(buf),
              static_cast<std::streamsize>(k * kTraceBinaryEventBytes));
  }
}

BinaryTraceView validate_trace_binary(const void* data, std::size_t size,
                                      const Computation& c) {
  if constexpr (!kHostLittle)
    throw TraceReadError(
        "zero-copy binary trace views require a little-endian host; use "
        "read_trace_binary",
        0);
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t count = check_header(p, size);
  const auto* events =
      reinterpret_cast<const BinaryTraceEvent*>(p + kTraceBinaryHeaderBytes);
  check_records(events, count, c.node_count());
  return BinaryTraceView{events, count};
}

Trace trace_from_view(const BinaryTraceView& view, const Computation&) {
  return Trace(std::vector<BinaryTraceEvent>(view.events,
                                             view.events + view.count));
}

namespace {

/// Check the image's header and records against `c` and return them as
/// a Trace. On a little-endian host an 8-byte-aligned image's records
/// are the Trace's: they are range-checked where they lie, then borrowed
/// when `owner` keeps the image alive and copied in one pass when not.
/// Elsewhere they are decoded field by field into owned records.
Trace read_records(const void* data, std::size_t size, const Computation& c,
                   std::shared_ptr<const void> owner) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t count = check_header(p, size);
  const unsigned char* image = p + kTraceBinaryHeaderBytes;
  const bool aligned =
      reinterpret_cast<std::uintptr_t>(image) % alignof(BinaryTraceEvent) == 0;
  if (kHostLittle && aligned) {
    const auto* records = reinterpret_cast<const BinaryTraceEvent*>(image);
    check_records(records, count, c.node_count());
    if (owner != nullptr) return Trace(records, count, std::move(owner));
    return Trace(std::vector<BinaryTraceEvent>(records, records + count));
  }
  std::vector<BinaryTraceEvent> events(count);
  decode_trace_records(image, count, events.data());
  check_records(events.data(), count, c.node_count());
  return Trace(std::move(events));
}

}  // namespace

Trace read_trace_binary(const void* data, std::size_t size,
                        const Computation& c) {
  return read_records(data, size, c, nullptr);
}

#if CCMM_HAS_MMAP
void MappedTraceFile::adopt_fd(int fd, const std::string& name) {
  struct stat st {};
  if (::fstat(fd, &st) != 0)
    throw std::runtime_error(format("cannot stat trace input %s",
                                    name.c_str()));
  if (S_ISREG(st.st_mode)) {
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ == 0) return;  // empty file: data() falls back to buf_
    void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (m != MAP_FAILED) {
      map_ = m;
      return;
    }
    // Unmappable file system: read the known size in one buffer.
    buf_.resize(size_);
    std::size_t got = 0;
    while (got < size_) {
      const ssize_t k = ::pread(fd, buf_.data() + got, size_ - got,
                                static_cast<off_t>(got));
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0)
        throw std::runtime_error(format("cannot read trace input %s",
                                        name.c_str()));
      got += static_cast<std::size_t>(k);
    }
    return;
  }
  // Non-seekable input (pipe, socket, process substitution): drain to
  // EOF through a chunked loop — the size is only known afterwards.
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::size_t got = 0;
  for (;;) {
    if (buf_.size() - got < kChunk) buf_.resize(got + kChunk);
    const ssize_t k = ::read(fd, buf_.data() + got, buf_.size() - got);
    if (k < 0 && errno == EINTR) continue;
    if (k < 0)
      throw std::runtime_error(format("cannot read trace input %s",
                                      name.c_str()));
    if (k == 0) break;
    got += static_cast<std::size_t>(k);
  }
  buf_.resize(got);
  size_ = got;
}
#endif

MappedTraceFile::MappedTraceFile(int fd, const std::string& name) {
#if CCMM_HAS_MMAP
  adopt_fd(fd, name);
#else
  (void)fd;
  throw std::runtime_error(format(
      "descriptor-based trace input %s requires a POSIX host", name.c_str()));
#endif
}

MappedTraceFile::MappedTraceFile(const std::string& path) {
#if CCMM_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    try {
      adopt_fd(fd, path);
    } catch (...) {
      ::close(fd);
      throw;
    }
    ::close(fd);
    return;
  }
#endif
  // ifstream fallback: off-POSIX, or open() failure worth retrying
  // through the runtime (long paths, text-mode quirks).
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error(format("cannot open trace file %s", path.c_str()));
  in.seekg(0, std::ios::end);
  const std::streamoff len = in.tellg();
  if (len >= 0) {
    in.seekg(0, std::ios::beg);
    buf_.resize(static_cast<std::size_t>(len));
    if (!buf_.empty() &&
        !in.read(reinterpret_cast<char*>(buf_.data()),
                 static_cast<std::streamsize>(buf_.size())))
      throw std::runtime_error(
          format("cannot read trace file %s", path.c_str()));
  } else {
    // Stream without a seekable end: chunked read to EOF.
    in.clear();
    constexpr std::size_t kChunk = std::size_t{1} << 20;
    std::size_t got = 0;
    for (;;) {
      buf_.resize(got + kChunk);
      in.read(reinterpret_cast<char*>(buf_.data()) + got,
              static_cast<std::streamsize>(kChunk));
      got += static_cast<std::size_t>(in.gcount());
      if (!in) break;
    }
    buf_.resize(got);
  }
  size_ = buf_.size();
}

MappedTraceFile::~MappedTraceFile() {
#if CCMM_HAS_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

MappedTraceFile::MappedTraceFile(MappedTraceFile&& o) noexcept
    : map_(o.map_), size_(o.size_), buf_(std::move(o.buf_)) {
  o.map_ = nullptr;
  o.size_ = 0;
}

MappedTraceFile& MappedTraceFile::operator=(MappedTraceFile&& o) noexcept {
  if (this == &o) return *this;
#if CCMM_HAS_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
  map_ = o.map_;
  size_ = o.size_;
  buf_ = std::move(o.buf_);
  o.map_ = nullptr;
  o.size_ = 0;
  return *this;
}

TraceFormat detect_trace_format(const void* data, std::size_t size) noexcept {
  return size >= sizeof kTraceBinaryMagic &&
                 std::memcmp(data, kTraceBinaryMagic,
                             sizeof kTraceBinaryMagic) == 0
             ? TraceFormat::kBinary
             : TraceFormat::kText;
}

namespace {

/// A zero-copy istream over a loaded image, so the text parse reads
/// straight out of the mmap/buffer — load_trace must not reopen the
/// path (a FIFO's bytes are gone after the first open).
class MemBuf : public std::streambuf {
 public:
  MemBuf(const void* data, std::size_t size) {
    char* b = static_cast<char*>(const_cast<void*>(data));
    setg(b, b, b + size);
  }
};

class MemStream : private MemBuf, public std::istream {
 public:
  MemStream(const void* data, std::size_t size)
      : MemBuf(data, size), std::istream(static_cast<MemBuf*>(this)) {}
};

}  // namespace

Trace load_trace(const std::string& path, const Computation& c) {
  auto file = std::make_shared<const MappedTraceFile>(
      path == "-" ? MappedTraceFile(0, "<stdin>") : MappedTraceFile(path));
  const void* data = file->data();
  const std::size_t size = file->size();
  if (detect_trace_format(data, size) == TraceFormat::kBinary)
    return read_records(data, size, c, std::move(file));
  MemStream in(data, size);
  return read_trace(in, c);
}

}  // namespace ccmm
