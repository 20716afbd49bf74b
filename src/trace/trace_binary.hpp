// ccmm/trace/trace_binary.hpp
//
// The binary trace format: the mmap-able record of execution the text
// format (trace.hpp) is the human-readable twin of. A 16M-event text
// trace costs ~400 MB of digits and a per-line parse; the binary file
// is exactly 32 bytes per event and validates with two range compares
// per record. load_trace then hands the validated records to the Trace
// where they lie, in the file's mapping, which the Trace keeps alive
// (the lifetime rule in exec/sim_machine.hpp): no copy, no string
// materialization.
//
// Layout (all fields little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------
//        0     8  magic "CCMMTRC0"
//        8     4  version (currently 1)
//       12     4  flags (reserved, must be 0)
//       16     8  event_count
//       24     8  reserved (must be 0)
//       32   32·k event records:
//                   +0  u64 seq        +8  u64 time
//                   +16 u32 proc       +20 u32 node
//                   +24 u32 observed (0xFFFFFFFF = ⊥)
//                   +28 u32 reserved (must be 0)
//
// An event record is a BinaryTraceEvent (exec/sim_machine.hpp), the
// in-memory Trace's element, whose fields sit at exactly these offsets.
// The serve wire's kEvents payloads and snapshot blobs carry the same
// records, and encode_trace_records/decode_trace_records below are the
// only code that spells the record out field by field.
//
// Ops are not serialized, mirroring the text format: they are looked
// up in the computation the trace is checked against, which is also
// what makes per-record validation (node / observed in range) possible
// at read time. Malformed input throws TraceReadError carrying the
// exact byte offset of the first offending field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace ccmm {

inline constexpr char kTraceBinaryMagic[8] = {'C', 'C', 'M', 'M',
                                              'T', 'R', 'C', '0'};
inline constexpr std::uint32_t kTraceBinaryVersion = 1;
inline constexpr std::size_t kTraceBinaryHeaderBytes = 32;
inline constexpr std::size_t kTraceBinaryEventBytes = 32;

// The record struct matches the layout table with no padding, so on
// little-endian hosts a validated file region or wire payload can be
// reinterpreted as (or memcpy'd into) an array of records.
static_assert(sizeof(BinaryTraceEvent) == kTraceBinaryEventBytes,
              "binary trace records must be exactly 32 bytes");
static_assert(offsetof(BinaryTraceEvent, time) == 8 &&
                  offsetof(BinaryTraceEvent, proc) == 16 &&
                  offsetof(BinaryTraceEvent, node) == 20 &&
                  offsetof(BinaryTraceEvent, observed) == 24 &&
                  offsetof(BinaryTraceEvent, reserved) == 28,
              "binary trace record fields must sit at the table's offsets");

/// The record codec: `count` records to and from count·32 bytes in the
/// layout above, on any host. It only converts bytes; every caller
/// validates the records it decodes.
void encode_trace_records(const BinaryTraceEvent* events, std::size_t count,
                          unsigned char* out) noexcept;
void decode_trace_records(const unsigned char* in, std::size_t count,
                          BinaryTraceEvent* out) noexcept;

/// Malformed binary input; offset() is the byte position of the first
/// field that failed validation.
class TraceReadError : public std::runtime_error {
 public:
  TraceReadError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_ = 0;
};

/// A validated window into a binary trace image. Non-owning: valid as
/// long as the underlying buffer (usually a MappedTraceFile) lives.
struct BinaryTraceView {
  const BinaryTraceEvent* events = nullptr;
  std::size_t count = 0;
};

/// Streamed writer: header + records, chunked through a fixed buffer so
/// a 16M-event emit never holds the serialized blob in memory.
void write_trace_binary(const Trace& trace, std::ostream& out);

/// Validate an in-memory image (header magic/version/flags/size, every
/// record's node and observed against `c`) and return a zero-copy view.
/// No strings, no allocation proportional to the trace. Throws
/// TraceReadError with the offending byte offset. On big-endian hosts
/// the zero-copy reinterpretation is impossible; use read_trace_binary
/// there (this function throws).
[[nodiscard]] BinaryTraceView validate_trace_binary(const void* data,
                                                    std::size_t size,
                                                    const Computation& c);

/// A Trace holding a copy of a validated view's records (a view has no
/// owner a Trace could keep alive).
[[nodiscard]] Trace trace_from_view(const BinaryTraceView& view,
                                    const Computation& c);

/// Portable whole-image reader: check the header, then validate the
/// records against `c` and copy them into a Trace, on any host. The
/// caller's buffer has no owner the Trace could keep alive, so the
/// records are always copied. On a little-endian host an
/// 8-byte-aligned image is range-checked in place and copied once;
/// elsewhere the records are decoded field by field first.
[[nodiscard]] Trace read_trace_binary(const void* data, std::size_t size,
                                      const Computation& c);

/// mmap-backed read-only file image, with a plain read() fallback when
/// mapping fails (or off-POSIX). Non-seekable inputs — pipes, sockets,
/// process substitution — are read to EOF through a chunked loop, so
/// `mkfifo p && ccmm_check --trace p` streams without a temp file.
/// Movable, non-copyable; load_trace holds one through a shared_ptr, so
/// a Trace that borrows its records keeps the mapping or buffer alive.
/// A mapped file that is rewritten or truncated while anything reads it
/// is outside the contract: its pages may change under the reader, or
/// fault (SIGBUS) past the new end.
class MappedTraceFile {
 public:
  /// Throws std::runtime_error when the file cannot be opened/read.
  explicit MappedTraceFile(const std::string& path);

  /// Adopt an open descriptor (not closed; dup/keep it alive for the
  /// read). Regular files mmap as usual; anything non-seekable is
  /// drained to EOF into the fallback buffer. `name` is used in error
  /// messages only.
  MappedTraceFile(int fd, const std::string& name);
  ~MappedTraceFile();
  MappedTraceFile(MappedTraceFile&& o) noexcept;
  MappedTraceFile& operator=(MappedTraceFile&& o) noexcept;
  MappedTraceFile(const MappedTraceFile&) = delete;
  MappedTraceFile& operator=(const MappedTraceFile&) = delete;

  [[nodiscard]] const void* data() const noexcept {
    return map_ != nullptr ? map_ : static_cast<const void*>(buf_.data());
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// True when the image is an actual mmap (false = read() fallback).
  [[nodiscard]] bool mapped() const noexcept { return map_ != nullptr; }

 private:
  void adopt_fd(int fd, const std::string& name);

  void* map_ = nullptr;
  std::size_t size_ = 0;
  std::vector<unsigned char> buf_;
};

enum class TraceFormat : std::uint8_t { kText, kBinary };

/// Sniff a buffer: binary iff it starts with the 8-byte magic.
[[nodiscard]] TraceFormat detect_trace_format(const void* data,
                                              std::size_t size) noexcept;
/// The CLIs' auto-detecting loader. The path is opened exactly ONCE (a
/// second open of a FIFO would lose bytes), and "-" reads standard
/// input — both formats stream from pipes. A binary image's header and
/// every record are checked as read_trace_binary checks them, with the
/// same TraceReadError offsets, before the Trace is returned. On a
/// little-endian host an 8-byte-aligned image (a mapping, or the
/// buffer a pipe drained into, always is) is then borrowed: the Trace
/// reads the records where they lie and shares ownership of the
/// MappedTraceFile, so the mapping lives as long as any copy of the
/// Trace. Elsewhere the records are decoded into owned ones. Text is
/// parsed by read_trace into owned records. A file rewritten or
/// truncated while a Trace borrows it is outside the contract (see
/// MappedTraceFile); CheckSession::feed re-validates every record
/// before it indexes anything with it.
/// Throws std::runtime_error / TraceReadError on malformed input.
[[nodiscard]] Trace load_trace(const std::string& path, const Computation& c);

}  // namespace ccmm
