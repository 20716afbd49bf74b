// ccmm/serve/protocol.hpp
//
// The ccmm_serve wire protocol: length-prefixed binary frames carrying
// trace event batches in, verdicts and reports out. A kEvents payload
// is an array of the 32-byte records a .tbin file and an in-memory
// Trace hold (BinaryTraceEvent, laid out in trace_binary.hpp) — a
// client that can write a .tbin file can stream. On little-endian
// hosts the payload is the record array's bytes as they are; elsewhere
// both ends go through trace_binary.hpp's record codec, as snapshots
// do everywhere.
//
// Frame layout (little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------
//        0     4  magic "CSRV"
//        4     1  type (FrameType)
//        5     1  flags (per-type; see kFlag*)
//        6     2  reserved (must be 0)
//        8     8  payload length in bytes
//       16     …  payload
//
// Session lifecycle over one connection:
//
//   client                          server
//   ------                         ------
//   kOpen(options, computation) →
//                               ←  kOpened(session, nodes)
//   kEvents(k · 32B records)    →           (no reply — pipelined)
//   kEvents(…, kFlagWantVerdict)→
//                               ←  kVerdict(valid, violated, …)
//   kCheck                      →
//                               ←  kReport(prefix report)
//   kFinish                     →
//                               ←  kReport(final, byte-identical to
//                                          `ccmm_check --trace`)
//
// kOpen and snapshots carry the computation as the binary image of
// io/text.hpp, which ServeClient sends, or as text, which any client
// that can print `computation … end` may send: the server hands the
// bytes to io::read_computation, which tells the two apart by the
// image's magic.
//
// Sessions survive disconnects: a new connection sends kAttach(id) to
// rebind. kSnapshot returns an opaque blob (magic "CCMMSNP1") that
// kRestore replays into a fresh session — on the same server or
// another one.
//
// Plain HTTP is sniffed on the same port: a connection whose first
// bytes are "GET " receives the /status metrics page as text/plain and
// is closed, so `curl --unix-socket` works against a serving daemon.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/session_kernel.hpp"
#include "util/net.hpp"

namespace ccmm::serve {

inline constexpr char kFrameMagic[4] = {'C', 'S', 'R', 'V'};
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr char kSnapshotMagic[8] = {'C', 'C', 'M', 'M',
                                           'S', 'N', 'P', '1'};

enum class FrameType : std::uint8_t {
  // client → server
  kOpen = 1,      // SessionOptions + computation → kOpened
  kAttach = 2,    // u64 session id → kOpened
  kEvents = 3,    // k × 32-byte records; reply only when flagged
  kCheck = 4,     // → kReport over the consumed prefix
  kFinish = 5,    // → kReport, terminal verdict
  kSnapshot = 6,  // → kSnapshotData (requires retain_events)
  kRestore = 7,   // snapshot blob → kOpened (fresh session)
  kStatus = 8,    // → kStatusText
  kClose = 9,     // retire the session; no reply

  // server → client
  kOpened = 64,      // u64 session id + u64 node count
  kVerdict = 65,     // SessionVerdict
  kReport = 66,      // serialized LargeCheckReport
  kSnapshotData = 67,
  kStatusText = 68,
  kError = 69,  // message; kFlagStreamRejected = session sticky-failed
};

/// kEvents: request a kVerdict reply once this batch is applied. An
/// empty flagged kEvents frame is the idiomatic "verdict ping".
inline constexpr std::uint8_t kFlagWantVerdict = 1u << 0;
/// kError: the stream was rejected (feed() returned false). The
/// session stays attached; kFinish returns the batch engine's "trace
/// does not fit the computation" report.
inline constexpr std::uint8_t kFlagStreamRejected = 1u << 0;
/// kReport: this is a terminal (kFinish) report.
inline constexpr std::uint8_t kFlagFinal = 1u << 0;

struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint8_t flags = 0;
  std::uint64_t length = 0;
};

/// Malformed frame / payload. Distinct from net::NetError (transport).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// -- frame IO ---------------------------------------------------------------

/// Encode a header into its 16-byte wire form.
void encode_frame_header(const FrameHeader& h, unsigned char out[16]);
/// Decode + validate (magic, reserved, length sane). Throws
/// ProtocolError.
[[nodiscard]] FrameHeader decode_frame_header(const unsigned char in[16],
                                              std::uint64_t max_payload);

/// Blocking writers/readers over a connected socket (the client and
/// the tests; the server parses frames from its own readiness loop).
/// `timeout_ms` >= 0 bounds the write (net::write_all semantics); the
/// server passes its write_timeout_ms so a non-reading client cannot
/// park a shard thread.
void write_frame(int fd, FrameType type, std::uint8_t flags,
                 const void* payload, std::size_t size, int timeout_ms = -1);
/// One frame whose payload is `head` followed by `body`: the header and
/// `head` go out in one write, `body` from the caller's buffer, so a
/// large body (kOpen's computation) is never copied.
void write_frame(int fd, FrameType type, std::uint8_t flags,
                 std::string_view head, std::string_view body,
                 int timeout_ms = -1);
/// False on clean EOF before a header. Throws on mid-frame EOF.
[[nodiscard]] bool read_frame(int fd, FrameHeader& header,
                              std::vector<unsigned char>& payload,
                              std::uint64_t max_payload);

// -- payload codecs ---------------------------------------------------------

/// The kOpen payload: session options + the computation, as an image
/// or as text (io/text.hpp). `computation` views the payload
/// decode_open read.
struct OpenRequest {
  SessionOptions options;
  std::string_view computation;
};

/// The kOpen payload up to the computation's bytes: the options and the
/// computation's length. The sender writes the computation after it
/// from its own buffer (write_frame's head/body form).
[[nodiscard]] std::string encode_open_head(const SessionOptions& options,
                                           std::size_t computation_bytes);
[[nodiscard]] OpenRequest decode_open(const unsigned char* p,
                                      std::size_t size);

[[nodiscard]] std::string encode_opened(std::uint64_t session,
                                        std::uint64_t nodes);
void decode_opened(const unsigned char* p, std::size_t size,
                   std::uint64_t& session, std::uint64_t& nodes);

[[nodiscard]] std::string encode_verdict(const SessionVerdict& v);
[[nodiscard]] SessionVerdict decode_verdict(const unsigned char* p,
                                            std::size_t size);

/// Full-fidelity report round-trip: every field, including timings and
/// the per-location rows, so a wire report diffs byte-identically
/// against a local batch run on the semantic fields.
[[nodiscard]] std::string encode_report(const LargeCheckReport& r);
[[nodiscard]] LargeCheckReport decode_report(const unsigned char* p,
                                             std::size_t size);

/// Snapshot blob: options + the computation (encoded as an image; a
/// blob that carries text restores too) + the retained event log.
/// Restoring replays the log through a fresh CheckSession, so the
/// restored session's verdicts are byte-identical by construction.
[[nodiscard]] std::string encode_snapshot(const CheckSession& session);
struct SnapshotImage {
  SessionOptions options;
  std::string_view computation;  // views the decoded blob
  std::vector<BinaryTraceEvent> events;
};
[[nodiscard]] SnapshotImage decode_snapshot(const unsigned char* p,
                                            std::size_t size);

}  // namespace ccmm::serve
