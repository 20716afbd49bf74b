// ccmm/serve/protocol.cpp — see protocol.hpp.
#include "serve/protocol.hpp"

#include <bit>

#include "io/text.hpp"
#include "util/str.hpp"

namespace ccmm::serve {

namespace {

// Little-endian scalar put/get, the same discipline trace_binary.cpp
// uses: explicit byte assembly, no aliasing, works on any host.

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

/// Bounds-checked little-endian reader over a payload window.
class Reader {
 public:
  Reader(const unsigned char* p, std::size_t size) : p_(p), size_(size) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint32_t u32() {
    const unsigned char* b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[i]} << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    const unsigned char* b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() { return std::string(view()); }

  /// A length-prefixed string, as a view into the payload.
  std::string_view view() {
    const std::uint64_t k = u64();
    const unsigned char* b = take(k);
    return {reinterpret_cast<const char*>(b), static_cast<std::size_t>(k)};
  }

  const unsigned char* take(std::uint64_t k) {
    if (k > size_ - at_ || at_ + k < at_)
      throw ProtocolError(
          format("truncated payload: need %llu bytes at offset %zu of %zu",
                 static_cast<unsigned long long>(k), at_, size_));
    const unsigned char* b = p_ + at_;
    at_ += static_cast<std::size_t>(k);
    return b;
  }

  void expect_end() const {
    if (at_ != size_)
      throw ProtocolError(format("payload has %zu trailing bytes",
                                 size_ - at_));
  }

  /// Unconsumed bytes. Array decoders check `count <= remaining() /
  /// min-element-size` BEFORE reserving: a hostile count near 2^64
  /// must fail as a truncation, not as a giant allocation attempt.
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - at_; }

 private:
  const unsigned char* p_;
  std::size_t size_;
  std::size_t at_ = 0;
};

/// SessionOptions in fixed wire form (shared by kOpen and snapshots).
void put_options(std::string& out, const SessionOptions& o) {
  put_u32(out, o.models);
  std::uint32_t flags = 0;
  if (o.retain_events) flags |= 1u;
  if (o.simd.has_value()) flags |= 2u;
  put_u32(out, flags);
  put_u8(out, static_cast<std::uint8_t>(o.oracle.choice));
  put_u8(out, o.simd.has_value()
                  ? static_cast<std::uint8_t>(*o.simd)
                  : std::uint8_t{0xFF});
  put_u64(out, o.oracle.closure_threshold);
}

SessionOptions get_options(Reader& r) {
  SessionOptions o;
  o.models = r.u32();
  const std::uint32_t flags = r.u32();
  o.retain_events = (flags & 1u) != 0;
  const std::uint8_t choice = r.u8();
  if (choice > static_cast<std::uint8_t>(OracleChoice::kChain))
    throw ProtocolError(format("unknown oracle choice %u", choice));
  o.oracle.choice = static_cast<OracleChoice>(choice);
  const std::uint8_t simd = r.u8();
  if ((flags & 2u) != 0) {
    if (simd > static_cast<std::uint8_t>(SimdLevel::kAvx2))
      throw ProtocolError(format("unknown simd level %u", simd));
    o.simd = static_cast<SimdLevel>(simd);
  }
  o.oracle.closure_threshold = static_cast<std::size_t>(r.u64());
  return o;
}

}  // namespace

void encode_frame_header(const FrameHeader& h, unsigned char out[16]) {
  std::memcpy(out, kFrameMagic, 4);
  out[4] = static_cast<unsigned char>(h.type);
  out[5] = h.flags;
  out[6] = 0;
  out[7] = 0;
  for (int i = 0; i < 8; ++i)
    out[8 + i] = static_cast<unsigned char>((h.length >> (8 * i)) & 0xFF);
}

FrameHeader decode_frame_header(const unsigned char in[16],
                                std::uint64_t max_payload) {
  if (std::memcmp(in, kFrameMagic, 4) != 0)
    throw ProtocolError("bad frame magic (not a ccmm_serve stream)");
  if (in[6] != 0 || in[7] != 0)
    throw ProtocolError("frame reserved bytes are nonzero");
  FrameHeader h;
  h.type = static_cast<FrameType>(in[4]);
  h.flags = in[5];
  h.length = 0;
  for (int i = 0; i < 8; ++i)
    h.length |= std::uint64_t{in[8 + i]} << (8 * i);
  if (h.length > max_payload)
    throw ProtocolError(
        format("frame payload of %llu bytes exceeds the %llu-byte cap",
               static_cast<unsigned long long>(h.length),
               static_cast<unsigned long long>(max_payload)));
  return h;
}

void write_frame(int fd, FrameType type, std::uint8_t flags,
                 const void* payload, std::size_t size, int timeout_ms) {
  write_frame(fd, type, flags,
              {static_cast<const char*>(payload), size}, {}, timeout_ms);
}

void write_frame(int fd, FrameType type, std::uint8_t flags,
                 std::string_view head, std::string_view body,
                 int timeout_ms) {
  // Header and head in one buffer, one write: at most one syscall for
  // small frames. Interleaving-safe under the caller's lock.
  std::vector<unsigned char> buf(kFrameHeaderBytes + head.size());
  encode_frame_header(FrameHeader{type, flags, head.size() + body.size()},
                      buf.data());
  if (!head.empty())
    std::memcpy(buf.data() + kFrameHeaderBytes, head.data(), head.size());
  net::write_all(fd, buf.data(), buf.size(), timeout_ms);
  if (!body.empty()) net::write_all(fd, body.data(), body.size(), timeout_ms);
}

bool read_frame(int fd, FrameHeader& header,
                std::vector<unsigned char>& payload,
                std::uint64_t max_payload) {
  unsigned char head[kFrameHeaderBytes];
  if (!net::read_exact(fd, head, kFrameHeaderBytes)) return false;
  header = decode_frame_header(head, max_payload);
  payload.resize(static_cast<std::size_t>(header.length));
  if (header.length != 0 &&
      !net::read_exact(fd, payload.data(), payload.size()))
    throw net::NetError("peer closed between frame header and payload");
  return true;
}

std::string encode_open_head(const SessionOptions& options,
                             std::size_t computation_bytes) {
  std::string out;
  put_options(out, options);
  put_u64(out, computation_bytes);  // put_str's length prefix
  return out;
}

OpenRequest decode_open(const unsigned char* p, std::size_t size) {
  Reader r(p, size);
  OpenRequest req;
  req.options = get_options(r);
  req.computation = r.view();
  r.expect_end();
  return req;
}

std::string encode_opened(std::uint64_t session, std::uint64_t nodes) {
  std::string out;
  put_u64(out, session);
  put_u64(out, nodes);
  return out;
}

void decode_opened(const unsigned char* p, std::size_t size,
                   std::uint64_t& session, std::uint64_t& nodes) {
  Reader r(p, size);
  session = r.u64();
  nodes = r.u64();
  r.expect_end();
}

std::string encode_verdict(const SessionVerdict& v) {
  std::string out;
  put_u8(out, v.valid ? 1 : 0);
  put_u32(out, v.violated);
  put_u64(out, v.events);
  put_u64(out, v.consumed);
  return out;
}

SessionVerdict decode_verdict(const unsigned char* p, std::size_t size) {
  Reader r(p, size);
  SessionVerdict v;
  v.valid = r.u8() != 0;
  v.violated = r.u32();
  v.events = r.u64();
  v.consumed = r.u64();
  r.expect_end();
  return v;
}

std::string encode_report(const LargeCheckReport& rep) {
  std::string out;
  put_u8(out, rep.valid_observer ? 1 : 0);
  put_u32(out, rep.checked);
  put_u32(out, rep.satisfied);
  put_str(out, rep.detail);
  put_str(out, rep.oracle_kind);
  put_u64(out, rep.oracle_memory_bytes);
  put_f64(out, rep.oracle_build_millis);
  put_f64(out, rep.total_millis);
  put_str(out, rep.simd);
  put_u64(out, rep.shards);
  put_u64(out, rep.groups_bytes);
  put_u64(out, rep.scratch_peak_bytes);
  put_u64(out, rep.aux_bytes);
  put_u64(out, rep.peak_rss_bytes);
  put_f64(out, rep.bytes_per_node);
  put_f64(out, rep.ingest_millis);
  put_f64(out, rep.group_build_millis);
  put_f64(out, rep.kernel_millis);
  put_f64(out, rep.report_millis);
  put_u8(out, rep.pipelined ? 1 : 0);
  put_str(out, rep.numa);
  put_u64(out, rep.locations.size());
  for (const LocationCheck& lc : rep.locations) {
    put_u32(out, lc.loc);
    put_u8(out, lc.valid ? 1 : 0);
    put_u32(out, lc.violated);
    put_u64(out, lc.writers);
    put_f64(out, lc.millis);
    put_str(out, lc.detail);
  }
  return out;
}

LargeCheckReport decode_report(const unsigned char* p, std::size_t size) {
  Reader r(p, size);
  LargeCheckReport rep;
  rep.valid_observer = r.u8() != 0;
  rep.checked = r.u32();
  rep.satisfied = r.u32();
  rep.detail = r.str();
  rep.oracle_kind = r.str();
  rep.oracle_memory_bytes = static_cast<std::size_t>(r.u64());
  rep.oracle_build_millis = r.f64();
  rep.total_millis = r.f64();
  rep.simd = r.str();
  rep.shards = static_cast<std::size_t>(r.u64());
  rep.groups_bytes = static_cast<std::size_t>(r.u64());
  rep.scratch_peak_bytes = static_cast<std::size_t>(r.u64());
  rep.aux_bytes = static_cast<std::size_t>(r.u64());
  rep.peak_rss_bytes = static_cast<std::size_t>(r.u64());
  rep.bytes_per_node = r.f64();
  rep.ingest_millis = r.f64();
  rep.group_build_millis = r.f64();
  rep.kernel_millis = r.f64();
  rep.report_millis = r.f64();
  rep.pipelined = r.u8() != 0;
  rep.numa = r.str();
  const std::uint64_t nloc = r.u64();
  // u32 + u8 + u32 + u64 + f64 + empty str(u64 length) = 33 bytes min.
  if (nloc > r.remaining() / 33)
    throw ProtocolError(
        format("report claims %llu locations but only %zu payload bytes "
               "remain",
               static_cast<unsigned long long>(nloc), r.remaining()));
  rep.locations.reserve(static_cast<std::size_t>(nloc));
  for (std::uint64_t i = 0; i < nloc; ++i) {
    LocationCheck lc;
    lc.loc = r.u32();
    lc.valid = r.u8() != 0;
    lc.violated = r.u32();
    lc.writers = static_cast<std::size_t>(r.u64());
    lc.millis = r.f64();
    lc.detail = r.str();
    rep.locations.push_back(std::move(lc));
  }
  r.expect_end();
  return rep;
}

std::string encode_snapshot(const CheckSession& session) {
  if (!session.options().retain_events)
    throw ProtocolError(
        "snapshot requires a session opened with retain_events");
  std::string out(kSnapshotMagic, sizeof kSnapshotMagic);
  put_options(out, session.options());
  put_str(out, io::write_computation_image(session.computation()));
  const std::vector<BinaryTraceEvent>& evs = session.retained_events();
  put_u64(out, evs.size());
  const std::size_t at = out.size();
  out.resize(at + evs.size() * kTraceBinaryEventBytes);
  encode_trace_records(evs.data(), evs.size(),
                       reinterpret_cast<unsigned char*>(out.data() + at));
  return out;
}

SnapshotImage decode_snapshot(const unsigned char* p, std::size_t size) {
  if (size < sizeof kSnapshotMagic ||
      std::memcmp(p, kSnapshotMagic, sizeof kSnapshotMagic) != 0)
    throw ProtocolError("bad snapshot magic (not a CCMMSNP1 blob)");
  Reader r(p + sizeof kSnapshotMagic, size - sizeof kSnapshotMagic);
  SnapshotImage img;
  img.options = get_options(r);
  // Snapshots only exist for retaining sessions; the restored session
  // must retain too or it could never be snapshotted again.
  img.options.retain_events = true;
  img.computation = r.view();
  const std::uint64_t k = r.u64();
  if (k > r.remaining() / kTraceBinaryEventBytes)
    throw ProtocolError(
        format("snapshot claims %llu events but only %zu payload bytes "
               "remain",
               static_cast<unsigned long long>(k), r.remaining()));
  img.events.resize(static_cast<std::size_t>(k));
  decode_trace_records(r.take(k * kTraceBinaryEventBytes), img.events.size(),
                       img.events.data());
  r.expect_end();
  return img;
}

}  // namespace ccmm::serve
