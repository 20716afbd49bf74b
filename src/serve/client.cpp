// ccmm/serve/client.cpp — see client.hpp.
#include "serve/client.hpp"

#include <bit>
#include <chrono>
#include <csignal>
#include <cstring>

#include "io/text.hpp"

namespace ccmm::serve {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServeClient::ServeClient(const std::string& address, ClientOptions opts)
    : opts_(std::move(opts)) {
#if defined(SIGPIPE)
  std::signal(SIGPIPE, SIG_IGN);  // server death must be EPIPE, not a kill
#endif
  fd_ = net::connect_to(net::Addr::parse(address));
}

ServeClient::~ServeClient() {
  try {
    flush();
  } catch (...) {
  }
}

void ServeClient::send(FrameType type, std::uint8_t flags,
                       const void* payload, std::size_t size) {
  write_frame(fd_.get(), type, flags, payload, size);
}

FrameHeader ServeClient::read_reply(std::vector<unsigned char>& payload) {
  FrameHeader h;
  if (!read_frame(fd_.get(), h, payload, opts_.max_frame_bytes))
    throw net::NetError("server closed the connection");
  if (h.type == FrameType::kError)
    throw ServeError(
        std::string(reinterpret_cast<const char*>(payload.data()),
                    payload.size()),
        (h.flags & kFlagStreamRejected) != 0);
  return h;
}

std::uint64_t ServeClient::open(const Computation& c) {
  flush();
  // The image goes out from its own buffer, behind the encoded options.
  const std::string image = io::write_computation_image(c);
  write_frame(fd_.get(), FrameType::kOpen, 0,
              encode_open_head(opts_.session, image.size()), image);
  std::vector<unsigned char> reply;
  const FrameHeader h = read_reply(reply);
  if (h.type != FrameType::kOpened)
    throw ProtocolError("expected kOpened after kOpen");
  decode_opened(reply.data(), reply.size(), id_, nodes_);
  return id_;
}

void ServeClient::attach(std::uint64_t session_id) {
  flush();
  unsigned char payload[8];
  for (int i = 0; i < 8; ++i)
    payload[i] = static_cast<unsigned char>((session_id >> (8 * i)) & 0xFF);
  send(FrameType::kAttach, 0, payload, sizeof payload);
  std::vector<unsigned char> reply;
  const FrameHeader h = read_reply(reply);
  if (h.type != FrameType::kOpened)
    throw ProtocolError("expected kOpened after kAttach");
  decode_opened(reply.data(), reply.size(), id_, nodes_);
}

std::uint64_t ServeClient::restore(const std::string& snapshot_blob) {
  flush();
  send(FrameType::kRestore, 0, snapshot_blob.data(), snapshot_blob.size());
  std::vector<unsigned char> reply;
  const FrameHeader h = read_reply(reply);
  if (h.type != FrameType::kOpened)
    throw ProtocolError("expected kOpened after kRestore");
  decode_opened(reply.data(), reply.size(), id_, nodes_);
  return id_;
}

void ServeClient::feed(const BinaryTraceEvent* events, std::size_t count) {
  buf_.insert(buf_.end(), events, events + count);
  if (buffered_since_ms_ < 0 && !buf_.empty()) buffered_since_ms_ = now_ms();
  maybe_flush();
}

void ServeClient::maybe_flush() {
  const bool size_due = buf_.size() >= opts_.batch_events;
  const bool time_due = opts_.flush_after_ms > 0 && buffered_since_ms_ >= 0 &&
                        now_ms() - buffered_since_ms_ >= opts_.flush_after_ms;
  if (size_due || time_due) flush();
}

void ServeClient::flush() {
  if (buf_.empty()) return;
  // The wire format IS the record layout on little-endian hosts; on
  // big-endian, encode it.
  const std::size_t bytes = buf_.size() * kTraceBinaryEventBytes;
  if constexpr (std::endian::native == std::endian::little) {
    send(FrameType::kEvents, 0, buf_.data(), bytes);
  } else {
    std::vector<unsigned char> payload(bytes);
    encode_trace_records(buf_.data(), buf_.size(), payload.data());
    send(FrameType::kEvents, 0, payload.data(), bytes);
  }
  buf_.clear();
  buffered_since_ms_ = -1.0;
}

SessionVerdict ServeClient::verdict() {
  flush();
  // An empty flagged kEvents frame is the verdict ping: it is applied
  // in FIFO order after every batch already in flight.
  send(FrameType::kEvents, kFlagWantVerdict, nullptr, 0);
  std::vector<unsigned char> reply;
  const FrameHeader h = read_reply(reply);
  if (h.type != FrameType::kVerdict)
    throw ProtocolError("expected kVerdict reply");
  return decode_verdict(reply.data(), reply.size());
}

LargeCheckReport ServeClient::check() {
  flush();
  send(FrameType::kCheck, 0, nullptr, 0);
  std::vector<unsigned char> reply;
  const FrameHeader h = read_reply(reply);
  if (h.type != FrameType::kReport)
    throw ProtocolError("expected kReport reply");
  return decode_report(reply.data(), reply.size());
}

LargeCheckReport ServeClient::finish() {
  flush();
  send(FrameType::kFinish, 0, nullptr, 0);
  std::vector<unsigned char> reply;
  const FrameHeader h = read_reply(reply);
  if (h.type != FrameType::kReport)
    throw ProtocolError("expected kReport reply");
  return decode_report(reply.data(), reply.size());
}

std::string ServeClient::snapshot() {
  flush();
  send(FrameType::kSnapshot, 0, nullptr, 0);
  std::vector<unsigned char> reply;
  const FrameHeader h = read_reply(reply);
  if (h.type != FrameType::kSnapshotData)
    throw ProtocolError("expected kSnapshotData reply");
  return std::string(reinterpret_cast<const char*>(reply.data()),
                     reply.size());
}

std::string ServeClient::status() {
  flush();
  send(FrameType::kStatus, 0, nullptr, 0);
  std::vector<unsigned char> reply;
  const FrameHeader h = read_reply(reply);
  if (h.type != FrameType::kStatusText)
    throw ProtocolError("expected kStatusText reply");
  return std::string(reinterpret_cast<const char*>(reply.data()),
                     reply.size());
}

void ServeClient::close_session() {
  flush();
  send(FrameType::kClose, 0, nullptr, 0);
  // kClose carries no reply; a status round trip drains the pipeline
  // so the session is provably retired when this returns.
  (void)status();
  id_ = 0;
  nodes_ = 0;
}

}  // namespace ccmm::serve
