// ccmm/serve/server.cpp — see server.hpp for the threading model.
#include "serve/server.hpp"

#include <bit>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <mutex>
#include <unordered_map>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "io/text.hpp"
#include "util/numa.hpp"
#include "util/ring_buffer.hpp"
#include "util/simd.hpp"
#include "util/str.hpp"

namespace ccmm::serve {

namespace {

struct Conn;

/// One checking session. Lives in the registry until kClose; survives
/// its connection (kAttach rebinds). `chk` is constructed on a kernel
/// thread (NUMA first-touch) after the registry entry already exists,
/// so `ready` gates consumers that race the construction.
struct Session {
  std::uint64_t id = 0;

  std::mutex mu;  // guards chk + open_error
  std::unique_ptr<CheckSession> chk;
  std::string open_error;
  bool ready = false;
  std::condition_variable ready_cv;

  std::atomic<std::uint32_t> inflight{0};  // queued event batches

  // Connections parked on this session's backpressure. A session can
  // have several live connections (the old one lingering across a
  // kAttach re-bind), and ALL of them must be re-armed when inflight
  // drops below the cap — resuming only the most recently bound one
  // strands the rest.
  std::mutex park_mu;
  std::vector<std::weak_ptr<Conn>> parked;
};

struct Conn {
  net::Fd fd;
  std::size_t shard = 0;
  std::atomic<bool> closed{false};
  std::mutex wmu;  // serializes reply frames (loop + kernel threads)

  // Loop-thread-only state.
  std::vector<unsigned char> in;  // buffered unparsed bytes
  std::size_t off = 0;            // parse cursor into `in`
  std::shared_ptr<Session> sess;
  bool throttled = false;
  bool http = false;
};

struct Task {
  enum class Kind : std::uint8_t {
    kOpen,
    kAttach,
    kEvents,
    kCheck,
    kFinish,
    kSnapshot,
    kRestore,
  };
  Kind kind = Kind::kEvents;
  std::shared_ptr<Session> sess;
  std::shared_ptr<Conn> conn;
  std::vector<BinaryTraceEvent> events;    // kEvents
  std::vector<unsigned char> blob;         // kOpen / kRestore payload
  std::uint8_t flags = 0;
};

struct Shard {
  std::size_t index = 0;
  net::Poller poller;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;  // loop thread
  BoundedChannel<Task> tasks{std::size_t{1} << 20};
  std::mutex inbox_mu;
  std::vector<std::shared_ptr<Conn>> incoming;  // from the acceptor
  std::vector<std::shared_ptr<Conn>> resume;    // from kernel threads
  std::thread loop;
  std::thread kernel;
  std::atomic<std::size_t> load{0};
};

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions o) : opts(std::move(o)) {}

  ServerOptions opts;
  net::Fd listener;
  std::unique_ptr<net::Poller> accept_poller;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::size_t> placement;  // shard -> NUMA node
  std::thread acceptor;
  std::atomic<bool> running{false};
  std::chrono::steady_clock::time_point started;

  mutable std::mutex reg_mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> registry;
  std::atomic<std::uint64_t> next_id{1};
  ServerStats stats;

  // ---- replies ----

  void reply(Conn& c, FrameType type, std::uint8_t flags,
             const std::string& payload) {
    if (c.closed.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(c.wmu);
    try {
      write_frame(c.fd.get(), type, flags, payload.data(), payload.size(),
                  opts.write_timeout_ms);
    } catch (const net::NetError&) {
      c.closed.store(true, std::memory_order_relaxed);
    }
  }

  void reply_error(Conn& c, const std::string& msg, std::uint8_t flags = 0) {
    reply(c, FrameType::kError, flags, msg);
  }

  // ---- acceptor ----

  void accept_loop() {
    // The listener is non-blocking and watched through a Poller so
    // stop() can interrupt the wait — a close() alone would never wake
    // a thread parked inside accept(2).
    while (running.load()) {
      const std::vector<net::Ready> ready = accept_poller->wait(200);
      if (!running.load()) break;
      // Only touch accept(2) when the poller reported the listener
      // readable: some kernels block an accept with an empty backlog
      // even on an O_NONBLOCK listener, and a thread parked there is
      // unreachable by the interrupt pipe — stop() would hang on the
      // join until the next client happened to connect.
      bool pending = false;
      for (const net::Ready& r : ready) pending |= r.data == 0;
      if (!pending) continue;
      net::Fd fd;
      try {
        fd = net::accept_from(listener.get());
      } catch (const net::NetError&) {
        continue;
      }
      if (!fd.valid()) continue;
      stats.connections.fetch_add(1, std::memory_order_relaxed);
      net::set_nonblocking(fd.get(), true);

      std::size_t best = 0;
      for (std::size_t i = 1; i < shards.size(); ++i)
        if (shards[i]->load.load() < shards[best]->load.load()) best = i;
      Shard& sh = *shards[best];
      auto conn = std::make_shared<Conn>();
      conn->fd = std::move(fd);
      conn->shard = best;
      {
        std::lock_guard<std::mutex> lock(sh.inbox_mu);
        sh.incoming.push_back(std::move(conn));
      }
      sh.poller.interrupt();
    }
  }

  // ---- readiness loop ----

  void loop_main(Shard& sh) {
    while (running.load()) {
      std::vector<net::Ready> ready = sh.poller.wait(200);
      if (!running.load()) break;

      std::vector<std::shared_ptr<Conn>> fresh, thaw;
      {
        std::lock_guard<std::mutex> lock(sh.inbox_mu);
        fresh.swap(sh.incoming);
        thaw.swap(sh.resume);
      }
      for (std::shared_ptr<Conn>& c : fresh) {
        const int fd = c->fd.get();
        sh.poller.add(fd, net::kReadable,
                      static_cast<std::uint64_t>(fd));
        sh.conns.emplace(fd, std::move(c));
        sh.load.store(sh.conns.size());
      }
      for (const std::shared_ptr<Conn>& c : thaw) {
        if (c->closed.load() || c->shard != sh.index) continue;
        if (!c->throttled) continue;
        c->throttled = false;
        parse_frames(sh, c);  // frames buffered while throttled
        if (c->closed.load())
          drop_conn(sh, c);
        else if (!c->throttled)
          sh.poller.modify(c->fd.get(), net::kReadable,
                           static_cast<std::uint64_t>(c->fd.get()));
      }

      for (const net::Ready& r : ready) {
        const auto it = sh.conns.find(static_cast<int>(r.data));
        if (it == sh.conns.end()) continue;
        std::shared_ptr<Conn> c = it->second;
        bool eof = false;
        if ((r.events & net::kReadable) != 0) eof = !drain_socket(*c);
        if ((r.events & net::kHangup) != 0) eof = true;
        if (!c->in.empty() || !eof) parse_frames(sh, c);
        if (eof || c->closed.load()) drop_conn(sh, c);
      }
    }
  }

  /// Read everything the socket has. False on EOF.
  static bool drain_socket(Conn& c) {
#if defined(__unix__) || defined(__APPLE__)
    unsigned char chunk[1 << 16];
    for (;;) {
      const ssize_t k = ::read(c.fd.get(), chunk, sizeof chunk);
      if (k > 0) {
        c.in.insert(c.in.end(), chunk, chunk + k);
        continue;
      }
      if (k == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
#else
    (void)c;
    return false;
#endif
  }

  void drop_conn(Shard& sh, const std::shared_ptr<Conn>& c) {
    c->closed.store(true);
    if (c->sess != nullptr) {
      std::lock_guard<std::mutex> lock(c->sess->park_mu);
      std::erase_if(c->sess->parked, [&](const std::weak_ptr<Conn>& w) {
        return w.expired() || w.lock() == c;
      });
    }
    sh.poller.remove(c->fd.get());
    sh.conns.erase(c->fd.get());
    sh.load.store(sh.conns.size());
  }

  void parse_frames(Shard& sh, const std::shared_ptr<Conn>& c) {
    for (;;) {
      if (c->closed.load() || c->throttled) break;
      const std::size_t have = c->in.size() - c->off;
      if (have < 4) break;
      const unsigned char* base = c->in.data() + c->off;
      if (!c->http && std::memcmp(base, "GET ", 4) == 0) {
        serve_http(*c);
        break;
      }
      if (have < kFrameHeaderBytes) break;
      FrameHeader h;
      try {
        h = decode_frame_header(base, opts.max_frame_bytes);
      } catch (const ProtocolError& e) {
        reply_error(*c, e.what());
        c->closed.store(true);
        break;
      }
      if (have < kFrameHeaderBytes + h.length) break;
      dispatch(sh, c, h, base + kFrameHeaderBytes,
               static_cast<std::size_t>(h.length));
      c->off += kFrameHeaderBytes + static_cast<std::size_t>(h.length);
    }
    // Compact the consumed prefix once it dominates the buffer.
    if (c->off > (std::size_t{1} << 16) && c->off * 2 > c->in.size()) {
      c->in.erase(c->in.begin(),
                  c->in.begin() + static_cast<std::ptrdiff_t>(c->off));
      c->off = 0;
    }
  }

  void serve_http(Conn& c) {
    stats.http_requests.fetch_add(1, std::memory_order_relaxed);
    const std::string body = status_text();
    const std::string head = format(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n"
        "Content-Length: %zu\r\nConnection: close\r\n\r\n",
        body.size());
    {
      std::lock_guard<std::mutex> lock(c.wmu);
      try {
        net::write_all(c.fd.get(), head.data(), head.size(),
                       opts.write_timeout_ms);
        net::write_all(c.fd.get(), body.data(), body.size(),
                       opts.write_timeout_ms);
      } catch (const net::NetError&) {
      }
    }
    c.closed.store(true);
  }

  // ---- frame dispatch (loop thread) ----

  void dispatch(Shard& sh, const std::shared_ptr<Conn>& c,
                const FrameHeader& h, const unsigned char* p,
                std::size_t size) {
    switch (h.type) {
      case FrameType::kOpen:
      case FrameType::kRestore: {
        auto sess = std::make_shared<Session>();
        sess->id = next_id.fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(reg_mu);
          registry.emplace(sess->id, sess);
        }
        stats.sessions_opened.fetch_add(1, std::memory_order_relaxed);
        bind(c, sess);
        Task t;
        t.kind = h.type == FrameType::kOpen ? Task::Kind::kOpen
                                            : Task::Kind::kRestore;
        t.sess = std::move(sess);
        t.conn = c;
        t.blob.assign(p, p + size);
        submit(sh, std::move(t));
        return;
      }
      case FrameType::kAttach: {
        if (size != 8) {
          reply_error(*c, "kAttach payload must be a u64 session id");
          return;
        }
        std::uint64_t id = 0;
        for (int i = 0; i < 8; ++i) id |= std::uint64_t{p[i]} << (8 * i);
        std::shared_ptr<Session> sess;
        {
          std::lock_guard<std::mutex> lock(reg_mu);
          const auto it = registry.find(id);
          if (it != registry.end()) sess = it->second;
        }
        if (sess == nullptr) {
          reply_error(*c, format("unknown session %llu",
                                 static_cast<unsigned long long>(id)));
          return;
        }
        bind(c, sess);
        Task t;
        t.kind = Task::Kind::kAttach;
        t.sess = std::move(sess);
        t.conn = c;
        submit(sh, std::move(t));
        return;
      }
      case FrameType::kEvents: {
        if (c->sess == nullptr) {
          reply_error(*c, "kEvents before kOpen/kAttach");
          return;
        }
        if (size % kTraceBinaryEventBytes != 0) {
          reply_error(*c, format("kEvents payload of %zu bytes is not a "
                                 "multiple of 32",
                                 size));
          return;
        }
        Task t;
        t.kind = Task::Kind::kEvents;
        t.sess = c->sess;
        t.conn = c;
        t.flags = h.flags;
        // The payload is an array of records: little-endian hosts copy
        // it as is.
        t.events.resize(size / kTraceBinaryEventBytes);
        if constexpr (std::endian::native == std::endian::little) {
          if (size != 0) std::memcpy(t.events.data(), p, size);
        } else {
          decode_trace_records(p, t.events.size(), t.events.data());
        }
        stats.batches.fetch_add(1, std::memory_order_relaxed);
        c->sess->inflight.fetch_add(1);
        submit(sh, std::move(t));
        // Backpressure: at the cap, stop reading this connection. The
        // kernel thread re-arms every parked connection through the
        // resume inbox once the session drains below the cap. Park
        // FIRST, then re-check inflight: if the kernel's final drain
        // scanned the park list before we joined it, the re-check sees
        // the drop and un-parks immediately instead of stalling.
        if (opts.kernel_offload && !c->closed.load() &&
            c->sess->inflight.load() >= opts.max_pending_batches) {
          c->throttled = true;
          {
            std::lock_guard<std::mutex> lock(c->sess->park_mu);
            c->sess->parked.push_back(c);
          }
          if (c->sess->inflight.load() >= opts.max_pending_batches) {
            stats.throttles.fetch_add(1, std::memory_order_relaxed);
            sh.poller.modify(c->fd.get(), 0,
                             static_cast<std::uint64_t>(c->fd.get()));
          } else {
            c->throttled = false;  // drained while parking; the stale
                                   // park entry is skipped on resume
          }
        }
        return;
      }
      case FrameType::kCheck:
      case FrameType::kFinish:
      case FrameType::kSnapshot: {
        if (c->sess == nullptr) {
          reply_error(*c, "no session on this connection");
          return;
        }
        Task t;
        t.kind = h.type == FrameType::kCheck    ? Task::Kind::kCheck
                 : h.type == FrameType::kFinish ? Task::Kind::kFinish
                                                : Task::Kind::kSnapshot;
        t.sess = c->sess;
        t.conn = c;
        submit(sh, std::move(t));
        return;
      }
      case FrameType::kStatus:
        reply(*c, FrameType::kStatusText, 0, status_text());
        return;
      case FrameType::kClose: {
        if (c->sess != nullptr) {
          std::lock_guard<std::mutex> lock(reg_mu);
          registry.erase(c->sess->id);
        }
        c->sess.reset();
        return;
      }
      default:
        reply_error(*c, format("unexpected frame type %u",
                               static_cast<unsigned>(h.type)));
        return;
    }
  }

  void bind(const std::shared_ptr<Conn>& c,
            const std::shared_ptr<Session>& sess) {
    c->sess = sess;
  }

  void submit(Shard& sh, Task t) {
    if (!opts.kernel_offload) {
      run_task(t);
      return;
    }
    // Effectively unbounded: the per-session inflight caps bound the
    // queue; push() blocking would stall the whole shard. A full
    // channel is still answered — silently dropping a task would leave
    // the client waiting forever (and, for kEvents, leak the inflight
    // increment so the connection throttles permanently).
    const Task::Kind kind = t.kind;
    const std::shared_ptr<Session> sess = t.sess;
    const std::shared_ptr<Conn> conn = t.conn;
    if (sh.tasks.try_push(std::move(t))) return;
    reject_overload(kind, *sess, *conn);
  }

  /// A task the shard channel refused: undo its side effects and tell
  /// the client, so nothing hangs on a reply that will never come.
  void reject_overload(Task::Kind kind, Session& s, Conn& c) {
    const std::string why = "server overloaded: shard task queue is full";
    if (kind == Task::Kind::kEvents) {
      reply_error(c, why);
      // A dropped batch leaves a hole in the stream that would only
      // surface later as misleading "predecessor missing" rejects —
      // close so the client sees the failure where it happened.
      c.closed.store(true);
      note_batch_done(s);  // undo the pre-submit inflight increment
      return;
    }
    if (kind == Task::Kind::kOpen || kind == Task::Kind::kRestore) {
      {
        std::lock_guard<std::mutex> lock(s.mu);
        s.open_error = why;
        s.ready = true;
      }
      s.ready_cv.notify_all();
      std::lock_guard<std::mutex> lock(reg_mu);
      registry.erase(s.id);
    }
    reply_error(c, why);
  }

  /// One event batch left a session (ran or was rejected): decrement
  /// inflight and, once it drops below the cap, re-arm every parked
  /// connection — not just the latest-bound one.
  void note_batch_done(Session& s) {
    const std::uint32_t before = s.inflight.fetch_sub(1);
    if (!opts.kernel_offload || before > opts.max_pending_batches) return;
    std::vector<std::shared_ptr<Conn>> thaw;
    {
      std::lock_guard<std::mutex> lock(s.park_mu);
      for (const std::weak_ptr<Conn>& w : s.parked)
        if (std::shared_ptr<Conn> c = w.lock()) thaw.push_back(std::move(c));
      s.parked.clear();
    }
    for (std::shared_ptr<Conn>& c : thaw) {
      if (c->closed.load()) continue;
      Shard& sh = *shards[c->shard];
      {
        std::lock_guard<std::mutex> lock(sh.inbox_mu);
        sh.resume.push_back(std::move(c));
      }
      sh.poller.interrupt();
    }
  }

  // ---- kernel thread ----

  void kernel_main(Shard& sh) {
    // First-touch: sessions are constructed and advanced here, so
    // their arenas land on this shard's NUMA node.
    NumaBinding binding(numa_topology(), placement[sh.index]);
    Task t;
    while (sh.tasks.pop(t)) run_task(t);
  }

  void run_task(Task& t) {
    switch (t.kind) {
      case Task::Kind::kOpen:
      case Task::Kind::kRestore:
        run_open(t);
        return;
      case Task::Kind::kAttach:
        run_attach(t);
        return;
      case Task::Kind::kEvents:
        run_events(t);
        return;
      case Task::Kind::kCheck:
      case Task::Kind::kFinish:
        run_report(t);
        return;
      case Task::Kind::kSnapshot:
        run_snapshot(t);
        return;
    }
  }

  void run_open(Task& t) {
    Session& s = *t.sess;
    std::string err;
    try {
      std::unique_ptr<CheckSession> chk;
      std::vector<BinaryTraceEvent> replay;
      if (t.kind == Task::Kind::kOpen) {
        OpenRequest req = decode_open(t.blob.data(), t.blob.size());
        chk = std::make_unique<CheckSession>(
            io::read_computation(req.computation), req.options);
      } else {
        SnapshotImage img = decode_snapshot(t.blob.data(), t.blob.size());
        chk = std::make_unique<CheckSession>(
            io::read_computation(img.computation), img.options);
        replay = std::move(img.events);
      }
      // Retained logs only hold accepted records, so the replay cannot
      // reject; it may well *violate*, which the restored session then
      // reports identically to the original.
      if (!replay.empty()) (void)chk->feed(replay.data(), replay.size());
      std::uint64_t nodes = chk->node_count();
      {
        std::lock_guard<std::mutex> lock(s.mu);
        s.chk = std::move(chk);
        s.ready = true;
      }
      s.ready_cv.notify_all();
      reply(*t.conn, FrameType::kOpened, 0, encode_opened(s.id, nodes));
      return;
    } catch (const std::exception& e) {
      err = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.open_error = err;
      s.ready = true;
    }
    s.ready_cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(reg_mu);
      registry.erase(s.id);
    }
    reply_error(*t.conn, "cannot open session: " + err);
  }

  void run_attach(Task& t) {
    Session& s = *t.sess;
    std::unique_lock<std::mutex> lock(s.mu);
    // A session can only be attached after its id was learned from
    // kOpened, so in practice `ready` already holds; the timed wait
    // covers a cross-shard open still in flight.
    s.ready_cv.wait_for(lock, std::chrono::seconds(5),
                        [&] { return s.ready; });
    if (s.chk != nullptr) {
      const std::uint64_t nodes = s.chk->node_count();
      lock.unlock();
      reply(*t.conn, FrameType::kOpened, 0, encode_opened(s.id, nodes));
    } else {
      const std::string why =
          s.open_error.empty() ? "session is still opening" : s.open_error;
      lock.unlock();
      reply_error(*t.conn, "cannot attach: " + why);
    }
  }

  void run_events(Task& t) {
    Session& s = *t.sess;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.chk == nullptr) {
        if ((t.flags & kFlagWantVerdict) != 0)
          reply_error(*t.conn, "session failed to open: " + s.open_error);
      } else {
        const bool ok = s.chk->feed(t.events.data(), t.events.size());
        stats.events_ingested.fetch_add(t.events.size(),
                                        std::memory_order_relaxed);
        if (!ok) {
          stats.stream_rejects.fetch_add(1, std::memory_order_relaxed);
          if ((t.flags & kFlagWantVerdict) != 0)
            reply_error(*t.conn, s.chk->error(), kFlagStreamRejected);
        } else if ((t.flags & kFlagWantVerdict) != 0) {
          stats.verdicts.fetch_add(1, std::memory_order_relaxed);
          reply(*t.conn, FrameType::kVerdict, 0,
                encode_verdict(s.chk->fast_verdict()));
        }
      }
    }
    note_batch_done(s);
  }

  void run_report(Task& t) {
    Session& s = *t.sess;
    std::string payload;
    std::string err;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.chk == nullptr) {
        err = "session failed to open: " + s.open_error;
      } else {
        try {
          const LargeCheckReport rep = t.kind == Task::Kind::kFinish
                                           ? s.chk->finish()
                                           : s.chk->check();
          payload = encode_report(rep);
        } catch (const std::exception& e) {
          err = e.what();
        }
      }
    }
    if (!err.empty()) {
      reply_error(*t.conn, err);
      return;
    }
    stats.reports.fetch_add(1, std::memory_order_relaxed);
    reply(*t.conn, FrameType::kReport,
          t.kind == Task::Kind::kFinish ? kFlagFinal : std::uint8_t{0},
          payload);
  }

  void run_snapshot(Task& t) {
    Session& s = *t.sess;
    std::string payload;
    std::string err;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.chk == nullptr) {
        err = "session failed to open: " + s.open_error;
      } else {
        try {
          payload = encode_snapshot(*s.chk);
        } catch (const std::exception& e) {
          err = e.what();
        }
      }
    }
    if (!err.empty()) {
      reply_error(*t.conn, err);
      return;
    }
    reply(*t.conn, FrameType::kSnapshotData, 0, payload);
  }

  // ---- status ----

  std::string status_text() const {
    std::size_t nsessions = 0;
    {
      std::lock_guard<std::mutex> lock(reg_mu);
      nsessions = registry.size();
    }
    const auto up = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::steady_clock::now() - started)
                        .count();
    std::string queues;
    std::string loads;
    for (const std::unique_ptr<Shard>& sh : shards) {
      queues += format(" %zu", sh->tasks.size());
      loads += format(" %zu", sh->load.load());
    }
    return format(
        "ccmm_serve status\n"
        "listen: %s\n"
        "uptime_seconds: %lld\n"
        "shards: %zu (kernel_offload=%d, max_pending_batches=%zu)\n"
        "numa: %s\n"
        "simd: %s\n"
        "sessions: %zu\n"
        "connections_total: %llu\n"
        "sessions_opened_total: %llu\n"
        "events_ingested: %llu\n"
        "event_batches: %llu\n"
        "verdicts: %llu\n"
        "reports: %llu\n"
        "stream_rejects: %llu\n"
        "throttles: %llu\n"
        "http_requests: %llu\n"
        "shard_queue_depth:%s\n"
        "shard_connections:%s\n",
        opts.listen.c_str(), static_cast<long long>(up), shards.size(),
        opts.kernel_offload ? 1 : 0, opts.max_pending_batches,
        numa_topology().to_string().c_str(),
        simd_level_name(active_simd_level()), nsessions,
        static_cast<unsigned long long>(stats.connections.load()),
        static_cast<unsigned long long>(stats.sessions_opened.load()),
        static_cast<unsigned long long>(stats.events_ingested.load()),
        static_cast<unsigned long long>(stats.batches.load()),
        static_cast<unsigned long long>(stats.verdicts.load()),
        static_cast<unsigned long long>(stats.reports.load()),
        static_cast<unsigned long long>(stats.stream_rejects.load()),
        static_cast<unsigned long long>(stats.throttles.load()),
        static_cast<unsigned long long>(stats.http_requests.load()),
        queues.c_str(), loads.c_str());
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  Impl& im = *impl_;
  if (im.running.load()) return;
#if defined(SIGPIPE)
  // A client that vanished mid-reply must be an EPIPE, not a kill.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  const NumaTopology& topo = numa_topology();
  std::size_t nshards = im.opts.shards;
  if (nshards == 0) nshards = topo.node_count();
  if (nshards == 0) nshards = 1;
  im.opts.shards = nshards;
  im.placement = plan_shard_placement(nshards, topo);

  im.listener = net::listen_on(net::Addr::parse(im.opts.listen));
  net::set_nonblocking(im.listener.get(), true);
  im.accept_poller = std::make_unique<net::Poller>();
  im.accept_poller->add(im.listener.get(), net::kReadable, 0);
  im.started = std::chrono::steady_clock::now();
  im.running.store(true);
  im.shards.clear();
  for (std::size_t i = 0; i < nshards; ++i) {
    im.shards.push_back(std::make_unique<Shard>());
    im.shards.back()->index = i;
  }
  for (std::size_t i = 0; i < nshards; ++i) {
    Shard& sh = *im.shards[i];
    sh.loop = std::thread([&im, &sh] { im.loop_main(sh); });
    if (im.opts.kernel_offload)
      sh.kernel = std::thread([&im, &sh] { im.kernel_main(sh); });
  }
  im.acceptor = std::thread([&im] { im.accept_loop(); });
}

void Server::stop() {
  Impl& im = *impl_;
  if (!im.running.exchange(false)) return;
  if (im.accept_poller != nullptr) im.accept_poller->interrupt();
  if (im.acceptor.joinable()) im.acceptor.join();
  im.accept_poller.reset();
  im.listener.reset();
  for (std::unique_ptr<Shard>& sh : im.shards) {
    sh->tasks.close();
    sh->poller.interrupt();
  }
  for (std::unique_ptr<Shard>& sh : im.shards) {
    if (sh->loop.joinable()) sh->loop.join();
    if (sh->kernel.joinable()) sh->kernel.join();
  }
  im.shards.clear();
  std::lock_guard<std::mutex> lock(im.reg_mu);
  im.registry.clear();
}

const ServerOptions& Server::options() const noexcept { return impl_->opts; }
const ServerStats& Server::stats() const noexcept { return impl_->stats; }

std::size_t Server::session_count() const {
  std::lock_guard<std::mutex> lock(impl_->reg_mu);
  return impl_->registry.size();
}

std::string Server::status_text() const { return impl_->status_text(); }

}  // namespace ccmm::serve
