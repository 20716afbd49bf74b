// Microbenchmarks for ccmm_serve, the online checking service. Both
// run a real server on a unix socket and drive it through ServeClient,
// so the numbers include framing, the socket hop, and the session
// kernel — everything but the network. BM_ServeIngest is the
// throughput headline (stream a full trace, finish, and get the batch-
// identical report); the acceptance row keeps it within 2x of
// BM_LargeCheckLC at the same size on one core. BM_ServeLatency is the
// interactive headline: the batch -> verdict round trip a client pays
// for a mid-stream answer, with p50/p99 on the row. BM_ServeIngest also
// runs the location axis (2^20 ops at 16 / 256 / 4096 locations, rows
// BM_ServeIngest/1048576/L), and BM_ServeIngestBacker streams a
// 4-processor BACKER trace whose stale reads materialize the session's
// locations, keeping the kernel measured behind the socket.
// BM_SessionSetupIds/L/1048576 times a session's construction alone on
// three location-id layouts, L = 0, 1, 2 (see the row).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/session_kernel.hpp"
#include "trace/trace_binary.hpp"
#include "trace_instances.hpp"
#include "util/net.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <unistd.h>

namespace ccmm {
namespace {

struct ServeInstance {
  Computation c;
  std::vector<BinaryTraceEvent> recs;
};

/// A fork/join program of ~n ops and its serial SC stream; `backer`
/// streams its 4-processor BACKER run instead.
ServeInstance make_serve_instance(std::size_t n, std::size_t nlocations = 16,
                                  bool backer = false) {
  ServeInstance in;
  in.c = bench::cilk_program(n, nlocations, n * 13 + 5);
  // Both traces are in seq order, as the wire wants.
  in.recs = (backer ? bench::backer_trace(in.c)
                    : bench::serial_sc_trace(in.c))
                .events.to_vector();
  return in;
}

/// One server per benchmark, on its own socket. The kernel runs inline
/// on the readiness loop: the bench box is one core, and the offload
/// thread only buys anything when ingest and checking can overlap.
struct BenchServer {
  std::string path;
  serve::Server server;

  static serve::ServerOptions make_options(const std::string& path) {
    serve::ServerOptions so;
    so.listen = "unix:" + path;
    so.shards = 1;
    so.kernel_offload = false;
    return so;
  }
  BenchServer()
      : path("/tmp/ccmm_bench_serve." + std::to_string(::getpid()) + ".sock"),
        server(make_options(path)) {
    server.start();
  }
  ~BenchServer() {
    server.stop();
    ::unlink(path.c_str());
  }
  std::string addr() const { return "unix:" + path; }
};

/// Stream the whole trace through the socket in kChunk-event frames,
/// then finish(): the wall time to a full batch-identical report.
void serve_ingest(benchmark::State& state, const ServeInstance& in) {
  BenchServer bs;
  constexpr std::size_t kChunk = 8192;
  serve::ClientOptions copt;
  copt.session.models = kSuiteLC;
  copt.batch_events = kChunk;
  copt.flush_after_ms = 0;  // size watermark only: saturate, don't pace
  bool satisfied = false;
  double wall_s = 0.0;
  double bytes_per_node = 0.0;
  for (auto _ : state) {
    // Session setup (computation text round-trip) is untimed: the
    // batch twin BM_LargeCheckLC starts from an in-memory computation
    // too. The timed region is the service data plane — event frames
    // over the socket, the incremental kernel, and the final report.
    state.PauseTiming();
    serve::ServeClient client(bs.addr(), copt);
    client.open(in.c);
    state.ResumeTiming();
    const auto w0 = std::chrono::steady_clock::now();
    for (std::size_t at = 0; at < in.recs.size(); at += kChunk)
      client.feed(in.recs.data() + at,
                  std::min(kChunk, in.recs.size() - at));
    const LargeCheckReport r = client.finish();
    wall_s += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            w0)
                  .count();
    satisfied = r.satisfied;
    bytes_per_node = r.bytes_per_node;
    state.PauseTiming();
    client.close_session();
    state.ResumeTiming();
    benchmark::DoNotOptimize(satisfied);
  }
  const auto total = static_cast<std::int64_t>(state.iterations()) *
                     static_cast<std::int64_t>(in.recs.size());
  state.SetItemsProcessed(total);
  // Wall-clock ingest rate: items_per_second above is CPU-based and
  // only sees the client thread, which mostly sleeps on the socket.
  if (wall_s > 0)
    state.counters["events_per_sec"] = static_cast<double>(total) / wall_s;
  state.counters["bytes_per_node"] = bytes_per_node;
}
void BM_ServeIngest(benchmark::State& state) {
  serve_ingest(state,
               make_serve_instance(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_ServeIngest)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

/// The location axis. The 16-location rows also pin the O(n) trace
/// builder against run_serial's records; the 4096-location row runs
/// process-isolated, in full mode only (run_benches.sh).
void BM_ServeIngestLocations(benchmark::State& state) {
  const auto nlocations = static_cast<std::size_t>(state.range(1));
  const ServeInstance in = make_serve_instance(
      static_cast<std::size_t>(state.range(0)), nlocations);
  if (nlocations == 16 &&
      !bench::matches_run_serial(in.c, bench::serial_sc_trace(in.c))) {
    state.SkipWithError("serial_sc_trace differs from run_serial");
    return;
  }
  serve_ingest(state, in);
}
BENCHMARK(BM_ServeIngestLocations)->Name("BM_ServeIngest")
    ->Args({1 << 20, 16})->Args({1 << 20, 256})->Args({1 << 20, 4096})
    ->Unit(benchmark::kMillisecond);

/// A stream whose locations disagree with its arrival order.
void BM_ServeIngestBacker(benchmark::State& state) {
  serve_ingest(state, make_serve_instance(
                          static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(1)), true));
}
BENCHMARK(BM_ServeIngestBacker)->Args({1 << 18, 16})->Args({1 << 18, 256})
    ->Unit(benchmark::kMillisecond);

/// The interactive round trip: one kChunk-event batch plus a flagged
/// verdict ping, timed together — what a client pays per mid-stream
/// answer. Sessions are recycled outside the timed region when the
/// trace runs dry; p50/p99 over all round trips land on the row.
void BM_ServeLatency(benchmark::State& state) {
  const ServeInstance in =
      make_serve_instance(static_cast<std::size_t>(state.range(0)));
  BenchServer bs;
  constexpr std::size_t kChunk = 4096;
  serve::ClientOptions copt;
  copt.session.models = kSuiteLC;
  copt.batch_events = kChunk;
  copt.flush_after_ms = 0;
  serve::ServeClient client(bs.addr(), copt);
  client.open(in.c);
  std::size_t at = 0;
  std::vector<double> ms;
  for (auto _ : state) {
    if (at >= in.recs.size()) {
      state.PauseTiming();
      client.close_session();
      client.open(in.c);
      at = 0;
      state.ResumeTiming();
    }
    const auto t0 = std::chrono::steady_clock::now();
    client.feed(in.recs.data() + at, std::min(kChunk, in.recs.size() - at));
    client.flush();
    const SessionVerdict v = client.verdict();
    const auto t1 = std::chrono::steady_clock::now();
    at += kChunk;
    ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    benchmark::DoNotOptimize(v.events);
  }
  client.close_session();
  std::sort(ms.begin(), ms.end());
  if (!ms.empty()) {
    state.counters["p50_ms"] = ms[ms.size() / 2];
    state.counters["p99_ms"] = ms[ms.size() * 99 / 100];
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_ServeLatency)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

/// CheckSession construction, which builds the location index, on a
/// postmortem-deep-shaped computation (2^20 ops over 16 locations) in
/// three location-id layouts: ids 0..15 (arg 0), every id moved past
/// 2^31 (1), and only the last access renamed to 0xFFFFFFFF (2), the
/// one large id the index meets after every other node. The copy the
/// session takes is made untimed. Not gated.
void BM_SessionSetupIds(benchmark::State& state) {
  const auto layout = state.range(0);
  const Computation base = bench::cilk_program(
      static_cast<std::size_t>(state.range(1)), 16,
      static_cast<std::uint64_t>(state.range(1)) * 13 + 5);
  std::vector<Op> ops = base.ops();
  if (layout == 1)
    for (Op& o : ops)
      if (!o.is_nop()) o.loc += 0x80000000u;
  if (layout == 2)
    for (auto it = ops.rbegin(); it != ops.rend(); ++it)
      if (!it->is_nop()) {
        it->loc = 0xFFFFFFFFu;
        break;
      }
  Computation c(base.dag(), std::move(ops));
  c.set_sp_structure(base.sp_structure());
  for (auto _ : state) {
    state.PauseTiming();
    Computation copy = c;
    state.ResumeTiming();
    const CheckSession session(std::move(copy));
    benchmark::DoNotOptimize(&session);
  }
  state.SetLabel(layout == 0 ? "ids 0..15"
                 : layout == 1 ? "ids past 2^31"
                               : "last id 0xFFFFFFFF");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.node_count()));
}
BENCHMARK(BM_SessionSetupIds)
    ->Args({0, 1 << 20})->Args({1, 1 << 20})->Args({2, 1 << 20})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ccmm

#endif  // __unix__ || __APPLE__
