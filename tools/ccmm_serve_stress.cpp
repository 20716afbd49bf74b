// ccmm_serve_stress — the multi-client load harness for ccmm_serve:
// N concurrent sessions stream a generated workload, and the harness
// reports aggregate ingest throughput (events/s) plus the p50/p99 of
// the verdict round trip (flush → kVerdict reply).
//
//   $ ./ccmm_serve_stress unix:/tmp/ccmm.sock --sessions 256 --ops 20000
//   $ ./ccmm_serve_stress … --threads 8 --chunk 4096 --ping 16 --verify
//
// Bench-environment guards (this tool is run from CI next to the
// nightly benchmark regeneration):
//   * CCMM_THREADS caps --threads, so a 1-core runner scales the
//     client side down without editing the invocation;
//   * the run holds an exclusive flock on ${CCMM_BENCH_LOCK:-
//     /tmp/ccmm_bench.lock} — the same lock run_benches.sh --nightly
//     takes — so a stress run never contends with a timing run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

#include "exec/backer.hpp"
#include "proc/random_program.hpp"
#include "serve/client.hpp"
#include "trace/large_check.hpp"
#include "util/rng.hpp"

using namespace ccmm;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: ccmm_serve_stress ADDR [--sessions N] [--threads N]\n"
      "         [--ops N] [--chunk N] [--ping N] [--seed S] [--verify]\n"
      "  --ping K  request a verdict every K batches (latency samples)\n"
      "  CCMM_THREADS caps --threads; the run flocks "
      "${CCMM_BENCH_LOCK:-/tmp/ccmm_bench.lock}\n");
  return 2;
}

/// Hold the bench lock for the life of the process.
int take_bench_lock() {
#if defined(__unix__) || defined(__APPLE__)
  const char* env = std::getenv("CCMM_BENCH_LOCK");
  const std::string path = env != nullptr ? env : "/tmp/ccmm_bench.lock";
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "warning: cannot open bench lock %s\n",
                 path.c_str());
    return -1;
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    std::fprintf(stderr,
                 "waiting for bench lock %s (a timing run is active)...\n",
                 path.c_str());
    (void)::flock(fd, LOCK_EX);
  }
  return fd;
#else
  return -1;
#endif
}

struct Shared {
  std::string addr;
  std::vector<BinaryTraceEvent> recs;
  const Computation* c = nullptr;
  std::size_t chunk = 4096;
  std::size_t ping = 16;
  std::uint32_t models = kSuiteLC;
  bool verify = false;
  const LargeCheckReport* batch = nullptr;
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> errors{0};
};

/// Semantic-field diff against the local batch report.
bool matches_batch(const LargeCheckReport& a, const LargeCheckReport& b) {
  if (a.valid_observer != b.valid_observer || a.checked != b.checked ||
      a.satisfied != b.satisfied || a.detail != b.detail ||
      a.locations.size() != b.locations.size())
    return false;
  for (std::size_t i = 0; i < a.locations.size(); ++i) {
    const LocationCheck& x = a.locations[i];
    const LocationCheck& y = b.locations[i];
    if (x.loc != y.loc || x.valid != y.valid || x.violated != y.violated ||
        x.writers != y.writers || x.detail != y.detail)
      return false;
  }
  return true;
}

void drive_sessions(Shared& sh, std::size_t nsessions,
                    std::vector<double>& latencies_ms) {
  // All this thread's sessions stream concurrently: open everything,
  // then deal chunks round-robin so the server really holds
  // `nsessions` live incremental states at once.
  struct Live {
    std::unique_ptr<serve::ServeClient> client;
    std::size_t at = 0;
    std::size_t batches = 0;
  };
  std::vector<Live> live(nsessions);
  serve::ClientOptions copts;
  copts.session.models = sh.models;
  copts.batch_events = sh.chunk;
  copts.flush_after_ms = 0;  // the harness flushes explicitly
  try {
    for (Live& s : live) {
      s.client = std::make_unique<serve::ServeClient>(sh.addr, copts);
      s.client->open(*sh.c);
    }
    std::size_t remaining = nsessions;
    while (remaining > 0) {
      for (Live& s : live) {
        if (s.client == nullptr || s.at >= sh.recs.size()) continue;
        const std::size_t k = std::min(sh.chunk, sh.recs.size() - s.at);
        s.client->feed(sh.recs.data() + s.at, k);
        s.client->flush();
        s.at += k;
        sh.events.fetch_add(k, std::memory_order_relaxed);
        if (++s.batches % sh.ping == 0) {
          const auto t0 = std::chrono::steady_clock::now();
          (void)s.client->verdict();
          latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        }
        if (s.at >= sh.recs.size()) --remaining;
      }
    }
    for (Live& s : live) {
      const LargeCheckReport rep = s.client->finish();
      if (sh.verify && !matches_batch(rep, *sh.batch))
        sh.mismatches.fetch_add(1);
      s.client->close_session();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stress worker: %s\n", e.what());
    sh.errors.fetch_add(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') return usage();
  Shared sh;
  sh.addr = argv[1];
  std::size_t sessions = 16, threads = 4, ops = 20000;
  std::uint64_t seed = 42;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sessions" && i + 1 < argc)
      sessions = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (arg == "--threads" && i + 1 < argc)
      threads = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (arg == "--ops" && i + 1 < argc)
      ops = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (arg == "--chunk" && i + 1 < argc)
      sh.chunk = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (arg == "--ping" && i + 1 < argc)
      sh.ping = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (arg == "--seed" && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else if (arg == "--verify")
      sh.verify = true;
    else
      return usage();
  }
  if (sh.chunk == 0) sh.chunk = 1;
  if (sh.ping == 0) sh.ping = 1;
  if (const char* env = std::getenv("CCMM_THREADS")) {
    const std::size_t cap = static_cast<std::size_t>(std::atol(env));
    if (cap > 0 && cap < threads) {
      std::printf("CCMM_THREADS=%zu caps --threads %zu\n", cap, threads);
      threads = cap;
    }
  }
  if (threads == 0) threads = 1;
  if (threads > sessions) threads = sessions;

  const int lock_fd = take_bench_lock();

  // One shared workload: a series-parallel program run on 4 BACKER
  // processors, with enough contention that reads go stale — the
  // verdicts are non-trivial, and the sessions materialize their
  // locations instead of staying witnessed by the arrival order.
  Rng rng(seed);
  proc::RandomCilkOptions wopt;
  wopt.target_ops = ops;
  wopt.nlocations = 16;
  const Computation c = proc::random_cilk(wopt, rng);
  BackerMemory mem;
  const Trace trace = run_execution(c, greedy_schedule(c, 4), mem).trace;
  // Already in seq order, as the wire wants.
  sh.recs = trace.events.to_vector();
  sh.c = &c;

  LargeCheckReport batch;
  if (sh.verify) {
    LargeCheckOptions bopts;
    bopts.models = sh.models;
    bopts.parallel = false;
    batch = large_check_trace(c, trace, bopts);
    sh.batch = &batch;
  }

  std::printf(
      "streaming %zu sessions x %zu events (chunk %zu) over %zu thread%s\n",
      sessions, sh.recs.size(), sh.chunk, threads,
      threads == 1 ? "" : "s");

  std::vector<std::vector<double>> lat(threads);
  std::vector<std::thread> workers;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t mine =
        sessions / threads + (t < sessions % threads ? 1 : 0);
    workers.emplace_back(
        [&sh, &lat, t, mine] { drive_sessions(sh, mine, lat[t]); });
  }
  for (std::thread& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> all;
  for (const std::vector<double>& l : lat)
    all.insert(all.end(), l.begin(), l.end());
  std::sort(all.begin(), all.end());
  const auto pct = [&all](double p) {
    if (all.empty()) return 0.0;
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(all.size() - 1));
    return all[i];
  };
  const std::uint64_t ev = sh.events.load();
  std::printf("ingested %llu events in %.3f s  ->  %.0f events/s\n",
              static_cast<unsigned long long>(ev), secs,
              static_cast<double>(ev) / (secs > 0 ? secs : 1));
  std::printf("verdict latency over %zu pings: p50 %.3f ms  p99 %.3f ms\n",
              all.size(), pct(0.50), pct(0.99));
  if (sh.verify)
    std::printf("verify: %llu/%zu sessions matched the batch engine\n",
                static_cast<unsigned long long>(
                    sessions - sh.mismatches.load()),
                sessions);
#if defined(__unix__) || defined(__APPLE__)
  if (lock_fd >= 0) ::close(lock_fd);
#else
  (void)lock_fd;
#endif
  if (sh.errors.load() != 0 || sh.mismatches.load() != 0) return 1;
  return 0;
}
