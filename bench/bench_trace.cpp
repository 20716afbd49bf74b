// Microbenchmarks for the large-trace postmortem pipeline: precedence
// oracle construction and point queries, and the streaming per-location
// checker against the closure-based prepared path. The headline pair is
// BM_VerifyClosureLC vs BM_LargeCheckLC at the largest closure-feasible
// size; BM_LargeCheckLC/1048576 is the million-node target the closure
// path cannot reach at all (the n²/4-byte bitsets alone would be 256GB
// of scans per check).
//
// The location axis: BM_LargeCheckLC, BM_PostmortemDataPlane (and
// BM_ServeIngest in bench_serve) also run 2^20 ops at 16 / 256 / 4096
// locations (rows NAME/1048576/L; BM_LargeCheckLC stops at 256, where
// the dense Φ it checks is already ~1.2 GB). The serial traces are built
// in O(n) (trace_instances.hpp), so the axis costs what the check
// costs. BM_PostmortemBacker feeds a 4-processor BACKER trace whose
// reads go stale, so the stream entry materializes its locations and
// the kernel stays measured on it.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "core/last_writer.hpp"
#include "core/prepared.hpp"
#include "dag/precedence_oracle.hpp"
#include "io/text.hpp"
#include "models/compile.hpp"
#include "trace/large_check.hpp"
#include "trace/trace_binary.hpp"
#include "trace_instances.hpp"
#include "util/rng.hpp"

// The heap_bytes_per_node counter reads mallinfo2(), which glibc has
// from 2.33 on; elsewhere BM_DagFromEdges runs without the counter.
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
#include <malloc.h>
#define CCMM_BENCH_HEAP_COUNTER 1
#endif

namespace ccmm {
namespace {

struct Instance {
  Computation c;
  ObserverFunction phi;
};

/// A fork/join program of ~n memory instructions with a last-writer
/// observer from a topological sort — a member of every model in the
/// suite, i.e. the worst case for a checker (nothing short-circuits).
/// 16 locations by default: enough shards for the pool, realistic
/// sharing.
Instance make_cilk_instance(std::size_t n, std::size_t nlocations = 16) {
  Computation c = bench::cilk_program(n, nlocations, n * 13 + 5);
  std::vector<NodeId> order(c.node_count());
  if (c.dag().ids_topological()) {
    std::iota(order.begin(), order.end(), NodeId{0});
  } else {
    order = c.dag().topological_order();
  }
  ObserverFunction phi = last_writer(c, order);
  return {std::move(c), std::move(phi)};
}

void BM_OracleBuildSpOrder(benchmark::State& state) {
  const Instance in = make_cilk_instance(static_cast<std::size_t>(
      state.range(0)));
  for (auto _ : state) {
    auto oracle = make_sp_order_oracle(*in.c.sp_structure());
    benchmark::DoNotOptimize(oracle);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.c.node_count()));
}
BENCHMARK(BM_OracleBuildSpOrder)->Arg(4096)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_OracleBuildChain(benchmark::State& state) {
  const Instance in = make_cilk_instance(static_cast<std::size_t>(
      state.range(0)));
  std::size_t chains = 0;
  for (auto _ : state) {
    const ChainDecompositionOracle oracle(in.c.dag());
    chains = oracle.chain_count();
    benchmark::DoNotOptimize(chains);
  }
  state.counters["chains"] = static_cast<double>(chains);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.c.node_count()));
}
BENCHMARK(BM_OracleBuildChain)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

void BM_OracleQuerySpOrder(benchmark::State& state) {
  const Instance in = make_cilk_instance(static_cast<std::size_t>(
      state.range(0)));
  const auto oracle = make_sp_order_oracle(*in.c.sp_structure());
  Rng rng(7);
  const auto n = static_cast<NodeId>(in.c.node_count());
  std::vector<NodeId> us(1024), vs(1024);
  for (std::size_t i = 0; i < us.size(); ++i) {
    us[i] = static_cast<NodeId>(rng.below(n));
    vs[i] = static_cast<NodeId>(rng.below(n));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle->precedes(us[i], vs[i]));
    i = (i + 1) & (us.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OracleQuerySpOrder)->Arg(65536)->Arg(1 << 20);

/// The pre-oracle path: freeze the n²-bit transitive closure, then run
/// the prepared LC check. The per-iteration copy keeps the closure
/// build inside the timed region (a frozen dag would make every
/// iteration after the first nearly free, which is not how a postmortem
/// run ever executes).
void BM_VerifyClosureLC(benchmark::State& state) {
  const Instance in = make_cilk_instance(static_cast<std::size_t>(
      state.range(0)));
  for (auto _ : state) {
    Computation c = in.c;
    CheckContext ctx;
    const PreparedPair p = ctx.prepare(c, in.phi);
    benchmark::DoNotOptimize(
        p.valid() && builtin_model(kSuiteLC)->contains_prepared(p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.c.node_count()));
  state.counters["closure_bytes"] =
      static_cast<double>(in.c.node_count()) *
      static_cast<double>(in.c.node_count()) / 4.0;
}
BENCHMARK(BM_VerifyClosureLC)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

/// The streaming path at matching and million-node sizes. Oracle build
/// is part of every iteration, as in a real postmortem run.
void large_check_lc(benchmark::State& state, const Instance& in) {
  LargeCheckOptions opt;
  opt.models = kSuiteLC;
  std::size_t oracle_bytes = 0;
  double bytes_per_node = 0.0;
  std::size_t peak_rss = 0;
  double ingest_ms = 0.0, build_ms = 0.0, kernel_ms = 0.0, oracle_ms = 0.0;
  for (auto _ : state) {
    const LargeCheckReport r = large_check(in.c, in.phi, opt);
    oracle_bytes = r.oracle_memory_bytes;
    bytes_per_node = r.bytes_per_node;
    peak_rss = r.peak_rss_bytes;
    ingest_ms = r.ingest_millis;
    build_ms = r.group_build_millis;
    kernel_ms = r.kernel_millis;
    oracle_ms = r.oracle_build_millis;
    benchmark::DoNotOptimize(r.satisfied);
  }
  state.counters["oracle_bytes"] = static_cast<double>(oracle_bytes);
  state.counters["bytes_per_node"] = bytes_per_node;
  state.counters["peak_rss_mb"] =
      static_cast<double>(peak_rss) / (1024.0 * 1024.0);
  state.counters["ingest_ms"] = ingest_ms;
  state.counters["build_ms"] = build_ms;
  state.counters["kernel_ms"] = kernel_ms;
  state.counters["oracle_build_ms"] = oracle_ms;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.c.node_count()));
}
void BM_LargeCheckLC(benchmark::State& state) {
  large_check_lc(state, make_cilk_instance(static_cast<std::size_t>(
                            state.range(0))));
}
// The 1<<24 arg is the data-plane headline: a 16M-node streaming check,
// single-digit seconds per iteration, with the bytes-per-node budget on
// the row. The 1<<27 arg is the 128M-node tripwire — minutes per
// iteration and tens of GiB of instance, so run_benches.sh keeps both
// big rows out of --quick, gives each its own process in full mode, and
// runs 1<<27 only in --nightly.
BENCHMARK(BM_LargeCheckLC)->Arg(4096)->Arg(16384)->Arg(65536)->Arg(1 << 20)
    ->Arg(1 << 24)->Arg(1 << 27)->Unit(benchmark::kMillisecond);

/// The location axis of the same check: large_check(c, Φ) runs the
/// kernel on every location by design.
void BM_LargeCheckLCLocations(benchmark::State& state) {
  large_check_lc(state, make_cilk_instance(
                            static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1))));
}
BENCHMARK(BM_LargeCheckLCLocations)->Name("BM_LargeCheckLC")
    ->Args({1 << 20, 16})->Args({1 << 20, 256})
    ->Unit(benchmark::kMillisecond);

/// All five decomposable models in one streaming pass — the full
/// postmortem verdict at scale.
void BM_LargeCheckAllModels(benchmark::State& state) {
  const Instance in = make_cilk_instance(static_cast<std::size_t>(
      state.range(0)));
  LargeCheckOptions opt;
  opt.models = kLargeCheckAll;
  for (auto _ : state) {
    const LargeCheckReport r = large_check(in.c, in.phi, opt);
    benchmark::DoNotOptimize(r.satisfied);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.c.node_count()));
}
BENCHMARK(BM_LargeCheckAllModels)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// The trace data plane: text parse vs mmap-style binary decode, and the
// end-to-end postmortem pipelines those feed. The serialized images are
// built once per benchmark; the timed region is exactly what a CLI run
// spends after the file is in the page cache.
// ---------------------------------------------------------------------

struct TraceInstance {
  Computation c;
  Trace trace;
  std::string text;    // write_trace output
  std::string binary;  // write_trace_binary output
};

/// A fork/join program of ~n ops and its serial SC trace; `backer` runs
/// it on 4 BACKER processors instead, whose reads go stale.
TraceInstance make_trace_instance(std::size_t n, std::size_t nlocations = 16,
                                  bool backer = false) {
  TraceInstance in;
  in.c = bench::cilk_program(n, nlocations, n * 29 + 3);
  in.trace = backer ? bench::backer_trace(in.c) : bench::serial_sc_trace(in.c);
  {
    std::ostringstream out;
    write_trace(in.trace, out);
    in.text = out.str();
  }
  {
    std::ostringstream out(std::ios::binary);
    write_trace_binary(in.trace, out);
    in.binary = out.str();
  }
  return in;
}

void BM_TraceReadText(benchmark::State& state) {
  const TraceInstance in =
      make_trace_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::istringstream is(in.text);
    const Trace t = read_trace(is, in.c);
    benchmark::DoNotOptimize(t.events.data());
  }
  state.counters["file_bytes"] = static_cast<double>(in.text.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.trace.events.size()));
}
BENCHMARK(BM_TraceReadText)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

/// The instance text every postmortem and every ccmm_serve open starts
/// from: ops, edges and the strand lines of the SP parse.
Computation make_text_computation(std::size_t n) {
  return bench::cilk_program(n, 16, n * 29 + 3);
}

void BM_ComputationReadText(benchmark::State& state) {
  const Computation c =
      make_text_computation(static_cast<std::size_t>(state.range(0)));
  const std::string text = io::write_computation(c);
  for (auto _ : state) {
    std::istringstream is(text);
    const Computation back = io::read_computation(is);
    benchmark::DoNotOptimize(back.node_count());
  }
  state.counters["file_bytes"] = static_cast<double>(text.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.node_count()));
}
BENCHMARK(BM_ComputationReadText)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_ComputationWriteText(benchmark::State& state) {
  const Computation c =
      make_text_computation(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = io::write_computation(c);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.counters["file_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.node_count()));
}
BENCHMARK(BM_ComputationWriteText)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

/// The same instance as a binary computation image (io/text.hpp): what
/// ServeClient::open sends and a daemon decodes for every session.
void BM_ComputationReadImage(benchmark::State& state) {
  const Computation c =
      make_text_computation(static_cast<std::size_t>(state.range(0)));
  const std::string image = io::write_computation_image(c);
  for (auto _ : state) {
    const Computation back = io::read_computation(std::string_view(image));
    benchmark::DoNotOptimize(back.node_count());
  }
  state.counters["file_bytes"] = static_cast<double>(image.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.node_count()));
}
BENCHMARK(BM_ComputationReadImage)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_ComputationWriteImage(benchmark::State& state) {
  const Computation c =
      make_text_computation(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string image = io::write_computation_image(c);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.counters["file_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.node_count()));
}
BENCHMARK(BM_ComputationWriteImage)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

/// A star: node 0 precedes each of the other k nodes. Its one row of k
/// edges is the hostile case for any per-edge duplicate scan.
void BM_ComputationReadTextStar(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::string text = "computation\nnodes " + std::to_string(k + 1) + "\n";
  for (std::size_t v = 1; v <= k; ++v)
    text += "edge 0 " + std::to_string(v) + "\n";
  text += "end\n";
  for (auto _ : state) {
    const Computation back = io::read_computation(std::string_view(text));
    benchmark::DoNotOptimize(back.dag().edge_count());
  }
  state.counters["file_bytes"] = static_cast<double>(text.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_ComputationReadTextStar)->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

#ifdef CCMM_BENCH_HEAP_COUNTER
/// Bytes the allocator hands out right now (small chunks plus mapped
/// ones).
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}
#endif

/// The dag build every reader and builder ends in, plus its teardown,
/// over the edge list of a text instance.
void BM_DagFromEdges(benchmark::State& state) {
  const Computation c =
      make_text_computation(static_cast<std::size_t>(state.range(0)));
  const std::vector<Edge> edges = c.dag().edges();
  const std::size_t n = c.node_count();
#ifdef CCMM_BENCH_HEAP_COUNTER
  {
    const std::size_t before = heap_in_use();
    const Dag d(n, edges);
    state.counters["heap_bytes_per_node"] =
        static_cast<double>(heap_in_use() - before) / static_cast<double>(n);
  }
#endif
  for (auto _ : state) {
    const Dag d(n, edges);
    benchmark::DoNotOptimize(d.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DagFromEdges)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

/// A Computation copy and its teardown: what every by-value hand-off of
/// a parsed instance costs.
void BM_ComputationCopy(benchmark::State& state) {
  const Computation c =
      make_text_computation(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const Computation copy = c;
    benchmark::DoNotOptimize(copy.node_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.node_count()));
}
BENCHMARK(BM_ComputationCopy)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_TraceReadBinary(benchmark::State& state) {
  const TraceInstance in =
      make_trace_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const Trace t =
        read_trace_binary(in.binary.data(), in.binary.size(), in.c);
    benchmark::DoNotOptimize(t.events.data());
  }
  state.counters["file_bytes"] = static_cast<double>(in.binary.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.trace.events.size()));
}
BENCHMARK(BM_TraceReadBinary)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

/// The zero-copy validation alone — what the checker actually needs
/// before it can stream a mapped file (no Trace materialization).
void BM_TraceValidateBinary(benchmark::State& state) {
  const TraceInstance in =
      make_trace_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const BinaryTraceView v =
        validate_trace_binary(in.binary.data(), in.binary.size(), in.c);
    benchmark::DoNotOptimize(v.count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.trace.events.size()));
}
BENCHMARK(BM_TraceValidateBinary)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

/// The pre-data-plane pipeline: parse the text trace, then stream-check
/// LC with the kernels pinned scalar and no sharding — what a
/// postmortem cost before this plane existed. LC keeps both pipelines
/// near-linear so the pair scales to the 16M arg (the four mask-sweep
/// models are O(n·writers/256) per location — benchmarked separately at
/// sizes where that is sane). Paired against BM_PostmortemDataPlane by
/// run_benches.sh (the ≥4x acceptance row).
void BM_PostmortemNaive(benchmark::State& state) {
  const TraceInstance in =
      make_trace_instance(static_cast<std::size_t>(state.range(0)));
  LargeCheckOptions opt;
  opt.models = kSuiteLC;
  opt.parallel = false;
  opt.simd = SimdLevel::kScalar;
  std::size_t peak_rss = 0;
  for (auto _ : state) {
    std::istringstream is(in.text);
    const Trace t = read_trace(is, in.c);
    const LargeCheckReport r = large_check_trace(in.c, t, opt);
    peak_rss = r.peak_rss_bytes;
    benchmark::DoNotOptimize(r.satisfied);
  }
  // Meaningful against the data-plane twin only when the pair runs
  // process-isolated (full/nightly run_benches.sh): RSS is a per-
  // process high-water mark, and the naive side's text copy dominates.
  state.counters["peak_rss_mb"] =
      static_cast<double>(peak_rss) / (1024.0 * 1024.0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.trace.events.size()));
}
BENCHMARK(BM_PostmortemNaive)->Arg(65536)->Arg(1 << 24)
    ->Unit(benchmark::kMillisecond);

/// Per iteration, `load()` the trace, then check LC with
/// large_check_trace on the dispatched SIMD sweeps and the shard
/// pipeline; the counters are the last report's.
template <class Load>
void postmortem(benchmark::State& state, const TraceInstance& in,
                const Load& load) {
  LargeCheckOptions opt;
  opt.models = kSuiteLC;
  double bytes_per_node = 0.0;
  std::size_t peak_rss = 0;
  for (auto _ : state) {
    const Trace t = load();
    const LargeCheckReport r = large_check_trace(in.c, t, opt);
    bytes_per_node = r.bytes_per_node;
    peak_rss = r.peak_rss_bytes;
    benchmark::DoNotOptimize(r.satisfied);
  }
  state.counters["bytes_per_node"] = bytes_per_node;
  state.counters["peak_rss_mb"] =
      static_cast<double>(peak_rss) / (1024.0 * 1024.0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.trace.events.size()));
}

/// The full data plane from a heap image: binary decode + check.
/// Verdicts are bit-identical to BM_PostmortemNaive's.
void postmortem_dataplane(benchmark::State& state, const TraceInstance& in) {
  postmortem(state, in, [&in] {
    return read_trace_binary(in.binary.data(), in.binary.size(), in.c);
  });
}
void BM_PostmortemDataPlane(benchmark::State& state) {
  postmortem_dataplane(state, make_trace_instance(static_cast<std::size_t>(
                                  state.range(0))));
}
BENCHMARK(BM_PostmortemDataPlane)->Arg(65536)->Arg(1 << 24)
    ->Unit(benchmark::kMillisecond);

/// The location axis. The 16-location rows also pin the O(n) trace
/// builder against run_serial's records.
void BM_PostmortemDataPlaneLocations(benchmark::State& state) {
  const auto nlocations = static_cast<std::size_t>(state.range(1));
  const TraceInstance in = make_trace_instance(
      static_cast<std::size_t>(state.range(0)), nlocations);
  if (nlocations == 16 && !bench::matches_run_serial(in.c, in.trace)) {
    state.SkipWithError("serial_sc_trace differs from run_serial");
    return;
  }
  postmortem_dataplane(state, in);
}
// The 4096-location row runs process-isolated, in full mode only
// (run_benches.sh).
BENCHMARK(BM_PostmortemDataPlaneLocations)->Name("BM_PostmortemDataPlane")
    ->Args({1 << 20, 16})->Args({1 << 20, 256})->Args({1 << 20, 4096})
    ->Unit(benchmark::kMillisecond);

/// The data plane on a stream whose locations disagree with the arrival
/// order: every stale location materializes, so this row keeps the
/// kernel measured on the stream entry.
void BM_PostmortemBacker(benchmark::State& state) {
  postmortem_dataplane(state, make_trace_instance(
                                  static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)),
                                  true));
}
BENCHMARK(BM_PostmortemBacker)->Args({1 << 18, 16})->Args({1 << 18, 256})
    ->Unit(benchmark::kMillisecond);

/// The postmortem as the CLIs run it on a .tbin file: load_trace maps
/// and validates the file, then large_check_trace checks it. The heap
/// image BM_PostmortemDataPlane reads has no owner a Trace could keep
/// alive, so that row copies the records; this one reads them where the
/// file's mapping holds them. The file is written once, outside the
/// timed loop, so it is in the page cache.
void BM_PostmortemFromFile(benchmark::State& state) {
  const TraceInstance in =
      make_trace_instance(static_cast<std::size_t>(state.range(0)));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ccmm_bench_postmortem." +
        std::to_string(
            std::chrono::steady_clock::now().time_since_epoch().count()) +
        ".tbin"))
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(in.binary.data(), static_cast<std::streamsize>(in.binary.size()));
    if (!out) {
      state.SkipWithError("cannot write the trace file");
      return;
    }
  }
  postmortem(state, in, [&] { return load_trace(path, in.c); });
  std::filesystem::remove(path);
}
BENCHMARK(BM_PostmortemFromFile)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ccmm
