// perfbench — the measured side of ccmm's end-to-end benchmark. run.py
// builds it, generates inputs with `gen` in one process, then measures
// with `run` in a fresh one, so the program under test only ever sees
// the generated files (or the daemon's socket).
//
//   perfbench gen --workload W --seed S --dir D
//       Write W's inputs for seed S into D: inst<i>.txt (ccmm text
//       instance, with its series-parallel parse) and inst<i>.tbin (the
//       binary trace of a serial SC execution) per instance, then
//       inputs.json with node/event/location/writer counts.
//   perfbench run --workload W --dir D --seconds T --trace 0|1
//                 [--spans FILE] [--addr unix:PATH --daemon-pid PID]
//       Load D's files, drive W's public entry points to verdicts for
//       about T seconds, check every verdict, and print one JSON object:
//       {"attempted", "failed", "errors", "values", "info"}. With
//       --trace 1 every layer call is wrapped in a span; the spans are
//       kept in memory and written to FILE as JSON at exit.
//
// Layers are timed from outside, around calls to each module's public
// functions: io (read_computation), trace (load_trace and the pieces of
// large_check_trace), dag (the oracle fields of the report), serve (the
// client library against the ccmm_serve daemon), analyze (the lint
// passes and race engines) and models (race classification).
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/anomaly.hpp"
#include "analyze/passes.hpp"
#include "analyze/sp_bags.hpp"
#include "exec/sc_memory.hpp"
#include "exec/sim_machine.hpp"
#include "io/text.hpp"
#include "proc/random_program.hpp"
#include "serve/client.hpp"
#include "trace/large_check.hpp"
#include "trace/lint_pipeline.hpp"
#include "trace/trace.hpp"
#include "trace/trace_binary.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

using namespace ccmm;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads --------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  std::size_t target_ops;  // proc::random_cilk memory instructions
  std::size_t nlocations;
  std::size_t instances;   // one per serve session, else 1
};

// deep carries the node axis (4x the others at 16 locations), wide the
// location axis; sizes keep one run near 20-30 s on a 4-core box.
constexpr WorkloadSpec kWorkloads[] = {
    {"postmortem-deep", std::size_t{1} << 20, 16, 1},
    {"postmortem-wide", std::size_t{1} << 18, 256, 1},
    {"serve-online", std::size_t{1} << 18, 16, 4},
    {"lint-racy", std::size_t{1} << 17, 64, 1},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// Serve traffic shape. Phase A offers kOpenLoopEventsPerSec in total,
// split evenly over the connections, in batches of kOpenLoopBatch
// events with a verdict ping every kOpenLoopPingEvery batches. Phase B
// floods kFloodBatch-event batches and pings every kFloodPingEvery.
// The offered rate is about half the flood rate of a 4-core box
// (~2.3M events/s), and fixed so every commit sees the same load.
constexpr double kOpenLoopEventsPerSec = 1'000'000.0;
constexpr std::size_t kOpenLoopBatch = 1024;
constexpr std::size_t kOpenLoopPingEvery = 2;
constexpr std::size_t kFloodBatch = 4096;
constexpr std::size_t kFloodPingEvery = 16;

// Instance loads per run, at least kSetupReps and kSetupSeconds' worth:
// setup_s is their median.
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 3.0;
// Verdict repetitions never drop below these, however long each takes.
// Traced runs alternate traced and untraced repetitions.
constexpr int kMinReps = 5;
constexpr int kMinTracedReps = 4;

std::string inst_path(const fs::path& dir, std::size_t i, const char* ext) {
  return (dir / format("inst%zu.%s", i, ext)).string();
}

// ---- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  double t0 = 0.0;  // seconds since the process's trace origin
  double t1 = 0.0;
  int parent = -1;  // index into the span list, -1 for a root
  int run = 0;      // repetition the span belongs to
};

/// In-memory span recorder. Disabled, a scope costs one branch. Spans
/// from the serve connection threads carry no parent (each thread's
/// calls are roots of their own).
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (!t_.on_) return;
      std::lock_guard<std::mutex> lock(t_.mu_);
      idx_ = static_cast<int>(t_.spans_.size());
      Span s;
      s.name = name;
      s.t0 = t_.now();
      s.parent = t_.parent_for_this_thread();
      s.run = t_.run_;
      t_.spans_.push_back(std::move(s));
      if (std::this_thread::get_id() == t_.main_) t_.stack_.push_back(idx_);
    }
    ~Scope() {
      if (idx_ < 0) return;
      std::lock_guard<std::mutex> lock(t_.mu_);
      t_.spans_[static_cast<std::size_t>(idx_)].t1 = t_.now();
      if (std::this_thread::get_id() == t_.main_ && !t_.stack_.empty())
        t_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }
  void set_run(int run) {
    std::lock_guard<std::mutex> lock(mu_);
    run_ = run;
  }
  /// Record counts at the same boundaries as the spans.
  void count(const std::string& name, double value) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    counts_.push_back({name, value, run_});
  }

  /// Per-run sum of each named span's duration (seconds), then the
  /// median over the runs in which the name occurs.
  [[nodiscard]] std::map<std::string, double> median_by_name() const;
  void write_json(const std::string& path) const;

 private:
  struct Count {
    std::string name;
    double value;
    int run;
  };
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  int parent_for_this_thread() const {
    if (std::this_thread::get_id() != main_ || stack_.empty()) return -1;
    return stack_.back();
  }

  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  std::vector<int> stack_;  // open spans on the main thread
  int run_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::thread::id main_ = std::this_thread::get_id();
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::map<std::string, double> Tracer::median_by_name() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::map<int, double>> per_run;
  for (const Span& s : spans_) per_run[s.name][s.run] += s.t1 - s.t0;
  std::map<std::string, double> out;
  for (const auto& [name, runs] : per_run) {
    std::vector<double> v;
    for (const auto& [run, sum] : runs) v.push_back(sum);
    out[name] = median(std::move(v));
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",")
        << format("\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"run\":%d}",
                  i, s.name.c_str(), s.t0, s.t1, s.parent, s.run);
  }
  out << "],\"counts\":[";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const Count& c = counts_[i];
    out << (i == 0 ? "" : ",")
        << format("\n{\"name\":\"%s\",\"value\":%.17g,\"run\":%d}",
                  c.name.c_str(), c.value, c.run);
  }
  out << "]}\n";
}

Tracer g_tracer;

/// The median per-run time of span `name`, 0 when it never ran.
double span_s(const std::string& name) {
  const auto med = g_tracer.median_by_name();
  const auto it = med.find(name);
  return it == med.end() ? 0.0 : it->second;
}

/// Layers reported straight from their spans: metric = name + "_s".
constexpr const char* kSpanLayers[] = {
    "io.read_computation", "trace.load",          "trace.consistent",
    "trace.observer",      "trace.large_check",   "analyze.race_scan",
    "models.classify",     "analyze.trace_models"};

// ---- results ----------------------------------------------------------------

/// Everything a run measured and checked. `values` holds metric values
/// by their BENCHMARK.json names (plus a few extras run.py prints).
struct Result {
  std::map<std::string, double> values;
  std::map<std::string, double> info;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  /// Count one operation; record why when it failed.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 16) errors.push_back(what);
  }
};

/// Median of a sample as the metric, its range and size as info.
void set_median(Result& res, const std::string& name,
                const std::vector<double>& v) {
  res.values[name] = median(v);
  if (v.empty()) return;
  res.info[name + ".min"] = *std::min_element(v.begin(), v.end());
  res.info[name + ".max"] = *std::max_element(v.begin(), v.end());
  res.info[name + ".n"] = static_cast<double>(v.size());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20)
      out += ' ';
    else
      out += ch;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return format("%.17g", v);
}

void print_result(const Result& r) {
  std::string out = format("{\"attempted\":%zu,\"failed\":%zu,\"errors\":[",
                           r.attempted, r.failed);
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    out += (i == 0 ? "" : ",") + json_string(r.errors[i]);
  out += "],\"values\":{";
  bool first = true;
  for (const auto& [k, v] : r.values) {
    out += (first ? "" : ",") + json_string(k) + ":" + json_number(v);
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [k, v] : r.info) {
    out += (first ? "" : ",") + json_string(k) + ":" + json_number(v);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// A process's peak resident set (VmHWM) in MiB.
double peak_rss_mb(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// A verdict holds when the observer is valid and every requested model
/// is satisfied — a serial SC trace is in every model.
bool all_models_hold(const LargeCheckReport& r, std::uint32_t models) {
  return r.valid_observer && (r.checked & models) == models &&
         (r.satisfied & models) == models;
}

/// Field-for-field diff of the semantic report fields (the comparison
/// `ccmm_serve_stress --verify` makes; timings differ by design).
bool same_verdict(const LargeCheckReport& a, const LargeCheckReport& b) {
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

/// Per-run report fields, medians taken at the end.
struct ReportSamples {
  std::vector<double> ingest_ms, group_ms, kernel_ms, finalize_ms, bpn;
  double shards = 0.0;
  double oracle_builds = 0.0;
  double oracle_bytes = 0.0;

  void add(const LargeCheckReport& r) {
    ingest_ms.push_back(r.ingest_millis);
    group_ms.push_back(r.group_build_millis);
    kernel_ms.push_back(r.kernel_millis);
    finalize_ms.push_back(r.report_millis);
    bpn.push_back(r.bytes_per_node);
    shards = static_cast<double>(r.shards);
    if (r.oracle_build_millis > 0.0 || r.oracle_memory_bytes > 0)
      oracle_builds += 1.0;
    oracle_bytes =
        std::max(oracle_bytes, static_cast<double>(r.oracle_memory_bytes));
  }
  void emit(Result& res) const {
    res.values["trace.report_ingest_ms"] = median(ingest_ms);
    res.values["trace.report_group_build_ms"] = median(group_ms);
    res.values["trace.report_kernel_ms"] = median(kernel_ms);
    res.values["trace.report_finalize_ms"] = median(finalize_ms);
    res.values["trace.bytes_per_node"] = median(bpn);
    res.values["trace.shards"] = shards;
    res.values["dag.oracle_builds"] = oracle_builds;
    res.values["dag.oracle_bytes"] = oracle_bytes;
  }
};

// ---- input generation -------------------------------------------------------

int generate(const WorkloadSpec& w, std::uint64_t seed, const fs::path& dir) {
  fs::create_directories(dir);
  std::string json = "{\"instances\":[";
  for (std::size_t i = 0; i < w.instances; ++i) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + i + 1);
    proc::RandomCilkOptions opt;
    opt.target_ops = w.target_ops;
    opt.nlocations = w.nlocations;
    const Computation c = proc::random_cilk(opt, rng);
    ScMemory mem;
    const Trace trace = run_serial(c, mem).trace;
    {
      std::ofstream txt(inst_path(dir, i, "txt"));
      txt << io::write_computation(c);
      std::ofstream bin(inst_path(dir, i, "tbin"), std::ios::binary);
      write_trace_binary(trace, bin);
      if (!txt || !bin) {
        std::fprintf(stderr, "cannot write inputs under %s\n",
                     dir.string().c_str());
        return 2;
      }
    }
    std::size_t writers = 0;
    std::set<Location> locs;
    for (NodeId u = 0; u < c.node_count(); ++u) {
      const Op o = c.op(u);
      if (o.is_nop()) continue;
      locs.insert(o.loc);
      if (o.is_write()) ++writers;
    }
    json += format("%s{\"nodes\":%zu,\"events\":%zu,\"locations\":%zu,"
                   "\"writers\":%zu}",
                   i == 0 ? "" : ",", c.node_count(), trace.events.size(),
                   locs.size(), writers);
  }
  json += format("],\"workload\":\"%s\",\"seed\":%llu,\"target_ops\":%zu,"
                 "\"nlocations\":%zu}\n",
                 w.name, static_cast<unsigned long long>(seed), w.target_ops,
                 w.nlocations);
  // inputs.json is written last: its presence marks a complete set.
  std::ofstream meta(dir / "inputs.json");
  meta << json;
  return meta ? 0 : 2;
}

// ---- shared pieces of a run -------------------------------------------------

/// io layer: parse one instance file.
Computation read_instance(const std::string& path) {
  Tracer::Scope span(g_tracer, "io.read_computation");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return io::read_computation(in);
}

/// setup_s: load the instance repeatedly, keep the last. The previous
/// copy is dropped first, so no two are ever alive at once.
Computation timed_setup(const std::string& path, Result& res, int& run) {
  std::vector<double> t;
  Computation c;
  const auto start = Clock::now();
  for (int i = 0; i < kSetupReps || seconds_since(start) < kSetupSeconds;
       ++i) {
    c = Computation();
    g_tracer.set_run(run++);
    const auto t0 = Clock::now();
    c = read_instance(path);
    t.push_back(seconds_since(t0));
    res.op(c.node_count() > 0, "empty instance " + path);
  }
  set_median(res, "setup_s", t);
  return c;
}

/// The trace layer's batch path, one public call per span. Together the
/// consistent/observer/large_check calls are exactly large_check_trace;
/// the report's ingest stage absorbs the decode time as it does there.
LargeCheckReport traced_large_check_trace(const Computation& c,
                                          const Trace& trace,
                                          const LargeCheckOptions& opt) {
  const auto t0 = Clock::now();
  std::string why;
  bool consistent = false;
  {
    Tracer::Scope span(g_tracer, "trace.consistent");
    consistent = trace_consistent_with(trace, c, &why);
  }
  if (!consistent) {
    LargeCheckReport bad;
    bad.checked = opt.models & kLargeCheckExt;
    bad.detail = "trace does not fit the computation: " + why;
    return bad;
  }
  ObserverFunction phi(0);
  {
    Tracer::Scope span(g_tracer, "trace.observer");
    phi = observer_from_trace(c, trace);
  }
  const double decode_ms = seconds_since(t0) * 1e3;
  Tracer::Scope span(g_tracer, "trace.large_check");
  LargeCheckReport r = large_check(c, phi, opt);
  r.ingest_millis += decode_ms;
  return r;
}

Trace traced_load(const std::string& path, const Computation& c) {
  Trace trace;
  {
    Tracer::Scope span(g_tracer, "trace.load");
    trace = load_trace(path, c);
  }
  g_tracer.count("trace.events", static_cast<double>(trace.events.size()));
  return trace;
}

/// One repetition of a workload's verdict path. The warm-up lets the
/// allocator and thread pool reach their steady state untimed.
enum class Rep { kWarmup, kPlain, kTraced };

/// True for the repetitions whose layer samples a run reports: the
/// traced ones in a traced run, the plain ones otherwise.
bool g_traced_run = false;
bool sampled(Rep r) { return r == (g_traced_run ? Rep::kTraced : Rep::kPlain); }

/// Whether repetition `i` of a loop started at `start` should run, and
/// whether it is a traced one.
bool more_reps(int i, Clock::time_point start, double seconds) {
  return i < (g_traced_run ? kMinTracedReps : kMinReps) ||
         seconds_since(start) < seconds;
}
bool traced_rep(int i) { return g_traced_run && i % 2 == 0; }

/// After one warm-up, repeat `rep` until `seconds` have passed (at least
/// kMinReps times). Traced runs alternate traced and untraced
/// repetitions so the tracing overhead is measured in the same process.
/// Returns the e2e durations of the traced and untraced repetitions, and
/// the peak RSS after setup plus the warm-up: what one pass through the
/// entry point costs, before repetitions add heap fragmentation.
struct RepTimes {
  std::vector<double> traced, plain;
  double peak_rss_mb = 0.0;
};
RepTimes repeat(double seconds, int& run,
                const std::function<double(Rep)>& rep) {
  RepTimes t;
  g_tracer.enable(false);
  g_tracer.set_run(run++);
  (void)rep(Rep::kWarmup);
  t.peak_rss_mb = peak_rss_mb();
  const auto start = Clock::now();
  for (int i = 0; more_reps(i, start, seconds); ++i) {
    const bool traced = traced_rep(i);
    g_tracer.enable(traced);
    g_tracer.set_run(run++);
    const double s = rep(traced ? Rep::kTraced : Rep::kPlain);
    (traced ? t.traced : t.plain).push_back(s);
  }
  g_tracer.enable(g_traced_run);
  return t;
}

void emit_overhead(const RepTimes& t, Result& res) {
  res.values["bench.trace_overhead_s"] = median(t.traced) - median(t.plain);
}

// ---- postmortem -------------------------------------------------------------

Result run_postmortem(const fs::path& dir, double seconds) {
  Result res;
  int run = 0;
  const Computation c = timed_setup(inst_path(dir, 0, "txt"), res, run);
  const std::string tbin = inst_path(dir, 0, "tbin");
  LargeCheckOptions opt;
  opt.models = kSuiteLC;

  ReportSamples rs;
  const double setup = res.values["setup_s"];
  const RepTimes t = repeat(seconds, run, [&](Rep kind) {
    const auto t0 = Clock::now();
    LargeCheckReport r;
    if (kind == Rep::kTraced) {
      Tracer::Scope span(g_tracer, "postmortem");
      const Trace trace = traced_load(tbin, c);
      r = traced_large_check_trace(c, trace, opt);
    } else {
      const Trace trace = load_trace(tbin, c);
      r = large_check_trace(c, trace, opt);
    }
    const double s = seconds_since(t0);
    res.op(all_models_hold(r, opt.models), "postmortem verdict: " + r.detail);
    if (sampled(kind)) rs.add(r);
    return s;
  });
  set_median(res, "verdict_s", g_traced_run ? t.traced : t.plain);
  res.values["peak_rss_mb"] = t.peak_rss_mb;
  rs.emit(res);
  if (g_traced_run) {
    emit_overhead(t, res);
    const double covered = span_s("io.read_computation") +
                           span_s("trace.load") + span_s("trace.consistent") +
                           span_s("trace.observer") +
                           span_s("trace.large_check");
    res.values["bench.span_coverage"] =
        covered / (setup + res.values["verdict_s"]);
  }
  return res;
}

// ---- lint -------------------------------------------------------------------

struct LintCounts {
  double static_races = 0, static_diags = 0, trace_races = 0, trace_diags = 0;
};

/// The counts the first run of a seed saw, or nullopt on that first run
/// (which then records its own).
std::optional<LintCounts> lint_reference(const fs::path& dir,
                                         const LintCounts& now) {
  const fs::path ref = dir / "lint_ref.txt";
  std::ifstream in(ref);
  LintCounts c;
  if (in >> c.static_races >> c.static_diags >> c.trace_races >> c.trace_diags)
    return c;
  std::ofstream out(ref);
  out << format("%.0f %.0f %.0f %.0f\n", now.static_races, now.static_diags,
                now.trace_races, now.trace_diags);
  return std::nullopt;
}

/// Probe the analyze and models layers with their public calls, in the
/// order and configuration the two lint pipelines use them. The private
/// memory-lint passes that sit between them in analyze_computation and
/// analyze_trace cannot be wrapped from outside, so the layer times come
/// from these calls, made after the end-to-end ones.
void probe_lint_layers(const Computation& c, const Trace& trace) {
  const analyze::AnalysisOptions aopt;               // ccmm_lint FILE
  const analyze::TraceLintOptions topt;               // ccmm_lint --trace
  const auto classify = [&](const std::vector<Race>& races, std::size_t cap) {
    Tracer::Scope span(g_tracer, "models.classify");
    const std::size_t k = std::min(races.size(), aopt.max_race_diagnostics);
    for (std::size_t i = 0; i < k; ++i) {
      (void)analyze::race_witness_capped(c, races[i].a, races[i].b, cap);
      (void)analyze::classify_race(c, races[i], aopt.anomaly);
    }
  };
  std::vector<Race> races;
  {
    Tracer::Scope span(g_tracer, "analyze.race_scan");
    races = analyze::find_races_sp(c);
  }
  classify(races, SIZE_MAX);
  {
    Tracer::Scope span(g_tracer, "analyze.trace_models");
    LargeCheckOptions lopt;
    lopt.models = topt.models;
    (void)traced_large_check_trace(c, trace, lopt);
  }
  {
    Tracer::Scope span(g_tracer, "analyze.race_scan");
    races = analyze::find_races_oracle(c, topt.analysis.scan);
  }
  classify(races, std::max<std::size_t>(topt.analysis.anomaly.witness_node_cap,
                                         32));
}

Result run_lint(const fs::path& dir, double seconds) {
  Result res;
  int run = 0;
  const Computation c = timed_setup(inst_path(dir, 0, "txt"), res, run);
  const std::string tbin = inst_path(dir, 0, "tbin");

  std::vector<double> stat_s, trace_s;
  LintCounts counts;
  ReportSamples rs;
  const RepTimes t = repeat(seconds, run, [&](Rep kind) {
    const auto t0 = Clock::now();
    analyze::AnalyzeStats st;
    std::vector<analyze::Diagnostic> diags;
    {
      Tracer::Scope span(g_tracer, "analyze.lint_static");
      diags = analyze::analyze_computation(c, {}, &st);
    }
    const auto t1 = Clock::now();
    const Trace trace = traced_load(tbin, c);
    const auto t2 = Clock::now();
    analyze::TraceLintResult tr;
    {
      Tracer::Scope span(g_tracer, "analyze.lint_trace");
      tr = analyze::analyze_trace(c, trace, {});
    }
    const double total = seconds_since(t0);
    if (sampled(kind)) {
      stat_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      trace_s.push_back(seconds_since(t2));
    }
    counts = {static_cast<double>(st.races), static_cast<double>(diags.size()),
              static_cast<double>(tr.stats.races),
              static_cast<double>(tr.diagnostics.size())};
    const bool lc = tr.trace_ok && tr.report.has_value() &&
                    all_models_hold(*tr.report, kSuiteLC);
    res.op(lc, "trace lint: trace rejected or LC violated");
    const auto ref = lint_reference(dir, counts);
    res.op(!ref.has_value() ||
               (ref->static_races == counts.static_races &&
                ref->static_diags == counts.static_diags &&
                ref->trace_races == counts.trace_races &&
                ref->trace_diags == counts.trace_diags),
           "lint counts differ from the seed's first run");
    if (tr.report.has_value() && sampled(kind)) rs.add(*tr.report);
    if (kind == Rep::kTraced) {
      g_tracer.count("analyze.races", counts.static_races);
      g_tracer.count("analyze.diagnostics", counts.trace_diags);
      probe_lint_layers(c, trace);
    }
    return total;
  });
  set_median(res, "verdict_s", g_traced_run ? t.traced : t.plain);
  res.values["analyze.lint_static_s"] = median(stat_s);
  res.values["analyze.lint_trace_s"] = median(trace_s);
  res.values["peak_rss_mb"] = t.peak_rss_mb;
  res.values["analyze.races"] = counts.static_races;
  res.values["analyze.diagnostics"] = counts.trace_diags;
  rs.emit(res);
  if (g_traced_run) {
    emit_overhead(t, res);
    // The probed layers against the end-to-end time they should add
    // up to (the private memory-lint passes are the remainder).
    res.values["bench.span_coverage"] =
        (span_s("io.read_computation") + span_s("trace.load") +
         span_s("analyze.race_scan") + span_s("models.classify") +
         span_s("analyze.trace_models")) /
        (res.values["setup_s"] + res.values["verdict_s"]);
  }
  return res;
}

// ---- serve ------------------------------------------------------------------

/// One session's inputs: the instance, its mapped trace, and the batch
/// engine's report every finish() must match.
struct SessionInput {
  Computation c;
  std::unique_ptr<MappedTraceFile> file;
  BinaryTraceView view;
  LargeCheckReport batch;
};

/// What one connection saw in one phase.
struct ConnStats {
  std::string error;
  double open_done = 0.0;     // seconds after the round started
  double last_flush = 0.0;    // seconds after streaming started
  double finish_reply = 0.0;  // seconds after streaming started
  double feed_s = 0.0;        // client time blocked in feed/flush
  std::vector<double> latency_ms;  // open loop: due → verdict
  std::vector<double> late_ms;     // open loop: due → send
  std::vector<double> rtt_ms;      // flood: ping → verdict
  std::uint64_t backlog = 0;       // max(sent − verdict.events)
  std::size_t pings = 0, pings_ok = 0;
  bool report_ok = false;
};

std::map<std::string, double> status_counters(const std::string& addr) {
  serve::ServeClient client(addr);
  std::istringstream in(client.status());
  std::map<std::string, double> out;
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + colon + 1, &end);
    if (end != line.c_str() + colon + 1) out[line.substr(0, colon)] = v;
  }
  return out;
}

/// One round: every connection opens a session on its own trace, all
/// start streaming together, and each finishes with a verified report.
/// `open_loop` selects phase A (paced at the fixed offered rate) over
/// phase B (flood).
/// Returns every connection's stats; `open_s` receives the time until the
/// last open() returned.
std::vector<ConnStats> serve_round(const std::string& addr,
                                   const std::vector<SessionInput>& in,
                                   bool open_loop, double& open_s) {
  const std::size_t n = in.size();
  std::vector<ConnStats> st(n);
  const auto round_start = Clock::now();
  Clock::time_point stream_start;
  std::barrier sync(static_cast<std::ptrdiff_t>(n),
                    [&]() noexcept { stream_start = Clock::now(); });
  const auto ms_since = [](Clock::time_point t) {
    return seconds_since(t) * 1e3;
  };
  const auto worker = [&](std::size_t i) {
    ConnStats& s = st[i];
    const SessionInput& si = in[i];
    serve::ClientOptions copts;
    copts.session.models = kSuiteLC;
    copts.batch_events = open_loop ? kOpenLoopBatch : kFloodBatch;
    copts.flush_after_ms = 0;  // batches are flushed explicitly
    std::unique_ptr<serve::ServeClient> client;
    try {
      Tracer::Scope span(g_tracer, "serve.open");
      client = std::make_unique<serve::ServeClient>(addr, copts);
      (void)client->open(si.c);
      s.open_done = seconds_since(round_start);
    } catch (const std::exception& e) {
      s.error = std::string("open: ") + e.what();
    }
    sync.arrive_and_wait();
    if (!s.error.empty()) return;
    try {
      const BinaryTraceEvent* recs = si.view.events;
      const std::size_t total = si.view.count;
      const std::size_t batch = copts.batch_events;
      const double interval =
          static_cast<double>(batch) /
          (kOpenLoopEventsPerSec / static_cast<double>(n));
      std::size_t at = 0;
      for (std::size_t k = 0; at < total; ++k) {
        Clock::time_point due = stream_start;
        if (open_loop) {
          due += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(interval * static_cast<double>(k)));
          std::this_thread::sleep_until(due);
          s.late_ms.push_back(ms_since(due));
        }
        const std::size_t cnt = std::min(batch, total - at);
        {
          Tracer::Scope span(g_tracer, "serve.feed");
          const auto tf = Clock::now();
          client->feed(recs + at, cnt);
          client->flush();
          s.feed_s += seconds_since(tf);
        }
        at += cnt;
        const std::size_t every =
            open_loop ? kOpenLoopPingEvery : kFloodPingEvery;
        if ((k + 1) % every != 0 && at < total) continue;
        ++s.pings;
        const auto tp = Clock::now();
        bool ok = false;
        try {
          Tracer::Scope span(g_tracer, "serve.verdict");
          const SessionVerdict v = client->verdict();
          ok = v.valid && v.events <= at;
          if (ok) s.backlog = std::max<std::uint64_t>(s.backlog, at - v.events);
        } catch (const serve::ServeError&) {
          ok = false;
        }
        if (ok) ++s.pings_ok;
        if (open_loop)
          s.latency_ms.push_back(ok ? ms_since(due)
                                    : std::numeric_limits<double>::infinity());
        else
          s.rtt_ms.push_back(ms_since(tp));
      }
      s.last_flush = seconds_since(stream_start);
      LargeCheckReport rep;
      {
        Tracer::Scope span(g_tracer, "serve.finish");
        rep = client->finish();
      }
      s.finish_reply = seconds_since(stream_start);
      s.report_ok =
          same_verdict(rep, si.batch) && all_models_hold(rep, kSuiteLC);
      client->close_session();
    } catch (const std::exception& e) {
      s.error = std::string("stream: ") + e.what();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(worker, i);
  for (std::thread& t : threads) t.join();
  open_s = 0.0;
  for (const ConnStats& s : st) open_s = std::max(open_s, s.open_done);
  return st;
}

Result run_serve(const fs::path& dir, double seconds, const std::string& addr,
                 const std::string& daemon_pid, std::size_t sessions) {
  Result res;
  int run = 0;

  // Inputs and the batch reference for each session (not timed as e2e;
  // traced runs still see the io and trace layers here).
  std::vector<SessionInput> in(sessions);
  ReportSamples rs;
  for (std::size_t i = 0; i < sessions; ++i) {
    g_tracer.set_run(run++);
    SessionInput& si = in[i];
    si.c = read_instance(inst_path(dir, i, "txt"));
    {
      Tracer::Scope span(g_tracer, "trace.load");
      si.file = std::make_unique<MappedTraceFile>(inst_path(dir, i, "tbin"));
      si.view = validate_trace_binary(si.file->data(), si.file->size(), si.c);
    }
    LargeCheckOptions opt;
    opt.models = kSuiteLC;
    si.batch = traced_large_check_trace(si.c, trace_from_view(si.view, si.c),
                                        opt);
    rs.add(si.batch);
    res.op(all_models_hold(si.batch, kSuiteLC),
           "batch reference verdict: " + si.batch.detail);
  }

  const auto before = status_counters(addr);
  std::vector<double> open_s, session_s, rate, finish_ms, feed_s, rtt_ms;
  std::vector<double> latency_ms, late_ms;
  std::vector<double> traced_flood, plain_flood;
  std::uint64_t backlog = 0;
  const auto account = [&](const std::vector<ConnStats>& st) {
    for (const ConnStats& s : st) {
      res.op(s.error.empty(), "session: " + s.error);
      if (!s.error.empty()) continue;
      res.op(s.report_ok, "finish() report differs from large_check_trace");
      for (std::size_t p = 0; p < s.pings; ++p)
        res.op(p < s.pings_ok, "verdict ping unanswered or invalid");
      backlog = std::max(backlog, s.backlog);
    }
  };

  // Phase A: open loop at the fixed offered rate, never traced (its
  // latencies are end-to-end numbers).
  {
    g_tracer.enable(false);
    g_tracer.set_run(run++);
    double o = 0.0;
    const auto st = serve_round(addr, in, true, o);
    account(st);
    open_s.push_back(o);
    for (const ConnStats& s : st) {
      latency_ms.insert(latency_ms.end(), s.latency_ms.begin(),
                        s.latency_ms.end());
      late_ms.insert(late_ms.end(), s.late_ms.begin(), s.late_ms.end());
    }
    // The daemon's peak over one full round of sessions.
    res.values["peak_rss_mb"] = peak_rss_mb(daemon_pid);
  }
  // Phase B: closed-loop floods until the run's time is used.
  const auto start = Clock::now();
  for (int i = 0; more_reps(i, start, seconds); ++i) {
    const bool traced = traced_rep(i);
    g_tracer.enable(traced);
    g_tracer.set_run(run++);
    double o = 0.0;
    const auto st = serve_round(addr, in, false, o);
    account(st);
    open_s.push_back(o);
    double end = 0.0, events = 0.0, feed = 0.0;
    for (std::size_t k = 0; k < st.size(); ++k) {
      end = std::max(end, st[k].finish_reply);
      events += static_cast<double>(in[k].view.count);
      feed += st[k].feed_s;
      finish_ms.push_back((st[k].finish_reply - st[k].last_flush) * 1e3);
      rtt_ms.insert(rtt_ms.end(), st[k].rtt_ms.begin(), st[k].rtt_ms.end());
    }
    (traced ? traced_flood : plain_flood).push_back(end);
    if (sampled(traced ? Rep::kTraced : Rep::kPlain)) {
      for (const ConnStats& s : st) session_s.push_back(s.finish_reply);
      rate.push_back(events / end);
      feed_s.push_back(feed);
    }
  }
  g_tracer.enable(g_traced_run);
  const auto after = status_counters(addr);
  const auto diff = [&](const char* key) {
    const auto a = after.find(key);
    const auto b = before.find(key);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };

  set_median(res, "setup_s", open_s);
  // verdict_s: one session's stream in → its finish() report out, while
  // all connections flood (the median over sessions, not the slowest of
  // each round, which is a noisier order statistic).
  set_median(res, "verdict_s", session_s);
  res.values["serve.events_per_s"] = median(rate);
  res.values["serve.p50_ms"] = percentile(latency_ms, 0.50);
  res.values["serve.p99_ms"] = percentile(latency_ms, 0.99);
  res.values["serve.finish_ms"] = median(finish_ms);
  res.values["serve.open_s"] = median(open_s);
  res.values["serve.feed_s"] = median(feed_s);
  res.values["serve.verdict_rtt_ms"] = median(rtt_ms);
  res.values["serve.lateness_ms"] = percentile(late_ms, 0.99);
  res.values["serve.backlog_events"] = static_cast<double>(backlog);
  res.values["serve.batches"] = diff("event_batches");
  res.values["serve.throttles"] = diff("throttles");
  res.values["serve.stream_rejects"] = diff("stream_rejects");
  res.info["latency_samples"] = static_cast<double>(latency_ms.size());
  rs.emit(res);
  if (g_traced_run) {
    res.values["bench.trace_overhead_s"] =
        median(traced_flood) - median(plain_flood);
    // Client time inside serve calls over the connections' flood time.
    res.values["bench.span_coverage"] =
        (span_s("serve.feed") + span_s("serve.verdict") +
         span_s("serve.finish")) /
        (static_cast<double>(sessions) * median(traced_flood));
  }
  return res;
}

// ---- command line -----------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed S --dir D\n"
               "       perfbench run --workload W --dir D --seconds T "
               "--trace 0|1 [--spans FILE]\n"
               "                     [--addr unix:PATH --daemon-pid PID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  const WorkloadSpec* w = find_workload(flags["workload"]);
  if (w == nullptr || flags["dir"].empty()) return usage();
  const fs::path dir = flags["dir"];
  try {
    if (cmd == "gen") {
      if (flags["seed"].empty()) return usage();
      return generate(*w, std::strtoull(flags["seed"].c_str(), nullptr, 10),
                      dir);
    }
    if (cmd != "run") return usage();
    const double seconds = std::strtod(flags["seconds"].c_str(), nullptr);
    g_traced_run = flags["trace"] == "1";
    g_tracer.enable(g_traced_run);
    Result res;
    const std::string name = w->name;
    if (name == "serve-online") {
      if (flags["addr"].empty() || flags["daemon-pid"].empty()) return usage();
      res = run_serve(dir, seconds, flags["addr"], flags["daemon-pid"],
                      w->instances);
    } else if (name == "lint-racy") {
      res = run_lint(dir, seconds);
    } else {
      res = run_postmortem(dir, seconds);
    }
    if (g_traced_run) {
      const auto med = g_tracer.median_by_name();
      for (const char* layer : kSpanLayers) {
        const auto it = med.find(layer);
        if (it != med.end()) res.values[std::string(layer) + "_s"] = it->second;
      }
      if (!flags["spans"].empty()) g_tracer.write_json(flags["spans"]);
    }
    print_result(res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return 0;
}
