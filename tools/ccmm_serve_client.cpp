// ccmm_serve_client — stream a recorded trace to a ccmm_serve daemon
// and print the final report. The online complement of
// `ccmm_check instance.txt --trace t.tbin`:
//
//   $ ./ccmm_serve_client unix:/tmp/ccmm.sock instance.txt t.tbin
//   $ ./ccmm_serve_client unix:/tmp/ccmm.sock instance.cimg t.tbin
//   $ ./ccmm_serve_client … --chunk 1024 --models ext --diff-batch
//   $ ./ccmm_serve_client unix:/tmp/ccmm.sock --status   # metrics only
//
// --diff-batch reruns the identical check through the in-process batch
// engine (large_check_trace) and diffs every semantic report field —
// the command-line face of the byte-identity guarantee. Exit 1 when
// they differ. The instance may be text or a binary image; either
// way the session is opened with the image.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "io/text.hpp"
#include "serve/client.hpp"
#include "trace/large_check.hpp"
#include "trace/session_kernel.hpp"
#include "trace/trace_binary.hpp"

using namespace ccmm;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: ccmm_serve_client ADDR instance[.txt|.cimg] "
      "trace[.tbin|.txt|-]\n"
      "         [--chunk N] [--models lc|all|ext] [--diff-batch] [--retain]\n"
      "       ccmm_serve_client ADDR --status\n");
  return 2;
}

/// Diff the semantic fields two reports must share (timings and memory
/// accounting legitimately differ between hosts).
bool reports_match(const LargeCheckReport& a, const LargeCheckReport& b) {
  bool ok = true;
  const auto complain = [&ok](const char* what) {
    std::fprintf(stderr, "diff-batch MISMATCH: %s\n", what);
    ok = false;
  };
  if (a.valid_observer != b.valid_observer) complain("valid_observer");
  if (a.checked != b.checked) complain("checked");
  if (a.satisfied != b.satisfied) complain("satisfied");
  if (a.detail != b.detail) complain("detail");
  if (a.locations.size() != b.locations.size()) {
    complain("location count");
    return ok;
  }
  for (std::size_t i = 0; i < a.locations.size(); ++i) {
    const LocationCheck& x = a.locations[i];
    const LocationCheck& y = b.locations[i];
    if (x.loc != y.loc || x.valid != y.valid || x.violated != y.violated ||
        x.writers != y.writers || x.detail != y.detail) {
      std::fprintf(stderr, "diff-batch MISMATCH at location %u\n", x.loc);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string addr = argv[1];
  std::string instance, trace_path;
  std::size_t chunk = 4096;
  std::uint32_t models = kSuiteLC;
  bool diff_batch = false, retain = false, status_only = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--status") {
      status_only = true;
    } else if (arg == "--chunk" && i + 1 < argc) {
      chunk = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--models" && i + 1 < argc) {
      const std::string m = argv[++i];
      models = m == "lc"    ? kSuiteLC
               : m == "all" ? kLargeCheckAll
               : m == "ext" ? kLargeCheckExt
                            : 0;
      if (models == 0) return usage();
    } else if (arg == "--diff-batch") {
      diff_batch = true;
    } else if (arg == "--retain") {
      retain = true;
    } else if (instance.empty()) {
      instance = arg;
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      return usage();
    }
  }

  try {
    if (status_only) {
      serve::ServeClient client(addr);
      std::fputs(client.status().c_str(), stdout);
      return 0;
    }
    if (instance.empty() || trace_path.empty()) return usage();

    std::ifstream in(instance);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", instance.c_str());
      return 1;
    }
    const Computation c = io::read_computation(in);
    const Trace trace = load_trace(trace_path, c);
    // The wire wants seq order; a text trace may list events in any.
    const std::vector<std::uint32_t> order = detail::stable_seq_order(trace);
    std::vector<BinaryTraceEvent> sorted(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
      sorted[i] = trace.events[order[i]];
    const std::span<const BinaryTraceEvent> recs =
        order.empty() ? std::span<const BinaryTraceEvent>(trace.events)
                      : std::span<const BinaryTraceEvent>(sorted);

    serve::ClientOptions copts;
    copts.session.models = models;
    copts.session.retain_events = retain;
    copts.batch_events = chunk == 0 ? 4096 : chunk;
    serve::ServeClient client(addr, copts);
    client.open(c);
    for (std::size_t at = 0; at < recs.size(); at += copts.batch_events)
      client.feed(recs.data() + at,
                  std::min(copts.batch_events, recs.size() - at));
    LargeCheckReport report = client.finish();
    std::fputs(report.to_string().c_str(), stdout);

    if (diff_batch) {
      LargeCheckOptions bopts;
      bopts.models = models;
      bopts.parallel = false;
      const LargeCheckReport batch = large_check_trace(c, trace, bopts);
      if (!reports_match(report, batch)) return 1;
      std::puts("diff-batch: online report matches the batch engine");
    }
    client.close_session();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccmm_serve_client: %s\n", e.what());
    return 1;
  }
}
