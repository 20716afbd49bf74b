#!/usr/bin/env bash
# Run the benchmark suite and merge everything into BENCH_ccmm.json.
#
# Covers the microbenchmark binaries (bench_construct,
# bench_enumeration, bench_sc_search, bench_race, bench_checkers) via
# google-benchmark's JSON reporter, plus the two experiment reproducers
# that export quotient-engine metrics (thm_verification,
# fig4_nonconstructibility) via CCMM_EXPERIMENT_JSON.  The merged file
# records, for every labeled/quotient benchmark pair, the wall-clock
# speedup of the isomorphism-quotient engine (the worklist fixpoint rows
# carry their support/repair counters); and the global memo-cache
# counters exported by the experiments.
#
# Usage: tools/run_benches.sh [--quick|--nightly] [--build-dir DIR] [--out FILE]
#   --quick      CI smoke budget: tiny min_time and the expensive args
#                (the /6 fixpoint universes, the 10000-node race scans)
#                filtered out.  Full mode includes the headline
#                BM_FixpointSequential/6 vs BM_FixpointQuotient/6 run.
#   --nightly    Full mode plus the 134217728-node (128M) postmortem in
#                its own process; gates hard on its bytes-per-node
#                budget (<= 48) so a memory regression at scale fails
#                the nightly run even though no timing baseline exists
#                for it.  Minutes of wall clock and ~35 GiB of RSS —
#                never part of --quick or default full runs.
#   --build-dir  CMake build tree holding bench/ binaries (default: build).
#   --out        Output JSON path (default: BENCH_ccmm.json in repo root).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
out_file="$repo_root/BENCH_ccmm.json"
mode=full
# NOTE: this benchmark library predates the "1x" iteration syntax; the
# flag takes plain seconds.
min_time=0.1
filter=''

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) mode=quick; shift ;;
    --nightly) mode=nightly; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out_file="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ $mode == quick ]]; then
  min_time=0.01
  # Negative filter: drop the minute-scale args, keep everything else.
  # The /1048576 trace runs and the 16384-node closure build are
  # second-scale per iteration; the 16384 streaming run stays in so the
  # BM_LargeCheckLC/16384 gate still binds on CI. The /16777216 data
  # plane runs (and their 500 MB text twin) are full-mode only, and the
  # /134217728 postmortem is nightly-only. Of the location axis, the
  # 16- and 256-location stream rows stay in (they carry the
  # bytes_per_node ceiling CI gates); BM_LargeCheckLC's, which check a
  # dense Φ of up to ~1.2 GB, and the 4096-location rows are full-mode
  # only.
  filter='-(.*/6$|.*/10000$|.*/1048576$|.*/16777216$|.*/134217728$|BM_LargeCheckLC/1048576/.*|.*/1048576/4096$|BM_VerifyClosureLC/16384$|BM_FixpointParallel.*)'
fi

if [[ $mode == nightly ]]; then
  # The nightly regen owns the box for ~25 minutes and the machine is
  # one core: serialize against the serve stress harness (which takes
  # the same lock) instead of silently contending with it.
  lock_file="${CCMM_BENCH_LOCK:-/tmp/ccmm_bench.lock}"
  exec 9>"$lock_file"
  if ! flock -n 9; then
    echo "waiting for $lock_file (another bench/stress run holds it)..." >&2
    flock 9
  fi
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run_bench() {  # run_bench <binary> <out.json> [filter]
  local bin="$1" out="$2" flt="${3-}"
  local args=("--benchmark_out=$out" "--benchmark_out_format=json"
              "--benchmark_min_time=$min_time")
  [[ -n $flt ]] && args+=("--benchmark_filter=$flt")
  "$bin" "${args[@]}"
}

benches=(bench_construct bench_enumeration bench_sc_search bench_race
         bench_checkers bench_trace bench_serve)
for b in "${benches[@]}"; do
  bin="$build_dir/bench/$b"
  if [[ ! -x $bin ]]; then
    echo "missing benchmark binary: $bin (build the 'bench' targets first)" >&2
    exit 1
  fi
  echo "== $b =="
  if [[ $mode != quick && $b == bench_construct ]]; then
    # The minute-scale /6 fixpoint universes go in separate processes:
    # the first allocation-heavy iteration right after them reads ~100x
    # slow (page reclaim after the gfp frees gigabytes), which would
    # poison whatever cheap benchmark happens to be measured next —
    # including the quotient/6 run if it shared a process with the
    # sequential/6 one.
    run_bench "$bin" "$tmp/$b.json" '-(.*/6$)'
    run_bench "$bin" "$tmp/$b.part2.json" 'BM_FixpointSequential/6$'
    run_bench "$bin" "$tmp/$b.part3.json" 'BM_FixpointQuotient/6$'
    run_bench "$bin" "$tmp/$b.part4.json" 'BM_FixpointWorklistQuotient/6$'
  elif [[ $mode != quick && $b == bench_trace ]]; then
    # The 16M-node data-plane runs get their own processes: building a
    # 16M-op program + trace + its ~500 MB text twin would otherwise
    # leave the allocator and page cache hot (or reclaiming) under the
    # small benchmarks that follow in the same binary.
    # The 4096-location row gets its own process for the same reason.
    run_bench "$bin" "$tmp/$b.json" \
      '-(.*/16777216$|.*/134217728$|.*/1048576/4096$)'
    run_bench "$bin" "$tmp/$b.part2.json" 'BM_LargeCheckLC/16777216$'
    run_bench "$bin" "$tmp/$b.part3.json" 'BM_PostmortemNaive/16777216$'
    run_bench "$bin" "$tmp/$b.part4.json" 'BM_PostmortemDataPlane/16777216$'
    if [[ $mode == nightly ]]; then
      # The 128M tripwire, process-isolated like the other giant args:
      # one iteration takes minutes and touches ~35 GiB, and the page
      # reclaim after it frees would poison any benchmark sharing the
      # process.  The merge step below gates on its bytes_per_node.
      run_bench "$bin" "$tmp/$b.part5.json" 'BM_LargeCheckLC/134217728$'
    fi
    run_bench "$bin" "$tmp/$b.part6.json" \
      'BM_PostmortemDataPlane/1048576/4096$'
  elif [[ $mode != quick && $b == bench_serve ]]; then
    # The 4096-location stream, process-isolated like bench_trace's.
    run_bench "$bin" "$tmp/$b.json" '-(.*/1048576/4096$)'
    run_bench "$bin" "$tmp/$b.part2.json" 'BM_ServeIngest/1048576/4096$'
  else
    run_bench "$bin" "$tmp/$b.json" "$filter"
  fi
done

experiments=(thm_verification fig4_nonconstructibility)
for e in "${experiments[@]}"; do
  bin="$build_dir/bench/$e"
  if [[ ! -x $bin ]]; then
    echo "missing experiment binary: $bin" >&2
    exit 1
  fi
  echo "== $e =="
  CCMM_EXPERIMENT_JSON="$tmp/$e.json" "$bin"
done

python3 - "$tmp" "$out_file" "$mode" <<'PY'
import json, sys

tmp, out_file, mode = sys.argv[1], sys.argv[2], sys.argv[3]
benches = ["bench_construct", "bench_enumeration", "bench_sc_search",
           "bench_race", "bench_checkers", "bench_trace", "bench_serve"]
experiments = ["thm_verification", "fig4_nonconstructibility"]

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def load(path):
    with open(path) as f:
        return json.load(f)

merged = {"generated_by": "tools/run_benches.sh", "mode": mode,
          "benchmarks": {}, "experiments": {}, "quotient_speedup": [],
          "trace_speedup": [], "dataplane_speedup": [],
          "dataplane_memory": [], "cache_counters": {}}

by_name = {}
counters_by_name = {}
for b in benches:
    raw = load(f"{tmp}/{b}.json")
    for part in ("part2", "part3", "part4", "part5", "part6"):
        try:
            raw["benchmarks"] = raw.get("benchmarks", []) + \
                load(f"{tmp}/{b}.{part}.json").get("benchmarks", [])
        except FileNotFoundError:
            pass
    rows = []
    for r in raw.get("benchmarks", []):
        if r.get("run_type") == "aggregate":
            continue
        row = {"name": r["name"],
               "real_time": r["real_time"],
               "cpu_time": r["cpu_time"],
               "time_unit": r.get("time_unit", "ns"),
               "iterations": r.get("iterations")}
        counters = {k: v for k, v in r.items()
                    if k not in row and isinstance(v, (int, float))
                    and k not in ("repetition_index", "family_index",
                                  "per_family_instance_index",
                                  "threads")}
        if counters:
            row["counters"] = counters
        rows.append(row)
        ns = r["real_time"] * UNIT_NS.get(r.get("time_unit", "ns"), 1.0)
        by_name[r["name"]] = ns
        counters_by_name[r["name"]] = row.get("counters", {})
    merged["benchmarks"][b] = rows

for e in experiments:
    merged["experiments"][e] = load(f"{tmp}/{e}.json")

# Labeled baseline -> quotient counterpart, compared per matching arg.
PAIRS = [
    ("BM_FixpointSequential", "BM_FixpointQuotient"),
    ("BM_RestrictModel", "BM_RestrictModelQuotient"),
    ("BM_PairEnumeration", "BM_PairEnumerationUpToIso"),
    ("BM_PairEnumerationWithNNCheck", "BM_PairEnumerationWithNNCheckUpToIso"),
    ("BM_WitnessSearchNN", "BM_WitnessSearchNNQuotient"),
    ("BM_CanonicalEncoding", "BM_CanonicalFormRefined"),
]
def pair_rows(pairs, out, base_key, new_key):
    for base, new in pairs:
        for name, ns in sorted(by_name.items()):
            if not name.startswith(base + "/"):
                continue
            arg = name[len(base):]
            qname = new + arg
            if qname not in by_name or by_name[qname] == 0:
                continue
            out.append({
                base_key: name, new_key: qname,
                base_key + "_ms": ns / 1e6,
                new_key + "_ms": by_name[qname] / 1e6,
                "speedup": ns / by_name[qname],
            })

pair_rows(PAIRS, merged["quotient_speedup"], "labeled", "quotient")

# Closure-based prepared LC check -> streaming oracle-backed checker,
# per matching computation size (only the closure-feasible args pair
# up; BM_LargeCheckLC/1048576 has no closure counterpart by design).
TRACE_PAIRS = [
    ("BM_VerifyClosureLC", "BM_LargeCheckLC"),
]
pair_rows(TRACE_PAIRS, merged["trace_speedup"], "closure", "streaming")

# Text-parse + forced-scalar postmortem -> binary decode + dispatched
# SIMD data plane (plus the parse-only pair), per matching size. The
# 16M-node row is the ISSUE 7 acceptance criterion (>= 4x).
DATAPLANE_PAIRS = [
    ("BM_PostmortemNaive", "BM_PostmortemDataPlane"),
    ("BM_TraceReadText", "BM_TraceReadBinary"),
]
pair_rows(DATAPLANE_PAIRS, merged["dataplane_speedup"], "naive", "dataplane")

# Annotate each naive -> dataplane pair with its peak-RSS delta: the
# counters carry peak_rss_mb per process, so the pair shows how much
# resident memory the compact data plane saves at the same size.
for row in merged["dataplane_speedup"]:
    rss_naive = counters_by_name.get(row["naive"], {}).get("peak_rss_mb")
    rss_plane = counters_by_name.get(row["dataplane"], {}).get("peak_rss_mb")
    if rss_naive is not None and rss_plane is not None:
        row["naive_peak_rss_mb"] = rss_naive
        row["dataplane_peak_rss_mb"] = rss_plane
        row["peak_rss_delta_mb"] = rss_naive - rss_plane

# The data-plane memory table: bytes-per-node and peak RSS straight off
# the benchmark counters.
for b in benches:
    for row in merged["benchmarks"][b]:
        counters = row.get("counters", {})
        if "bytes_per_node" in counters:
            merged["dataplane_memory"].append({
                "name": row["name"],
                "bytes_per_node": counters["bytes_per_node"],
                **({"peak_rss_mb": counters["peak_rss_mb"]}
                   if "peak_rss_mb" in counters else {}),
            })

# Surface the memo-cache counters the experiments export (full JSON is
# under "experiments"; this is the at-a-glance copy).
for e in experiments:
    counters = {m["name"]: m["value"]
                for m in merged["experiments"][e].get("metrics", [])
                if "_cache_" in m["name"]}
    if counters:
        merged["cache_counters"][e] = counters

with open(out_file, "w") as f:
    json.dump(merged, f, indent=2, sort_keys=False)
    f.write("\n")

print(f"wrote {out_file}")
tripwire_failed = False
if mode == "nightly":
    # The 128M tripwire: no timing baseline exists at this size (one
    # wall-clock sample a night is all we get), but the memory budget
    # is machine-independent, so it gates absolutely.
    name, ceiling = "BM_LargeCheckLC/134217728", 48.0
    bpn = counters_by_name.get(name, {}).get("bytes_per_node")
    if bpn is None:
        print(f"nightly tripwire: {name} missing from the report",
              file=sys.stderr)
        tripwire_failed = True
    else:
        verdict = "OK" if bpn <= ceiling else "FAIL"
        print(f"nightly tripwire {name}: {bpn:.1f} B/node vs ceiling "
              f"{ceiling:g} ... {verdict}")
        tripwire_failed = bpn > ceiling
for row in merged["quotient_speedup"]:
    print(f"  {row['labeled']:45s} -> {row['quotient']:50s} "
          f"{row['speedup']:.2f}x")
for row in merged["trace_speedup"]:
    print(f"  {row['closure']:45s} -> {row['streaming']:50s} "
          f"{row['speedup']:.2f}x")
for row in merged["dataplane_speedup"]:
    rss = (f"  (peak rss {row['naive_peak_rss_mb']:.0f} -> "
           f"{row['dataplane_peak_rss_mb']:.0f} MiB, "
           f"-{row['peak_rss_delta_mb']:.0f})"
           if "peak_rss_delta_mb" in row else "")
    print(f"  {row['naive']:45s} -> {row['dataplane']:50s} "
          f"{row['speedup']:.2f}x{rss}")
if merged["dataplane_memory"]:
    print("data plane memory:")
    for row in merged["dataplane_memory"]:
        rss = (f"  peak rss {row['peak_rss_mb']:8.1f} MiB"
               if "peak_rss_mb" in row else "")
        print(f"  {row['name']:45s} {row['bytes_per_node']:8.1f} B/node{rss}")
if tripwire_failed:
    sys.exit(1)
PY
