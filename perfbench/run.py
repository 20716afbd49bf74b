#!/usr/bin/env python3
"""ccmm's end-to-end benchmark: files (or a socket) in, verdict out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Each invocation

1. builds perfbench/ (the ccmm library from ../src, the ccmm_serve daemon
   from ../tools and the perfbench program) into .bench_build/perfbench;
2. generates the workload's inputs for the seed with `perfbench gen` in
   a process of its own, once per seed, into .bench_build/inputs/;
3. measures with `perfbench run` in a fresh process (for serve-online,
   against a ccmm_serve daemon started here on a unix socket), which
   checks every verdict it gets;
4. prints a readable summary, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its
   per_layer ones; spans go to .bench_build/spans/.

Workloads, metrics and their meaning are listed in BENCHMARK.json.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("postmortem-deep", "postmortem-wide", "serve-online", "lint-racy")
KEEP_SEEDS = 4          # input sets kept per workload
RUN_TIMEOUT_S = 150     # one measured process, however slow
# One shard keeps every session on one kernel thread, so the daemon's
# peak RSS does not depend on which thread's heap a session landed in;
# it leaves three cores to the load process's four connections.
DAEMON_SHARDS = "1"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(out):
    """Configure once, then bring the build up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"ccmm sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    log = out / "build.log"
    out.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as f:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                fail(f"cmake configure failed, see {log}")
        if subprocess.call(["cmake", "--build", str(out), "-j", jobs],
                           stdout=f, stderr=subprocess.STDOUT) != 0:
            fail(f"build failed, see {log}")
    return out / "perfbench", out / "ccmm_serve"


def inputs(perfbench, workload, seed):
    """The seed's input set, generated once and reused."""
    base = ROOT / ".bench_build" / "inputs" / workload
    d = base / str(seed)
    meta = d / "inputs.json"
    if not meta.is_file():
        shutil.rmtree(d, ignore_errors=True)
        tmp = base / f"{seed}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        rc = subprocess.call([str(perfbench), "gen", "--workload", workload,
                              "--seed", str(seed), "--dir", str(tmp)],
                             timeout=RUN_TIMEOUT_S)
        if rc != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            fail(f"input generation failed ({rc})")
        tmp.rename(d)
    os.utime(meta)
    sets = sorted((p for p in base.iterdir() if (p / "inputs.json").is_file()),
                  key=lambda p: (p / "inputs.json").stat().st_mtime)
    for old in sets[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return d, json.loads(meta.read_text())


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def measure(perfbench, daemon, workload, data, args, spans):
    """Run the measured process and return its completed-process result."""
    cmd = [str(perfbench), "run", "--workload", workload, "--dir", str(data),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans)]
    if workload != "serve-online":
        return subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    # The daemon runs in its own process, on a socket named relative to
    # a private directory (unix socket paths are short-limited).
    rundir = ROOT / ".bench_build" / "run" / str(os.getpid())
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    sock = rundir / "ccmm.sock"
    with open(rundir / "daemon.log", "w") as log:
        srv = subprocess.Popen([str(daemon), "--listen", "unix:ccmm.sock",
                                "--shards", DAEMON_SHARDS],
                               cwd=rundir, stdout=log, stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + 30
        while not sock.exists():
            if srv.poll() is not None or time.monotonic() > deadline:
                fail("ccmm_serve did not come up")
            time.sleep(0.02)
        return subprocess.run(cmd + ["--addr", "unix:ccmm.sock",
                                     "--daemon-pid", str(srv.pid)],
                              cwd=rundir, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    finally:
        stop(srv)
        shutil.rmtree(rundir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    perfbench, daemon = build(ROOT / ".bench_build" / "perfbench")
    data, meta = inputs(perfbench, args.workload, args.seed)
    spans = ROOT / ".bench_build" / "spans" / f"{args.workload}-{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)

    try:
        out = measure(perfbench, daemon, args.workload, data, args, spans)
    except subprocess.TimeoutExpired:
        fail(f"measurement exceeded {RUN_TIMEOUT_S} s")
    if out.returncode != 0 or not out.stdout.strip():
        fail(f"perfbench run exited with {out.returncode}")
    raw = json.loads(out.stdout.strip().splitlines()[-1])
    values = raw["values"]
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    errors = list(raw["errors"])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    unmeasured = []
    for m in wanted:
        # Layers a workload never reaches read 0 in the traced run; every
        # end-to-end metric must be measured and positive.
        v = values.get(m["name"], 0.0 if args.trace else None)
        if v is None or not math.isfinite(v) or (not args.trace and v <= 0):
            unmeasured.append(f"metric {m['name']} not measured ({v})")
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    errors += unmeasured
    correct = failed == 0 and not unmeasured

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for i, inst in enumerate(meta["instances"]):
        print(f"  input {i}: {inst['nodes']} nodes, {inst['events']} events, "
              f"{inst['locations']} locations, {inst['writers']} writers")
    for name, v in sorted(values.items()):
        print(f"  {name:32s} {v if v is None else format(v, '.6g')}")
    print(f"  {'error_rate':32s} {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    for k, v in sorted(raw["info"].items()):
        print(f"  info {k}: {v:g}")
    for e in errors:
        print(f"  error: {e}")
    if args.trace:
        print(f"  spans: {spans.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
