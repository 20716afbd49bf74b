#!/usr/bin/env python3
"""Diff two merged benchmark reports (tools/run_benches.sh output).

Prints, for every benchmark name present in both files, the paired
real-time ratio fresh/baseline, plus the quotient/prepared speedup rows
side by side.  Intended as a NON-GATING CI step: noisy shared runners
make hard thresholds flaky, so the default exit code is 0 regardless of
the deltas; pass --gate RATIO to fail on regressions beyond RATIO (for
local use on quiet machines).

Three gate forms are accepted (repeatable, combinable):
  --gate 1.5
      global worst-ratio gate: fail if any paired ratio exceeds 1.5x.
  --gate "BM_FixpointQuotient/6<=baseline*1.05"
      targeted expression gate: fail if the named benchmark's fresh time
      exceeds its baseline time by more than the factor.  A name missing
      from either report does NOT gate (new or renamed benchmarks must
      not break CI) — it is reported and skipped.
  --gate "BM_LargeCheckLC/65536#bytes_per_node<=128"
      absolute counter ceiling: fail if the named benchmark row's named
      counter in the FRESH report exceeds the value.  Counters are
      machine-independent budgets (bytes per node, shard counts), so
      unlike times they gate absolutely, no baseline involved.  A
      missing name or counter is reported and skipped, like above.
  --gate "BM_LargeCheckLC/*#bytes_per_node<=48@arg>=16777216"
      size-aware counter ceiling: the '/*' wildcard applies the gate to
      every fresh row of the family, and the optional '@arg>=MIN'
      restricts it to rows whose numeric benchmark argument (the final
      /N) is at least MIN.  Fixed per-task scratch is amortized by
      nodes, so byte budgets only bind at scale: small-n rows are
      reported but never gate.  '@arg>=MIN' also works on a literal
      name.

Usage: tools/bench_delta.py BASELINE.json FRESH.json [--gate 1.5]
       [--gate "NAME<=baseline*1.05"]... [--gate "NAME#counter<=VALUE"]...
       [--gate "NAME/*#counter<=VALUE@arg>=MIN"]... [--only PREFIX]...
"""
import argparse
import json
import re
import sys


def load_times(report):
    """name -> real_time in ns, across every bench binary's rows."""
    out = {}
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    for rows in report.get("benchmarks", {}).values():
        for r in rows:
            out[r["name"]] = r["real_time"] * unit_ns.get(
                r.get("time_unit", "ns"), 1.0)
    return out


def load_counters(report):
    """name -> {counter: value} for rows that carry counters."""
    return {r["name"]: r["counters"]
            for rows in report.get("benchmarks", {}).values()
            for r in rows if r.get("counters")}


GATE_EXPR = re.compile(
    r"^(?P<name>[^<>=]+?)\s*<=\s*baseline\s*\*\s*(?P<factor>[0-9.]+)$")
GATE_COUNTER = re.compile(
    r"^(?P<name>[^<>=#@]+?)#(?P<counter>[A-Za-z0-9_]+)\s*<=\s*"
    r"(?P<value>[0-9.]+)"
    r"(?:\s*@\s*arg\s*>=\s*(?P<minarg>[0-9]+))?$")


def parse_gates(specs):
    """Split --gate values into (global_ratio | None, [(name, factor)],
    [(name, counter, ceiling, minarg | None)])."""
    ratio, exprs, counters = None, [], []
    for spec in specs:
        m = GATE_COUNTER.match(spec)
        if m:
            minarg = m.group("minarg")
            counters.append((m.group("name").strip(), m.group("counter"),
                             float(m.group("value")),
                             int(minarg) if minarg is not None else None))
            continue
        m = GATE_EXPR.match(spec)
        if m:
            exprs.append((m.group("name").strip(), float(m.group("factor"))))
            continue
        try:
            ratio = float(spec)
        except ValueError:
            print(f"bench_delta: bad --gate {spec!r} (want a ratio, "
                  f"'NAME<=baseline*F', or "
                  f"'NAME#counter<=VALUE[@arg>=MIN]')",
                  file=sys.stderr)
            sys.exit(2)
    return ratio, exprs, counters


def match_rows(name, available):
    """Expand a gate name to concrete benchmark rows.

    'FAMILY/*' matches every available row named 'FAMILY/<suffix>'; a
    literal name matches only itself.  Returns [] when nothing matches.
    """
    if name.endswith("/*"):
        prefix = name[:-1]  # keep the slash: BM_Foo/* must not hit BM_Foox
        return sorted(n for n in available if n.startswith(prefix))
    return [name] if name in available else []


def bench_arg(name):
    """The numeric benchmark argument (the trailing /N), or None."""
    tail = name.rsplit("/", 1)[-1]
    return int(tail) if tail.isdigit() else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--gate", action="append", default=[],
                    help="a global worst-ratio bound (e.g. 1.5) or a "
                         "targeted 'NAME<=baseline*F' expression; repeatable")
    ap.add_argument("--only", action="append", default=[],
                    help="restrict to benchmark names with this prefix "
                         "(repeatable)")
    args = ap.parse_args()
    gate_ratio, gate_exprs, gate_counters = parse_gates(args.gate)

    try:
        with open(args.baseline) as f:
            base = json.load(f)
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        # Missing/corrupt baseline must not gate anything.
        print(f"bench_delta: cannot compare ({e})", file=sys.stderr)
        return 0

    bt, ft = load_times(base), load_times(fresh)
    names = sorted(set(bt) & set(ft))
    if args.only:
        names = [n for n in names
                 if any(n.startswith(p) for p in args.only)]
    worst = 0.0
    if not names:
        print("bench_delta: no common benchmark names to compare")
    else:
        print(f"{'benchmark':58s} {'baseline':>12s} {'fresh':>12s} "
              f"{'ratio':>7s}")
        for n in names:
            if bt[n] <= 0:
                continue
            ratio = ft[n] / bt[n]
            worst = max(worst, ratio)
            flag = "  <-- regression" if ratio > 1.25 else ""
            print(f"{n:58s} {bt[n] / 1e6:10.3f}ms {ft[n] / 1e6:10.3f}ms "
                  f"{ratio:6.2f}x{flag}")

    for key in ("quotient_speedup", "trace_speedup", "dataplane_speedup"):
        def row_key(r):
            return r.get("labeled") or r.get("closure") or r.get("naive")
        rows_b = {row_key(r): r for r in base.get(key, [])}
        rows_f = {row_key(r): r for r in fresh.get(key, [])}
        common = sorted(set(rows_b) & set(rows_f))
        if not common:
            continue
        print(f"\n{key} (speedup baseline -> fresh):")
        for n in common:
            print(f"  {n:56s} {rows_b[n]['speedup']:6.2f}x -> "
                  f"{rows_f[n]['speedup']:6.2f}x")

    failed = False
    if gate_ratio is not None and worst > gate_ratio:
        print(f"\nbench_delta: worst ratio {worst:.2f}x exceeds gate "
              f"{gate_ratio:.2f}x", file=sys.stderr)
        failed = True
    for name, factor in gate_exprs:
        rows = [n for n in match_rows(name, ft) if n in bt]
        if not rows:
            print(f"bench_delta: gate '{name}' not present in both reports "
                  f"(skipped, not gating)")
            continue
        for row in rows:
            bound = bt[row] * factor
            verdict = "OK" if ft[row] <= bound else "FAIL"
            print(f"gate {row}: fresh {ft[row] / 1e6:.3f}ms vs bound "
                  f"{bound / 1e6:.3f}ms (baseline*{factor:g}) ... {verdict}")
            if ft[row] > bound:
                print(f"bench_delta: {row} exceeds baseline*{factor:g}",
                      file=sys.stderr)
                failed = True
    fc = load_counters(fresh)
    for name, counter, ceiling, minarg in gate_counters:
        rows = [n for n in match_rows(name, fc)
                if fc[n].get(counter) is not None]
        if not rows:
            print(f"bench_delta: gate '{name}#{counter}' not present in the "
                  f"fresh report (skipped, not gating)")
            continue
        for row in rows:
            value = fc[row][counter]
            if minarg is not None:
                arg = bench_arg(row)
                if arg is None or arg < minarg:
                    # Below the size qualifier: the budget is amortized
                    # over too few nodes to be meaningful, report only.
                    print(f"gate {row}#{counter}: fresh {value:g} "
                          f"(arg below {minarg}, informational only)")
                    continue
            verdict = "OK" if value <= ceiling else "FAIL"
            print(f"gate {row}#{counter}: fresh {value:g} vs ceiling "
                  f"{ceiling:g} ... {verdict}")
            if value > ceiling:
                print(f"bench_delta: {row}#{counter} exceeds {ceiling:g}",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
