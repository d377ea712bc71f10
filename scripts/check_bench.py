#!/usr/bin/env python3
"""Perf-smoke regression gate over BENCH_*.json reports.

Compares the current bench output directory against the checked-in
baselines in bench/baseline/.  Tolerances are deliberately generous — CI
runners are noisy and heterogeneous — so only gross regressions fail:

  * ecc-bench-v1 reports (fig/ablation/custom micro benches):
      - any failed shape check in the current run fails the gate;
      - throughput-like metrics (qps/speedup/rate-per-second) may not drop
        below baseline / FACTOR;
      - time- and cost-like metrics (a `_`-separated name segment of
        time, ns, us, ms, s, usd, latency or makespan) may not exceed
        baseline * FACTOR;
      - bounded rates in [0, 1] (hit rates) may not drop more than
        RATE_SLACK absolute.
  * google-benchmark reports: per-benchmark real_time may not exceed
        baseline * GBENCH_FACTOR.

Only benches present in BOTH directories are compared; anything else is
reported and skipped, so adding a bench does not require a baseline in the
same commit.

Usage: check_bench.py [--baseline bench/baseline] [--current bench-json]
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

FACTOR = 4.0          # virtual-time / custom metrics: gross-only
GBENCH_FACTOR = 5.0   # wall-clock ns/op across unknown CI hardware
RATE_SLACK = 0.15     # absolute slack for [0, 1] rates


def is_rate(name: str, base: float, cur: float) -> bool:
    return 0.0 <= base <= 1.0 and 0.0 <= cur <= 1.0 and (
        "rate" in name or "ratio" in name or "fraction" in name)


# Name segments (split on `_`) that mark a lower-is-better metric.  Whole
# segments, because a substring `_s` would also match `_speedup`.
LOWER_IS_BETTER_SEGMENTS = frozenset(
    ("time", "ns", "us", "ms", "s", "usd", "latency", "makespan"))


def lower_is_better(name: str) -> bool:
    return any(seg in LOWER_IS_BETTER_SEGMENTS
               for seg in name.lower().split("_"))


def check_custom(name: str, base: dict, cur: dict, errors: list[str]) -> int:
    checked = 0
    failed = cur.get("checks_failed", 0)
    if failed:
        claims = [c["claim"] for c in cur.get("checks", [])
                  if not c.get("pass", True)]
        errors.append(f"{name}: {failed} shape check(s) failed: {claims}")
    for metric, bval in base.get("metrics", {}).items():
        cval = cur.get("metrics", {}).get(metric)
        if cval is None or bval is None:
            continue
        if not (math.isfinite(bval) and math.isfinite(cval)) or bval == 0:
            continue
        checked += 1
        if is_rate(metric, bval, cval):
            if cval < bval - RATE_SLACK:
                errors.append(
                    f"{name}: {metric} dropped {bval:.3f} -> {cval:.3f} "
                    f"(slack {RATE_SLACK})")
        elif lower_is_better(metric):
            if cval > bval * FACTOR:
                errors.append(
                    f"{name}: {metric} rose {bval:.3g} -> {cval:.3g} "
                    f"(> {FACTOR}x)")
        else:
            if cval < bval / FACTOR:
                errors.append(
                    f"{name}: {metric} dropped {bval:.3g} -> {cval:.3g} "
                    f"(< 1/{FACTOR}x)")
    return checked


def check_gbench(name: str, base: dict, cur: dict, errors: list[str]) -> int:
    baseline_times = {
        b["name"]: b.get("real_time")
        for b in base.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }
    checked = 0
    for b in cur.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        bt = baseline_times.get(b["name"])
        ct = b.get("real_time")
        if bt is None or ct is None or bt <= 0:
            continue
        checked += 1
        if ct > bt * GBENCH_FACTOR:
            errors.append(
                f"{name}: {b['name']} real_time {bt:.0f} -> {ct:.0f} ns "
                f"(> {GBENCH_FACTOR}x)")
    return checked


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="bench/baseline")
    ap.add_argument("--current", default="bench-json")
    args = ap.parse_args()

    baseline_dir = pathlib.Path(args.baseline)
    current_dir = pathlib.Path(args.current)
    baselines = {p.name: p for p in sorted(baseline_dir.glob("BENCH_*.json"))}
    currents = {p.name: p for p in sorted(current_dir.glob("BENCH_*.json"))}
    if not currents:
        print(f"error: no BENCH_*.json in {current_dir}", file=sys.stderr)
        return 2

    errors: list[str] = []
    compared = 0
    for fname, bpath in baselines.items():
        cpath = currents.get(fname)
        if cpath is None:
            print(f"skip: {fname} has a baseline but no current run")
            continue
        base = json.loads(bpath.read_text())
        cur = json.loads(cpath.read_text())
        before = len(errors)
        if base.get("format") == "ecc-bench-v1":
            n = check_custom(fname, base, cur, errors)
        else:
            n = check_gbench(fname, base, cur, errors)
        compared += 1
        if len(errors) == before:
            print(f"ok: {fname} ({n} metrics within tolerance)")
        else:
            print(f"FAIL: {fname} ({len(errors) - before} regression(s))")
    for fname in currents:
        if fname not in baselines:
            print(f"note: {fname} has no baseline (not gated)")

    if errors:
        print(f"\n{len(errors)} gross regression(s):", file=sys.stderr)
        for e in errors:
            print(f"  FAIL {e}", file=sys.stderr)
        return 1
    print(f"\nperf smoke passed: {compared} bench report(s) compared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
