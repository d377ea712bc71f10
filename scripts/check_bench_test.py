#!/usr/bin/env python3
"""Tests for check_bench.py's metric direction rule, end to end.

Each case writes a one-metric ecc-bench-v1 report into a baseline and a
current directory, runs check_bench.py over them, and checks its exit code.
Standard library only; ctest runs it as check_bench_test.

Usage: check_bench_test.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

CHECK_BENCH = pathlib.Path(__file__).resolve().with_name("check_bench.py")


def report(metric: str, value: float) -> dict:
    return {
        "bench": "fig3_speedup",
        "format": "ecc-bench-v1",
        "metrics": {metric: value},
        "checks": [],
        "checks_failed": 0,
        "series": {},
    }


def run_gate(metric: str, baseline: float, current: float) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = pathlib.Path(tmp, "baseline")
        cur_dir = pathlib.Path(tmp, "current")
        for d, value in ((base_dir, baseline), (cur_dir, current)):
            d.mkdir()
            (d / "BENCH_fig3_speedup.json").write_text(
                json.dumps(report(metric, value)))
        return subprocess.run(
            [sys.executable, str(CHECK_BENCH), "--baseline", str(base_dir),
             "--current", str(cur_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            check=False).returncode


class DirectionTest(unittest.TestCase):
    def test_collapsed_speedup_fails(self):
        # `_speedup` holds `_s` but is not a time: a 5x drop is a regression.
        self.assertEqual(run_gate("gba_final_speedup", 2.0, 0.4), 1)

    def test_steady_speedup_passes(self):
        self.assertEqual(run_gate("gba_final_speedup", 2.0, 1.9), 0)

    def test_risen_cost_fails(self):
        # `_usd` is lower-is-better in its own right, not as a `_us` prefix.
        self.assertEqual(run_gate("cost_usd_cost-ttl", 10.0, 50.0), 1)

    def test_risen_virtual_seconds_fail(self):
        self.assertEqual(run_gate("healthy_virtual_s", 3.0, 15.0), 1)


if __name__ == "__main__":
    unittest.main()
