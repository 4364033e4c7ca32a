"""Self-test of the benchmark: every workload at reduced size, untraced and
traced.

    python3 perfbench/selftest.py

For each workload it asserts that every metric of BENCHMARK.json is reported
with its unit, that all checks pass, that the traced run's layer self times
plus its untraced time add up to its wall time, and that the traced and
untraced runs wrote byte-identical reports.  Exits 1 on the first failure.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402


def check_workload(workload, e2e_units, layer_units):
    for trace, units in ((0, e2e_units), (1, layer_units)):
        result, info, runs = run.measure(workload, seed=3, seconds=0,
                                         trace=trace, small=True)
        assert result["correct"] and result["failed"] == 0, info["failures"]
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units, f"metrics {sorted(set(got) ^ set(units))}"
        for name, m in result["metrics"].items():
            assert math.isfinite(m["value"]), f"{name} = {m['value']}"
        if not trace:
            continue
        assert [r["traced"] for r in runs] == [False, True]
        assert runs[0]["report"] is not None
        assert runs[0]["report"] == runs[1]["report"], "traced report differs"
        layers = runs[1]["layers"]
        selfs = [layers[f"{layer}.self_s"] for layer in tracer.LAYERS]
        assert min(selfs) >= 0.0, selfs
        total = sum(selfs) + layers["trace.untraced_s"]
        wall = layers["trace.wall_s"]
        assert abs(total - wall) <= 1e-9 * wall + 1e-6, (total, wall)


def main():
    e2e_units, layer_units = run.metric_units()
    failed = False
    for workload in run.WORKLOADS:
        try:
            check_workload(workload, e2e_units, layer_units)
        except (AssertionError, run.BenchError) as exc:
            print(f"FAIL {workload}: {exc}")
            failed = True
        else:
            print(f"ok   {workload}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
