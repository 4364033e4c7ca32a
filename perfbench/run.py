"""The fermidecay benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh processes (perfbench/workloads.py), one after
another, until the next run would end after S seconds (at least two runs),
checks every report, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, as
medians over the runs; their times are rescaled to a reference machine speed
by a calibration loop run next to each timed part (README, "End-to-end
metrics").  With --trace 1 untraced and traced runs alternate and the metrics
are the per-layer ones, as medians over the traced runs.  The line
before it holds the run count, the spread of every metric over the runs, the
failure ratio and the environment.  See perfbench/README.md for why each
workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("verify-all", "exact-trace")
MIN_RUNS = 2
CHILD_TIMEOUT_S = 170.0
# Seconds the calibration loop of workloads.py takes at the reference speed:
# a run's times are multiplied by this over the loop's time around that run.
REFERENCE_CALIBRATION_S = 0.8
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402


class BenchError(RuntimeError):
    """A run that could not be measured at all (no result is printed)."""


def metric_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_expected():
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_once(workload, seed, trace, small, work, timeout):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work)]
    cmd += ["--trace"] if trace else []
    cmd += ["--small"] if small else []
    env = dict(os.environ)
    env.pop("FERMIDECAY_THREADS", None)   # the CLI default thread count
    spawn = time.perf_counter()
    with open(work / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} run exceeded {timeout:.0f} s") from exc
    timing_path = work / "timing.json"
    if proc.returncode != 0 or not timing_path.exists():
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"{workload} run exited {proc.returncode}:\n{tail}")
    with open(timing_path) as fh:
        timing = json.load(fh)
    report = work / "report.json"
    raw = {"setup_s": timing["setup_end"] - spawn,
           "wall_s": timing["end"] - timing["start"],
           "cpu_s": timing["cpu_s"]}
    run = {
        "traced": trace,
        "peak_rss_mib": timing["peak_rss_kib"] / 1024.0,
        "raw": raw,
        "timing": timing,
        "report": report.read_bytes() if report.exists() else None,
    }
    if trace:
        spans, names, counts = tracer.load(work)
        layers = tracer.layer_metrics(spans, names, counts,
                                      timing["start"], timing["end"])
        caches = timing["caches"]
        layers["fock.mode_ops_hit_ratio"] = hit_ratio(caches["mode_operators"])
        layers["covariance.lookup_hit_ratio"] = hit_ratio(caches["covariance_lookup"])
        layers["covariance.dispersion_hit_ratio"] = hit_ratio(caches["dispersions"])
        run["layers"] = layers
    return run


def rescale(runs):
    """Give each run's times in reference seconds.  The machine's speed during
    a run is gauged by the calibration loops right before and after its timed
    part and by the neighbouring runs' loops next to those, about a second
    away: the mean of up to four loop times."""
    for i, run in enumerate(runs):
        loops = [run["timing"]["calibration"]["before"],
                 run["timing"]["calibration"]["after"]]
        if i > 0:
            loops.append(runs[i - 1]["timing"]["calibration"]["after"])
        if i + 1 < len(runs):
            loops.append(runs[i + 1]["timing"]["calibration"]["before"])
        wall = statistics.fmean(loop[0] for loop in loops)
        cpu = statistics.fmean(loop[1] for loop in loops)
        run["calibration_s"] = wall
        run["setup_s"] = run["raw"]["setup_s"] * REFERENCE_CALIBRATION_S / wall
        run["wall_s"] = run["raw"]["wall_s"] * REFERENCE_CALIBRATION_S / wall
        run["cpu_s"] = run["raw"]["cpu_s"] * REFERENCE_CALIBRATION_S / cpu


def hit_ratio(info):
    total = info["hits"] + info["misses"]
    return info["hits"] / total if total else 0.0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_report(run, pinned):
    """Operations attempted and failure messages of one run's report.  Every
    check row is one operation; pinned names, tolerances and trial counts
    guard against a check that got smaller."""
    if run["report"] is None:
        return 1, ["no report written"]
    data = json.loads(run["report"])
    rows = data.get("checks", [])
    failures = [f"check {r['quantity']} failed" for r in rows if not r["pass"]]
    ops = len(rows)
    if pinned:
        by_name = {r["quantity"]: r for r in rows}
        config = data.get("config", {})
        for key, value in pinned["config"].items():
            if config.get(key) != value:
                failures.append(f"config {key} is {config.get(key)}, pinned {value}")
        for name, pin in pinned["checks"].items():
            row = by_name.get(name)
            if row is None:
                ops += 1
                failures.append(f"check {name} missing")
                continue
            if "bound" in pin and row["bound"] != pin["bound"]:
                failures.append(f"check {name} bound {row['bound']}, pinned {pin['bound']}")
            for key, value in pin.get("details", {}).items():
                if row.get("details", {}).get(key) != value:
                    failures.append(f"check {name} {key} is "
                                    f"{row.get('details', {}).get(key)}, pinned {value}")
    if run["timing"]["exit_status"] != 0 and not failures:
        failures.append(f"exit status {run['timing']['exit_status']}")
    return max(ops, len(failures)), failures


# ---------------------------------------------------------------------------
# a measurement
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, small=False):
    """Run the workload until `seconds` are used up; return the result line,
    the information line and the runs."""
    pinned = None if small else load_expected().get(workload)
    loadavg = os.getloadavg()
    start = time.perf_counter()
    work_root = WORK / f"{os.getpid()}"
    runs = []
    attempted = 0
    failures = []
    try:
        while True:
            traced = bool(trace) and len(runs) % 2 == 1
            timeout = CHILD_TIMEOUT_S - (time.perf_counter() - start)
            run = run_once(workload, seed, traced, small,
                           work_root / str(len(runs)), timeout)
            ops, fails = check_report(run, pinned)
            attempted += ops
            failures += fails
            if runs:
                # same seed, same bytes: traced or not, first run or later
                attempted += 1
                if run["report"] != runs[0]["report"]:
                    failures.append(f"run {len(runs)} report differs from run 0")
            runs.append(run)
            elapsed = time.perf_counter() - start
            if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > seconds:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass   # another invocation still uses it

    rescale(runs)
    e2e_units, layer_units = metric_units()
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    spread = {}
    if trace:
        values = {k: [r["layers"][k] for r in traced] for k in traced[0]["layers"]}
        values["trace.overhead_s"] = [
            statistics.median(values["trace.wall_s"])
            - statistics.median(r["raw"]["wall_s"] for r in plain)]
        units = layer_units
    else:
        values = {k: [r[k] for r in plain] for k in e2e_units}
        for k in plain[0]["raw"]:
            values[f"raw.{k}"] = [r["raw"][k] for r in plain]
        values["calibration_s"] = [r["calibration_s"] for r in plain]
        units = e2e_units
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics {sorted(missing)} were not measured")
    for name, vals in values.items():
        med = statistics.median(vals)
        spread[name] = {"median": med, "min": min(vals), "max": max(vals),
                        "spread": (max(vals) - min(vals)) / med if med else 0.0}
    metrics = {name: {"value": spread[name]["median"], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": not failures, "attempted": attempted,
              "failed": min(len(failures), attempted), "metrics": metrics}
    info = {
        "workload": workload, "seed": seed, "trace": int(bool(trace)),
        "runs": len(runs), "untraced_runs": len(plain), "traced_runs": len(traced),
        "wall_s_high_percentile": high_percentile([r["wall_s"] for r in plain]),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "spread_over_runs": spread,
        "fail_ratio": result["failed"] / attempted,
        "failures": failures[:20],
        "environment": environment(runs[0]["timing"], loadavg),
        "line_counts": line_counts(),
    }
    return result, info, runs


def high_percentile(values):
    """The highest percentile with at least ten runs beyond it, if any."""
    n = len(values)
    if n < 11:
        return {"runs": n, "note": "needs at least 11 runs"}
    k = n - 10
    return {"runs": n, "percentile": 100.0 * k / n, "value": sorted(values)[k - 1]}


def environment(timing, loadavg):
    return {
        "python": timing["python"], "numpy": timing["numpy"],
        "scipy": timing["scipy"], "blas": timing["blas"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "loadavg_at_start": loadavg,
    }


def line_counts():
    """src and test lines per module (reported, not gated)."""
    def lines(path):
        return len(path.read_text().splitlines()) if path.exists() else 0
    out = {}
    for layer in tracer.LAYERS:
        out[layer] = {"src": lines(ROOT / "src" / "fermidecay" / f"{layer}.py"),
                      "test": lines(ROOT / "tests" / f"test_{layer}.py")}
    src = sum(lines(p) for p in (ROOT / "src" / "fermidecay").glob("*.py"))
    tests = sum(lines(p) for p in (ROOT / "tests").glob("*.py"))
    out["total"] = {"src": src, "test": tests}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fermidecay" / "__init__.py").is_file():
        print(f"error: no fermidecay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, info, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
