"""One workload run in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --work DIR
                                   [--trace] [--small]

Set-up (interpreter start, the fermidecay import, input generation from the
seed, a numpy/LAPACK warm-up) ends at the timestamp `setup_end`; a calibration
loop runs; the timed part runs once, from `start` to `end`; the calibration
loop runs again; then DIR/report.json (the program's deterministic output) and
DIR/timing.json are written, and with --trace the spans.  run.py starts one
such process per run and checks what it wrote.  --small runs the reduced sizes
of the self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fermidecay  # noqa: E402
from fermidecay import bounds, cli, covariance, fock, lattice, model  # noqa: E402
from fermidecay.lattice import DOWN, UP, LatticeSpec  # noqa: E402
from fermidecay.model import ModelParams  # noqa: E402

if not Path(fermidecay.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"fermidecay imported from {fermidecay.__file__}, not from {SRC}")

# Pinned sizes and tolerances: a faster run must do the same checks.
FREE_FERMION_TOL = 1e-10    # Fock vs covariance_value (suite_covariance)
LAMBDA_TOL = 1e-6           # lambda_derivative_check (suite_exact)
GENERAL_R = 0.5             # R of the general smallness condition
CALIBRATION_LOOPS = 750_000
# OpenBLAS worker threads spin for up to about 0.15 s after a call, which slows
# a loop timed meanwhile; the calibration waits this long for them to go idle.
BLAS_IDLE_S = 0.25


def check(name, computed, bound, passed):
    return {"quantity": name, "computed": computed, "bound": bound,
            "pass": bool(passed)}


def to_json(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


def write_report(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True,
                            default=to_json) + "\n")


# ---------------------------------------------------------------------------
# workloads: each set-up function generates the inputs and returns the timed
# part, a function that runs them and returns the exit status
# ---------------------------------------------------------------------------

def setup_cli(argv):
    def timed():
        return cli.main(argv)
    return timed


def setup_verify_all(seed, small, work):
    argv = ["verify", "--suite", "covariance", "--L", "2"] if small else \
        ["verify", "--suite", "all"]
    return setup_cli(argv + ["--seed", str(seed), "--out", str(work / "report.json")])


def general_coupling(unit, spec, params, fraction):
    """Scale factor putting `unit` at `fraction` of the general smallness
    threshold (R = GENERAL_R)."""
    rep = model.check_smallness(unit, params, spec, "general", R=GENERAL_R)
    return fraction * rep.rhs / rep.lhs


def separation_queries(spec):
    """The two-body density query from the origin to every site."""
    x1 = (0,) * spec.d
    return [fock.query((x1, x1), (x2, x2), (UP, DOWN), (UP, DOWN))
            for x2 in lattice.enumerate_sites(spec)]


def setup_exact_trace(seed, small, work):
    """Fock-dimension-256 models (d=1 L=4, d=2 L=2) of the four interaction
    kinds, a free model, and one dimension-1024 Hubbard chain (d=1 L=5)."""
    rng = np.random.default_rng(seed)
    p = ModelParams(t=1.0, t_prime=0.0, mu=float(rng.uniform(0.0, 0.3)), beta=1.0)
    chain = LatticeSpec(1, 3 if small else 4)
    square = LatticeSpec(2, 2)
    frac = lambda: float(rng.uniform(0.5, 0.95))  # noqa: E731
    models = []   # (name, spec, u, variant)
    models.append(("hubbard", chain,
                   model.hubbard_interaction(frac() * model.hubbard_threshold(p, 1)),
                   "hubbard"))
    J = rng.uniform(0.5, 1.5, size=2)
    w = {(1, 0): J[0], (0, 1): J[1]}
    c = general_coupling(model.spin_spin_interaction(w, d=2), square, p, frac())
    models.append(("spin_spin", square, model.spin_spin_interaction(
        {x: c * v for x, v in w.items()}, d=2), "general"))
    b = rng.uniform(0.5, 1.5, size=chain.n_sites)
    field = {(x,): (0.0, 0.0, b[x]) for x in range(chain.n_sites)}
    c = general_coupling(model.spin_field_interaction(field), chain, p, frac())
    models.append(("field_z", chain, model.spin_field_interaction(
        {x: tuple(c * np.array(v)) for x, v in field.items()}), "general"))
    b = rng.uniform(0.5, 1.5, size=square.n_sites)
    field = {x: (b[i], 0.0, 0.0) for i, x in enumerate(lattice.enumerate_sites(square))}
    c = general_coupling(model.spin_field_interaction(field), square, p, frac())
    models.append(("field_x", square, model.spin_field_interaction(
        {x: tuple(c * np.array(v)) for x, v in field.items()}), "general"))
    models.append(("free", chain, model.InteractionCoefficients(), None))
    if not small:
        big = LatticeSpec(1, 5)
        models.append(("hubbard_L5", big, model.hubbard_interaction(
            frac() * model.hubbard_threshold(p, 1)), "hubbard"))
    paths = []
    for name, spec, u, variant in models:
        path = work / f"model_{name}.json"
        model.save_model(path, spec, p, u)
        paths.append((name, path, variant))

    def timed():
        rows = []
        for name, path, variant in paths:
            spec, params, u = model.load_model(path)
            if variant is None:
                rows.extend(free_fermion_rows(name, spec, params, u))
                continue
            queries = separation_queries(spec)
            if name == "hubbard_L5":
                queries = queries[2:3]   # one expectation at dimension 1024
            env = bounds.verify_theorem_envelope(
                spec, params, u, queries, variant=variant,
                R=GENERAL_R if variant == "general" else None)
            for r in env:
                rows.append(check(f"{name}_envelope_sep{r['sum_diff']}",
                                  abs(r["correlation"]), r["envelope_chord"],
                                  r["passed"]))
            if name == "hubbard_L5":
                continue
            rows.append(partition_row(name, spec, params, u))
            if name in ("hubbard", "field_x"):
                space = fock.FockSpace(spec)
                q = fock.query(((0,) * spec.d,), ((1,) + (0,) * (spec.d - 1),),
                               (UP,), (UP,))
                res = fock.lambda_derivative_check(space, params, u, q, step=1e-4)
                rows.append(check(f"{name}_lambda_derivative", res["deviation"],
                                  LAMBDA_TOL, res["deviation"] <= LAMBDA_TOL))
        write_report(work / "report.json", {"workload": "exact-trace",
                                            "seed": seed, "checks": rows})
        return 0

    return timed


def free_fermion_rows(name, spec, params, u):
    """Exact trace of the free model against the closed-form covariance."""
    space = fock.FockSpace(spec)
    eig = fock.diagonalize(fock.build_hamiltonian(space, params, u))
    cs = covariance.CovarianceSpec(spec, params)
    origin = (0,) * spec.d
    rows = []
    for xb in lattice.enumerate_sites(spec):
        q = fock.query((origin,), (xb,), (UP,), (UP,))
        v = fock.correlation(space, params, u, q, eig=eig)
        ref = covariance.covariance_value(cs, (origin, UP, 0.0), (xb, UP, 0.0)) \
            + covariance.covariance_value(cs, (xb, UP, 0.0), (origin, UP, 0.0))
        dev = abs(v - ref)
        rows.append(check(f"{name}_vs_covariance_{xb}", dev, FREE_FERMION_TOL,
                          dev <= FREE_FERMION_TOL))
    return rows


def partition_row(name, spec, params, u):
    """Spectrum-only path: |log Tr e^{-beta H} / Tr e^{-beta H0}| is at most
    beta ||V||, and ||V|| is at most the sum of |coefficient| over the lattice
    terms (each a product of fermion operators of norm <= 1)."""
    ratio = fock.partition_ratio(fock.FockSpace(spec), params, u)
    terms = model.lattice_terms(model.restrict_interaction(u, spec), spec)
    bound = params.beta * sum(abs(coeff) for *_, coeff in terms)
    lhs = abs(math.log(ratio))
    return check(f"{name}_log_partition_ratio", lhs, bound, lhs <= bound)


WORKLOADS = {
    "verify-all": setup_verify_all,
    "exact-trace": setup_exact_trace,
}


def warm_up():
    """First LAPACK calls of a fresh process can stall; pay that here, in
    set-up, without touching any fermidecay cache."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    h = a + a.conj().T
    np.linalg.eigh(h)
    np.linalg.eigvalsh(h)
    np.einsum("in,ij,jn->n", a[:64].conj(), h[:64, :64], a[:64])
    small = h[:12, :12]
    np.linalg.det(small)
    np.linalg.inv(small)
    np.linalg.det(np.stack([small[:6, :6]] * 4))


def calibrate():
    """Wall and CPU seconds of a fixed pure-Python loop that calls no
    fermidecay code.  Run right before and right after the timed part, it
    gauges how fast this machine runs at that moment; run.py rescales the
    measured times by it."""
    time.sleep(BLAS_IDLE_S)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    table = {}
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        key = (i % 97, (i * 7) % 31, i & 15)
        table[key] = table.get(key, 0) + i % 13
        low, _, high = sorted((i % 5, (i * 3) % 7, (i * 11) % 13))
        acc += low - high
    return time.perf_counter() - wall0, time.process_time() - cpu0


def blas_info():
    info = {}
    for lib in np.show_config(mode="dicts")["Build Dependencies"].values():
        if "version" in lib:
            info[lib["name"]] = lib["version"]
    try:
        import ctypes
        import glob
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*"))
        if libs:
            ob = ctypes.CDLL(libs[0])
            fn = ob.scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
    except (OSError, AttributeError):
        info["blas_threads"] = None
    return info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()
    work = Path(args.work)
    timed = WORKLOADS[args.workload](args.seed, args.small, work)
    warm_up()
    spans = None
    if args.trace:
        import tracer
        spans = tracer.install()
    setup_end = time.perf_counter()
    before = calibrate()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    rc = timed()
    end = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    after = calibrate()
    if spans is not None:
        tracer.dump(spans, work)
    caches = {name: fn.cache_info()._asdict() for name, fn in (
        ("mode_operators", fock._mode_operators),
        ("covariance_lookup", covariance._covariance_lookup),
        ("dispersions", covariance._dispersions))}
    timing = {
        "setup_end": setup_end, "start": start, "end": end, "exit_status": rc,
        "calibration": {"before": before, "after": after},
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_kib": ru1.ru_maxrss, "caches": caches,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
    }
    with open(work / "timing.json", "w") as fh:
        json.dump(timing, fh)


if __name__ == "__main__":
    main()
