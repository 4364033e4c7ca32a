"""Command-line entry point: model validation, verification suites, tables.

Exit codes: 0 all checks pass, 1 a check or invariant fails or a guard
refuses its input (model.GuardError), 2 usage or parse errors.  Same seed
and configuration produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import bounds, covariance, fock, grassmann, lattice, model
from .lattice import DOWN, UP, LatticeSpec, TimeGrid, enumerate_sites
from .model import ModelParams

DEFAULTS = dict(d=1, L=4, t=1.0, t_prime=0.0, mu=0.2, beta=1.0,
                coupling_fraction=0.9, half_steps=1, m_max=3, trials=1000,
                seed=0)
# the flags of the default model: unset unless given, and refused with --model
MODEL_FLAGS = ("--d", "--L", "--t", "--t-prime", "--mu", "--beta",
               "--coupling-fraction")


def _load_or_default(args):
    """Model from --model, else the on-site Hubbard at a fraction (default
    90%) of its decay threshold with the flag parameters."""
    if args.model:
        return model.load_model(args.model)
    v = {**DEFAULTS, **vars(args)}
    spec = LatticeSpec(d=v["d"], L=v["L"])
    params = ModelParams(t=v["t"], t_prime=v["t_prime"], mu=v["mu"],
                         beta=v["beta"])
    U = v["coupling_fraction"] * model.hubbard_threshold(params, spec.d)
    return spec, params, model.hubbard_interaction(U, d=spec.d)


class Check:
    """One reported quantity; it passes when computed <= bound unless an
    explicit pass rule is given."""

    def __init__(self, name, computed, bound, passed=None, **details):
        self.name = name
        self.computed = computed
        self.bound = bound
        self.passed = bool(computed <= bound if passed is None else passed)
        self.details = details

    def row(self):
        numeric = (int, float, np.integer, np.floating)
        ratio = None
        if isinstance(self.computed, numeric) and isinstance(self.bound, numeric):
            ratio = self.computed / self.bound if self.bound else None
        d = {"quantity": self.name, "computed": self.computed,
             "bound": self.bound, "ratio": ratio, "pass": self.passed}
        if self.details:
            d["details"] = self.details
        return d


def _check_out(path):
    """Refuse an --out that names a directory or lies in a missing one before
    any work runs, with the error open(path, "w") would raise; nothing is
    created or truncated."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        os.stat(path)  # cannot resolve: raises FileNotFoundError or ENOTDIR


def _emit(args, text):
    """Write text to --out, or to stdout without it."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(args, fields, rows):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields)
    w.writeheader()
    w.writerows(rows)
    _emit(args, buf.getvalue())


def _write_report(args, payload):
    if args.format == "csv":
        fields = ["quantity", "computed", "bound", "ratio", "pass"]
        _write_csv(args, fields, [{k: r.get(k) for k in fields}
                                  for r in payload["checks"]])
        return
    _emit(args, json.dumps(payload, indent=2, sort_keys=True,
                           default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.integer, np.floating, np.ndarray)):
        return obj.tolist()  # Python int/float, or nested lists of them
    raise TypeError(f"cannot serialize {type(obj)}")


# ---------------------------------------------------------------------------
# checks: one function per acceptance criterion or CLI-only check; the suites
# below and tests/test_acceptance.py call the same functions
# ---------------------------------------------------------------------------

def fourier_consistency(spec, params):
    fdev = model.check_fourier_consistency(spec, params)
    return [Check("fourier_consistency", fdev, 1e-10)]


def det_identity(params, sizes, half_steps):
    """Criterion 05: det C_h against its closed form, without and with a shift."""
    checks = []
    for L in sizes:
        for hs in half_steps:
            for shift in (None, (0.1j,)):
                cs = covariance.CovarianceSpec(LatticeSpec(d=1, L=L), params,
                                               shift)
                res = covariance.det_identity_check(cs, TimeGrid(params.beta, hs))
                checks.append(Check(
                    f"det_identity_L{L}_bh{2*hs}_shift{'y' if shift else 'n'}",
                    res["relative_error"], 1e-8))
    return checks


def matsubara_diagonalization(spec, params, grid):
    """Criterion 06: C_h is diagonal in the momentum/frequency basis."""
    res = covariance.matsubara_check(covariance.CovarianceSpec(spec, params),
                                     grid)
    return [Check("matsubara_offdiagonal", res["max_offdiagonal"], 1e-9),
            Check("matsubara_diagonal", res["max_diagonal_deviation"], 1e-9)]


def u1_shift_identity(params, lattices):
    """Criterion 07: the U(1) shift identity, worst over every axis."""
    checks = []
    for d, L in lattices:
        cs = covariance.CovarianceSpec(LatticeSpec(d=d, L=L), params)
        dev = float(np.max([covariance.u1_shift_identity_check(
            cs, TimeGrid(params.beta, 1), axis) for axis in range(d)]))
        checks.append(Check(f"u1_shift_identity_d{d}_L{L}", dev, 1e-12))
    return checks


def contour_formula(spec, params, separations):
    """Criterion 08: the n = 1 contour formula, worst over (dist, dt) pairs."""
    cs = covariance.CovarianceSpec(spec, params)
    origin = (0,) * spec.d
    worst = float(np.max([covariance.contour_formula_check(
        cs, ((dist,) + origin[1:], UP, 0.0), (origin, UP, dt), axis=0,
        n=1)["deviation"] for dist, dt in separations]))
    return [Check("contour_formula_n1", worst, 1e-6)]


def covariance_decay(spec, params, grid):
    """Criterion 09: the covariance decay envelopes and the l1 sum bound."""
    cs = covariance.CovarianceSpec(spec, params)
    env = covariance.decay_envelope_check(cs, grid)
    l1 = covariance.l1_bound_check(cs, grid)
    return [Check("decay_envelope_chord", env["worst_ratio_chord"], 1.0),
            Check("decay_envelope_reduced", env["worst_ratio_reduced"], 1.0),
            Check("l1_bound", l1["lhs"], l1["rhs"])]


def l1_integral(spec, params, grid):
    """Criteria 09 and 10: the l1 integral D against its closed form."""
    cs = covariance.CovarianceSpec(spec, params)
    return [Check("l1_integral_vs_closed_form", bounds.covariance_l1_D(cs, grid),
                  covariance.l1_bound_check(cs, grid)["rhs"])]


def det_decay(spec, params, seed):
    """|det C| of three seeded random point pairs against its decay bound.
    C is spin-diagonal, so the det vanishes unless the b-points carry the
    spins of the a-points: the b-spins are a permutation of the a-spins."""
    rng = np.random.default_rng(seed)
    sites = enumerate_sites(spec)

    def point(spin):
        return (sites[int(rng.integers(len(sites)))], spin,
                float(rng.uniform(0, params.beta)))
    a_spins = [int(s) for s in rng.integers(2, size=3)]
    b_spins = [a_spins[i] for i in rng.permutation(3)]
    pairs = [(point(a), point(b)) for a, b in zip(a_spins, b_spins)]
    det = bounds.det_decay_check(covariance.CovarianceSpec(spec, params), pairs)
    return [Check("det_decay", det["abs_det"], det["bound"])]


def free_fermion_consistency(spec, params, spins):
    """Criterion 01: free exact-trace two-point functions against C + C^t; a
    passing row that names the refusal when the Fock guard refuses spec."""
    try:
        space = fock.FockSpace(spec)
    except model.GuardError as exc:
        return [Check("free_fermion_consistency", None, 1e-10, True,
                      skipped=str(exc))]
    sites = enumerate_sites(spec)
    points = [(xa, xb, spin) for xa in sites for xb in sites for spin in spins]
    values = fock.correlations(space, params, None, [
        fock.query((xa,), (xb,), (spin,), (spin,)) for xa, xb, spin in points])
    # C(a, b) + C(b, a) at equal times, a on site xa and b on site xb
    C = covariance.covariance_entries(
        covariance.CovarianceSpec(spec, params),
        [[np.subtract(xb, xa), np.subtract(xa, xb)] for xa, xb, _ in points], 0.0)
    devs = [abs(v - (complex(ab) + complex(ba))) for v, (ab, ba) in zip(values, C)]
    return [Check("free_fermion_consistency", float(np.max(devs)), 1e-10)]


def det_bound(spec, params, real_shift, trials_per_call, seed, seed_stride):
    """Criterion 04: the 4^n determinant bound, sampled for n = 1..6 without
    shift, with an imaginary shift at the analyticity radius and with
    real_shift minus that; call (n, i) is seeded seed + seed_stride n + i."""
    radius = covariance.contour_radius(params, spec.d)
    shift_choices = [(z,) + (0,) * (spec.d - 1)
                     for z in (0, 1j * radius, real_shift - 1j * radius)]
    ratios, total = [], 0
    for n in range(1, 7):
        for i, shift in enumerate(shift_choices):
            cs = covariance.CovarianceSpec(spec, params, shift)
            res = bounds.det_bound_sample(cs, n, n, trials_per_call,
                                          seed + seed_stride * n + i)
            ratios.append(res["worst_ratio"])
            total += res["trials"]
    return [Check("det_bound_worst_ratio", float(np.max(ratios)), 1.0, trials=total)]


def wick_vs_berezin(seed, max_degree):
    """Criterion 02: Wick determinants against the Berezin expansion.  Each
    drawn monomial is evaluated as the Schwinger engine evaluates every
    Gaussian expectation, as a compiled plan (one seed, no vertices), so the
    expansion checks the plan's sign and index conventions."""
    rng = np.random.default_rng(seed)
    n = 6
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    devs = []
    for _ in range(200):
        k = int(rng.integers(1, max_degree + 1))
        barred = list(rng.permutation(n)[:k])
        unbarred = list(rng.permutation(n)[:k])
        plan = grassmann._subset_plan([grassmann.monomial(barred, unbarred)], [])
        ref = grassmann._evaluate_plan(plan, G)[0]
        via_berezin = grassmann.berezin_gaussian(
            n, grassmann.GrassmannPolynomial.from_monomial(barred, unbarred), G)
        devs.append(abs(ref - via_berezin))
    return [Check("wick_vs_berezin", float(np.max(devs)), 1e-12)]


def partition_and_h_convergence(spec, params, u, half_steps):
    """Criterion 03: partition routes agree; grid correlations converge.  One
    engine per grid gives both the partition series and the correlation."""
    q = fock.query(((0,),), ((0,),), (UP,), (UP,))
    checks, rows = [], []
    for hs in half_steps:
        grid = TimeGrid(params.beta, hs)
        engine = grassmann.SchwingerEngine(spec, params, grid, u)
        tp = fock.transfer_partition(fock.FockSpace(spec), params, grid, u)
        pe = engine.partition()
        checks.append(Check(f"partition_equivalence_bh{2*hs}", abs(tp - pe),
                            1e-10, h=grid.h, partition=tp))
        rows.append({"h": grid.h, "correlation": engine.correlation(q)})
    exact = fock.correlation(fock.FockSpace(spec), params, u, q).real
    errors = [abs(r["correlation"].real - exact) for r in rows]
    decreasing = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    checks.append(Check("h_convergence_monotone", errors, None, decreasing,
                        rows=rows, exact=exact))
    checks.append(Check("h_convergence_final_error", errors[-1], 5e-2,
                        errors[-1] < 5e-2))
    return checks


def schwinger_series_b0(spec, params, u, m_max):
    q = fock.query(((0,),), ((0,),), (UP,), (UP,))
    engine = grassmann.SchwingerEngine(spec, params, TimeGrid(params.beta, 1), u)
    ser = engine.schwinger_series(q, m_max)
    # |b_0| <= B^m_hat, the m = 0 case of prop41_bound
    return [Check("schwinger_series_b0_bound", abs(ser[0]),
                  bounds.DET_BOUND_B**q.m_hat, b_m=[abs(c) for c in ser])]


_PAIR_QUERY = fock.query(((0,), (0,)), ((1,), (1,)), (UP, DOWN), (UP, DOWN))


def _taylor_case(params):
    """The case of `verify --suite taylor` and `table --kind taylor`: on-site
    U = 0.1 on the two-site chain at beta = 1 and beta*h = 2."""
    return (LatticeSpec(d=1, L=2),
            ModelParams(t=params.t, t_prime=0.0, mu=params.mu, beta=1.0),
            model.hubbard_interaction(0.1, d=1), TimeGrid(1.0, 1))


def taylor_bounds(spec, params, u, grid, m_max):
    """Criterion 10: the Taylor-coefficient bounds on |b_m| and |c_m|."""
    rep = bounds.verify_taylor_bounds(spec, params, grid, u, _PAIR_QUERY, m_max)
    q1 = fock.query(((0,),), ((1,),), (UP,), (UP,))
    rep1 = bounds.verify_taylor_bounds(spec, params, grid, u, q1, m_max)
    named = ([(f"prop41_m{r['m']}", r) for r in rep["b_rows"]]
             + [(f"prop42_{r['variant']}_m{r['m']}", r)
                for r in rep["c_rows"]]
             + [(f"prop41_mhat1_m{r['m']}", r) for r in rep1["b_rows"]])
    return [Check(name, r["abs_coefficient"], r["bound"]) for name, r in named]


def _separation_queries(spec):
    """Pairs moved apart by 0..min(L - 1, 3) steps on the first axis: the
    queries of `verify --suite theorem` and `table --kind envelope`."""
    x1 = (0,) * spec.d
    return [fock.query((x1, x1), ((sep,) + x1[1:],) * 2, (UP, DOWN), (UP, DOWN))
            for sep in range(min(spec.L - 1, 3) + 1)]


def smallness(spec, params, u):
    rep = model.check_smallness(u, params, spec)
    return [Check(f"smallness_{rep.variant}", rep.lhs, rep.rhs, rep.satisfied)]


def theorem_envelope(spec, params, u, queries):
    """Criterion 11: exact-trace correlations against the finite-L envelope."""
    rows = bounds.verify_theorem_envelope(spec, params, u, queries)
    return [Check(f"envelope_sep{row['sum_diff']}", row["abs_correlation"],
                  row["envelope_chord"],
                  envelope_euclidean=row["envelope_euclidean"])
            for row in rows]


def schwinger_contour_identity(spec, params, u):
    """The contour mechanism behind the envelope, at the grid level."""
    q = fock.query(((0,),), ((1,),), (UP,), (UP,))
    res = bounds.schwinger_contour_check(spec, params, TimeGrid(params.beta, 1),
                                         u, q, axis=0, n=1)
    return [Check("schwinger_contour_identity", res["deviation"], 1e-6)]


def trivial_hopping_vanishing(spec, params, u, queries):
    """Criterion 12: with t = t' = 0, unbalanced correlations vanish."""
    space = fock.FockSpace(spec)
    worst = float(np.max([abs(v) for v in
                          fock.correlations(space, params, u, queries)]))
    return [Check("trivial_hopping_vanishing", worst, 1e-12)]


def antisymmetrization(spec, U, seed):
    """Criterion 13: the on-site f_c tensor and its norm |U|/2; the pinned
    norm inequality on 50 seeded random hermitian order-2 tables."""
    g = {((x, x), (UP, DOWN), (UP, DOWN)): U for x in enumerate_sites(spec)}
    f = model.antisymmetrize(g, spec, 2)
    dev = float(np.max(np.abs(f - model.hubbard_antisymmetric_tensor(U, spec))))
    norm = model.antisym_pinned_norm(f, 2)
    rng = np.random.default_rng(seed)
    excess = []
    for _ in range(50):
        g = _random_order2_table(spec, rng)
        lhs = model.antisym_pinned_norm(model.antisymmetrize(g, spec, 2), 2)
        excess.append(lhs - model.table_pinned_norm(g, 2))
    worst = float(np.max(excess, initial=0.0))
    return [Check("antisym_hubbard_tensor", dev, 1e-14),
            Check("antisym_hubbard_norm", norm, abs(U) / 2, norm == abs(U) / 2),
            Check("antisym_norm_inequality", worst, 0.0, worst <= 1e-12)]


def _random_order2_table(s, rng):
    g = {}
    sites = enumerate_sites(s)
    for _ in range(6):
        X = (sites[int(rng.integers(len(sites)))],
             sites[int(rng.integers(len(sites)))])
        Xi = (int(rng.integers(2)), int(rng.integers(2)))
        Phi = (int(rng.integers(2)), int(rng.integers(2)))
        val = complex(rng.normal(), rng.normal())
        g[(X, Xi, Phi)] = g.get((X, Xi, Phi), 0) + val
        g[(X, Phi, Xi)] = g.get((X, Phi, Xi), 0) + val.conjugate()
    return g


LAMBDA_TOL = 1e-6


def lambda_derivative(params):
    """Criterion 14: the coupling derivative of the free energy, on one site;
    refused when the rounding floor of the difference quotient reaches the
    tolerance."""
    space = fock.FockSpace(LatticeSpec(d=1, L=1))
    hub = model.hubbard_interaction(0.1, d=1)
    q = fock.query(((0,),), ((0,),), (UP,), (UP,))
    res = fock.lambda_derivative_check(space, params, hub, q, step=1e-4)
    if res["rounding_floor"] >= LAMBDA_TOL:
        raise model.GuardError(
            f"finite difference swamped by rounding: floor "
            f"{res['rounding_floor']:.3g} >= tolerance {LAMBDA_TOL:g}")
    return [Check("lambda_derivative", res["deviation"], LAMBDA_TOL)]


# ---------------------------------------------------------------------------
# suites: the check calls at the CLI inputs, in report order
# ---------------------------------------------------------------------------

def suite_covariance(spec, params, u, args):
    grid = TimeGrid(params.beta, max(args.half_steps, 2))
    return [partial(fourier_consistency, spec, params),
            partial(det_identity, params, (1, 2), (1, 2)),
            partial(matsubara_diagonalization, LatticeSpec(d=1, L=2), params,
                    TimeGrid(params.beta, 1)),
            partial(u1_shift_identity, params, ((1, 2), (1, 4), (2, 2))),
            partial(contour_formula, spec, params, [(1, 0.25 * params.beta)]),
            partial(covariance_decay, spec, params, grid),
            partial(det_decay, spec, params, args.seed),
            partial(free_fermion_consistency, spec, params, (UP,))]


def suite_detbound(spec, params, u, args):
    return [partial(det_bound, spec, params, 0.7, max(1, args.trials // 18),
                    args.seed, 1000)]


def suite_grassmann(spec, params, u, args):
    # t = 0.5 keeps the beta*h = 8 discretization error inside the 5e-2 target
    atom = LatticeSpec(d=1, L=1)
    atom_params = ModelParams(t=0.5, t_prime=0.0, mu=0.2, beta=1.0)
    hub = model.hubbard_interaction(0.3, d=1)
    return [partial(wick_vs_berezin, args.seed, 3),
            partial(partition_and_h_convergence, atom, atom_params, hub,
                    (1, 2, 4)),
            partial(schwinger_series_b0, atom, atom_params, hub, args.m_max)]


def suite_taylor(spec, params, u, args):
    s, p, hub, grid = _taylor_case(params)
    return [partial(l1_integral, s, p, grid),
            partial(taylor_bounds, s, p, hub, grid, args.m_max)]


def suite_theorem(spec, params, u, args):
    """The envelope under its hypothesis, then the exact-trace identities."""
    p0 = ModelParams(t=0.0, t_prime=0.0, mu=params.mu, beta=params.beta)
    return [partial(smallness, spec, params, u),
            partial(theorem_envelope, spec, params, u,
                    _separation_queries(spec)),
            partial(schwinger_contour_identity, LatticeSpec(d=1, L=2), params,
                    model.hubbard_interaction(0.1, d=1)),
            partial(trivial_hopping_vanishing,
                    LatticeSpec(d=1, L=min(max(spec.L, 2), 4)), p0,
                    model.hubbard_interaction(0.5, d=1),
                    [fock.query(((0,),), ((1,),), (UP,), (UP,))]),
            partial(antisymmetrization, LatticeSpec(d=1, L=2), 0.7, args.seed),
            partial(lambda_derivative, ModelParams(t=params.t, t_prime=0.0,
                                                   mu=params.mu, beta=1.0))]


SUITES = {
    "covariance": suite_covariance,
    "detbound": suite_detbound,
    "grassmann": suite_grassmann,
    "taylor": suite_taylor,
    "theorem": suite_theorem,
}


def cmd_verify(args) -> int:
    spec, params, u = _load_or_default(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    calls = [c for name in names for c in SUITES[name](spec, params, u, args)]
    all_checks = []
    for call in calls:  # a guard's refusal aborts its own check alone
        try:
            all_checks.extend(call())
        except model.GuardError as exc:
            all_checks.append(Check(f"{call.func.__name__}_aborted", str(exc),
                                    None, False))
    passed = all(c.passed for c in all_checks)
    payload = {
        "suite": args.suite, "seed": args.seed,
        "config": {"d": spec.d, "L": spec.L, "t": params.t,
                   "t_prime": params.t_prime, "mu": params.mu,
                   "beta": params.beta, "half_steps": args.half_steps,
                   "m_max": args.m_max, "trials": args.trials},
        "checks": [c.row() for c in all_checks],
        "passed": passed,
    }
    _write_report(args, payload)
    for c in all_checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}", file=sys.stderr)
    return 0 if passed else 1


def cmd_model_validate(args) -> int:
    spec, params, u = model.load_model(args.model)
    report = {"d": spec.d, "L": spec.L, "beta": params.beta, "norms": {
        str(l): v for l, v in model.interaction_norms(u, spec).items()}}
    if model.restrict_interaction(u, spec).hubbard_coupling() is not None:
        rep = model.check_smallness(u, params, spec, variant="hubbard")
        report["smallness_hubbard"] = {"lhs": rep.lhs, "rhs": rep.rhs,
                                       "satisfied": rep.satisfied}
    rep = model.check_smallness(u, params, spec, variant="general", R=0.5)
    report["smallness_general_R0.5"] = {"lhs": rep.lhs, "rhs": rep.rhs,
                                        "satisfied": rep.satisfied}
    _emit(args, json.dumps(report, indent=2, sort_keys=True,
                           default=_json_default) + "\n")
    return 0


def cmd_table(args) -> int:
    spec, params, u = _load_or_default(args)
    rows = []
    if args.kind == "covariance_decay":
        env = covariance.decay_envelope_check(
            covariance.CovarianceSpec(spec, params),
            TimeGrid(params.beta, max(args.half_steps, 2)))["rows"]
        for dist in range(spec.L + 1):
            r = env[lattice.site_index(spec, (dist,) + (0,) * (spec.d - 1))]
            rows.append({"distance": dist, "abs_c": r["max_abs_c"],
                         "envelope": r["envelope_chord"],
                         "ratio": r["max_abs_c"] / r["envelope_chord"]})
        fields = ["distance", "abs_c", "envelope", "ratio"]
    elif args.kind == "envelope":
        fields = ["separation", "abs_correlation", "envelope_chord",
                  "envelope_euclidean"]
        rows = [{"separation": r["y_sites"][0][0],
                 **{k: r[k] for k in fields[1:]}}
                for r in bounds.verify_theorem_envelope(
                    spec, params, u, _separation_queries(spec))]
    elif args.kind == "beta_sweep":
        fields = ["beta", "worst_envelope_ratio", "l1_sum", "l1_bound", "D",
                  "hubbard_threshold", "scaled_threshold"]
        for factor in (1, 2, 4, 8):
            p = dataclasses.replace(params, beta=params.beta * factor)
            cs = covariance.CovarianceSpec(spec, p)
            grid = TimeGrid(p.beta, max(args.half_steps, 2))
            l1 = covariance.l1_bound_check(cs, grid)
            threshold = model.hubbard_threshold(p, spec.d)
            rows.append({
                "beta": p.beta,
                "worst_envelope_ratio": covariance.decay_envelope_check(
                    cs, grid)["worst_ratio_chord"],
                "l1_sum": l1["lhs"], "l1_bound": l1["rhs"],
                "D": bounds.covariance_l1_D(cs, grid),
                "hubbard_threshold": threshold,
                "scaled_threshold": threshold * p.beta ** (spec.d + 1)})
    else:  # taylor
        s, p, hub, grid = _taylor_case(params)
        rep = bounds.verify_taylor_bounds(s, p, grid, hub, _PAIR_QUERY,
                                          args.m_max)
        rows = [{"m": r["m"], "abs_bm": r["abs_coefficient"], "bound": r["bound"],
                 "ratio": r["abs_coefficient"] / r["bound"]} for r in rep["b_rows"]]
        fields = ["m", "abs_bm", "bound", "ratio"]
    if args.format == "json":
        _write_report(args, {"kind": args.kind, "rows": rows})
    else:
        _write_csv(args, fields, rows)
    return 0


def _checked(convert, ok, rule):
    """An argparse type: convert the text, then reject values failing `ok`."""
    def check(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    check.__name__ = convert.__name__  # argparse: "invalid int value: ..."
    return check


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_NONNEGATIVE_INT = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE_FLOAT = _checked(float, lambda v: 0.0 < v < math.inf,
                          "positive and finite")
_FINITE_FLOAT = _checked(float, math.isfinite, "finite")


def _add_model_flags(p, default_format):
    """The flags verify and table share: the model, the grid, the output."""
    p.add_argument("--model", help="model description JSON; excludes "
                   + ", ".join(MODEL_FLAGS))
    unset = argparse.SUPPRESS  # MODEL_FLAGS: DEFAULTS fill in the unset
    p.add_argument("--d", type=_POSITIVE_INT, default=unset)
    p.add_argument("--L", type=_POSITIVE_INT, default=unset)
    p.add_argument("--t", type=_FINITE_FLOAT, default=unset)
    p.add_argument("--t-prime", type=_FINITE_FLOAT, default=unset)
    p.add_argument("--mu", type=_FINITE_FLOAT, default=unset)
    p.add_argument("--beta", type=_POSITIVE_FLOAT, default=unset)
    p.add_argument("--half-steps", type=_POSITIVE_INT,
                   default=DEFAULTS["half_steps"],
                   help="grid frequency h = 2*half_steps/beta")
    p.add_argument("--m-max", type=_NONNEGATIVE_INT, default=DEFAULTS["m_max"])
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=default_format)
    p.add_argument("--coupling-fraction", type=_FINITE_FLOAT, default=unset,
                   help="default-model |U| as a fraction of the decay threshold")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermidecay",
        description="Verify thermal correlation decay bounds for lattice "
                    "fermions at desk scale (defaults: d=1, L=4, t=1, t'=0, "
                    "mu=0.2, beta=1).")
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("model-validate", help="parse and validate a model file")
    pv.add_argument("--model", required=True, help="model description JSON")
    pv.add_argument("--out", help="output path (default stdout)")
    ps = sub.add_parser("verify", help="run a verification suite")
    ps.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    _add_model_flags(ps, default_format="json")
    ps.add_argument("--trials", type=_POSITIVE_INT, default=DEFAULTS["trials"])
    ps.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    pt = sub.add_parser("table", help="emit CSV/JSON data tables")
    pt.add_argument("--kind", required=True,
                    choices=("covariance_decay", "envelope", "taylor",
                             "beta_sweep"))
    _add_model_flags(pt, default_format="csv")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    given = [f for f in MODEL_FLAGS if hasattr(args, f[2:].replace("-", "_"))]
    if args.model and given:
        print(f"error: --model excludes {' '.join(given)}", file=sys.stderr)
        return 2
    command = {"model-validate": cmd_model_validate, "verify": cmd_verify,
               "table": cmd_table}[args.command]
    try:
        if args.out:
            _check_out(args.out)
        return command(args)
    except (model.ModelFileError, OSError) as exc:  # or an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except model.HermiticityError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except model.GuardError as exc:  # a guard refused the input
        print(f"aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
