"""Closed-form analytic bounds evaluated as numbers, next to computed values.

Covers the 4^n determinant bound (base DET_BOUND_B) on inner-product-weighted
covariance blocks and its decaying form on point pairs, the l1 covariance
integral, the two Taylor-coefficient bounds, and the decay envelope of the main
theorems, written once in verify_theorem_envelope: model.check_smallness picks
the theorem that covers the model, checks its hypothesis and gives its prefactor
(chord-distance exponent at finite L, the Euclidean one reported alongside).
"""

from __future__ import annotations

import math

import numpy as np

from . import fock
from .covariance import (
    DET_BLOCK,
    CovarianceSpec,
    chord,
    chord_exponent,
    contour_sum,
    covariance_entries,
    covariance_matrix,
    l1_time_sums,
    site_sum_diff,
)
from .grassmann import SchwingerEngine
from .lattice import LatticeSpec, TimeGrid, enumerate_sites
from .model import (
    GuardError,
    InteractionCoefficients,
    ModelParams,
    check_smallness,
    interaction_norm,
    restrict_interaction,
    theorem_decay_base,
)

DET_BOUND_B = 4.0  # B of the 4^n determinant bound, in every coefficient bound


def det_bound_sample(cs: CovarianceSpec, n: int, vec_dim: int, trials: int,
                     seed: int) -> dict:
    """Randomized scan of |det(<u_j, v_k> C(x_j.., y_k..))| / 4^n.

    Points are uniform over sites, spins and continuous times in [0, beta);
    u_j, v_k are unit vectors in C^m.  Trials are evaluated DET_BLOCK at a
    time, each block from its own RNG stream split off the seed, so results are
    reproducible and a block's draws do not depend on `trials`.  Each block
    draws its values as arrays, puts every covariance entry in one array
    expression and takes one stacked det, so memory does not grow with `trials`.
    A non-finite determinant, which LAPACK returns on blocks with denormal
    entries, is refused with a GuardError.
    """
    sites = np.array(enumerate_sites(cs.spec))
    streams = np.random.SeedSequence(seed).spawn(-(-trials // DET_BLOCK))
    worst = 0.0
    for b, ss in zip(range(0, trials, DET_BLOCK), streams):
        rng = np.random.default_rng(ss)
        shape = (min(DET_BLOCK, trials - b), 2 * n)
        site_idx = rng.integers(len(sites), size=shape)
        spins = rng.integers(2, size=shape)
        times = rng.uniform(0.0, cs.params.beta, size=shape)
        # real and imaginary parts of U, then of V
        g = rng.normal(size=(2, 2, shape[0], n, vec_dim))
        U, V = g[:, 0] + 1j * g[:, 1]
        U /= np.linalg.norm(U, axis=2, keepdims=True)
        V /= np.linalg.norm(V, axis=2, keepdims=True)
        # C(left_j, right_k) with the first n points on the left, the last n right
        x = sites[site_idx]
        C = covariance_entries(cs, x[:, None, n:] - x[:, :n, None],
                               times[:, None, n:] - times[:, :n, None])
        C = np.where(spins[:, :n, None] == spins[:, None, n:], C, 0.0)
        M = np.einsum("tjm,tkm->tjk", U, V.conj()).conj() * C
        with np.errstate(divide="ignore", invalid="ignore"):
            dets = np.abs(np.linalg.det(M))
        if not np.all(np.isfinite(dets)):
            raise GuardError(f"non-finite determinant at n = {n}, shift "
                             f"{cs.shift}: covariance entries near underflow")
        worst = max(worst, float(dets.max()))
    return {"worst_ratio": worst / DET_BOUND_B**n, "n": n, "vec_dim": vec_dim,
            "trials": trials}


def det_decay_check(cs: CovarianceSpec, pairs) -> dict:
    """|det(C(a_j, b_k))| against 2 * B^n * F^{-chord exponent of (sum x - sum y)}.

    The points are (site, spin, time); the n x n matrix is one
    covariance_entries call, zero where the spins differ."""
    n = len(pairs)
    (xa, sa, ta), (xb, sb, tb) = (
        [np.array(f) for f in zip(*side)] for side in zip(*pairs))
    C = covariance_entries(cs, xb[None, :] - xa[:, None],
                           tb[None, :] - ta[:, None])
    M = np.where(sa[:, None] == sb[None, :], C, 0.0)
    lhs = abs(complex(np.linalg.det(M)))
    dsum = site_sum_diff([a[0] for a, _ in pairs], [b[0] for _, b in pairs])
    F = theorem_decay_base(cs.params, cs.spec.d)
    bound = 2.0 * DET_BOUND_B**n * F ** (-chord_exponent(cs.spec, dsum))
    return {"abs_det": lhs, "bound": bound, "satisfied": lhs <= bound}


def covariance_l1_D(cs: CovarianceSpec, grid: TimeGrid) -> float:
    """The integral D of the grid covariance: max over pinned points of the
    (1/h)-weighted absolute column/row sums, in both argument orders.

    Every row and every column of C_h sums |C| over all site differences and
    over one window of beta*h consecutive grid time differences, so D is the
    largest such window sum of the translation-invariant lookup table.
    """
    T = grid.n_points
    per_dt = l1_time_sums(cs, grid)[:2 * T - 1]  # dt = (1-T..T-1)/h
    return float(np.max(np.convolve(per_dt, np.ones(T), "valid"))) / grid.h


def prop41_bound(m: int, m_hat: int, D: float,
                 norms: dict[int, float]) -> float:
    """Bound on |b_m| with B = DET_BOUND_B and D the l1 integral of the grid
    covariance: B^m_hat for m=0, else
    (m_hat 4^m_hat B^m_hat / m) (sum_l l 4^l B^{l-1} ||U_l|| D)^m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    B = DET_BOUND_B
    if m == 0:
        return B**m_hat
    rate = sum(l * 4.0**l * B ** (l - 1) * norm * D for l, norm in norms.items())
    return (m_hat * 4.0**m_hat * B**m_hat / m) * rate**m


def prop42_bound(m: int, D: float, U: float) -> float:
    """On-site bound on |c_m| with B = DET_BOUND_B and D the l1 integral:
    (4 B^2/(3m+4)) C(3m+4, m) (D B |U|)^m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    B = DET_BOUND_B
    return (4.0 * B**2 / (3 * m + 4)) * math.comb(3 * m + 4, m) * (D * B * abs(U))**m


def verify_taylor_bounds(spec: LatticeSpec, params: ModelParams,
                         grid: TimeGrid, u: InteractionCoefficients,
                         q, m_max: int) -> dict:
    """|b_m| against the generic coefficient bound; for the on-site model also
    |c_m| (both the full-lattice and the pinned-site interaction variants)
    against the sharper binomial bound."""
    cs = CovarianceSpec(spec, params)
    D = covariance_l1_D(cs, grid)
    finite = restrict_interaction(u, spec)
    norms = {l: interaction_norm(finite, l) for l in finite.orders}
    engine = SchwingerEngine(spec, params, grid, u)
    series = engine.schwinger_series(q, m_max)
    rows = []
    for m in range(m_max + 1):
        bound = prop41_bound(m, q.m_hat, D, norms)
        bm = abs(series[m])
        rows.append({"m": m, "abs_coefficient": bm, "bound": bound,
                     "passed": bm <= bound})
    out = {"D": D, "b_rows": rows}

    U = u.hubbard_coupling()
    if U is not None and q.m_hat == 2:
        c_rows = []
        origin = ((0,) * spec.d,)
        pinned = SchwingerEngine(spec, params, grid, u,
                                 interaction_sites=set(origin))
        for label, ser in (("full", series),
                           ("pinned", pinned.schwinger_series(q, m_max))):
            for m in range(m_max + 1):
                bound = prop42_bound(m, D, U)
                cm = abs(ser[m])
                c_rows.append({"variant": label, "m": m, "abs_coefficient": cm,
                               "bound": bound, "passed": cm <= bound})
        out["c_rows"] = c_rows
    return out


def schwinger_contour_check(spec: LatticeSpec, params: ModelParams,
                            grid: TimeGrid, u: InteractionCoefficients, q,
                            axis: int, n: int = 1) -> dict:
    """The contour representation of the chord-weighted Schwinger function,
    the mechanism behind the decay theorem, checked at eta = 1:

        chord^n S(C_h) = prod_j (L/2pi) int dtheta_j (2pi i)^{-1}
                         oint dw_j (w_j - theta_j)^{-2} S(C_h(sum w_j e_p)).

    Every quadrature node costs one Schwinger evaluation at a shifted
    covariance.  contour_sum hands over DET_BLOCK nodes at a time; one
    covariance_matrix call builds their shifted covariances as a stack, and
    one engine, which compiles the subset plans once, evaluates them
    together.
    """
    engine = SchwingerEngine(spec, params, grid, u)
    dsum = site_sum_diff(q.x_sites, q.y_sites)
    rhs = chord(spec.L, dsum[axis])**n * engine.schwinger_value(q)
    cs = CovarianceSpec(spec, params)
    lhs = contour_sum(lambda stack: engine.schwinger_value(
        q, G=covariance_matrix(cs, grid, stack)), cs, axis, n)
    return {"lhs": lhs, "rhs": complex(rhs), "deviation": abs(lhs - rhs)}


def verify_theorem_envelope(spec: LatticeSpec, params: ModelParams,
                            u: InteractionCoefficients, queries,
                            variant: str | None = None,
                            R: float | None = 0.5) -> list[dict]:
    """Exact-trace correlations against the envelope prefactor * F^(-distance),
    F = F(pi/(2 beta)), for every query.  A row passes against the finite-L
    chord distance of sum(x) - sum(y), what the proofs establish before the
    infinite-volume limit; the printed limit form |sum(x) - sum(y)|/(4 e d)
    is reported alongside.  Prefactor and hypothesis come from the one
    check_smallness report, which picks u's theorem; refuses when it fails."""
    report = check_smallness(u, params, spec, variant=variant, R=R)
    if not report.satisfied:
        raise GuardError(
            f"smallness hypothesis violated: lhs {report.lhs:.6g} vs "
            f"rhs {report.rhs:.6g} ({report.variant})")
    space = fock.FockSpace(spec)
    F = theorem_decay_base(params, spec.d)
    rows = []
    for q, value in zip(queries, fock.correlations(space, params, u, queries)):
        sum_diff = site_sum_diff(q.x_sites, q.y_sites)
        pre = report.envelope_prefactor(q.m_hat)
        env = pre * F ** (-chord_exponent(spec, sum_diff))
        rows.append({
            "x_sites": q.x_sites, "y_sites": q.y_sites,
            "sum_diff": tuple(int(c) for c in sum_diff),
            "correlation": value.real,
            "abs_correlation": abs(value),
            "imag_defect": abs(value.imag),
            "envelope_chord": env,
            "envelope_euclidean": pre * F ** (
                -float(np.linalg.norm(sum_diff)) / (4.0 * math.e * spec.d)),
            "passed": abs(value) <= env,
        })
    return rows
