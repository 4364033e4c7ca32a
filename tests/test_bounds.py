import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermidecay import bounds, fock
from fermidecay.bounds import (
    DET_BLOCK,
    covariance_l1_D,
    det_bound_sample,
    det_decay_check,
    prop41_bound,
    prop42_bound,
    schwinger_contour_check,
    verify_taylor_bounds,
    verify_theorem_envelope,
)
from fermidecay.covariance import (
    MATRIX_SIZE_LIMIT,
    MAX_CONTOUR_NODES,
    CovarianceSpec,
    contour_formula_check,
    contour_nodes,
    contour_radius,
    covariance_matrix,
    covariance_value,
    l1_bound_check,
    l1_time_sums,
    shift_radius,
)
from fermidecay.grassmann import SchwingerEngine
from fermidecay.lattice import DOWN, UP, LatticeSpec, TimeGrid, enumerate_sites
from fermidecay.model import (
    GuardError,
    InteractionCoefficients,
    ModelParams,
    check_smallness,
    geometric_sum_factor,
    hubbard_interaction,
    hubbard_threshold,
    spin_field_interaction,
)


_P_TP = ModelParams(t=1.0, t_prime=0.3, mu=0.1, beta=1.0)
# the shift radii at pi/(2 beta), beta = 1
_RAD = shift_radius(ModelParams(), 1, math.pi / 2)
_RAD_TP = shift_radius(_P_TP, 2, math.pi / 2)


@pytest.mark.parametrize("shape,p,shift,n,vec_dim,trials,seed,bound", [
    # |C| <= 1 makes the 1x1 ratio at most 1/4
    ((1, 4), ModelParams(), (0,), 1, 1, 100, 11, 0.25 + 1e-12),
    ((1, 4), ModelParams(), (0,), 4, 4, 120, 5, 1.0),
    ((1, 4), ModelParams(), (0.4 + 1j * _RAD,), 4, 4, 120, 5, 1.0),
    ((2, 2), _P_TP, (1j * _RAD_TP, 0.2 - 1j * _RAD_TP), 5, 3, 100, 13, 1.0),
], ids=["n1", "n4", "n4_shifted", "d2_two_axis_shifts"])
def test_det_bound_holds(shape, p, shift, n, vec_dim, trials, seed, bound):
    cs = CovarianceSpec(LatticeSpec(*shape), p, shift)
    assert det_bound_sample(cs, n, vec_dim, trials, seed)["worst_ratio"] <= bound


def test_det_bound_block_independent_of_trial_count(params, chain4):
    # each block draws from its own spawned stream, and spawned streams do not
    # depend on how many are spawned, so doubling the trials keeps the first
    # block's samples and the worst ratio cannot fall
    cs = CovarianceSpec(chain4, params)
    for n in (1, 2, 3):
        one = det_bound_sample(cs, n, n, DET_BLOCK, seed=17)["worst_ratio"]
        two = det_bound_sample(cs, n, n, 2 * DET_BLOCK, seed=17)["worst_ratio"]
        assert one <= two


@settings(max_examples=30)
@given(st.sampled_from([(1, 4), (2, 2), (2, 3)]), st.integers(1, 4), st.data())
def test_det_decay_check_matches_entry_loop(shape, n, data):
    # the one covariance_entries call against the n x n matrix of
    # covariance_value entries it replaced, unequal spins included
    spec = LatticeSpec(*shape)
    p = ModelParams(t=1.0, t_prime=0.3, mu=0.2, beta=1.0)
    cs = CovarianceSpec(spec, p)
    point = st.tuples(st.sampled_from(enumerate_sites(spec)),
                      st.sampled_from((UP, DOWN)),
                      st.floats(0.0, p.beta, exclude_max=True))
    pairs = [(data.draw(point), data.draw(point)) for _ in range(n)]
    M = np.array([[covariance_value(cs, a, b) for _, b in pairs]
                  for a, _ in pairs], dtype=complex)
    got = det_decay_check(cs, pairs)["abs_det"]
    assert got == pytest.approx(abs(complex(np.linalg.det(M))), rel=1e-12)


def _det_bound_sample_loop(cs, n, vec_dim, trials, seed, block):
    """Reference: the trial-by-trial, entry-by-entry form of det_bound_sample.

    It draws from the same streams, one per `block` trials in the order
    sites, spins, times, then the real and imaginary parts of U and V.
    """
    sites = enumerate_sites(cs.spec)
    streams = np.random.SeedSequence(seed).spawn(-(-trials // block))
    worst = 0.0
    for b, ss in zip(range(0, trials, block), streams):
        rng = np.random.default_rng(ss)
        shape = (min(block, trials - b), 2 * n)
        site_idx = rng.integers(len(sites), size=shape)
        spins = rng.integers(2, size=shape)
        times = rng.uniform(0.0, cs.params.beta, size=shape)
        g = rng.normal(size=(2, 2, shape[0], n, vec_dim))
        for t in range(shape[0]):
            # (site, spin, time) per point
            pts = [(sites[int(site_idx[t, p])], int(spins[t, p]),
                    float(times[t, p])) for p in range(2 * n)]
            left, right = pts[:n], pts[n:]
            U = g[0, 0, t] + 1j * g[0, 1, t]
            V = g[1, 0, t] + 1j * g[1, 1, t]
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            M = np.array([[(U[j] @ V[k].conj()).conjugate()
                           * covariance_value(cs, left[j], right[k])
                           for k in range(n)] for j in range(n)])
            worst = max(worst, abs(complex(np.linalg.det(M))) / 4.0**n)
    return worst


@settings(max_examples=40)
@given(st.integers(1, 6), st.data(), st.integers(0, 2), st.integers(0, 2**32))
def test_det_bound_sample_matches_loop(n, data, choice, seed):
    # the three shift choices of suite_detbound; 40 trials make an all-singular
    # sample (worst ratio pure rounding noise) vanishingly rare.  A small block
    # size makes most examples span several blocks, a ragged last one included.
    vec_dim = data.draw(st.integers(1, n))
    block = data.draw(st.integers(1, 64))
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)
    rad = shift_radius(p, 1, math.pi / (2 * p.beta))
    shift = [(0,), (1j * rad,), (0.7 - 1j * rad,)][choice]
    cs = CovarianceSpec(LatticeSpec(d=1, L=4), p, shift)
    with mock.patch.object(bounds, "DET_BLOCK", block):
        got = det_bound_sample(cs, n, vec_dim, 40, seed)["worst_ratio"]
    ref = _det_bound_sample_loop(cs, n, vec_dim, 40, seed, block)
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_det_bound_sample_memory_bounded(params):
    # peak traced memory must not grow with the number of trials
    cs = CovarianceSpec(LatticeSpec(d=2, L=4), params)
    peaks = []
    for trials in (bounds.DET_BLOCK, 4 * bounds.DET_BLOCK):
        tracemalloc.start()
        det_bound_sample(cs, 6, 6, trials, seed=3)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_det_bound_sample_refuses_non_finite_determinant():
    # at mu = 800 the sampled entries reach the denormal range, where LAPACK's
    # det returns NaN; a running max would have dropped it and passed
    cs = CovarianceSpec(LatticeSpec(d=1, L=4),
                        ModelParams(t=1.0, mu=800.0, beta=1.0))
    assert det_bound_sample(cs, 2, 2, 55, 2002)["worst_ratio"] < 1e-70
    with pytest.raises(GuardError,
                       match=r"non-finite determinant at n = 3, shift \(0j,\)"):
        det_bound_sample(cs, 3, 3, 55, 2003)


def test_covariance_l1_D_properties(params):
    # single site: the pinned sum is just the time sum of |C|
    grid = TimeGrid(1.0, 2)
    csa = CovarianceSpec(LatticeSpec(d=1, L=1), params)
    direct = sum(abs(covariance_value(csa, ((0,), UP, t), ((0,), UP, 0.0)))
                 for t in grid.points) / grid.h
    assert covariance_l1_D(csa, grid) == pytest.approx(direct, abs=1e-12)


def covariance_l1_D_reference(cs, grid):
    """Reference: D as the largest absolute row or column sum of C_h."""
    M = covariance_matrix(cs, grid)
    col = float(np.max(np.sum(np.abs(M), axis=0))) / grid.h
    row = float(np.max(np.sum(np.abs(M), axis=1))) / grid.h
    return max(col, row)


@pytest.mark.parametrize("d,L", [(1, L) for L in range(1, 6)]
                         + [(2, L) for L in range(1, 6)])
def test_covariance_l1_D_matches_matrix_sums(d, L):
    # and stays below its closed form 4 beta K^d, up to the full shift radius
    p = ModelParams(t=1.0, t_prime=0.2, mu=0.1, beta=1.5)
    rad = shift_radius(p, d, math.pi / (2 * p.beta))
    closed = 4.0 * p.beta * geometric_sum_factor(p, d)
    for hs in (1, 2, 3):
        for z in (0, 0.4 + 0.7j * rad, 1j * rad):
            cs = CovarianceSpec(LatticeSpec(d=d, L=L), p, (0,) * (d - 1) + (z,))
            grid = TimeGrid(p.beta, hs)
            D = covariance_l1_D(cs, grid)
            assert D == pytest.approx(covariance_l1_D_reference(cs, grid),
                                      rel=1e-12, abs=0.0)
            assert D <= closed


@settings(max_examples=40)
@given(st.sampled_from([(1, L) for L in range(1, 7)]
                       + [(2, L) for L in range(1, 4)]),
       st.integers(1, 4), st.floats(0.3, 3.0), st.floats(-0.5, 0.5),
       st.booleans(), st.data())
def test_covariance_l1_D_is_half_the_l1_sum(shape, hs, beta, mu, shifted, data):
    # |C(dt - beta)| = |C(dt)|, so every window of beta*h consecutive time
    # differences holds half of the doubled-grid l1 sum
    d, L = shape
    p = ModelParams(t=1.0, t_prime=0.2, mu=mu, beta=beta)
    shift = [0] * d
    if shifted:
        rad = shift_radius(p, d, math.pi / (2 * beta))
        z = (data.draw(st.floats(-1.0, 1.0))
             + 1j * rad * data.draw(st.floats(-0.9, 0.9)))
        shift[data.draw(st.integers(0, d - 1))] = z
    cs = CovarianceSpec(LatticeSpec(d=d, L=L), p, shift)
    grid = TimeGrid(beta, hs)
    assert covariance_l1_D(cs, grid) == pytest.approx(
        0.5 * l1_bound_check(cs, grid)["lhs"], rel=1e-12, abs=0.0)


def test_covariance_l1_D_windows_agree():
    # |C(dt - beta)| = |C(dt)|: all T windows of beta*h consecutive time
    # differences hold one sum, so a window one step shorter is an equivalent
    # mutant of covariance_l1_D
    shapes = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (2, 2), (2, 3), (2, 4),
              (3, 2), (3, 3)]
    for (d, L), beta, t_prime, beta_h in itertools.product(
            shapes, (0.5, 1.0, 4.0), (0.0, 0.3), (2, 4, 8)):
        p = ModelParams(t=1.0, t_prime=t_prime, mu=0.2, beta=beta)
        for z in (0, 0.5j * contour_radius(p, d)):
            cs = CovarianceSpec(LatticeSpec(d=d, L=L), p, (0,) * (d - 1) + (z,))
            T = beta_h
            windows = np.convolve(l1_time_sums(cs, TimeGrid(beta, T // 2))
                                  [:2 * T - 1], np.ones(T), "valid")
            assert len(windows) == T
            assert np.ptp(windows) <= 1e-13 * windows.max()


def test_covariance_l1_D_above_matrix_size_limit(params):
    # N = 2 * 300 * 8 = 4800: no matrix is built, D stays below its closed form
    spec = LatticeSpec(d=1, L=300)
    grid = TimeGrid(params.beta, 4)
    cs = CovarianceSpec(spec, params)
    assert spec.n_modes * grid.n_points > MATRIX_SIZE_LIMIT
    with pytest.raises(ValueError, match="exceeds"):
        covariance_matrix(cs, grid)
    D = covariance_l1_D(cs, grid)
    assert 0 < D <= 4.0 * params.beta * geometric_sum_factor(params, 1)
    assert D <= l1_bound_check(cs, grid)["lhs"]


def test_prop41_bound_values():
    assert prop41_bound(0, 1, 1.0, {}) == 4.0
    assert prop41_bound(0, 3, 1.0, {}) == 64.0
    # m=1, m_hat=1, single l=2 norm: 16 * (2 * 16 * 4 * norm * D)
    val = prop41_bound(1, 1, 1.0, {2: 0.5})
    assert val == pytest.approx(16.0 * (2 * 16 * 4 * 0.5 * 1.0))
    assert prop41_bound(2, 1, 1.0, {2: 0.0}) == 0.0
    with pytest.raises(ValueError):
        prop41_bound(-1, 1, 1.0, {})


def test_prop41_growth_rate():
    norms = {2: 0.3}
    rate = 2 * 16 * 4 * 0.3 * 0.7
    for m in range(2, 6):
        ratio = prop41_bound(m, 1, 0.7, norms) / prop41_bound(m - 1, 1, 0.7, norms)
        assert ratio == pytest.approx(rate * (m - 1) / m)


def test_prop42_bound_values():
    assert prop42_bound(0, 0.6, 0.5) == pytest.approx(16.0)
    # m=1: (4 B^2 / 7) * C(7,1) * (D B |U|) = 4 B^3 D |U|
    assert prop42_bound(1, 0.6, 0.5) == pytest.approx(4 * 4**3 * 0.6 * 0.5)


def coefficient_series_partial(x: float, m_terms: int) -> float:
    """Partial sum of sum_m (4/(3m+4)) C(3m+4, m) x^m, via the term-ratio
    recurrence; at x = 4/27 the full series sums to 81/16."""
    total = 1.0  # m = 0 term: (4/4) C(4,0) = 1
    term = 1.0
    for m in range(m_terms - 1):
        term *= x * (3 * m + 4) * (3 * m + 5) * (3 * m + 6) / (
            (m + 1) * (2 * m + 5) * (2 * m + 6))
        total += term
    return total


def test_coefficient_series_sums_to_81_16():
    # the generating-function value at the radius 4/27 is 81/16
    x = 4.0 / 27.0
    partials = [coefficient_series_partial(x, m) for m in (200, 2000, 20000)]
    assert all(b > a for a, b in zip(partials, partials[1:]))
    assert all(p < 81.0 / 16.0 for p in partials)
    assert abs(partials[-1] - 81.0 / 16.0) < 0.05
    assert abs(partials[-1] - 81.0 / 16.0) < abs(partials[0] - 81.0 / 16.0)


def test_theorem_envelope_values(params, chain4):
    hub = hubbard_interaction(0.9 * hubbard_threshold(params, 1), d=1)
    pair = fock.query(((0,), (0,)), ((0,), (0,)), (UP, DOWN), (UP, DOWN))
    # zero separation: the bare prefactor
    (row,) = verify_theorem_envelope(chain4, params, hub, [pair])
    assert row["sum_diff"] == (0,) and row["envelope_chord"] == 324.0
    (row,) = verify_theorem_envelope(chain4, params, InteractionCoefficients(),
                                     [pair])
    v = row["envelope_chord"]
    assert v == row["envelope_euclidean"]
    assert v == pytest.approx(4**3 - 2 * 4**5 * math.log(0.5), rel=1e-12)
    assert v == pytest.approx(1483.5654257867680, rel=1e-12)
    # envelopes decrease with separation (within the chord monotone range)
    singles = [fock.query(((0,),), ((s,),), (UP,), (UP,)) for s in (1, 2)]
    e1, e2 = (r["envelope_chord"] for r in
              verify_theorem_envelope(chain4, params, hub, singles))
    assert 324.0 > e1 > e2
    with pytest.raises(ValueError):
        verify_theorem_envelope(chain4, params, InteractionCoefficients(),
                                singles, R=1.5)


def test_verify_taylor_bounds_criterion_config():
    spec = LatticeSpec(d=1, L=2)
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    hub = hubbard_interaction(0.1, d=1)
    grid = TimeGrid(1.0, 1)
    q = fock.query(((0,), (0,)), ((1,), (1,)), (UP, DOWN), (UP, DOWN))
    rep = verify_taylor_bounds(spec, p, grid, hub, q, 3)
    assert all(r["passed"] for r in rep["b_rows"])
    assert all(r["passed"] for r in rep["c_rows"])
    assert rep["b_rows"][0]["bound"] == 4.0**2
    # written at X = ((2,), (0,)), the entry is the on-site term at L = 2
    aliased = InteractionCoefficients()
    aliased.add(2, (((2,), (0,)), (UP, DOWN), (UP, DOWN)), 0.1)
    assert verify_taylor_bounds(spec, p, grid, aliased, q, 3) == rep
    # bounds scale with |U|^m and keep holding at 10x the coupling
    rep10 = verify_taylor_bounds(spec, p, grid, hubbard_interaction(1.0, d=1),
                                 q, 3)
    assert all(r["passed"] for r in rep10["b_rows"])
    assert all(r["passed"] for r in rep10["c_rows"])


def _pairs(d, seps):
    origin = (0,) * d
    return [fock.query((origin, origin), (s, s), (UP, DOWN), (UP, DOWN))
            for s in seps]


def _at_threshold(p, d):
    return hubbard_interaction(0.9 * hubbard_threshold(p, d), d=d)


_P2 = ModelParams(t=1.0, t_prime=0.2, mu=0.1, beta=1.0)
_SINGLES = [fock.query(((0,),), ((s,),), (UP,), (UP,)) for s in range(3)]
# l = 1 and l = 2 terms together in the general smallness sum
_MIXED = spin_field_interaction({(0,): (0.0, 0.0, 4e-4)})
_MIXED.add(2, (((0,), (0,)), (UP, DOWN), (UP, DOWN)), 5e-6)
# (lattice, params, u, queries) of each envelope case; u picks its theorem,
# the on-site one for the Hubbard cases and the general one at R = 0.5 else
_ENVELOPE_CASES = {
    "L4": ((1, 4), ModelParams(), _at_threshold(ModelParams(), 1),
           _pairs(1, [(s,) for s in range(3)])),
    # dimension 4096: every separation of the L = 6 chain, within 10 s
    "L6": ((1, 6), ModelParams(), _at_threshold(ModelParams(), 1),
           _pairs(1, [(s,) for s in range(6)])),
    # the d-dependent constants end to end on the 2x2 torus
    "d2": ((2, 2), _P2, _at_threshold(_P2, 2),
           _pairs(2, [(0, 0), (1, 0), (1, 1)])),
    "field": ((1, 4), ModelParams(),
              spin_field_interaction({(0,): (0.0, 0.0, 1e-3)}), _SINGLES),
    "mixed_orders": ((1, 4), ModelParams(), _MIXED, _SINGLES),
    # U = 0: the envelope prefactor trivially dominates the free correlation
    "free": ((1, 4), ModelParams(), InteractionCoefficients(), _SINGLES),
}


@pytest.mark.parametrize("case", list(_ENVELOPE_CASES))
def test_verify_theorem_envelope_holds(case):
    shape, p, u, queries = _ENVELOPE_CASES[case]
    spec = LatticeSpec(*shape)
    start = time.perf_counter()
    assert check_smallness(u, p, spec).satisfied
    rows = verify_theorem_envelope(spec, p, u, queries)
    elapsed = time.perf_counter() - start
    assert all(r["passed"] for r in rows)
    assert all(r["imag_defect"] <= 1e-12 for r in rows)
    if case == "L6":
        assert [r["sum_diff"] for r in rows] == [(-2 * sep,) for sep in range(6)]
        assert elapsed < 10.0, f"L = 6 envelope took {elapsed:.1f}s"
    if case == "free":
        assert all(r["envelope_chord"] >= 4.0 for r in rows)


def test_verify_theorem_envelope_refuses_large_coupling(params):
    spec = LatticeSpec(d=1, L=2)
    U = 2.0 * hubbard_threshold(params, spec.d)
    hub = hubbard_interaction(U, d=1)
    q = fock.query(((0,),), ((0,),), (UP,), (UP,))
    with pytest.raises(ValueError, match="smallness"):
        verify_theorem_envelope(spec, params, hub, [q])


def test_schwinger_contour_identity(params):
    # degenerate chord: the summed separation wraps to zero and both sides
    # vanish (the nondegenerate case is in the beta sweep below)
    q = fock.query(((0,), (0,)), ((1,), (1,)), (UP, DOWN), (UP, DOWN))
    res = schwinger_contour_check(LatticeSpec(d=1, L=2), params,
                                  TimeGrid(1.0, 1), hubbard_interaction(0.1, d=1),
                                  q, axis=0, n=1)
    assert abs(res["rhs"]) <= 1e-15 and abs(res["lhs"]) <= 1e-10


def test_schwinger_contour_guard_per_node(params):
    # eta at a root of the denominator at one node of the default contour
    # past its first DET_BLOCK nodes, but not at the unshifted covariance:
    # the evaluation on the stacked covariances must still refuse that node
    spec = LatticeSpec(d=1, L=2)
    grid = TimeGrid(1.0, 1)
    q = fock.query(((0,),), ((1,),), (UP,), (UP,))
    shifts, _ = contour_nodes(spec.L, 1, contour_radius(params, spec.d))
    node = DET_BLOCK + 17
    assert node < len(shifts)
    engine = SchwingerEngine(spec, params, grid, hubbard_interaction(0.1, d=1))
    G = covariance_matrix(CovarianceSpec(spec, params), grid,
                          shifts[:node + 1, None])
    eta = complex(np.roots(engine.denominator(G)[node][::-1])[0])
    assert abs(engine.partition(eta, G)[node]) < 1e-12
    assert abs(engine.partition(eta)) > 1e-6
    with pytest.raises(GuardError, match="too small"):
        engine.schwinger_value(q, eta, G)


def test_contour_checks_hold_from_high_to_low_temperature(
        betas=(0.05, 0.25, 1, 2, 5, 10, 20, 30)):
    # the strip of analyticity narrows like 1/beta, and contour_nodes sizes
    # the theta rule from it: both contour identities hold from beta = 0.05
    # to 30, on chains and on the d = 2 and d = 3 tori with t' != 0; the
    # mutant catalogue passes fewer betas
    lattices = [(1, 2, 0.0, 30), (1, 4, 0.0, 30), (1, 16, 0.0, 30),
                (2, 4, 0.3, 20), (3, 3, 0.3, 5)]
    for beta in betas:
        for d, L, t_prime, beta_max in lattices:
            if beta > beta_max:
                continue
            p = ModelParams(t=1.0, t_prime=t_prime, mu=0.2, beta=beta)
            origin = (0,) * d
            res = contour_formula_check(
                CovarianceSpec(LatticeSpec(d=d, L=L), p),
                ((1,) + origin[1:], UP, 0.0), (origin, UP, 0.25 * beta),
                axis=0)
            assert res["deviation"] <= 1e-12, (beta, d, L)
    # the case of verify's schwinger_contour_identity row
    spec = LatticeSpec(d=1, L=2)
    q = fock.query(((0,),), ((1,),), (UP,), (UP,))
    for beta in betas:
        p = ModelParams(t=1.0, mu=0.2, beta=beta)
        res = schwinger_contour_check(spec, p, TimeGrid(beta, 1),
                                      hubbard_interaction(0.1, d=1), q, axis=0)
        assert res["deviation"] <= 1e-7, beta


def test_contour_nodes_guard():
    # the node count grows with beta: (theta x circle)^n past
    # MAX_CONTOUR_NODES is refused before any node is built
    cs = CovarianceSpec(LatticeSpec(d=1, L=4),
                        ModelParams(t=1.0, mu=0.2, beta=5.0))
    with pytest.raises(GuardError, match="cap"):
        contour_formula_check(cs, ((2,), UP, 0.0), ((0,), UP, 0.1),
                              axis=0, n=2)
    shifts, _ = contour_nodes(4, 2, contour_radius(ModelParams(), 1, 2))
    assert len(shifts) <= MAX_CONTOUR_NODES
