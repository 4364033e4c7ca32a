import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermidecay import covariance, fock
from fermidecay.bounds import det_decay_check
from fermidecay.covariance import (
    CovarianceSpec,
    _covariance_lookup,
    _dispersions,
    _fermi_factor,
    chord_components,
    contour_formula_check,
    covariance_entries,
    covariance_matrix,
    covariance_value,
    decay_envelope_check,
    det_identity_check,
    gauss_legendre,
    guarded_dispersions,
    l1_bound_check,
    matsubara_check,
    matsubara_frequencies,
    shift_radius,
    u1_shift_identity_check,
)
from fermidecay.grassmann import SchwingerEngine
from fermidecay.lattice import (
    DOWN,
    UP,
    LatticeSpec,
    TimeGrid,
    enumerate_sites,
    momentum_grid,
)
from fermidecay.model import GuardError, ModelParams
from test_model import dispersion_reference


def test_single_momentum_equal_times(params, atom):
    cs = CovarianceSpec(atom, params)
    E0 = dispersion_reference((0.0,), params, 1).real
    v = covariance_value(cs, ((0,), UP, 0.0), ((0,), UP, 0.0))
    assert v == pytest.approx(1.0 / (1.0 + math.exp(params.beta * E0)))


def test_spin_offdiagonal_zero(params, chain4):
    cs = CovarianceSpec(chain4, params)
    assert covariance_value(cs, ((0,), UP, 0.1), ((2,), DOWN, 0.7)) == 0.0


def test_time_translation_only_differences(params, chain4):
    cs = CovarianceSpec(chain4, params)
    a = covariance_value(cs, ((0,), UP, 0.1), ((2,), UP, 0.6))
    b = covariance_value(cs, ((0,), UP, 0.3), ((2,), UP, 0.8))
    assert a == pytest.approx(b, abs=1e-14)


def test_covariance_matrix_matches_values(params, chain4):
    grid = TimeGrid(1.0, 2)
    cs = CovarianceSpec(chain4, params)
    M = covariance_matrix(cs, grid)
    # spot-check entries incl. a time difference of beta/2
    pts = [((s,), spin, t) for s in range(4) for spin in (UP, DOWN)
           for t in range(grid.n_points)]
    idx = {p: i for i, p in enumerate(pts)}

    def flat(p):
        (s,), spin, t = p
        return t * chain4.n_modes + 2 * s + spin

    for a in (((0,), UP, 0), ((1,), DOWN, 1), ((3,), UP, 2)):
        for b in (((2,), UP, 2), ((1,), DOWN, 3), ((0,), UP, 0)):
            va = covariance_value(cs, (a[0], a[1], grid.points[a[2]]),
                                  (b[0], b[1], grid.points[b[2]]))
            assert M[flat(a), flat(b)] == pytest.approx(va, abs=1e-13)


def test_cached_arrays_read_only(params, chain4, atom, hubbard_small):
    cs = CovarianceSpec(chain4, params)
    a = ((0,), UP, 0.0)
    before = covariance_value(cs, a, a)
    table, dts = _covariance_lookup(cs, TimeGrid(params.beta, 1))
    op = fock._mode_operators(chain4.n_modes)[0]
    # the engine caches its denominator from G, so a writable G would let
    # numerators and partition() read two different covariances
    engine = SchwingerEngine(atom, params, TimeGrid(params.beta, 1),
                             hubbard_small)
    Z = engine.partition()
    eig = fock.diagonalize(fock.build_hamiltonian(
        fock.FockSpace(LatticeSpec(d=1, L=2)), params, hubbard_small))
    # the per-lattice Fock tables: occupation counts, sector labellings
    # with their layouts, and the H_0 shared by the models of a lattice
    H0 = fock._free_hamiltonian(fock.FockSpace(chain4), params)
    tables = [fock._occupations(chain4.n_modes), H0.rows, H0.cols, H0.vals] + [
        arr for label, sectors, layout in fock._labellings(2**chain4.n_modes)
        for arr in (label, *sectors, *layout)]
    for arr in [guarded_dispersions(cs), table, dts, op.rows, op.cols, op.vals,
                engine.G, *eig.layout, *tables] + [
                    x for pair in eig.pairs for x in pair]:
        with pytest.raises(ValueError, match="read-only"):
            arr *= 0
    assert covariance_value(cs, a, a) == before
    assert engine.partition() == Z
    assert engine.partition(G=engine.G[None])[0] == Z


def test_covariance_matrix_not_hermitian(params):
    # the time kernel is skew across dt = 0, so C_h is generically non-hermitian
    cs = CovarianceSpec(LatticeSpec(d=1, L=2), params)
    M = covariance_matrix(cs, TimeGrid(1.0, 1))
    assert np.max(np.abs(M - M.conj().T)) > 0.1


@settings(max_examples=40)
@given(st.data(), st.integers(1, 2), st.integers(1, 3), st.integers(0, 2))
def test_stacked_covariance_matrix_matches_per_shift_loop(data, d, hs, n_base):
    # one stacked call against one covariance_matrix per shift, each with the
    # stack row added to the base shift
    p = ModelParams(t=1.0, t_prime=0.3, mu=0.2, beta=1.0)
    L = data.draw(st.integers(1, 4 if d == 1 else 3))
    spec = LatticeSpec(d=d, L=L)
    rad = shift_radius(p, d, math.pi / (2.0 * p.beta)) / (n_base + 1)
    shift = st.tuples(st.floats(-math.pi, math.pi), st.floats(-rad, rad))
    base = np.zeros(d, dtype=complex)
    for re, im in data.draw(st.lists(shift, min_size=n_base, max_size=n_base)):
        base[data.draw(st.integers(0, d - 1))] += complex(re, im)
    axis = data.draw(st.integers(0, d - 1))
    w = np.array([complex(re, im) for re, im in
                  data.draw(st.lists(shift, min_size=1, max_size=6))])
    stack = np.outer(w, np.eye(d)[axis])
    cs = CovarianceSpec(spec, p, tuple(base))
    grid = TimeGrid(p.beta, hs)
    stacked = covariance_matrix(cs, grid, stack)
    loop = np.stack([covariance_matrix(
        CovarianceSpec(spec, p, tuple(base + row)), grid) for row in stack])
    assert stacked.shape == loop.shape
    np.testing.assert_allclose(stacked, loop, rtol=1e-13, atol=1e-13)


def test_stacked_guard_checks_every_node(params, chain4):
    # one node of the stack outside the strip |Im E_k| < pi/beta: the call
    # refuses the whole stack and names that node
    grid = TimeGrid(params.beta, 1)
    big = 2.0 * shift_radius(params, 1, math.pi / params.beta)
    w = np.full((8, 1), 0.1j)
    w[5, 0] = 0.05 + 1.2j * big
    with pytest.raises(GuardError, match="k =") as err:
        covariance_matrix(CovarianceSpec(chain4, params), grid, w)
    assert f"shift ({complex(w[5, 0]):.6g})" in str(err.value)
    ok = covariance_matrix(CovarianceSpec(chain4, params), grid,
                           np.delete(w, 5, axis=0))
    assert ok.shape == (7, 16, 16)


@pytest.mark.parametrize("d,shift,stack", [
    (1, (), None), (1, (0.1j, 0.0), None), (2, (0.1j,), None),
    (2, (0.0, 0.1j, 0.0), None),
    # a width-1 stack would broadcast over every axis
    (2, None, [[0.1j]]),
], ids=["1-shift0", "1-shift1", "2-shift2", "2-shift3", "2-stack_width1"])
def test_shift_of_wrong_length_refused(params, d, shift, stack):
    with pytest.raises(ValueError, match=f"expected d = {d}"):
        cs = CovarianceSpec(LatticeSpec(d=d, L=2), params, shift)
        covariance_matrix(cs, TimeGrid(params.beta, 1), stack)


def test_default_shift_is_the_zero_vector():
    # equal shifts are equal cache keys: one _dispersions entry serves both
    spec = LatticeSpec(d=2, L=3)
    p = ModelParams(t=0.9, t_prime=0.1, mu=0.37, beta=1.3)
    default, zero = CovarianceSpec(spec, p), CovarianceSpec(spec, p, (0, 0.0))
    assert default == zero and hash(default) == hash(zero)
    assert default.shift == (0j, 0j)
    before = _dispersions.cache_info()
    assert guarded_dispersions(default) is guarded_dispersions(zero)
    after = _dispersions.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_covariance_matrix_size_guard(params):
    with pytest.raises(ValueError):
        covariance_matrix(CovarianceSpec(LatticeSpec(d=1, L=64), params),
                          TimeGrid(1.0, 32))


def test_guard_reports_offending_momentum(params, chain4):
    big = 2.0 * shift_radius(params, 1, math.pi / params.beta)
    cs = CovarianceSpec(chain4, params, (1j * big,))
    with pytest.raises(GuardError) as err:
        covariance_value(cs, ((0,), UP, 0.0), ((0,), UP, 0.0))
    assert "k =" in str(err.value)


def test_guard_names_the_whole_shift(params):
    # every component of the offending shift, base plus stack row, in .6g
    big = 2.4 * shift_radius(params, 2, math.pi / params.beta)
    spec = LatticeSpec(d=2, L=4)
    cs = CovarianceSpec(spec, params, (0.1, 1j * big))
    with pytest.raises(GuardError) as err:
        guarded_dispersions(cs)
    assert f"shift ({0.1 + 0j:.6g}, {1j * big:.6g})" in str(err.value)
    stack = np.array([[0.0, 0.0], [0.2 + 0.3j, 1j * big]])
    with pytest.raises(GuardError) as err:
        guarded_dispersions(CovarianceSpec(spec, params, (0.1, 0.0)), stack)
    assert f"shift ({0.3 + 0.3j:.6g}, {1j * big:.6g})" in str(err.value)


@settings(max_examples=200)
@given(st.floats(-math.pi, math.pi), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.booleans())
def test_dispersion_imaginary_part_lemma(re_z, fz, fw, tight):
    # |Im z|, |Im w| <= (1/2) log F(r)  ==>  |Im E_{k + z e_p + w e_q}| <= r
    p = ModelParams(t=1.0, t_prime=0.3, mu=0.1, beta=1.0)
    d = 2
    for r in (math.pi / 2, math.pi):
        s = shift_radius(p, d, r)
        z = complex(re_z, fz * s)
        w = complex(-re_z / 2, fw * s)
        spec = LatticeSpec(d=d, L=4)
        for k in ((0.0, 0.0), (math.pi / 2, math.pi), (math.pi, math.pi / 2)):
            E = dispersion_reference(k, p, d, shifts=((z, 0), (w, 1 if tight else 0)))
            assert abs(E.imag) <= r + 1e-12


@settings(max_examples=150)
@given(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.integers(0, 3),
       st.integers(0, 3), st.floats(0.0, 0.99), st.floats(0.0, 0.99))
def test_covariance_bounded_by_one(re_z, im_frac, sa, sb, ta, tb):
    # |C| <= 1 whenever |Im z| <= (1/2) log F(pi/(2 beta))
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    rad = shift_radius(p, 1, math.pi / (2.0 * p.beta))
    cs = CovarianceSpec(LatticeSpec(d=1, L=4), p, (complex(re_z, im_frac * rad),))
    v = covariance_value(cs, ((sa,), UP, ta * p.beta), ((sb,), UP, tb * p.beta))
    assert abs(v) <= 1.0 + 1e-12


def test_det_identity_closed_form_atom(params, atom):
    res = det_identity_check(CovarianceSpec(atom, params), TimeGrid(1.0, 1))
    E0 = dispersion_reference((0.0,), params, 1).real
    assert res["lhs"] == pytest.approx((1.0 + math.exp(E0)) ** (-2), rel=1e-10)


def test_det_nonzero_within_radius(params):
    rad = shift_radius(params, 1, math.pi / params.beta)
    cs = CovarianceSpec(LatticeSpec(d=1, L=2), params, (0.95j * rad,))
    res = det_identity_check(cs, TimeGrid(1.0, 2))
    assert abs(res["lhs"]) > 1e-300


def test_matsubara_frequencies_count():
    g = TimeGrid(1.0, 1)
    np.testing.assert_allclose(matsubara_frequencies(g), [-math.pi, math.pi])
    g = TimeGrid(2.0, 4)
    w = matsubara_frequencies(g)
    assert len(w) == g.n_points
    assert np.all(np.abs(w) < math.pi * g.h)


@pytest.mark.parametrize("L,shift", [(1, None), (2, None), (2, 0.05j)])
def test_matsubara_diagonalization(params, L, shift):
    cs = CovarianceSpec(LatticeSpec(d=1, L=L), params, (shift or 0,))
    res = matsubara_check(cs, TimeGrid(1.0, 1))
    assert res["unitarity_defect"] <= 1e-12
    assert res["max_offdiagonal"] <= 1e-12
    assert res["max_diagonal_deviation"] <= 1e-9


@pytest.mark.parametrize("d,L,axis", [(1, 2, 0), (1, 4, 0), (2, 2, 0), (2, 2, 1)])
def test_u1_shift_identity(params, d, L, axis):
    cs = CovarianceSpec(LatticeSpec(d=d, L=L), params)
    dev = u1_shift_identity_check(cs, TimeGrid(1.0, 1), axis)
    assert dev <= 1e-12


def test_u1_shift_identity_with_base_shift(params):
    cs = CovarianceSpec(LatticeSpec(d=2, L=2), params, (0.1 + 0.05j, 0))
    dev = u1_shift_identity_check(cs, TimeGrid(1.0, 1), 1)
    assert dev <= 1e-12


@pytest.mark.parametrize("d, L", [(1, 4), (1, 7), (2, 4), (3, 3)])
def test_image_identity(d, L):
    # the L lattice is the 2L lattice folded: C_L(x, tau) is the sum of
    # C_2L(x + L eps, tau) over eps in {0, 1}^d, since the image phases sum
    # to 2^d on the L momenta and to 0 on the other 2L momenta; C_L and C_2L
    # differ by 0.14 to 0.20 here, so the identity compares unequal values
    p = ModelParams(t=1.0, t_prime=0.3, mu=0.2, beta=1.0)
    small, large = (CovarianceSpec(LatticeSpec(d=d, L=n), p) for n in (L, 2 * L))
    dx = np.array(enumerate_sites(small.spec), dtype=float)[:, None, :]
    dt = np.array([-0.7, -0.2, 0.0, 0.3, 0.9])
    direct = covariance_entries(small, dx, dt)
    folded = sum(covariance_entries(large, dx + eps, dt)
                 for eps in itertools.product((0, L), repeat=d))
    assert np.max(np.abs(folded - direct)) <= 1e-12
    assert np.max(np.abs(direct - covariance_entries(large, dx, dt))) >= 0.1


def test_contour_formula_zero_chord(params, chain4):
    cs = CovarianceSpec(chain4, params)
    res = contour_formula_check(cs, ((0,), UP, 0.0), ((0,), UP, 0.25),
                                axis=0, n=1)
    assert res["rhs"] == 0.0
    assert abs(res["lhs"]) <= 1e-6


@pytest.mark.parametrize("m", [1, 2, 3, 16, 38, 100, 2516])
def test_gauss_legendre(m):
    # against numpy's companion-matrix leggauss where that is cheap; exact
    # on x^(2k) up to degree 2m - 2, also at m = 2516, the theta rule of the
    # L = 4 chain at beta = 250
    x, w = gauss_legendre(m)
    if m <= 100:
        ref_x, ref_w = np.polynomial.legendre.leggauss(m)
        assert np.max(np.abs(x - ref_x)) <= 1e-15
        assert np.max(np.abs(w - ref_w)) <= 1e-14
    for k in (0, m // 2, m - 1):
        assert w @ x ** (2 * k) == pytest.approx(2.0 / (2 * k + 1),
                                                 rel=1e-12, abs=0.0)


def test_contour_formula_n2(params, chain4):
    cs = CovarianceSpec(chain4, params)
    res = contour_formula_check(cs, ((2,), UP, 0.0), ((0,), UP, 0.1),
                                axis=0, n=2)
    assert res["deviation"] <= 1e-6


def test_contour_formula_with_base_shift(params, chain4):
    rad = 0.5 * shift_radius(params, 1, math.pi / (2 * params.beta))
    cs = CovarianceSpec(chain4, params, (1j * rad,))
    res = contour_formula_check(cs, ((1,), UP, 0.0), ((3,), UP, 0.6),
                                axis=0, n=1, radius=0.25 * rad)
    assert res["deviation"] <= 1e-6


def test_chord_components():
    spec = LatticeSpec(d=1, L=4)
    assert chord_components(spec, (0,))[0] == pytest.approx(0.0)
    assert chord_components(spec, (2,))[0] == pytest.approx(4.0 / math.pi * 2 / 2)
    assert chord_components(spec, (4,))[0] == pytest.approx(0.0)


def test_decay_envelope_chain16():
    p = ModelParams(t=1.0, mu=0.0, beta=2.0)
    cs = CovarianceSpec(LatticeSpec(d=1, L=16), p)
    res = decay_envelope_check(cs, TimeGrid(2.0, 4))
    assert res["worst_ratio_chord"] <= 1.0
    assert res["worst_ratio_reduced"] <= 1.0
    # envelope at zero distance is the constant 2, and |C| <= 1
    assert res["rows"][0]["envelope_chord"] == pytest.approx(2.0)
    assert res["rows"][0]["max_abs_c"] <= 1.0
    # envelope decreases monotonically into the bulk
    envs = [r["envelope_reduced"] for r in res["rows"][:9]]
    assert all(b < a for a, b in zip(envs, envs[1:]))


def test_decay_envelope_with_shift():
    p = ModelParams(t=1.0, mu=0.1, beta=1.0)
    rad = shift_radius(p, 1, math.pi / (2 * p.beta))
    cs = CovarianceSpec(LatticeSpec(d=1, L=8), p, (1j * rad,))
    res = decay_envelope_check(cs, TimeGrid(1.0, 2))
    assert res["worst_ratio_chord"] <= 1.0


def test_decay_envelope_keeps_a_nan_mid_scan(params, monkeypatch):
    # one NaN entry at a middle site difference must reach both worst
    # ratios, where a running Python max would drop it
    cs = CovarianceSpec(LatticeSpec(d=1, L=8), params)
    grid = TimeGrid(params.beta, 2)
    table, dts = _covariance_lookup(cs, grid)
    table = table.copy()
    table[4, 1] = math.nan
    monkeypatch.setattr(covariance, "_covariance_lookup",
                        lambda cs_, grid_: (table, dts))
    res = decay_envelope_check(cs, grid)
    assert math.isnan(res["worst_ratio_chord"])
    assert math.isnan(res["worst_ratio_reduced"])


def test_l1_bound(params):
    p = ModelParams(t=1.0, mu=0.0, beta=1.0)
    cs = CovarianceSpec(LatticeSpec(d=1, L=8), p)
    res = l1_bound_check(cs, TimeGrid(1.0, 2))
    assert res["satisfied"]
    # the bound also holds at the maximal allowed imaginary shift
    rad = shift_radius(p, 1, math.pi / (2 * p.beta))
    cs2 = CovarianceSpec(LatticeSpec(d=1, L=8), p, (1j * rad,))
    res2 = l1_bound_check(cs2, TimeGrid(1.0, 2))
    assert res2["satisfied"]


def l1_bound_reference(cs, grid):
    """Reference: the time-point loop l1_bound_check replaced."""
    spec = cs.spec
    E = guarded_dispersions(cs)
    ks = momentum_grid(spec)
    sites = np.array(enumerate_sites(spec), dtype=float)
    phases = np.exp(1j * (-sites @ ks.T))  # C(x.., 0..): phase e^{i<k, 0-x>}
    total = 0.0
    for t in np.arange(-grid.n_points, grid.n_points) / grid.h:
        vals = _fermi_factor(E, -float(t), cs.params.beta)
        total += float(np.sum(np.abs(phases @ vals))) / spec.n_sites
    return total / grid.h


@pytest.mark.parametrize("d,L", [(1, 1), (1, 2), (1, 3), (1, 5), (2, 2), (2, 3)])
@pytest.mark.parametrize("hs", [1, 2, 3])
@pytest.mark.parametrize("shifted", [False, True])
def test_l1_bound_matches_time_loop(d, L, hs, shifted):
    p = ModelParams(t=1.0, t_prime=0.2, mu=0.1, beta=1.5)
    rad = shift_radius(p, d, math.pi / (2 * p.beta))
    shift = (0,) * (d - 1) + (0.4 + 0.7j * rad if shifted else 0,)
    cs = CovarianceSpec(LatticeSpec(d=d, L=L), p, shift)
    grid = TimeGrid(p.beta, hs)
    assert l1_bound_check(cs, grid)["lhs"] == pytest.approx(
        l1_bound_reference(cs, grid), rel=1e-12, abs=0.0)


def test_l1_bound_beta_scaling():
    # rhs grows like beta^{d+1} within a bounded ratio over beta in [1, 8]
    vals = []
    for beta in (1.0, 2.0, 4.0, 8.0):
        p = ModelParams(t=1.0, mu=0.0, beta=beta)
        res = l1_bound_check(CovarianceSpec(LatticeSpec(d=1, L=4), p),
                             TimeGrid(beta, 2))
        vals.append(res["rhs"] / beta**2)
    assert max(vals) / min(vals) < 10.0


def test_det_decay_check(params, rng):
    spec = LatticeSpec(d=1, L=8)
    cs = CovarianceSpec(spec, params)
    sites = enumerate_sites(spec)
    for n in (1, 3):
        pairs = []
        for _ in range(n):
            a = (sites[int(rng.integers(8))], UP, float(rng.uniform(0, 1)))
            b = (sites[int(rng.integers(8))], UP, float(rng.uniform(0, 1)))
            pairs.append((a, b))
        res = det_decay_check(cs, pairs)
        assert res["satisfied"]
    # coincident points: rank-deficient but still below 2 * 4^n
    a = ((0,), UP, 0.3)
    res = det_decay_check(cs, [(a, a), (a, a)])
    assert res["abs_det"] <= 2.0 * 16.0


def test_dispersion_imaginary_lemma_thousand_samples():
    # the seeded bulk scan: 1000 (z, w) pairs at both radii pi/(2 beta), pi/beta
    p = ModelParams(t=1.0, t_prime=0.4, mu=0.3, beta=1.0)
    d, L = 2, 4
    rng = np.random.default_rng(77)
    ks = [tuple(2 * math.pi * n / L for n in (a, b))
          for a in range(L) for b in range(L)]
    for r in (math.pi / (2 * p.beta), math.pi / p.beta):
        s = shift_radius(p, d, r)
        for _ in range(500):
            z = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-s, s))
            w = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-s, s))
            pax, qax = int(rng.integers(d)), int(rng.integers(d))
            for k in ks:
                E = dispersion_reference(k, p, d, shifts=((z, pax), (w, qax)))
                assert abs(E.imag) <= r + 1e-12


def test_det_identity_two_axis_shifts(params):
    # z e_p + w e_q with p != q in d = 2
    spec = LatticeSpec(d=2, L=2)
    cs = CovarianceSpec(spec, params, (0.1j, 0.2 - 0.05j))
    res = det_identity_check(cs, TimeGrid(params.beta, 1))
    assert res["relative_error"] <= 1e-8
    res2 = matsubara_check(cs, TimeGrid(params.beta, 1))
    assert res2["max_offdiagonal"] <= 1e-9
    assert res2["max_diagonal_deviation"] <= 1e-9


def test_time_antiperiodicity(params, chain4):
    # the two-branch kernel satisfies C(dt - beta) = -C(dt) for dt in (0, beta],
    # which is what extends the l1 sum over the doubled grid
    cs = CovarianceSpec(chain4, params)
    for dt in (0.25, 0.5, 1.0):
        for dist in (0, 1, 2):
            a = covariance_value(cs, ((0,), UP, 0.0), ((dist,), UP, dt))
            b = covariance_value(cs, ((0,), UP, 0.0), ((dist,), UP, dt - params.beta))
            assert a == pytest.approx(-b, abs=1e-13)


def test_det_identity_large_grid(params):
    # N = 64: the identity stays at machine precision, and the determinant is
    # grid-independent (the closed form depends only on the dispersions)
    vals = []
    for hs in (4, 8):
        cs = CovarianceSpec(LatticeSpec(d=1, L=2), params)
        res = det_identity_check(cs, TimeGrid(params.beta, hs))
        assert res["relative_error"] <= 1e-12
        vals.append(res["lhs"])
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    res = matsubara_check(CovarianceSpec(LatticeSpec(d=1, L=4), params),
                          TimeGrid(params.beta, 4))
    assert res["max_offdiagonal"] <= 1e-12
    assert res["max_diagonal_deviation"] <= 1e-12


def test_det_identity_underflow_reported():
    # very low temperature on a long chain: |det C_h| leaves double range
    p = ModelParams(t=1.0, mu=0.2, beta=100.0)
    cs = CovarianceSpec(LatticeSpec(d=1, L=16), p)
    with pytest.raises(GuardError, match="underflow"):
        det_identity_check(cs, TimeGrid(100.0, 1))


def test_contour_guard_rejects_oversized_radius(params, chain4):
    cs = CovarianceSpec(chain4, params)
    with pytest.raises(GuardError, match="radius"):
        contour_formula_check(cs, ((1,), UP, 0.0), ((0,), UP, 0.2),
                              axis=0, n=1, radius=1.5)
