"""Mutant catalogue: each case plants one known fault with monkeypatch and
asserts that its named killer passes on the code as it is and fails under
the mutant.  A killer is a `verify` suite that must exit 0, or a Tier-1
test function."""

import contextlib
import dataclasses
import sys
from functools import partial

import numpy as np
import pytest

import test_bounds
import test_cli
import test_covariance
import test_fock
import test_grassmann
import test_model
from conftest import empty_model_caches
from fermidecay import bounds, cli, covariance, fock, grassmann, model
from fermidecay.cli import main
from fermidecay.lattice import LatticeSpec
from fermidecay.model import ModelParams


@pytest.fixture(autouse=True)
def _no_cached_mutant():
    """After each case, drop the lattice orbit tables a mutant may have
    built, so that no later test reads them."""
    yield
    fock._orbits.cache_clear()


def _mutate(monkeypatch, module, name, make):
    """Replace module.name by make(original) in every package and test
    module that holds it, the defining one and those that imported it; then
    empty the Fock model slot, the cached H_0 and the orbit tables, so that
    nothing built before the mutant hides it."""
    original = getattr(module, name)
    mutant = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith(("fermidecay", "test_"))
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, mutant)
    empty_model_caches()
    fock._orbits.cache_clear()


def _assert_killed(monkeypatch, module, name, make, killer):
    killer()
    _mutate(monkeypatch, module, name, make)
    with pytest.raises(AssertionError):
        killer()


def _verify(tmp_path, *argv):
    assert main(["verify", *argv, "--out", str(tmp_path / "r.json")]) == 0


# the values of the params and chain4 fixtures
_threshold_value = partial(test_model.test_check_smallness_hubbard_rhs,
                           ModelParams(), LatticeSpec(d=1, L=4))


def test_decay_base_squared(monkeypatch):
    for killer in (_threshold_value,
                   partial(test_model.test_strip_edge_of_the_decay_base, 1, 4)):
        with monkeypatch.context() as mp:
            _assert_killed(mp, model, "theorem_decay_base",
                           lambda F: lambda params, d: F(params, d) ** 2,
                           killer)


def test_contour_shifts_subtracted(monkeypatch):
    # for n >= 2 the nodes are sums of one shift per circle; with the later
    # circles' shifts subtracted the n = 2 formula misses by 0.17 at m = 1
    def subtracted(nodes):
        def contour_nodes(L, n, radius):
            w1, wt1 = nodes(L, 1, radius)
            total_shift, total_w = w1, wt1
            for _ in range(n - 1):
                total_shift = (total_shift[:, None] - w1[None, :]).reshape(-1)
                total_w = (total_w[:, None] * wt1[None, :]).reshape(-1)
            return total_shift, total_w
        return contour_nodes

    _assert_killed(monkeypatch, covariance, "contour_nodes", subtracted,
                   partial(test_covariance.test_contour_formula_n2, 1,
                           ModelParams(), LatticeSpec(d=1, L=4)))


def test_general_sum_without_factor_l(monkeypatch, tmp_path):
    # check_smallness sums l 16^l ||U_l||: with every norm divided by l the
    # shipped order-2 spin-spin file reads 0.45 of its general threshold,
    # which still passes, so the killer asserts the reported ratio of 0.9
    _assert_killed(monkeypatch, model, "_interaction_norm",
                   lambda norm: lambda u, l: norm(u, l) / l,
                   partial(test_cli.test_verify_theorem_under_the_general_theorem,
                           "spin_spin", tmp_path))


def test_l1_window_one_step_short(monkeypatch):
    def short_window(_):
        def covariance_l1_D(cs, grid):
            T = grid.n_points
            per_dt = covariance.l1_time_sums(cs, grid)[:2 * T - 1]
            return float(np.max(np.convolve(per_dt, np.ones(T - 1),
                                            "valid"))) / grid.h
        return covariance_l1_D

    _assert_killed(monkeypatch, bounds, "covariance_l1_D", short_window,
                   partial(test_bounds.test_covariance_l1_D_matches_matrix_sums,
                           1, 4))


def test_hubbard_threshold_times_ten(monkeypatch):
    _assert_killed(monkeypatch, model, "hubbard_threshold",
                   lambda thr: lambda params, d: 10.0 * thr(params, d),
                   _threshold_value)


def test_prop42_bound_over_hundred(monkeypatch):
    _assert_killed(monkeypatch, bounds, "prop42_bound",
                   lambda bound: lambda m, D, U: bound(m, D, U) / 100.0,
                   test_bounds.test_prop42_bound_values)


def test_observable_without_adjoint(monkeypatch, tmp_path):
    def o_only(_):
        return lambda space, queries: fock._normal_ordered(space, [
            [(q.x_sites, q.y_sites, q.xi_spins, q.phi_spins, 1.0)]
            for q in queries])

    _assert_killed(monkeypatch, fock, "observable_pairs", o_only,
                   partial(_verify, tmp_path, "--suite", "theorem"))


def test_fixed_theta_rule(monkeypatch, tmp_path):
    # without its (pi/L)/radius term the rule gives 16 theta nodes at any
    # beta; at beta = 2 both contour identities already miss their tolerance
    for killer in (partial(_verify, tmp_path, "--suite", "theorem", "--beta", "2"),
                   partial(test_bounds.test_contour_checks_hold_from_high_to_low_temperature,
                           betas=(2,))):
        with monkeypatch.context() as mp:
            _assert_killed(mp, covariance, "THETA_NODES_PER_RATIO",
                           lambda _: 0, killer)


def test_hopping_without_t_prime(monkeypatch, tmp_path):
    # the Fourier row compares the site hopping with E_k, which keeps t'
    def nearest_only(hopping):
        return lambda spec, params: hopping(
            spec, dataclasses.replace(params, t_prime=0.0))

    _assert_killed(monkeypatch, model, "site_hopping_matrix", nearest_only,
                   partial(_verify, tmp_path, "--suite", "covariance", "--d",
                           "2", "--L", "4", "--t-prime", "0.3"))


def test_slot_key_without_interaction(monkeypatch):
    # a slot keyed on the space and parameters alone serves the first u's
    # model to every later u
    _assert_killed(monkeypatch, fock, "_interaction_key",
                   lambda _: lambda u: None,
                   test_fock.test_correlation_follows_the_interaction)


def test_translation_sign_without_parity(monkeypatch):
    # the bare permutation of the modes: its signs differ from the
    # mode-by-mode Jordan-Wigner reference wherever occupied modes wrap
    # around
    def no_parity(translation):
        def bare(spec):
            step, sign = translation(spec)
            return step, np.ones_like(sign)
        return bare

    _assert_killed(monkeypatch, fock, "_translation", no_parity,
                   partial(test_fock.test_translation_matches_mode_loop,
                           (1, 4)))


def test_thread_count_restored_only_on_success(monkeypatch, blas_count):
    # without the finally, an eigensolver that raises leaves the whole
    # process on one BLAS thread
    def on_success_only(_):
        @contextlib.contextmanager
        def scope():
            handle = fock._blas_handle()
            if handle is None:
                yield
                return
            get, put = handle
            before = get()
            put(1)
            yield
            put(before)
        return scope

    _assert_killed(monkeypatch, fock, "_serial_blas", on_success_only,
                   partial(test_fock.test_thread_count_restored_on_error,
                           blas_count, monkeypatch))


def test_slice_without_products(monkeypatch):
    # S = 1 - V/h: the products of two or more Hubbard terms, the strings
    # with more than two creators, are dropped.  The atom's slices hold one
    # term each, so the two-site chain is needed: there the ratio misses by
    # 7.3e-5 at U = 0.1
    def single_terms(normal_ordered):
        return lambda space, groups: normal_ordered(space, [
            [term for term in group if len(term[0]) <= 2] for group in groups])

    _assert_killed(monkeypatch, fock, "_normal_ordered", single_terms,
                   partial(test_grassmann.test_transfer_partition_on_two_sites,
                           ModelParams(), 0.1, 1))


def _wick_vs_berezin_row():
    # the row as `verify --suite grassmann` runs it at the default seed
    (row,) = cli.wick_vs_berezin(0, 3)
    assert row.passed, row.row()


def test_plan_without_canonical_sign(monkeypatch):
    # a plan whose coefficients lose (-1)^{k(k-1)/2}: every drawn monomial
    # of degree 2 or 3 in each family changes sign, and the row reads 63 to
    # 93 at seeds 0, 7 and 2024 against 1e-12; the partition rows see it as
    # well, but only this row ties the sign to the Berezin expansion
    def unsigned(subset_plan):
        def plan(seeds, monomials):
            p = subset_plan(seeds, monomials)
            return dataclasses.replace(p, groups=tuple(
                (depth, rows, cols,
                 -coeffs if rows.shape[1] * (rows.shape[1] - 1) // 2 % 2
                 else coeffs)
                for depth, rows, cols, coeffs in p.groups))
        return plan

    _assert_killed(monkeypatch, grassmann, "_subset_plan", unsigned,
                   _wick_vs_berezin_row)
