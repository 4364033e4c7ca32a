import argparse
import csv
import itertools
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fermidecay import cli, fock
from fermidecay.cli import main
from fermidecay.lattice import DOWN, UP, LatticeSpec
from fermidecay.model import (
    GuardError,
    ModelFileError,
    ModelParams,
    check_smallness,
    density_density_interaction,
    hubbard_interaction,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    spin_field_interaction,
    spin_spin_interaction,
)

ROOT = Path(__file__).resolve().parent.parent
MODEL = ROOT / "models" / "hubbard_chain_L4.json"
# a nearest-neighbour spin-spin chain at 0.9 of its general threshold
SPIN_SPIN_MODEL = ROOT / "models" / "spin_spin_chain_L4.json"


@pytest.fixture
def hubbard_file(tmp_path):
    path = tmp_path / "hubbard.json"
    save_model(path, LatticeSpec(d=1, L=4),
               ModelParams(t=1.0, mu=0.2, beta=1.0),
               hubbard_interaction(1e-4, d=1))
    return path


def test_model_validate_ok(hubbard_file, capsys):
    assert main(["model-validate", "--model", str(hubbard_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "smallness_hubbard" in out


def test_model_validate_writes_out(hubbard_file, tmp_path, capsys):
    out = tmp_path / "validate.json"
    assert main(["model-validate", "--model", str(hubbard_file),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert "smallness_hubbard" in json.loads(out.read_text())


def test_model_validate_hermiticity_violation(tmp_path, capsys):
    data = model_to_dict(LatticeSpec(d=1, L=4), ModelParams(),
                         hubbard_interaction(0.1, d=1))
    data["interaction"][0]["entries"][0]["im"] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["model-validate", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert "order 2 entry" in err


def test_table_hermiticity_violation(tmp_path, capsys):
    # the non-hermitian file of test_model_validate_hermiticity_violation
    data = model_to_dict(LatticeSpec(d=1, L=4), ModelParams(),
                         hubbard_interaction(0.1, d=1))
    data["interaction"][0]["entries"][0]["im"] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "taylor.csv"
    rc = main(["table", "--kind", "taylor", "--model", str(path),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant violation:") and "order 2 entry" in err
    assert not out.exists()


def test_model_validate_reads_the_finite_lattice_norm(tmp_path, capsys):
    # a spin-flip pair written at site 4 of the L = 4 chain sits on site 0,
    # beside the sigma_z field there: both files hold one model
    spec, reports, lhs = LatticeSpec(d=1, L=4), [], []
    for site in (0, 4):
        u = spin_field_interaction({(0,): (0.0, 0.0, 2e-4)})
        u.add(1, (((site,),), (UP,), (DOWN,)), 1e-4)
        u.add(1, (((site,),), (DOWN,), (UP,)), 1e-4)
        path = tmp_path / f"flip_at_{site}.json"
        save_model(path, spec, ModelParams(), u)
        assert main(["model-validate", "--model", str(path)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        lhs.append(check_smallness(u, ModelParams(), spec).lhs)
    assert reports[0] == reports[1] and lhs[0] == lhs[1]
    assert reports[0]["norms"] == {"1": 2e-4}
    assert lhs[0] == reports[0]["smallness_general_R0.5"]["lhs"]
    assert lhs[0] == pytest.approx(16 * 2e-4, rel=1e-12)


def test_theorem_read_from_the_finite_lattice_table(tmp_path, capsys):
    # the on-site entry written at X = ((4,), (0,)) is the on-site term of
    # the L = 4 chain: the copy picks the on-site theorem, as the shipped
    # file does, and reports the same bytes
    data = json.loads(MODEL.read_text())
    data["interaction"][0]["entries"][0]["X"] = [[4], [0]]
    copy = tmp_path / "hubbard_at_4.json"
    copy.write_text(json.dumps(data))
    reports = []
    for i, path in enumerate((MODEL, copy)):
        out = tmp_path / f"theorem_{i}.json"
        assert main(["verify", "--suite", "theorem", "--model", str(path),
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert main(["model-validate", "--model", str(copy)]) == 0
    assert "smallness_hubbard" in json.loads(capsys.readouterr().out)


def test_model_validate_missing_file(tmp_path):
    assert main(["model-validate", "--model", str(tmp_path / "nope.json")]) == 2


def test_verify_deterministic_reports(tmp_path):
    for suite in ("taylor", "detbound", "grassmann", "theorem", "covariance"):
        a, b = tmp_path / f"{suite}_a.json", tmp_path / f"{suite}_b.json"
        for path in (a, b):
            rc = main(["verify", "--suite", suite, "--seed", "7",
                       "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the L = 6 envelope reads the Fock trace on 400-state sectors, whose
    # eigensolves and thermal products change their last bits when OpenBLAS
    # runs them on two threads instead of one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = {}
    for n in (1, 2):
        paths = [tmp_path / f"envelope_{n}.csv", tmp_path / f"theorem_{n}.json"]
        code = ("from fermidecay import cli, fock; "
                f"a = cli.main(['table', '--kind', 'envelope', '--L', '6', "
                f"'--out', {str(paths[0])!r}]); "
                f"b = cli.main(['verify', '--suite', 'theorem', '--L', '6', "
                f"'--out', {str(paths[1])!r}]); "
                "h = fock._blas_handle(); print(a, b, h[0]() if h else 0)")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=dict(env, OPENBLAS_NUM_THREADS=str(n)))
        assert run.returncode == 0, run.stderr
        a, b, threads = map(int, run.stdout.split()[-3:])
        assert (a, b) == (0, 0)
        if threads != n:
            pytest.skip(f"numpy's OpenBLAS runs {threads} threads where "
                        f"OPENBLAS_NUM_THREADS={n} asks for {n}")
        outputs[n] = [p.read_bytes() for p in paths]
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize("argv,code", [
    (["verify", "--suite", "covariance", "--beta", "0"], 2),
    (["verify", "--suite", "covariance", "--L", "0"], 2),
    (["verify", "--suite", "covariance", "--d", "0"], 2),
    (["verify", "--suite", "covariance", "--half-steps", "0"], 2),
    (["verify", "--suite", "detbound", "--trials", "0"], 2),
    (["verify", "--suite", "grassmann", "--m-max", "-1"], 2),
    (["table", "--kind", "covariance_decay", "--beta", "-1"], 2),
    (["table", "--kind", "envelope", "--L", "7"], 1),
    (["verify", "--suite", "covariance", "--t", "nan"], 2),
    (["verify", "--suite", "covariance", "--t-prime", "nan"], 2),
    (["verify", "--suite", "covariance", "--mu", "inf"], 2),
    (["verify", "--suite", "covariance", "--mu=-inf"], 2),
    (["verify", "--suite", "covariance", "--tol", "1e-3"], 2),
    (["verify", "--suite", "theorem", "--coupling-fraction", "nan"], 2),
    (["table", "--kind", "taylor", "--t", "inf"], 2),
    (["verify", "--suite", "taylor", "--out", "{tmp}/missing/r.json"], 2),
    (["verify", "--suite", "taylor", "--format", "csv", "--out", "{tmp}"], 2),
    (["table", "--kind", "taylor", "--out", "{tmp}/missing/t.csv"], 2),
    (["table", "--kind", "taylor", "--format", "json", "--out", "{tmp}"], 2),
    (["model-validate", "--model", "{model}", "--format", "csv", "--L", "9"], 2),
    (["model-validate", "--model", "{model}", "--trials", "5"], 2),
    (["model-validate", "--model", "{model}", "--beta", "2"], 2),
    (["table", "--kind", "bogus"], 2),
    (["verify", "--suite", "exact"], 2),
    (["table", "--kind", "taylor", "--seed", "1"], 2),
    (["table", "--kind", "covariance_decay", "--trials", "5"], 2),
    (["table", "--kind", "beta_sweep", "--L", "0"], 2),
    (["table", "--kind", "beta_sweep", "--out", "{tmp}/missing/s.csv"], 2),
    (["model-validate"], 2),
    (["verify", "--suite", "theorem", "--model", "{model}", "--L", "9"], 2),
    (["verify", "--suite", "covariance", "--model", "{model}",
      "--coupling-fraction", "0.5"], 2),
    (["table", "--kind", "beta_sweep", "--model", "{model}", "--beta", "5",
      "--L", "9", "--mu", "3"], 2),
    (["table", "--kind", "envelope", "--model", "{model}", "--t", "1"], 2),
])
def test_bad_inputs_exit_without_traceback(argv, code, tmp_path, capsys):
    # out-of-range or non-finite flags are usage errors (exit 2, at parse
    # time), and so is an --out that cannot be written (one error line); a
    # guard that refuses a table's size is a failed check (exit 1); a flag
    # a subcommand would ignore is a usage error: model-validate takes
    # --model and --out only, table takes no --trials or --seed, and
    # --model excludes the flags of the default model, even at their defaults
    out = tmp_path / "out"
    own_out = "--out" in argv
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{model}", str(MODEL))
            for a in argv]
    try:
        rc = main(argv if own_out else argv + ["--out", str(out)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.strip()
    assert not out.exists()
    if own_out or (argv[0] != "model-validate" and "--model" in argv):
        assert err.startswith("error: ") and err.count("\n") == 1


_MODEL_FLAGS = ["--model", "--d", "--L", "--t", "--t-prime", "--mu", "--beta",
                "--half-steps", "--m-max", "--out", "--format",
                "--coupling-fraction"]


def test_subcommand_option_sets():
    # adding or dropping a flag is a deliberate edit of this table
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(o for a in p._actions for o in a.option_strings
                            if o not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert options == {
        "model-validate": ["--model", "--out"],
        "verify": sorted(_MODEL_FLAGS + ["--suite", "--trials", "--seed"]),
        "table": sorted(_MODEL_FLAGS + ["--kind"]),
    }
    assert [len(options[c]) for c in ("verify", "table", "model-validate")] \
        == [15, 13, 2]


@pytest.mark.parametrize("path,value", [
    (("beta",), math.nan),
    (("interaction", 0, "entries", 0, "re"), math.nan),
    (("mu",), math.inf),
    (("beta",), True),
    (("mu",), "0.2"),
    (("t",), 10**400),
    (("interaction", 0, "entries", 0, "re"), -10**400),
], ids=["beta_nan", "re_nan", "mu_inf", "beta_bool", "mu_string",
        "t_huge_int", "re_huge_int"])
def test_model_file_refuses_non_finite(path, value, tmp_path, capsys):
    # json.dumps writes NaN and Infinity and json.load accepts them; a model
    # file carrying one is a usage error, as a non-finite flag is; so is a
    # bool or a string, which float() would read as 1.0 or 0.2, and an
    # integer past the float range, where float() raises OverflowError
    _assert_model_file_refused(path, value, "non-finite", tmp_path, capsys)


def test_model_file_refuses_integer_past_digit_limit(tmp_path, capsys):
    # json.load reads a 5000-digit integer with int(), which refuses more
    # digits than sys.get_int_max_str_digits() with a plain ValueError
    data = model_to_dict(LatticeSpec(d=1, L=4), ModelParams(),
                         hubbard_interaction(0.1, d=1))
    data["t"] = "digits"
    model_file = tmp_path / "digits.json"
    model_file.write_text(json.dumps(data).replace('"digits"', "1" * 5000))
    assert main(["model-validate", "--model", str(model_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("path,value", [
    (("L",), 4.7),
    (("L",), True),
    (("d",), 1.5),
    (("interaction", 0, "order"), 2.9),
    (("interaction", 0, "entries", 0, "X", 0, 0), 0.5),
    (("L",), "4"),
], ids=["L_fraction", "L_bool", "d_fraction", "order_fraction",
        "site_fraction", "L_string"])
def test_model_file_refuses_non_integral(path, value, tmp_path, capsys):
    # int() would truncate or read these: L 4.7 to 4, true to 1, order 2.9
    # to 2, "4" to 4
    _assert_model_file_refused(path, value, "non-integral", tmp_path, capsys)


@pytest.mark.parametrize("site", [[0, 1], []], ids=["two", "none"])
def test_model_file_refuses_site_of_wrong_length(site, tmp_path, capsys):
    # on the d = 1 chain a site carries one coordinate; lattice_terms would
    # zip a longer one against the shift and place the term at its first
    _assert_model_file_refused(("interaction", 0, "entries", 0, "X", 0), site,
                               r"order 2 entry 0 .* expected d = 1",
                               tmp_path, capsys)


def test_model_file_refuses_aliasing_entries(tmp_path, capsys):
    # order-1 entries at x = 0 and x = 2 are one site of the L = 2 chain
    data = model_to_dict(LatticeSpec(d=1, L=2), ModelParams(),
                         hubbard_interaction(0.1, d=1))
    entry = {"Xi": ["up"], "Phi": ["up"], "re": 0.01, "im": 0.0}
    data["interaction"] = [{"order": 1, "entries": [
        {"X": [[0]], **entry}, {"X": [[2]], **entry}]}]
    model_file = tmp_path / "alias.json"
    model_file.write_text(json.dumps(data))
    with pytest.raises(ModelFileError, match="aliases"):
        load_model(model_file)
    for argv in (["model-validate"], ["verify", "--suite", "theorem"]):
        assert main([*argv, "--model", str(model_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert "X=((2,),)" in captured.err and "X=((0,),)" in captured.err


def test_model_file_accepts_integral_floats():
    data = model_to_dict(LatticeSpec(d=1, L=4), ModelParams(),
                         hubbard_interaction(0.1, d=1))
    data["L"] = 4.0
    data["interaction"][0]["order"] = 2.0
    spec, _, u = model_from_dict(data)
    assert spec == LatticeSpec(d=1, L=4) and set(u.orders) == {2}


def _assert_model_file_refused(path, value, reason, tmp_path, capsys):
    data = model_to_dict(LatticeSpec(d=1, L=4), ModelParams(),
                         hubbard_interaction(0.1, d=1))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    model_file = tmp_path / "refused.json"
    model_file.write_text(json.dumps(data))
    with pytest.raises(ModelFileError, match=reason):
        load_model(model_file)
    assert main(["model-validate", "--model", str(model_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_det_decay_determinant_nonzero():
    # the b-spins permute the a-spins, so no spin mismatch zeroes the det
    spec = LatticeSpec(d=1, L=4)
    params = ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)
    for seed in range(50):
        (check,) = cli.det_decay(spec, params, seed)
        assert 0.0 < check.computed and check.passed, seed


def test_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["verify", "--suite", "taylor", "--seed", "1", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "quantity,computed,bound,ratio,pass"
    assert len(lines) > 4


def test_verify_theorem_refuses_oversized_coupling(tmp_path):
    # coupling beyond the threshold: smallness check fails, exit code 1
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "theorem", "--coupling-fraction", "1.5",
               "--out", str(out)])
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    names = [c["quantity"] for c in payload["checks"]]
    assert "smallness_hubbard" in names
    assert "theorem_envelope_aborted" in names
    assert not any(n.startswith("envelope_sep") for n in names)


def test_verify_theorem_refuses_oversized_lattice_before_assembly(
        tmp_path, monkeypatch):
    # L = 9 is 18 modes: FockSpace refuses the envelope check before any
    # operator is built, and the suite's other checks still run
    from fermidecay import fock
    modes, assemble = [], fock._assemble

    def recording(n_modes, *args, **kwargs):
        modes.append(n_modes)
        return assemble(n_modes, *args, **kwargs)

    monkeypatch.setattr(fock, "_assemble", recording)
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "theorem", "--L", "9", "--out", str(out)])
    assert rc == 1 and all(m <= fock.MAX_MODES for m in modes)
    checks = json.loads(out.read_text())["checks"]
    (aborted,) = [c for c in checks if not c["pass"]]
    assert aborted["quantity"] == "theorem_envelope_aborted"
    assert aborted["computed"] == "18 modes exceed the 12-mode guard"
    assert aborted["bound"] is None
    assert len(checks) == 8


def test_verify_refusal_aborts_one_check(tmp_path, monkeypatch):
    # a check that refuses its input gives one <check>_aborted row, and the
    # other checks of its suite still run
    def det_decay(*args):
        raise GuardError("probe")

    monkeypatch.setattr(cli, "det_decay", det_decay)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "covariance", "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 20
    (aborted,) = [c for c in checks if not c["pass"]]
    assert aborted == {"quantity": "det_decay_aborted", "computed": "probe",
                       "bound": None, "ratio": None, "pass": False}
    assert checks[-2] is aborted


def test_fourier_check_refused_before_allocating(tmp_path, monkeypatch):
    # at L = 100000 the dense hopping matrix alone would take 74.5 GiB: the
    # site guard refuses the check first, as its own aborted row
    def no_allocation(*args):
        raise AssertionError("hopping matrix built past the site guard")

    monkeypatch.setattr(cli.model, "site_hopping_matrix", no_allocation)
    monkeypatch.setitem(cli.SUITES, "covariance", lambda spec, params, u, args:
                        [partial(cli.fourier_consistency, spec, params)])
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "covariance", "--L", "100000",
                 "--out", str(out)]) == 1
    (row,) = json.loads(out.read_text())["checks"]
    assert row == {"quantity": "fourier_consistency_aborted",
                   "computed": "100000 sites exceed the 2048-site guard of "
                               "the Fourier check",
                   "bound": None, "ratio": None, "pass": False}


def test_covariance_decay_refused_below_the_rounding_floor(tmp_path):
    # at L = 2048 the decay envelopes fall to 3.3e-19, far below the rounding
    # of the momentum sum, where the ratios read 5.4e4 and 7.5e3: that row is
    # a refusal, and every other row of the suite still passes
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "covariance", "--L", "2048",
                 "--out", str(out)]) == 1
    failed = [c["quantity"] for c in json.loads(out.read_text())["checks"]
              if not c["pass"]]
    assert failed == ["covariance_decay_aborted"]


def test_oversized_momentum_sums_refused_without_traceback(tmp_path):
    # at L = 100000 the Fourier check, the contour block and the decay table
    # would each allocate GiBs: under a 3 GiB address-space cap on its own
    # process the suite exits 1 on refusals alone, with no traceback
    out, cap = tmp_path / "report.json", 3 * 2**30
    code = ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "from fermidecay import cli; "
            "sys.exit(cli.main(['verify', '--suite', 'covariance', '--L', "
            f"'100000', '--out', {str(out)!r}]))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                                             PYTHONPATH=str(ROOT / "src")))
    assert run.returncode == 1 and "Traceback" not in run.stderr, run.stderr
    failed = [c["quantity"] for c in json.loads(out.read_text())["checks"]
              if not c["pass"]]
    assert failed == ["fourier_consistency_aborted", "contour_formula_aborted",
                      "covariance_decay_aborted", "det_decay_aborted"]


@pytest.mark.parametrize("fault", [ValueError, np.linalg.LinAlgError])
def test_verify_fault_is_not_a_refusal(fault, tmp_path, monkeypatch):
    # only a GuardError is a refusal: any other exception in a check, a
    # plain ValueError or a LinAlgError (a ValueError subclass) alike, is a
    # fault that leaves main, and no report with an _aborted row is written
    def det_decay(*args):
        raise fault("probe")

    monkeypatch.setattr(cli, "det_decay", det_decay)
    out = tmp_path / "report.json"
    with pytest.raises(fault, match="probe"):
        main(["verify", "--suite", "covariance", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--t", "--beta"])
def test_decay_base_rounding_to_one_aborts(flag, tmp_path, capsys):
    # at t or beta = 1e300, F(pi/(2 beta)) rounds to 1 and the geometric sum
    # factor (g + 1)/(g - 1) has no value: one aborted line, no report
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "covariance", flag, "1e300",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("aborted: geometric sum factor undefined")
    assert err.count("\n") == 1 and not out.exists()


def test_model_file_decay_base_overflow_aborts_its_checks(tmp_path):
    # t = 1e-300 in a file: F(pi/(2 beta)) overflows, and each check that
    # reads F gives its aborted row where a float division failed before
    data = json.loads(MODEL.read_text())
    data["t"] = 1e-300
    path = tmp_path / "tiny_t.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "covariance", "--model", str(path),
                 "--out", str(out)]) == 1
    checks = {c["quantity"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["covariance_decay_aborted"]["computed"].startswith(
        "decay base overflows")


@pytest.mark.parametrize("argv", [["--suite", "theorem", "--L", "1"],
                                  ["--suite", "all", "--d", "3", "--L", "1"]])
def test_verify_one_site_lattice(argv, tmp_path):
    # on one site the query from site 0 to site 1 would be the site-0
    # density, which is balanced: the trivial-hopping check runs on L >= 2
    out = tmp_path / "report.json"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    (row,) = [c for c in json.loads(out.read_text())["checks"]
              if c["quantity"] == "trivial_hopping_vanishing"]
    assert row["pass"] and row["computed"] <= 1e-12


def test_verify_covariance_underflow_aborts_det_identity_alone(tmp_path):
    # at beta = 250 det C_h underflows: the det identity refuses, and the
    # twelve other covariance rows are still computed
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "covariance", "--beta", "250",
                 "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    names = [c["quantity"] for c in checks]
    assert len(names) == 13 and names[:2] == ["fourier_consistency",
                                              "det_identity_aborted"]
    assert checks[1]["computed"].startswith("determinant underflow")
    assert names[-1] == "free_fermion_consistency"


@pytest.mark.parametrize("argv", [["--mu", "300", "--beta", "3"],
                                  ["--mu", "800"]])
def test_verify_detbound_non_finite_determinant_aborts(argv, tmp_path):
    # NaN determinants of denormal blocks are a refusal, not a passing scan
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "detbound", *argv,
                 "--out", str(out)]) == 1
    (row,) = json.loads(out.read_text())["checks"]
    assert row["quantity"] == "det_bound_aborted"
    assert row["computed"].startswith("non-finite determinant at n = 2, shift")


def _nan_on_call(real, k, key):
    """real, with NaN for its result (or for the result's entry key) on its
    k-th call, counted from 0."""
    calls = itertools.count()

    def planted(*args, **kwargs):
        out = real(*args, **kwargs)
        if next(calls) != k:
            return out
        return math.nan if key is None else {**out, key: math.nan}
    return planted


def _nan_at_entry(real, k):
    """real, with NaN for the k-th entry, counted from 0 in row-major order,
    of its array or list result: a scan evaluated in one call."""
    def planted(*args, **kwargs):
        out = np.array(real(*args, **kwargs))
        out.flat[k] = math.nan
        return out
    return planted


_P = ModelParams(t=1.0, mu=0.2, beta=1.0)
_NAN_SCANS = {
    "free_fermion_consistency": (
        lambda: cli.free_fermion_consistency(LatticeSpec(d=1, L=4), _P, (UP,)),
        cli.covariance, "covariance_entries", partial(_nan_at_entry, k=5)),
    "det_bound": (
        lambda: cli.det_bound(LatticeSpec(d=1, L=4), _P, 0.7, 4, 0, 1000),
        cli.bounds, "det_bound_sample",
        partial(_nan_on_call, k=7, key="worst_ratio")),
    "wick_vs_berezin": (lambda: cli.wick_vs_berezin(0, 3), cli.grassmann,
                        "berezin_gaussian", partial(_nan_on_call, k=100, key=None)),
    "antisymmetrization": (
        lambda: cli.antisymmetrization(LatticeSpec(d=1, L=2), 0.7, 0),
        cli.model, "table_pinned_norm", partial(_nan_on_call, k=20, key=None)),
    "u1_shift_identity": (lambda: cli.u1_shift_identity(_P, ((2, 2),)),
                          cli.covariance, "u1_shift_identity_check",
                          partial(_nan_on_call, k=1, key=None)),
    "contour_formula": (
        lambda: cli.contour_formula(LatticeSpec(d=1, L=4), _P,
                                    [(1, 0.25), (2, 0.5)]),
        cli.covariance, "contour_formula_check",
        partial(_nan_on_call, k=1, key="deviation")),
    "trivial_hopping_vanishing": (
        lambda: cli.trivial_hopping_vanishing(
            LatticeSpec(d=1, L=4), ModelParams(t=0.0, mu=0.2),
            hubbard_interaction(0.5, d=1),
            [fock.query(((0,),), ((s,),), (UP,), (UP,)) for s in (1, 2)]),
        cli.fock, "correlations", partial(_nan_at_entry, k=1)),
}


@pytest.mark.parametrize("check", sorted(_NAN_SCANS))
def test_nan_mid_scan_fails_the_row(check, monkeypatch):
    # a NaN planted after the first value of a scan reaches the row and
    # fails it; max(worst, nan) would keep worst and pass
    run, module, name, plant = _NAN_SCANS[check]
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    (row,) = [c for c in run() if isinstance(c.computed, float)
              and math.isnan(c.computed)]
    assert not row.passed


def _at_general_threshold(build):
    """build(c) at 0.9 of its general smallness threshold on the L = 4 chain."""
    rep = check_smallness(build(1.0), ModelParams(), LatticeSpec(d=1, L=4))
    return build(0.9 * rep.rhs / rep.lhs)


# L = 4 chain models off the on-site form, and the smallness_general ratio
# each reads; the spin-spin one is the shipped file, whose frozen
# coefficients the general sum must bring to 0.9
_GENERAL_MODELS = {
    "field_1e-7": (lambda: spin_field_interaction(
        {(x,): (0.0, 0.0, 1e-7) for x in range(4)}), None),
    "field_z": (lambda: _at_general_threshold(lambda c: spin_field_interaction(
        {(x,): (0.0, 0.0, c) for x in range(4)})), 0.9),
    "spin_spin": (None, 0.9),
    "density_order3": (lambda: _at_general_threshold(
        lambda c: density_density_interaction(
            {3: {(((1,), (0,), (0,)), (UP, UP, DOWN)): c}})), 0.9),
}


@pytest.mark.parametrize("case", list(_GENERAL_MODELS))
def test_verify_theorem_under_the_general_theorem(case, tmp_path):
    # a model off the on-site form picks the general theorem: its
    # hypothesis row and every envelope row pass
    build, ratio = _GENERAL_MODELS[case]
    path = SPIN_SPIN_MODEL
    if build is not None:
        path = tmp_path / "model.json"
        save_model(path, LatticeSpec(d=1, L=4), ModelParams(), build())
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "theorem", "--model", str(path),
                 "--out", str(out)]) == 0
    checks = {c["quantity"]: c for c in json.loads(out.read_text())["checks"]}
    assert [name for name in checks if name.startswith("envelope_sep")] == [
        f"envelope_sep({-2 * sep},)" for sep in range(4)]
    general = checks["smallness_general"]
    assert general["pass"]
    if ratio is None:  # B sigma_z / 2 on every site: norm 5e-8, lhs 16 * 5e-8
        assert general["computed"] == pytest.approx(8e-7, rel=1e-12)
    else:
        assert general["ratio"] == pytest.approx(ratio, rel=1e-12)


def test_verify_theorem_past_the_general_threshold(tmp_path):
    # a spin-spin model past its general threshold: the hypothesis row fails
    # and the envelope refuses it, the checks on their own fixed models pass
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(model_to_dict(
        LatticeSpec(d=1, L=4), ModelParams(),
        spin_spin_interaction({(1,): 1e-4}, d=1))))
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "theorem", "--model", str(path),
               "--out", str(out)])
    assert rc == 1
    checks = {c["quantity"]: c for c in json.loads(out.read_text())["checks"]}
    failed = [name for name, c in checks.items() if not c["pass"]]
    assert failed == ["smallness_general", "theorem_envelope_aborted"]
    # 2 * 16^2 * ||U_2||, with ||U_2|| = w = 1e-4, against R / (beta K)
    assert checks["smallness_general"]["computed"] == pytest.approx(
        0.0512, rel=1e-12)
    assert checks["smallness_general"]["bound"] == pytest.approx(
        0.010555339261117019, rel=1e-12)
    assert list(checks)[2:] == [
        "schwinger_contour_identity", "trivial_hopping_vanishing",
        "antisym_hubbard_tensor", "antisym_hubbard_norm",
        "antisym_norm_inequality", "lambda_derivative"]


def test_lambda_derivative_refused_when_rounding_swamps_it(tmp_path):
    # at mu = 1e6 the one-site energies reach 2e6, so rounding puts
    # eps max|E| / step = 4.4e-6 into the difference quotient, over the
    # 1e-6 tolerance: the row is a refusal, not a plain FAIL
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "theorem", "--mu", "1e6",
                 "--out", str(out)]) == 1
    failed = [c for c in json.loads(out.read_text())["checks"]
              if not c["pass"]]
    assert [c["quantity"] for c in failed] == ["lambda_derivative_aborted"]
    assert failed[0]["computed"].startswith(
        "finite difference swamped by rounding: floor 4.44e-06")


def test_lambda_derivative_runs_below_the_rounding_floor():
    # at mu = 1e5 the floor is 4.4e-7: the row runs and passes
    (row,) = cli.lambda_derivative(ModelParams(t=1.0, mu=1e5, beta=1.0))
    assert row.name == "lambda_derivative" and row.passed


def test_verify_covariance_reports_the_fock_skip(tmp_path):
    # at L = 7 (14 modes) the Fock trace is refused: the free-fermion row
    # passes and names the refusal, so the row count matches L = 6
    counts = {}
    for L in (6, 7):
        out = tmp_path / f"L{L}.json"
        assert main(["verify", "--suite", "covariance", "--L", str(L),
                     "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        counts[L] = len(checks)
    assert counts == {6: 20, 7: 20}
    assert checks[-1] == {
        "quantity": "free_fermion_consistency", "computed": None,
        "bound": 1e-10, "ratio": None, "pass": True,
        "details": {"skipped": "14 modes exceed the 12-mode guard"}}


def test_table_covariance_decay_row_count(tmp_path):
    out = tmp_path / "decay.csv"
    rc = main(["table", "--kind", "covariance_decay", "--L", "16", "--beta",
               "2", "--mu", "0", "--half-steps", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 18  # header + distances 0..16
    assert lines[0] == "distance,abs_c,envelope,ratio"


def test_table_taylor_rows(tmp_path):
    out = tmp_path / "taylor.csv"
    rc = main(["table", "--kind", "taylor", "--m-max", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + m = 0..3


def test_table_envelope_monotone(tmp_path):
    out = tmp_path / "envelope.csv"
    rc = main(["table", "--kind", "envelope", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    env = [float(r["envelope_euclidean"]) for r in rows]
    assert all(b < a for a, b in zip(env, env[1:]))


def test_table_beta_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["table", "--kind", "beta_sweep", "--L", "4", "--mu", "0",
                 "--half-steps", "4", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["beta"]) for r in rows] == [1.0, 2.0, 4.0, 8.0]
    assert list(rows[0]) == ["beta", "worst_envelope_ratio", "l1_sum",
                             "l1_bound", "D", "hubbard_threshold",
                             "scaled_threshold"]
    for r in rows:
        assert float(r["worst_envelope_ratio"]) <= 1.0
        assert float(r["l1_sum"]) <= float(r["l1_bound"])
        assert float(r["D"]) == pytest.approx(float(r["l1_sum"]) / 2, rel=1e-12)
        assert float(r["scaled_threshold"]) == pytest.approx(
            float(r["hubbard_threshold"]) * float(r["beta"]) ** 2, rel=1e-12)


def test_shipped_model_file_validates():
    for path in (MODEL, SPIN_SPIN_MODEL):
        assert main(["model-validate", "--model", str(path)]) == 0


def test_model_validate_refuses_vanishing_hopping(tmp_path, capsys):
    # t = t' = 0 leaves the decay base of the smallness conditions undefined
    data = json.loads(MODEL.read_text())
    data["t"] = 0.0
    path = tmp_path / "no_hopping.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "validate.json"
    assert main(["model-validate", "--model", str(path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "aborted: decay base undefined: |t| + 2(d-1)|t'| == 0\n")
    assert not out.exists()


def test_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    ran = []
    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name,
                            lambda *a, name=name: ran.append(name) or [])
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        assert main(["verify", "--suite", "all", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and err.count("\n") == 1
    assert ran == []
    monkeypatch.setattr(cli, "_load_or_default", lambda args: ran.append("table"))
    assert main(["table", "--kind", "envelope",
                 "--out", str(tmp_path / "missing" / "t.csv")]) == 2
    assert ran == [] and not (tmp_path / "missing").exists()


@pytest.mark.parametrize("extra", [[], ["--d", "2", "--L", "2"]])
def test_table_envelope_rows_are_the_theorem_checks(extra, tmp_path):
    table, report = tmp_path / "table.json", tmp_path / "report.json"
    assert main(["table", "--kind", "envelope", "--format", "json",
                 "--out", str(table)] + extra) == 0
    assert main(["verify", "--suite", "theorem", "--out", str(report)] + extra) == 0
    rows = json.loads(table.read_text())["rows"]
    checks = [c for c in json.loads(report.read_text())["checks"]
              if c["quantity"].startswith("envelope_sep")]
    d = 2 if extra else 1
    assert len(rows) == len(checks) == (2 if extra else 4)
    for row, check in zip(rows, checks, strict=True):
        sum_diff = (-2 * row["separation"],) + (0,) * (d - 1)
        assert check["quantity"] == f"envelope_sep{sum_diff}"
        assert check["computed"] == row["abs_correlation"]
        assert check["bound"] == row["envelope_chord"]
        assert check["details"]["envelope_euclidean"] == row["envelope_euclidean"]


@pytest.mark.parametrize("case", ["oversized", "spin_spin"])
def test_table_envelope_refuses_outside_the_theorem(case, tmp_path, capsys):
    # the table applies the smallness hypothesis that verify applies: an
    # oversized coupling, or a spin-spin model past its general threshold,
    # aborts with one line and leaves an existing --out untouched
    if case == "oversized":
        extra = ["--coupling-fraction", "1.5"]
    else:
        path = tmp_path / "spin.json"
        path.write_text(json.dumps(model_to_dict(
            LatticeSpec(d=1, L=4), ModelParams(),
            spin_spin_interaction({(1,): 1e-4}, d=1))))
        extra = ["--model", str(path)]
    out = tmp_path / "envelope.csv"
    out.write_text("kept\n")
    assert main(["table", "--kind", "envelope", "--out", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("aborted: ") and err.count("\n") == 1
    assert out.read_text() == "kept\n"


@pytest.fixture(scope="module")
def fresh_process(tmp_path_factory):
    """One fresh interpreter on the package alone: the scipy modules that
    importing it loads; then, with scipy made unimportable, `verify --suite
    all` and the L = 5 Fock model; then the exit code, the scipy modules and
    whether numpy.ma was imported, as the last line of its output."""
    out = tmp_path_factory.mktemp("fresh") / "r.json"
    scipy_keys = ("sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy')")
    code = ("import json, sys; from fermidecay import cli, fock, model; "
            "from fermidecay.lattice import LatticeSpec; "
            f"loaded = {scipy_keys}; sys.modules['scipy'] = None; "
            f"rc = cli.main(['verify', '--suite', 'all', '--out', {str(out)!r}]); "
            "fock.model_system(fock.FockSpace(LatticeSpec(d=1, L=5)), "
            "model.ModelParams(t=1.0, mu=0.2, beta=1.0), "
            "model.hubbard_interaction(0.3, d=1)); "
            f"print(json.dumps([loaded, rc, {scipy_keys}, "
            "'numpy.ma' in sys.modules]))")
    run = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1]), out


def test_runs_with_scipy_unimportable(fresh_process):
    # the runtime needs numpy alone: importing the package loads no scipy,
    # and every suite runs with scipy made unimportable
    (loaded, rc, blocked, _), out = fresh_process
    assert loaded == [] and rc == 0
    assert blocked == ["scipy"]  # only the blocking None entry
    assert json.loads(out.read_text())["passed"] is True


def test_timed_paths_leave_numpy_ma_unimported(fresh_process):
    # a plain np.unique imports numpy.ma on its first call (about 20 ms on
    # numpy 2.4): neither verify nor the L = 5 Fock model may reach one
    (_, rc, _, numpy_ma), _ = fresh_process
    assert rc == 0 and numpy_ma is False
