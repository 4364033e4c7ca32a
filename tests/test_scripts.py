"""Smoke runs of the experiment drivers under scripts/, in process."""

import csv
import importlib.util
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, name, argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + argv)
    return module.main()


def test_decay_sweep(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    assert _run(monkeypatch, "decay_sweep", ["--L", "4", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["beta"]) for r in rows] == [1.0, 2.0, 4.0, 8.0]
    assert list(rows[0]) == ["beta", "worst_envelope_ratio", "l1_sum",
                             "l1_bound", "D", "hubbard_threshold",
                             "threshold_times_beta2"]
    for r in rows:
        assert float(r["worst_envelope_ratio"]) <= 1.0
        assert float(r["l1_sum"]) <= float(r["l1_bound"])
        assert float(r["D"]) == pytest.approx(float(r["l1_sum"]) / 2, rel=1e-12)
