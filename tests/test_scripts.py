"""Smoke tests for the two scripts under scripts/, called through their main()."""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def detection_sweep():
    return _load("detection_sweep")


def test_detection_sweep_runs(detection_sweep, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert detection_sweep.main(["--trials", "20", "--dims", "4", "--out", str(out)]) == 0
    assert "cells: 5" in capsys.readouterr().out  # one-tp needs d >= 5 at r = 2
    header, *rows = out.read_text().splitlines()
    assert header.split(",") == list(detection_sweep.COLUMNS)
    assert len(rows) == 5


def test_deviation_scores_against_the_analytic_sigma(detection_sweep):
    assert detection_sweep.deviation(1.0, 0.5, 50) == pytest.approx(0.5 / math.sqrt(0.25 / 50))
    assert detection_sweep.deviation(0.5, 0.5, 50) == 0.0


def test_deviation_at_zero_sigma_is_exact_or_infinite(detection_sweep):
    assert detection_sweep.deviation(0.0, 0.0, 50) == 0.0
    assert detection_sweep.deviation(1.0, 1.0, 50) == 0.0
    assert detection_sweep.deviation(0.02, 0.0, 50) == math.inf
    assert detection_sweep.deviation(0.98, 1.0, 50) == math.inf


def test_privacy_audit_runs(capsys):
    assert _load("privacy_audit").main(["--runs", "3"]) == 0
    assert "pairwise secret differences" in capsys.readouterr().out


@pytest.mark.parametrize(
    "script, argv",
    [
        ("detection_sweep", ["--seed", "-1"]),
        ("detection_sweep", ["--dims", "4,x"]),
        ("detection_sweep", ["--dims", "1"]),
        ("detection_sweep", ["--n", "1"]),
        ("detection_sweep", ["--l", "0"]),
        ("privacy_audit", ["--seed", "-1"]),
        ("detection_sweep", ["--dims", "4,1000000000"]),
    ],
)
def test_bad_input_exits_2_with_one_error_line(script, argv, capsys):
    small = ["--trials", "2"] if script == "detection_sweep" else ["--runs", "1"]
    with pytest.raises(SystemExit) as exc:
        _load(script).main(small + argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
