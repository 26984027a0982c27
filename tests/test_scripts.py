"""Smoke tests for the two scripts under scripts/, called through their main()."""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_texts, unparsable
from qpc_sim.protocol import MAX_DIM, MAX_QUDITS

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


def test_detection_sweep_output_is_pinned(detection_sweep, tmp_path, capsys):
    # 21 runnable cells: d=4 is below one-tp's bound at r=2, and one-tp takes no insider attack
    out = tmp_path / "sweep.csv"
    assert detection_sweep.main(["--trials", "20", "--dims", "2,4,5", "--l", "3", "--seed", "11", "--out", str(out)]) == 0
    *table, written = capsys.readouterr().out.splitlines(keepends=True)
    assert written == f"table written to {out}\n"
    assert hashlib.sha256("".join(table).encode()).hexdigest() == "d92dca6d58f9e40649fe92c31aafcede1e3ee70f33e89ff67fb9795c90b8fe73"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "472b6f8c4e00ad764a421c102a1dc3039918cde6a955662cf5a50710e26e2e30"


def test_sweep_attack_order_is_pinned(detection_sweep):
    # a cell's index fixes its seed, so reordering these ids would change every row's bytes
    assert detection_sweep.ACTIVE_ATTACKS == ("ir-fixed-t1", "ir-fixed-t2", "ir-random", "tp1-mr", "tp2-mr")


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


def test_privacy_audit_report_is_pinned(capsys):
    # the digest of the whole --runs 40 --seed 3 report: headers, every histogram and both leak lines
    assert _load("privacy_audit").main(["--runs", "40", "--seed", "3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "eb734a6214610a4c9302121c0e13abe12cb24b78141b0f16733a99e9f5267ceb"


@pytest.mark.parametrize("broken", [("two-tp",), ("one-tp",), ("two-tp", "one-tp")], ids="+".join)
def test_privacy_audit_exits_1_when_a_support_drops_the_truth(broken, monkeypatch, capsys):
    audit = _load("privacy_audit")
    run_trial, secret_support = audit.run_trial, audit.secret_support
    runs = []

    def remembered(config, t):
        runs.append(run_trial(config, t))
        return runs[-1]

    def without_truth(view, params):
        support = secret_support(view, params)
        if params.variant.value not in broken:
            return support
        return dataclasses.replace(support, candidates=support.candidates - {runs[-1].secrets[view.target]})

    monkeypatch.setattr(audit, "run_trial", remembered)
    monkeypatch.setattr(audit, "secret_support", without_truth)
    assert audit.main(["--runs", "2"]) == 1
    out, err = capsys.readouterr()
    first = {"two-tp": "TP1", "one-tp": "TP"}
    assert err.splitlines() == [
        f"error: {variant} trial 0 target 0: the {first[variant]} support excludes the true secret" for variant in broken
    ]
    # a variant whose supports hold the truth still prints its report
    assert ("pairwise secret differences" in out) == ("one-tp" not in broken)


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
        ("detection_sweep", ["--dims", ","]),
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


def test_detection_sweep_unwritable_out_exits_3_before_the_sweep(detection_sweep, tmp_path, monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(detection_sweep, "sweep", must_not_run)
    missing = tmp_path / "nope" / "sweep.csv"
    assert detection_sweep.main(["--trials", "2", "--dims", "4", "--out", str(missing)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: cannot write {missing}: [Errno 2] No such file or directory: '{missing}'"]


_BAD_SEED = st.one_of(int_texts(max_value=-1), int_texts(min_value=2**64), unparsable(int))

# Bad values per flag against each script's small base arguments.
# --out is left out: an unwritable path is an I/O failure, exit code 3.
_BAD_SCRIPT_FLAGS = {
    "detection_sweep": {
        "--trials": st.one_of(int_texts(max_value=0), unparsable(int)),
        # above the cap, 2n(l+1) > MAX_QUDITS, at the default l=8 and n=2
        "--n": st.one_of(int_texts(max_value=1), int_texts(min_value=MAX_QUDITS // 18 + 1), unparsable(int)),
        "--l": st.one_of(int_texts(max_value=0), int_texts(min_value=MAX_QUDITS // 4), unparsable(int)),
        "--dims": st.one_of(
            st.lists(st.integers(), min_size=1, max_size=4)
            .filter(lambda dims: not all(2 <= d <= MAX_DIM for d in dims))
            .map(lambda dims: ",".join(map(str, dims))),
            st.text(alphabet=", ", max_size=4),
            unparsable(int).filter(lambda text: "," not in text),
        ),
        "--seed": _BAD_SEED,
    },
    "privacy_audit": {
        "--runs": st.one_of(int_texts(max_value=0), unparsable(int)),
        "--seed": _BAD_SEED,
    },
}
_SCRIPT_BASE_ARGS = {
    "detection_sweep": {"--trials": "2", "--dims": "4"},
    "privacy_audit": {"--runs": "1"},
}
_SCRIPT_FLAG_CASES = st.sampled_from(
    [(script, flag) for script, flags in sorted(_BAD_SCRIPT_FLAGS.items()) for flag in sorted(flags)]
).flatmap(lambda case: st.tuples(st.just(case[0]), st.just(case[1]), _BAD_SCRIPT_FLAGS[case[0]][case[1]]))


@settings(max_examples=200, deadline=None)
@given(_SCRIPT_FLAG_CASES)
def test_script_bad_flag_values_exit_2_with_one_error_line(case):
    script, flag, value = case
    args = {**_SCRIPT_BASE_ARGS[script], flag: value}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        _load(script).main([part for pair in args.items() for part in pair])
    assert exc.value.code == 2, (args, err.getvalue())
    assert out.getvalue() == ""
    assert len([line for line in err.getvalue().splitlines() if "error:" in line]) == 1, err.getvalue()
