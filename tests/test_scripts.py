"""Smoke tests for the scripts under scripts/, called through their main()."""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closed_pipe_stderr, int_texts, unparsable
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
    trial_runs, secret_support = audit._trial_runs, audit.secret_support
    runs = []

    def remembered(*args):
        for run in trial_runs(*args):
            runs.append(run)
            yield run

    def without_truth(view, params):
        support = secret_support(view, params)
        if params.variant.value not in broken:
            return support
        return dataclasses.replace(support, candidates=support.candidates - {runs[-1].secrets[view.target]})

    monkeypatch.setattr(audit, "_trial_runs", remembered)
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


@pytest.mark.parametrize(
    "script, argv",
    [("privacy_audit", ["--runs", "3", "--seed", "7"]), ("detection_sweep", ["--trials", "5", "--dims", "2,4", "--l", "2"])],
)
def test_a_script_writing_to_a_closed_pipe_exits_3_with_one_error_line(script, argv):
    assert closed_pipe_stderr([str(SCRIPTS / f"{script}.py"), *argv]).startswith("error: cannot write stdout: ")


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


def _bench_run(tmp_path, name, workload, rate, setup=0.2, rss=38.0, digest="ab", failed=0, traced=False, seed=5642):
    env = {"commit": "c0ffee", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "OpenBLAS", "blas_threads": 2}
    detail = {"workload": workload, "seed": seed, "canonical_sha256": digest, "env": env}
    if traced:
        detail["layers"] = {"adversary.secret_support.share": 0.3}
    units = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    values = {"trials_per_s": rate, "setup_s": setup, "peak_rss_mb": rss}
    final = {"correct": not failed, "attempted": 10, "failed": failed,
             "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    path = tmp_path / name
    path.write_text(f"{workload} trials_per_s {rate}\n{json.dumps(detail)}\n{json.dumps(final)}\n")
    return path


def test_bench_record_folds_paired_runs(tmp_path):
    bench_record = _load("bench_record")
    parent = [_bench_run(tmp_path, f"p{i}", "privacy-audit", rate) for i, rate in enumerate([100, 110, 120, 130, 140])]
    change = [_bench_run(tmp_path, f"c{i}", "privacy-audit", rate, setup=0.1, failed=i == 4)
              for i, rate in enumerate([150, 105, 160, 170, 180])]
    parent.append(_bench_run(tmp_path, "pt", "privacy-audit", 90, traced=True))
    change.append(_bench_run(tmp_path, "ct", "privacy-audit", 95, digest="cd", traced=True))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--seconds", "25", "--out", str(out), "--parent", *map(str, parent),
                              "--change", *map(str, change)]) == 0
    bench = json.loads(out.read_text())
    assert bench["command"] == "python3 perfbench/run.py --workload W --seed 5642 --seconds 25 --trace 0"
    assert bench["parent"] == "c0ffee" and bench["host"]["blas_threads"] == 2
    entry = bench["workloads"]["privacy-audit"]
    assert entry["pairs"] == 5
    assert entry["trials_per_s"] == {"parent": {"q1": 110, "median": 120, "q3": 130},
                                     "change": {"q1": 150, "median": 160, "q3": 170}, "change_better_in_pairs": 4}
    assert entry["setup_s"]["change_better_in_pairs"] == 5  # lower is better
    assert entry["peak_rss_mb"]["change_better_in_pairs"] == 0
    assert entry["canonical_sha256"] == ["ab"]  # traced runs are not paired
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert [f["metrics"]["trials_per_s"]["value"] for f in entry["final_lines"]["change"]] == [150, 105, 160, 170, 180]
    assert entry["trace_final_lines"]["change"]["metrics"]["trials_per_s"]["value"] == 95


def test_bench_record_refuses_unpaired_runs(tmp_path, capsys):
    parent = [_bench_run(tmp_path, f"p{i}", "honest-two-tp", 100) for i in range(2)]
    change = [_bench_run(tmp_path, "c0", "honest-two-tp", 100)]
    argv = ["--seconds", "8", "--out", str(tmp_path / "out.json"), "--parent", *map(str, parent), "--change", *map(str, change)]
    assert _load("bench_record").main(argv) == 2
    assert capsys.readouterr().err == "error: honest-two-tp: 2 parent runs but 1 change runs\n"


def test_bench_record_refuses_a_workload_with_no_parent_runs(tmp_path, capsys):
    # the record used to list only the parent's workloads, so privacy-audit's change runs vanished from it
    parent = [_bench_run(tmp_path, f"p{i}", "honest-two-tp", 100) for i in range(2)]
    change = [_bench_run(tmp_path, f"c{i}", workload, 100)
              for i, workload in enumerate(["honest-two-tp", "honest-two-tp", "privacy-audit", "privacy-audit"])]
    out = tmp_path / "out.json"
    argv = ["--seconds", "8", "--out", str(out), "--parent", *map(str, parent), "--change", *map(str, change)]
    assert _load("bench_record").main(argv) == 2
    assert capsys.readouterr().err == "error: privacy-audit: 0 parent runs but 2 change runs\n"
    assert not out.exists()


@pytest.mark.parametrize("traced", [False, True], ids=["paired", "traced"])
def test_bench_record_refuses_runs_made_at_different_seeds(tmp_path, capsys, traced):
    parent = [_bench_run(tmp_path, f"p{i}", "honest-two-tp", 100, seed=1) for i in range(2)]
    change = [_bench_run(tmp_path, f"c{i}", "honest-two-tp", 100, seed=1 + (i == 1 and not traced)) for i in range(2)]
    if traced:
        change.append(_bench_run(tmp_path, "ct", "honest-two-tp", 90, traced=True, seed=2))
    out = tmp_path / "out.json"
    argv = ["--seconds", "8", "--out", str(out), "--parent", *map(str, parent), "--change", *map(str, change)]
    assert _load("bench_record").main(argv) == 2
    assert capsys.readouterr().err == "error: the runs were made at more than one benchmark seed: [1, 2]\n"
    assert not out.exists()


@pytest.mark.parametrize("workload", ["honest-two-tp", "intercept-abort"])
def test_call_counts_are_the_same_in_two_runs(workload):
    call_counts = _load("call_counts")
    config = dataclasses.replace(call_counts.shape(workload), trials=20)
    (first, first_gc), (second, second_gc) = call_counts.count_calls(config), call_counts.count_calls(config)
    assert first == second
    assert first_gc == second_gc and len(first_gc) == 3  # gen0, gen1 and gen2 collections, from a full collection
    assert first["python", "qpc_sim.harness._run_trial"] == 20 and first["c", "sys.setprofile"] == 0
    # the counted run is of a fresh config equal to the warmed one, as cli.main builds per benchmark repeat,
    # so it resolves its own params once
    assert first["python", "qpc_sim.protocol.ProtocolParams.__post_init__"] == 1


def test_call_counts_count_no_gc_callback():
    # a gc.callbacks hook (hypothesis registers one) fired on collections that fell inside a counted run
    call_counts = _load("call_counts")
    config = dataclasses.replace(call_counts.shape("honest-two-tp"), trials=3)
    collections = []

    def hook(phase, info):
        collections.append(phase)

    threshold = gc.get_threshold()
    gc.callbacks.append(hook)
    gc.set_threshold(5)
    try:
        (first, _), (second, _) = call_counts.count_calls(config), call_counts.count_calls(config)
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*threshold)
    assert collections  # the hook did fire, outside the counted runs
    assert first == second
    assert not [name for _, name in first if name.endswith(".<locals>.hook")]


def test_audit_call_counts_are_the_same_in_two_runs():
    call_counts = _load("call_counts")
    configs = call_counts.workloads.build("privacy-audit", 0).configs
    (first, first_gc), (second, second_gc) = (call_counts.count_audit_calls(configs, 2) for _ in range(2))
    assert first == second
    assert first_gc == second_gc and len(first_gc) == 3
    # two trials of each config, then every coalition of both: 85 of the two-tp n=5 run and 80 of the one-tp one
    assert first["python", "qpc_sim.harness.run_trial"] == 4
    for name in ("Coalition.__init__", "coalition_view", "secret_support"):
        assert first["python", f"qpc_sim.adversary.{name}"] == 2 * (85 + 80)


def test_call_counts_prints_one_json_line_of_the_workloads_shape(capsys):
    call_counts = _load("call_counts")
    config = call_counts.shape("intercept-abort")
    assert (config.variant, config.n, config.d, config.r, config.l, config.attack) == ("two-tp", 2, 4, 2, 32, "ir-random")
    assert call_counts.main(["--workload", "intercept-abort"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    counts = json.loads(line)
    assert counts["workload"] == "intercept-abort" and counts["trials"] == call_counts.TRIALS
    assert len(counts["top"]) == call_counts.TOP
    assert counts["python_calls_per_trial"] > 0 and counts["c_calls_per_trial"] > 0
    assert len(counts["gc_collections_per_1000_trials"]) == 3
    per_trial = [entry["calls_per_trial"] for entry in counts["top"]]
    assert per_trial == sorted(per_trial, reverse=True)


@pytest.mark.parametrize("argv", [[], ["--workload", "d-sweep"], ["--workload", "intercept-abort", "--trials", "20"]])
def test_call_counts_bad_input_exits_2_with_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _load("call_counts").main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


ROOT = SCRIPTS.parent


def _files(*trees: Path) -> set[Path]:
    return {path for tree in trees for path in tree.rglob("*")}


def test_interleave_compares_the_checkout_with_itself(capsys):
    before = _files(ROOT / "src", ROOT / "perfbench")  # bytecode caches included: the script writes none
    assert _load("interleave").main(
        ["--base", str(ROOT), "--change", str(ROOT), "--workload", "honest-two-tp", "--rounds", "2"]
    ) == 0
    [line] = capsys.readouterr().out.splitlines()
    summary = json.loads(line)
    assert (summary["workload"], summary["rounds"], summary["same_digest"], summary["failed"]) == ("honest-two-tp", 2, True, 0)
    assert summary["base_trials_per_s"] > 0 and summary["change_trials_per_s"] > 0
    assert summary["median_ratio"] > 0 and 0 <= summary["change_won"] <= 2
    assert 0 < summary["base_q1"] <= summary["base_trials_per_s"] <= summary["base_q3"]
    assert 0 < summary["ratio_q1"] <= summary["median_ratio"] <= summary["ratio_q3"]
    # both copies are gone from the import system, and the checkout's own package is still the one imported
    assert not [name for name in sys.modules if name.split(".")[0] in ("qpc_base", "qpc_change")]
    assert sys.modules["qpc_sim"].__file__ == str(ROOT / "src" / "qpc_sim" / "__init__.py")
    assert _files(ROOT / "src", ROOT / "perfbench") == before


@pytest.mark.parametrize(
    "argv",
    [
        ["--base", "/nonexistent", "--change", ".", "--workload", "honest-two-tp", "--rounds", "2"],
        ["--base", ".", "--change", ".", "--workload", "d-sweep-x", "--rounds", "2"],
        ["--base", ".", "--change", ".", "--workload", "honest-two-tp", "--rounds", "0"],
        ["--base", ".", "--change", ".", "--workload", "honest-two-tp"],
    ],
)
def test_interleave_bad_input_exits_2_with_one_error_line(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as exc:
        _load("interleave").main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
