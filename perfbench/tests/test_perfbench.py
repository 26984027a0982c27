"""Tests of the benchmark itself: smoke runs, tracer bookkeeping, and checks that can fail.

Run from the root of the checkout:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import hostref
import run
import tracer
import workloads
from qpc_sim import adversary, cli, harness, protocol, qudit
from qpc_sim.adversary import AttackStrategy
from qpc_sim.channel import ClassicalBus, Transcript

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_every_contract_workload_is_defined_and_run_knows_every_workload():
    assert run.NAMES == workloads.NAMES
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name):
    done = _bench("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    detail = json.loads(done.stdout.splitlines()[-2])
    assert len(detail["canonical_sha256"]) == 64 and detail["failed_frac"] == 0.0
    assert detail["raw_trials_per_s"] > 0 and detail["host_factor"] > 0 and detail["raw_setup_s"] > 0


def test_host_factor_scales_by_the_median_reference_time():
    assert hostref.host_factor([hostref.REF_S, 2 * hostref.REF_S, 3 * hostref.REF_S]) == pytest.approx(2.0)
    assert hostref.calls_after(0.01) == 1 and hostref.calls_after(10 * hostref.EVERY_S) == 10
    assert hostref.reference() == hostref.reference()


def test_setup_is_scaled_by_the_start_up_reference_timed_before_it():
    assert hostref.scaled_setup(0.5, 2 * hostref.START_S) == pytest.approx(0.25)
    assert hostref.scaled_setup(0.5, hostref.START_S) == pytest.approx(0.5)
    assert hostref.start_reference() > 0


def test_each_repeat_is_scaled_by_the_reference_calls_after_it():
    slow = {"trials": 10, "elapsed_s": 1.0, "reference_s": [2 * hostref.REF_S]}
    fast = {"trials": 10, "elapsed_s": 0.5, "reference_s": [hostref.REF_S, hostref.REF_S, 9.0]}
    assert run.scaled_rates([slow, fast]) == pytest.approx([20.0, 20.0])


def test_smoke_traced_run_reports_every_layer_metric():
    done = _bench("--workload", "intercept-abort", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    layers = json.loads(done.stdout.splitlines()[-2])["layers"]
    assert layers["qudit.apply_shift.us"] is None  # every trial aborts before step 4
    assert layers["adversary.tap.us"] > 0 and layers["adversary.coalition_view.us"] is None
    assert 0.4 < layers["protocol.checked_per_prepared"] < 0.6


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "honest-two-tp", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_times_sum_to_traced_total_and_originals_come_back():
    originals = {
        (protocol, "measure"): protocol.measure,
        (adversary, "coalition_view"): adversary.coalition_view,
        (harness, "run_experiment"): harness.run_experiment,
        (cli, "main"): cli.main,
        (Transcript, "record"): vars(Transcript)["record"],
        (ClassicalBus, "broadcast"): vars(ClassicalBus)["broadcast"],
        (AttackStrategy, "tap"): vars(AttackStrategy)["tap"],
    }
    spans = tracer.Tracer()
    workload = workloads.build("honest-two-tp", seed=5)
    workload.trials = 5
    spans.install()
    try:
        repeat = workload.repeat()
    finally:
        spans.uninstall()
    # exact up to float rounding: self times telescope to the root durations
    assert spans.total_self_s() == pytest.approx(spans.root_s, rel=1e-9)
    assert spans.root_s <= repeat.elapsed_s
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
    layers = spans.summary()
    assert layers["adversary.tap.us"] is None and layers["adversary.tap.calls"] == 0
    assert layers["qudit.basis_state.calls"] == 85  # n(l+1) preparations on each of the two hops
    assert layers["protocol.checked_per_prepared"] == 1.0


def test_cold_fourier_seconds_counts_only_matrix_builds():
    qudit.fourier_matrix.cache_clear()
    assert tracer.cold_fourier_seconds(lambda: qudit.fourier_matrix(97)) > 0
    assert tracer.cold_fourier_seconds(lambda: qudit.fourier_matrix(97)) == 0
    assert vars(qudit)["fourier_matrix"] is qudit.fourier_matrix and hasattr(qudit.fourier_matrix, "cache_info")


# --- each correctness check is able to fail ---------------------------------

def _honest_reports(trials: int = 20):
    workload = workloads.build("honest-two-tp", seed=7)
    workload.trials = trials
    text, _ = workload._call(trials)
    return workload, workload.reports(text)


def test_ranking_check_counts_a_wrong_ranking():
    workload, reports = _honest_reports()
    assert workload.check(reports) == (20, 0)
    row = next(r for r in reports[0].trials if len(r["ranking"]) > 1)
    row["ranking"] = row["ranking"][::-1]
    assert workload.check(reports) == (20, 1)
    row["aborted_at"], row["ranking"] = "step3", None
    assert not checks.ranked_trial_ok(row)


def test_ranking_oracle_groups_ties_highest_first():
    assert checks.ranking_oracle([3, 1, 3, 0]) == [[0, 2], [1], [3]]


def test_per_decoy_check_fails_for_the_wrong_d():
    workload = workloads.build("intercept-abort", seed=7)
    text, _ = workload._call(workload.trials)
    [report] = workload.reports(text)
    assert workload.check([report]) == (2, 0)
    assert not checks.per_decoy_ok(report.decoy_stats["step3"], d=8)
    bad = dataclasses.replace(report, config={**report.config, "d": 8})
    assert workload.check([bad]) == (2, 1)


def test_abort_rate_check_fails_off_the_closed_form():
    assert checks.abort_rate_ok(1.0, 1.0 - 1e-20, trials=500)
    assert not checks.abort_rate_ok(0.99, 1.0 - 1e-20, trials=500)
    assert not checks.abort_rate_ok(0.5, 0.3, trials=10_000)
    assert not checks.abort_rate_ok(1.0, None, trials=500)


def test_support_check_fails_without_the_truth_or_when_a_blind_coalition_narrows():
    full = frozenset(range(16))
    assert checks.support_ok(full, 3, 16, must_be_full=True)
    assert not checks.support_ok(full - {3}, 3, 16, must_be_full=False)
    assert not checks.support_ok(frozenset({2, 3}), 3, 16, must_be_full=True)
    assert checks.support_ok(frozenset({2, 3}), 3, 16, must_be_full=False)


def test_audit_plans_every_allowed_coalition():
    plan = workloads.AuditWorkload.coalitions("two-tp", 5, target=0)
    assert len(plan) == 2 + 15
    assert [m for m, full in plan if full] == [frozenset({"TP1"}), frozenset({"P2", "P3", "P4", "P5"})]
    assert len(workloads.AuditWorkload.coalitions("one-tp", 5, target=4)) == 1 + 15


def test_audit_repeat_passes_its_checks():
    workload = workloads.AuditWorkload(seed=7, part=0, trials=1)
    repeat = workload.repeat()
    assert repeat.trials == 2 and repeat.attempted == 85 + 80 and repeat.failed == 0


def test_a_repeat_with_other_canonical_bytes_counts_as_failed():
    same = {"attempted": 3, "failed": 0, "digest": "a"}
    assert run.tally([same, same]) == (8, 0)
    assert run.tally([same, {**same, "digest": "b"}]) == (8, 1)
