"""The names the benchmark's tracer patches, pinned so a refactor cannot silently kill a span.

``perfbench/tracer.py`` wraps each (owner, attribute) below in place, reading
the original with ``vars(owner)[attr]``. A name that moves or is renamed
stops its ``--trace 1`` span from firing, and the traced run loses a
final-line metric. The list is written out here rather than imported, so a
tracer edit and a library edit each have to agree with it.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from qpc_sim import adversary, cli, harness, protocol, qudit
from qpc_sim.adversary import AttackStrategy
from qpc_sim.channel import ClassicalBus, Transcript

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SEAMS = [
    (protocol, "measure"),
    (adversary, "measure"),
    (protocol, "basis_state"),
    (protocol, "apply_shift"),
    (protocol, "build_transmission"),
    (protocol, "transmit"),
    (Transcript, "record"),
    (Transcript, "events"),
    (ClassicalBus, "broadcast"),
    (AttackStrategy, "tap"),
    (harness, "run_two_tp_protocol"),
    (harness, "run_one_tp_protocol"),
    (harness, "_run_trial"),
    (harness, "run_experiment"),
    (cli, "run_experiment"),
    (cli, "sweep"),
    (cli, "main"),
    (adversary, "coalition_view"),
    (adversary, "secret_support"),
    (qudit, "fourier_matrix"),
]


@pytest.mark.parametrize("owner, attr", SEAMS, ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in SEAMS])
def test_each_traced_name_is_defined_where_the_tracer_patches_it(owner, attr):
    assert callable(vars(owner).get(attr))


def test_an_audited_trial_reads_the_full_log(monkeypatch):
    # the privacy-audit workload bypasses the fold, so its channel.events span
    # fires only if the audit itself reads Transcript.events
    calls = []
    events = Transcript.events

    def counted(self):
        calls.append(self)
        return events(self)

    monkeypatch.setattr(Transcript, "events", counted)
    config = harness.ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=8, trials=1, seed=1)
    params, _ = config.validate()
    run = harness.run_trial(config, 0)
    view = adversary.coalition_view(run.transcript, adversary.Coalition(frozenset({"TP2"}), 0))
    adversary.secret_support(view, params)
    assert calls


def test_an_honest_run_passes_each_qudit_through_the_traced_seams(monkeypatch):
    # the per-qudit spans must fire once per qudit, and the fold must read the log
    # through Transcript.events, or --trace 1 reports numbers for work it never saw
    calls = {"basis_state": 0, "measure": 0, "events": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(protocol, "basis_state", counting("basis_state", protocol.basis_state))
    monkeypatch.setattr(protocol, "measure", counting("measure", protocol.measure))
    monkeypatch.setattr(Transcript, "events", counting("events", Transcript.events))
    config = harness.ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=8, trials=2, seed=1)
    report = harness.run_experiment(config)
    assert report.n_completed == config.trials
    checked = sum(stats["checked"] for stats in report.decoy_stats.values())
    assert calls["basis_state"] == config.trials * config.n * (2 * config.l + 1)
    assert calls["measure"] == checked + config.trials * config.n
    assert calls["events"] >= config.trials


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_a_traced_benchmark_run_reports_every_layer_metric(workload):
    # every contract workload, not only the one the benchmark's own tests trace: a seam that
    # stops firing on its workload leaves that metric null, which no untraced run would show
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert not [name for name, value in values.items() if not (isinstance(value, float) and math.isfinite(value))]
