"""Harness and CLI tests: config validation, trial-level determinism, report
serialization, sweeps, and the command-line contract (flags, formats, exit codes)."""
from __future__ import annotations

import contextlib
import copy
import dataclasses
import errno
import gc
import hashlib
import importlib.util
import io
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ANY_VALUE, int_texts, seeded_draws, unparsable
from qpc_sim import (
    ATTACK_IDS,
    ExperimentConfig,
    ExperimentReport,
    ParameterError,
    ProtocolParams,
    Variant,
    run_experiment,
    run_one_tp_protocol,
    run_trial,
    run_two_tp_protocol,
    strategy_from_id,
    sweep,
)
import qpc_sim
from qpc_sim import cli, harness
from qpc_sim.cli import CSV_COLUMNS, _csv_row, main
from qpc_sim.harness import derive_cell_seed
from qpc_sim.channel import OUTSIDER
from qpc_sim.adversary import tap_plan
from qpc_sim.protocol import MAX_DIM, MAX_QUDITS, rank_descending, run_links
from qpc_sim.streams import chunk_trials, trial_streams

HONEST = ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=8, trials=20, seed=11)
ATTACKED = ExperimentConfig(
    variant="two-tp", n=2, d=4, r=2, l=8, attack="ir-random", trials=30, seed=5
)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_variant_is_a_config_error():
    with pytest.raises(ParameterError, match="unknown variant"):
        ExperimentConfig(variant="three-tp", n=2, d=5, r=2, l=4).validate()


def test_protocol_bounds_surface_as_config_errors():
    with pytest.raises(ParameterError, match="two-tp requires"):
        ExperimentConfig(variant="two-tp", n=2, d=8, r=5, l=4).validate()
    ExperimentConfig(variant="two-tp", n=2, d=MAX_DIM, r=5, l=4).validate()
    with pytest.raises(ParameterError, match=f"qudit dimension must lie in \\[2, {MAX_DIM}\\]"):
        ExperimentConfig(variant="two-tp", n=2, d=MAX_DIM + 1, r=5, l=4).validate()
    with pytest.raises(ParameterError, match="attack id"):
        ExperimentConfig(variant="two-tp", n=2, d=5, r=2, l=4, attack="nope").validate()


def test_insider_attacks_do_not_apply_to_the_single_tp_variant():
    for attack in ("tp1-mr", "tp2-mr"):
        with pytest.raises(ParameterError, match="does not apply to one-tp"):
            ExperimentConfig(variant="one-tp", n=2, d=14, r=5, l=4, attack=attack).validate()
    # the outsider attacks still do
    ExperimentConfig(variant="one-tp", n=2, d=14, r=5, l=4, attack="ir-random").validate()


@pytest.mark.parametrize("secrets", ({0: 4, 1: 2}, {4, 2}, frozenset({4, 2}), {1: 4, 0: 2}.keys()), ids=repr)
@pytest.mark.parametrize("variant, d", (("two-tp", 13), ("one-tp", 14)))
def test_a_config_refuses_secrets_in_no_party_order(secrets, variant, d):
    # a mapping ran with its keys as the secrets, and a set in hash order
    config = ExperimentConfig(variant=variant, n=2, d=d, r=5, l=2, secrets=secrets)
    with pytest.raises(ParameterError, match="secrets must be a sequence of integers"):
        config.validate()
    with pytest.raises(ParameterError, match="secrets must be a sequence of integers"):
        run_experiment(config)


def test_fixed_secrets_are_validated():
    with pytest.raises(ParameterError, match="expected 3 secrets"):
        ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=4, secrets=(1, 2)).validate()
    with pytest.raises(ParameterError, match=r"\[0, r=5\)"):
        ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=4, secrets=(1, 2, 5)).validate()


def test_shared_key_rules_per_variant():
    with pytest.raises(ParameterError, match="one-tp variant only"):
        ExperimentConfig(variant="two-tp", n=2, d=5, r=2, l=4, shared_key=1).validate()
    with pytest.raises(ParameterError, match="shared key"):
        ExperimentConfig(variant="one-tp", n=2, d=14, r=5, l=4, shared_key=7).validate()
    ExperimentConfig(variant="one-tp", n=2, d=14, r=5, l=4, shared_key=3).validate()


ONE_TP = ExperimentConfig(variant="one-tp", n=2, d=14, r=5, l=4, secrets=(3, 1), shared_key=2, trials=3, seed=1)
_NOT_INTEGERS = st.one_of(
    st.floats(), st.booleans(), st.none(), st.text(max_size=4).filter(lambda text: text != "random")
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("n", "d", "r", "l", "trials", "seed", "shared_key", "secrets", "a secret")), _NOT_INTEGERS)
def test_a_non_integer_in_an_integer_field_is_refused_by_name(field, value):
    # a float such as 1.7 or 8.0 used to pass and then be truncated or fail inside a trial
    if field == "a secret":
        config, field = dataclasses.replace(ONE_TP, secrets=(value, 1)), "secrets"
    else:
        config = dataclasses.replace(ONE_TP, **{field: value})
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        config.validate()


@pytest.mark.parametrize("field", ("n", "d", "r", "l", "trials", "seed", "shared_key", "secrets"))
def test_numpy_integers_pass_and_are_recorded_as_ints(field):
    value = getattr(ONE_TP, field)
    as_numpy = tuple(map(np.int64, value)) if field == "secrets" else np.uint64(value)
    config = dataclasses.replace(ONE_TP, **{field: as_numpy})
    assert run_experiment(config).canonical_json() == run_experiment(ONE_TP).canonical_json()


# every kind of value a caller might pass for a typed field: right and wrong types, numpy's, enum members, sequences
_TYPED = ExperimentConfig(variant="one-tp", n=2, d=14, r=5, l=2, trials=2, seed=1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("variant", "threshold", "attack", "secrets", "shared_key")), ANY_VALUE)
def test_a_typed_config_field_runs_or_is_refused(field, value):
    # a Variant member or a numpy float used to run and then fail to serialise; a list attack raised
    # TypeError, and an array key the "ambiguous truth value" ValueError
    config = dataclasses.replace(_TYPED, **{field: value})
    try:
        report = run_experiment(config)
    except ParameterError:
        return
    assert json.loads(report.canonical_json())["config"] == json.loads(json.dumps(config.to_dict()))
    run_trial(config, 0).transcript.to_json()


@settings(max_examples=150, deadline=None)
@given(st.one_of(ANY_VALUE, st.lists(ANY_VALUE, min_size=2, max_size=2)), ANY_VALUE)
def test_the_runners_run_or_refuse_any_secrets_and_key(secrets, key):
    # a float or bool secret or key used to be truncated by int()
    two_tp, one_tp = ProtocolParams(Variant.TWO_TP, 2, 9, 5, 2), ProtocolParams(Variant.ONE_TP, 2, 14, 5, 2)
    runs = (
        lambda: run_two_tp_protocol(two_tp, secrets, None, seeded_draws(two_tp, None, 0)),
        lambda: run_one_tp_protocol(one_tp, secrets, key, None, seeded_draws(one_tp, None, 0)),
    )
    for run in runs:
        try:
            transcript, _ = run()
        except ParameterError:
            continue
        transcript.to_json()


@settings(max_examples=150, deadline=None)
@given(ANY_VALUE, ANY_VALUE, st.sampled_from((2, 14)))
@example("two-tp", 0.0, 2)  # a string variant used to skip the d >= 2r - 1 bound
def test_protocol_params_take_a_variant_and_a_real_threshold_or_refuse(variant, threshold, d):
    try:
        params = ProtocolParams(variant, n=2, d=d, r=5, l=1, error_threshold=threshold)
    except ParameterError:
        return
    assert type(params.variant) is Variant and type(params.error_threshold) is float and d == 14
    if params.variant is Variant.TWO_TP:
        transcript, _ = run_two_tp_protocol(params, (1, 4), None, seeded_draws(params, None, 0))
    else:
        transcript, _ = run_one_tp_protocol(params, (1, 4), 3, None, seeded_draws(params, None, 0))
    transcript.to_json()


def test_trials_and_seed_ranges():
    with pytest.raises(ParameterError, match="trials"):
        ExperimentConfig(variant="two-tp", n=2, d=5, r=2, l=4, trials=0).validate()
    with pytest.raises(ParameterError, match="seed"):
        ExperimentConfig(variant="two-tp", n=2, d=5, r=2, l=4, seed=-1).validate()
    with pytest.raises(ParameterError, match="seed"):
        ExperimentConfig(variant="two-tp", n=2, d=5, r=2, l=4, seed=2**64).validate()


# ---------------------------------------------------------------------------
# deterministic seeding
# ---------------------------------------------------------------------------

def test_trial_streams_are_a_pure_function_of_seed_and_trial():
    params = ProtocolParams(Variant.ONE_TP, n=2, d=14, r=5, l=2)

    def draws(seed, trials):
        return [run[:4] for run in trial_streams(seed, trials, params, params.n + 1, (0, ()))]

    assert draws(5, range(7, 9)) == draws(5, range(7, 9))
    # a trial draws the same whichever chunk, or chunk position, it comes in
    assert draws(5, range(8, 9)) == draws(5, range(7, 9))[1:]
    assert draws(5, range(7, 8)) != draws(5, range(8, 9))
    assert draws(5, range(7, 8)) != draws(6, range(7, 8))


def test_derive_cell_seed_is_pure_and_spreads():
    seeds = [derive_cell_seed(11, i) for i in range(6)]
    assert seeds == [derive_cell_seed(11, i) for i in range(6)]
    assert len(set(seeds)) == 6
    assert all(0 <= s < 2**64 for s in seeds)


def test_trials_replay_byte_identically():
    a = run_trial(HONEST, trial_index=7)
    b = run_trial(HONEST, trial_index=7)
    assert a.secrets == b.secrets
    assert a.transcript.to_json() == b.transcript.to_json()
    c = run_trial(HONEST, trial_index=8)
    assert c.transcript.to_json() != a.transcript.to_json()


# a trial of n=2 hashes (n + 3) + 1 streams; this config's last two trials are in a second chunk
CHUNK = chunk_trials(ProtocolParams(Variant.TWO_TP, n=2, d=2, r=1, l=1), (0, ()))
MANY = ExperimentConfig(variant="two-tp", n=2, d=2, r=1, l=1, trials=CHUNK + 2, seed=11)


@pytest.mark.parametrize(
    "config, trials", [(HONEST, (0, 3, 19)), (MANY, (CHUNK - 1, CHUNK, CHUNK + 1))], ids=("honest", "chunks")
)
def test_run_trial_reproduces_the_experiment_rows(config, trials):
    report = run_experiment(config)
    for t in trials:
        row = report.trials[t]
        trial = run_trial(config, t)
        assert row["secrets"] == list(trial.secrets)
        assert row["shared_key"] == trial.shared_key
        assert row["aborted_at"] == trial.outcome.aborted_at
        expected = [list(g) for g in trial.outcome.ranking] if trial.outcome.completed else None
        assert row["ranking"] == expected


@pytest.mark.parametrize(
    "config",
    [HONEST, ExperimentConfig(variant="one-tp", n=3, d=17, r=5, l=2, seed=3), ATTACKED],
    ids=("two-tp", "one-tp", "ir-random"),
)
def test_a_range_of_trial_runs_is_each_trial_run_alone(config):
    # one draw pass over a range that starts past 0 and crosses a chunk edge
    params, strategy = config.validate()
    trials = range(3, 5 + chunk_trials(params, tap_plan(params, strategy)))

    def replay(run):
        return run.trial_index, run.transcript.to_json(), run.secrets, run.shared_key, run.outcome

    runs = list(map(replay, harness._trial_runs(config, trials)))
    assert runs == [replay(run_trial(config, t)) for t in trials]


def _trial_row(run) -> dict:
    """The report row of one trial run, as the fold writes it."""
    completed = run.outcome.completed
    return {
        "trial": run.trial_index,
        "secrets": list(run.secrets),
        "shared_key": run.shared_key,
        "aborted_at": run.outcome.aborted_at,
        "ranking": [list(g) for g in run.outcome.ranking] if completed else None,
        "correct": run.outcome.ranking == rank_descending(run.secrets) if completed else None,
    }


@pytest.mark.parametrize("threshold", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("attack", ATTACK_IDS)
@settings(max_examples=8, deadline=None)
@given(n=st.integers(2, 4), r=st.integers(1, 3), l=st.sampled_from((1, 3, 200)), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_every_row_of_a_chunked_experiment_is_its_trial_run_alone(attack, threshold, n, r, l, seed, data):
    # at l=200 a chunk holds one to three trials, so one trial past a chunk crosses its edge; at threshold 1
    # every run reaches the second hops' taps, and at 0 an attacked run mostly aborts at step 3
    insider = strategy_from_id(attack).owner != OUTSIDER  # models two-tp only
    variant = data.draw(st.sampled_from(("two-tp",) if insider else ("two-tp", "one-tp")), label="variant")
    d = data.draw(st.integers(max(3 * r - 1, 2), 3 * r + 2), label="d")
    secrets = data.draw(st.one_of(st.just("random"), st.tuples(*[st.integers(0, r - 1)] * n)), label="secrets")
    key = data.draw(st.just("random") | st.integers(0, r - 1), label="key") if variant == "one-tp" else "random"
    config = ExperimentConfig(variant, n, d, r, l, secrets, key, attack, 1, seed, threshold)
    params, strategy = config.validate()
    size = chunk_trials(params, tap_plan(params, strategy))
    trials = size + 1 if l == 200 else data.draw(st.integers(1, 4), label="trials")
    config = dataclasses.replace(config, trials=trials)
    report = run_experiment(config)
    runs = [run_trial(config, t) for t in range(trials)]
    assert report.trials == [_trial_row(run) for run in runs]
    stats = {step: {"checked": 0, "mismatched": 0} for step in report.decoy_stats}
    for event in (e for run in runs for e in run.transcript.events() if e["kind"] == "decoy_check"):
        stats[event["step"]]["checked"] += event["checked"]
        stats[event["step"]]["mismatched"] += event["mismatched"]
    assert report.decoy_stats == stats


@pytest.mark.parametrize("trial_index", (True, False, -1, 2.0, "3", None, np.bool_(True)), ids=repr)
def test_run_trial_refuses_a_trial_index_that_is_not_an_integer_at_least_0(trial_index):
    # True ran as trial 1 and was recorded as True; -1 raised a bare ValueError, 2.0 and '3' a TypeError
    with pytest.raises(ParameterError, match=f"^trial_index must be an integer >= 0, got {re.escape(repr(trial_index))}$"):
        run_trial(HONEST, trial_index)


@pytest.mark.parametrize("trial_index", (np.int64(7), np.uint32(7), np.uint64(7)), ids=repr)
def test_run_trial_takes_numpy_integers_as_ints(trial_index):
    run = run_trial(HONEST, trial_index)
    assert type(run.trial_index) is int
    assert run.transcript.to_json() == run_trial(HONEST, 7).transcript.to_json()


def test_a_trial_far_past_the_experiment_draws_from_its_seed_sequence():
    # 2**32 and 2**64 give the trial index another entropy word; the secrets are a trial's first draw
    for t in (2**32 - 1, 2**32, 2**64):
        rng = np.random.default_rng(np.random.SeedSequence((HONEST.seed, t)))
        assert run_trial(HONEST, t).secrets == tuple(rng.integers(0, HONEST.r, size=HONEST.n).tolist())


def _count_resolutions(monkeypatch) -> list[dict]:
    """List the fields of each ``ProtocolParams`` that ``ExperimentConfig.validate`` builds from here on, one per resolution."""
    calls, build = [], harness.ProtocolParams

    def counted(**fields):
        calls.append(fields)
        return build(**fields)

    monkeypatch.setattr(harness, "ProtocolParams", counted)
    return calls


def test_replays_and_sweep_cells_validate_their_config_once(monkeypatch):
    calls = _count_resolutions(monkeypatch)
    config = dataclasses.replace(HONEST)  # equal to HONEST, and not yet resolved
    runs = [run_trial(config, t % 4) for t in range(20)]
    assert len(calls) == 1
    assert [run.transcript.to_json() for run in runs[4:8]] == [run.transcript.to_json() for run in runs[:4]]
    run_experiment(config)
    assert len(calls) == 1
    calls.clear()
    cells = sweep(config, "d", [13, 3, 17])  # d=3 is below two-tp's bound at r=5
    assert [cell.skipped is None for cell in cells] == [True, False, True]
    assert [fields["d"] for fields in calls] == [13, 3, 17]


def test_an_invalid_config_is_refused_on_every_call(monkeypatch):
    calls = _count_resolutions(monkeypatch)
    config = dataclasses.replace(HONEST, l=0)
    for _ in range(2):
        with pytest.raises(ParameterError, match="l >= 1"):
            run_trial(config, 0)
    assert [fields["l"] for fields in calls] == [0, 0]


@pytest.mark.parametrize(
    "valid, invalid",
    (({"l": 1}, {"l": True}), ({"l": 2}, {"l": 2.0}), ({"seed": 0}, {"seed": False}),
     ({"secrets": (1, 1, 0)}, {"secrets": (1, True, 0)}), ({"threshold": 1.0}, {"threshold": True})),
    ids=repr,
)
def test_a_config_equal_to_a_remembered_one_is_still_refused_for_its_types(valid, invalid):
    # True == 1 == 1.0 and all three hash alike, so a memo keyed by equality alone would let them through
    valid, invalid = dataclasses.replace(HONEST, **valid), dataclasses.replace(HONEST, **invalid)
    run_trial(valid, 0)
    assert invalid == valid and hash(invalid) == hash(valid)
    with pytest.raises(ParameterError):
        run_trial(invalid, 0)


def test_a_config_keeps_its_resolved_pair_and_equal_configs_replay_alike():
    first, second = (dataclasses.replace(ONE_TP, seed=np.uint64(90210)) for _ in range(2))
    assert first is not second and first == second
    pair = first.validate()
    run_trial(first, 0)
    assert first.validate() is pair and copy.copy(first).validate() is pair
    unpickled = pickle.loads(pickle.dumps(first))
    assert unpickled == first and unpickled.validate() == pair and unpickled.validate() is unpickled.validate()
    # the kept pair is no field: equality, hash, repr and to_dict read the fields alone
    assert (hash(first), repr(first), first.to_dict()) == (hash(second), repr(second), second.to_dict())
    assert run_trial(first, 2).transcript.to_json() == run_trial(second, 2).transcript.to_json()


def _load_script(name: str):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_audited_replay_compares_no_params_by_value():
    # a config keeps its params object, so once the memos keyed by params hold it they hit it by identity;
    # an equal params object of another config, left there by an earlier test, would be compared by value
    call_counts = _load_script("call_counts")
    configs = call_counts.workloads.build("privacy-audit", 0).configs
    tap_plan.cache_clear()
    run_links.cache_clear()
    counts, _ = call_counts.count_audit_calls([dataclasses.replace(c) for c in configs], 2)
    assert counts["python", "qpc_sim.adversary.secret_support"] > 0
    # the dataclass __eq__ is named by the code it is made from, qpc_sim.protocol.__create_fn__.<locals>.__eq__
    assert not [name for _, name in counts if name.startswith("qpc_sim.protocol.") and name.endswith(".__eq__")]


@pytest.mark.parametrize("attack", ("none", "ir-random", "ir-fixed-t1", "tp1-mr"))
def test_a_fresh_equal_config_reuses_the_run_shape_of_an_earlier_one(attack):
    # cli.main builds a fresh config per call, so its trials look up run_links and tap_plan under an equal
    # params object and strategy, not the same ones; the caches key by value, so nothing is built again
    config = ExperimentConfig(variant="two-tp", n=2, d=4, r=2, l=8, attack=attack, trials=6, seed=3)
    expected = run_experiment(config).canonical_json()
    before = run_links.cache_info(), tap_plan.cache_info()
    fresh = ExperimentConfig(variant="two-tp", n=2, d=4, r=2, l=8, attack=attack, trials=6, seed=3)
    assert run_experiment(fresh).canonical_json() == expected
    for cache, then in zip((run_links, tap_plan), before):
        now = cache.cache_info()
        assert now.misses == then.misses and now.hits >= then.hits + config.trials


@pytest.mark.parametrize("config", (HONEST, ATTACKED, ONE_TP), ids=("honest", "attacked", "one-tp"))
def test_an_experiment_never_hashes_a_stream_through_numpy(monkeypatch, config):
    # every trial's first spawn is the one hashed in its chunk; numpy's SeedSequence is the fallback only
    expected = run_experiment(config).canonical_json()

    def refuse(*args, **kwargs):
        raise AssertionError("a trial stream fell back to numpy's SeedSequence")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    assert run_experiment(config).canonical_json() == expected


def test_reports_are_canonically_byte_deterministic():
    assert run_experiment(HONEST).canonical_json() == run_experiment(HONEST).canonical_json()
    assert run_experiment(ATTACKED).canonical_json() == run_experiment(ATTACKED).canonical_json()


def test_report_round_trips_through_json():
    report = run_experiment(HONEST)
    assert ExperimentReport.from_json(json.dumps(report.to_dict(), indent=2)) == report


def test_a_report_names_the_versions_that_made_it_outside_its_canonical_bytes():
    report = run_experiment(HONEST)
    python = "%d.%d.%d" % sys.version_info[:3]
    assert report.env == {"qpc_sim": qpc_sim.__version__, "numpy": np.__version__, "python": python}
    assert "env" not in json.loads(report.canonical_json()) and "env" in report.to_dict()
    # each report owns its dict; the versions are read once per process
    assert report.env is not run_experiment(HONEST).env
    assert harness._environment.cache_info().currsize == 1
    # a report written before the block existed still reads, with the same canonical bytes
    data = report.to_dict()
    del data["env"]
    old = ExperimentReport.from_dict(data)
    assert old.env == {} and old.canonical_json() == report.canonical_json()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_honest_experiment_aggregates():
    report = run_experiment(HONEST)
    assert report.n_trials == 20
    assert report.n_completed == report.n_correct == 20
    assert report.n_aborted == 0
    assert report.correctness_rate == 1.0
    assert report.abort_rate == report.abort_stderr == 0.0
    assert report.analytic_abort == 0.0
    # every first-hop decoy is checked; the two second-hop phases partition the rest
    per_hop = 20 * HONEST.n * HONEST.l
    assert report.decoy_stats["step3"] == {"checked": per_hop, "mismatched": 0}
    assert (
        report.decoy_stats["step5"]["checked"] + report.decoy_stats["step6"]["checked"] == per_hop
    )
    assert report.decoy_stats["step5"]["mismatched"] == 0
    assert report.decoy_stats["step6"]["mismatched"] == 0


def test_attacked_experiment_aggregates():
    report = run_experiment(ATTACKED)
    assert report.n_completed + report.n_aborted == 30
    assert report.analytic_abort == pytest.approx(1 - 0.625**32)
    assert report.abort_rate > 0.9
    for row in report.trials:
        if row["aborted_at"] is not None:
            assert row["aborted_at"] in ("step3", "step5", "step6")
            assert row["ranking"] is None and row["correct"] is None


def test_fixed_secrets_hold_while_random_secrets_vary():
    fixed = run_experiment(
        ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=4, secrets=(3, 0, 2), trials=10, seed=2)
    )
    assert all(row["secrets"] == [3, 0, 2] for row in fixed.trials)

    random_cfg = ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=4, trials=20, seed=2)
    drawn = {tuple(row["secrets"]) for row in run_experiment(random_cfg).trials}
    assert len(drawn) > 1


def test_shared_key_fixed_and_random_modes():
    fixed = run_experiment(
        ExperimentConfig(variant="one-tp", n=2, d=14, r=5, l=4, shared_key=2, trials=10, seed=3)
    )
    assert all(row["shared_key"] == 2 for row in fixed.trials)

    random_cfg = ExperimentConfig(variant="one-tp", n=2, d=14, r=5, l=4, trials=30, seed=3)
    keys = {row["shared_key"] for row in run_experiment(random_cfg).trials}
    assert len(keys) > 1
    assert all(0 <= k < 5 for k in keys)


def test_two_tp_rows_carry_no_shared_key():
    report = run_experiment(HONEST)
    assert all(row["shared_key"] is None for row in report.trials)


def test_nonzero_threshold_has_no_analytic_form():
    cfg = ExperimentConfig(
        variant="two-tp", n=2, d=4, r=2, l=2, attack="ir-random", trials=5, seed=1, threshold=0.5
    )
    report = run_experiment(cfg)
    assert report.analytic_abort is None
    assert _csv_row(report.config, report)[CSV_COLUMNS.index("analytic")] == ""


def test_csv_row_matches_the_column_contract():
    report = run_experiment(HONEST)
    row = _csv_row(report.config, report)
    assert len(row) == len(CSV_COLUMNS)
    assert row[: len(CSV_COLUMNS) - 7] == ["two-tp", "3", "13", "5", "8", "none"]
    assert row[CSV_COLUMNS.index("trials")] == "20"
    assert row[CSV_COLUMNS.index("note")] == ""


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_abort_rate_grows_with_decoy_count():
    base = ExperimentConfig(variant="two-tp", n=2, d=4, r=2, l=1, attack="ir-random", trials=150, seed=17)
    cells = sweep(base, "l", [1, 2, 4])
    rates = [cell.report.abort_rate for cell in cells]
    analytic = [cell.report.analytic_abort for cell in cells]
    assert rates == sorted(rates)
    assert analytic == sorted(analytic)
    assert [cell.value for cell in cells] == [1, 2, 4]


def test_sweep_cells_reseed_deterministically():
    base = ExperimentConfig(variant="two-tp", n=2, d=5, r=2, l=2, trials=3, seed=17)
    cells = sweep(base, "d", [5, 7])
    assert [cell.seed for cell in cells] == [derive_cell_seed(17, 0), derive_cell_seed(17, 1)]
    assert all(cell.config["seed"] == cell.seed for cell in cells)
    again = sweep(base, "d", [5, 7])
    assert [c.report.canonical_json() for c in cells] == [c.report.canonical_json() for c in again]
    # a tuple axis sets its fields together, and cell i keeps the seed of index i
    paired = sweep(base, ("d", "r"), [(5, 2), (7, 3)])
    assert [cell.seed for cell in paired] == [cell.seed for cell in cells]
    assert [(cell.config["d"], cell.config["r"]) for cell in paired] == [(5, 2), (7, 3)]
    assert paired[0].report.canonical_json() == cells[0].report.canonical_json()


def test_sweep_skips_invalid_cells_with_the_reason():
    base = ExperimentConfig(variant="two-tp", n=2, d=13, r=5, l=2, trials=3, seed=0)
    cells = sweep(base, "d", [2, 13])
    assert cells[0].report is None
    assert "two-tp requires" in cells[0].skipped
    row = _csv_row(cells[0].config, cells[0].report, cells[0].skipped)
    assert len(row) == len(CSV_COLUMNS)
    assert row[:7] == ["two-tp", "2", "2", "5", "2", "none", "3"]  # the seven config columns
    assert row[7:12] == [""] * 5  # no results for a skipped cell
    assert row[-1].startswith("skipped: ")
    assert cells[1].report is not None and cells[1].skipped is None


def test_sweep_over_attacks_skips_inapplicable_insiders():
    base = ExperimentConfig(variant="one-tp", n=2, d=14, r=5, l=2, trials=3, seed=0)
    cells = sweep(base, "attack", ["none", "ir-random", "tp1-mr"])
    assert [cell.skipped is None for cell in cells] == [True, True, False]
    assert "does not apply" in cells[2].skipped


def test_sweep_cells_store_the_value_as_their_config_does():
    base = ExperimentConfig(variant="two-tp", n=2, d=5, r=2, l=1, trials=2, seed=0)
    cases = [
        ("n", np.arange(2, 4), [2, 3]),
        (("d", "r"), [(np.int64(5), 2), (7, np.int64(3))], [(5, 2), (7, 3)]),
        ("variant", [Variant.ONE_TP, "two-tp"], ["one-tp", "two-tp"]),
    ]
    for axis, values, stored in cases:
        cells = sweep(base, axis, values)
        assert [cell.value for cell in cells] == stored
        names = (axis,) if isinstance(axis, str) else axis
        assert [tuple(cell.config[name] for name in names) for cell in cells] == [
            (value,) if isinstance(axis, str) else value for value in stored
        ]
        # np.int64(5) == 5, but json.dumps raised TypeError on a numpy integer or a Variant left in a value
        json.dumps([cell.to_dict() for cell in cells])


def test_sweep_edge_cases():
    base = ExperimentConfig(variant="two-tp", n=2, d=5, r=2, l=2, trials=3, seed=0)
    assert sweep(base, "l", []) == []
    for axis in ("q", "seed", (), ("d", "q"), ("d", "d")):  # not distinct config fields a sweep may set
        with pytest.raises(ParameterError, match="axis"):
            sweep(base, axis, [1, 2])
    for value in ((5,), (5, 2, 1), 5):  # a tuple axis takes tuples of its own length
        with pytest.raises(ParameterError, match="tuple of 2 items"):
            sweep(base, ("d", "r"), [(7, 2), value])


@pytest.mark.parametrize(
    "seed, message",
    [("x", "seed must be an integer"), (-1, "seed must lie in"), (1.5, "seed must be an integer"),
     (None, "seed must be an integer"), (2**64, "seed must lie in"), (True, "seed must be an integer")],
    ids=repr,
)
def test_sweep_refuses_a_base_seed_that_validate_refuses(seed, message):
    # each cell derives its seed from the base's: "x" and -1 used to end in ValueError,
    # 1.5 and None in TypeError, and 2**64 and True ran
    base = dataclasses.replace(ExperimentConfig(variant="two-tp", n=2, d=5, r=2, l=2, trials=3), seed=seed)
    with pytest.raises(ParameterError, match=message):
        base.validate()
    with pytest.raises(ParameterError, match=message):
        sweep(base, "d", [5])


def test_sweep_checks_only_the_seed_of_its_base():
    # a sweep may set a field that is invalid in its base
    base = ExperimentConfig(variant="two-tp", n=2, d=2, r=5, l=2, trials=3, seed=np.uint64(2**64 - 1))
    [cell] = sweep(base, "d", [13])
    assert cell.skipped is None and cell.seed == derive_cell_seed(2**64 - 1, 0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

BASE_ARGS = ["--variant", "two-tp", "--n", "2", "--d", "5", "--r", "2", "--l", "2", "--trials", "4"]


def test_cli_prints_a_json_report(capsys):
    assert main(BASE_ARGS) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_trials"] == 4
    assert data["config"]["variant"] == "two-tp"
    assert data["config"]["seed"] == 0  # default when neither --seed nor the env var is set


def test_cli_csv_format(capsys):
    assert main(BASE_ARGS + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("two-tp,2,5,2,2,none,4,")


def test_cli_writes_json_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(BASE_ARGS + ["--seed", "9", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["config"]["seed"] == 9
    assert f"-> {out}" in capsys.readouterr().out


def test_cli_writes_sweep_csv(tmp_path):
    out = tmp_path / "cells.csv"
    args = BASE_ARGS + ["--attack", "ir-random", "--axis", "l", "--values", "1,2", "--format", "csv"]
    assert main(args + ["--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_cli_sweep_json_structure(capsys):
    assert main(BASE_ARGS + ["--axis", "d", "--values", "5,7"]) == 0
    cells = json.loads(capsys.readouterr().out)
    assert [cell["value"] for cell in cells] == [5, 7]
    assert all(cell["report"]["n_trials"] == 4 for cell in cells)


def test_cli_sweep_canonical_bytes_are_pinned(capsys):
    # d=2 is below two-tp's bound at r=2, so the middle cell is a skip
    assert main(BASE_ARGS + ["--seed", "4", "--axis", "d", "--values", "5,2,7"]) == 0
    cells = json.loads(capsys.readouterr().out)
    assert [cell["report"] is None for cell in cells] == [False, True, False]
    canonical = [
        {**cell, "report": cell["report"] and ExperimentReport.from_dict(cell["report"]).canonical_json()}
        for cell in cells
    ]
    digest = hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()
    assert digest == "7f21aea8881c26fb3eba7467766a1d87f6973c37cb6e1d027bcbfd92323fe07f"


ONE_TP_ARGS = ["--variant", "one-tp", "--n", "2", "--d", "5", "--r", "2", "--l", "1", "--trials", "10"]
ATTACKED_ARGS = BASE_ARGS + ["--attack", "ir-random", "--l", "1", "--trials", "10", "--seed", "3"]

# sha256 of the CLI's stdout, with the values of wall_clock_s and env masked
# (they vary by run and by installed numpy); every other byte is pinned, and
# --out writes the same bytes
STDOUT_SHA256 = {
    "report-json": (ATTACKED_ARGS, "df154f4d96bfd5de7e2761a6ffb0fea424186ede22ecc51316c58328ef487478"),
    "report-csv": (
        ATTACKED_ARGS + ["--format", "csv"],
        "bb79e9a7fc2537c38a311e071dab22dde9c0ed9e61480a5e5a14096b288e2070",
    ),
    "threshold-csv": (
        ONE_TP_ARGS + ["--attack", "ir-random", "--threshold", "0.3", "--format", "csv"],
        "7cdd852204fec5fb4f36045e4fae1e47e1d5d53568c3c3b6c8933eda6cfb1503",
    ),
    "sweep-d-json": (
        BASE_ARGS + ["--seed", "4", "--axis", "d", "--values", "5,2,7"],
        "0b085b3b9b7c83f08e3b5f8729f36136124dc3f1bcbe7876a4b5d2a72831127f",
    ),
    "sweep-d-csv": (
        BASE_ARGS + ["--seed", "4", "--axis", "d", "--values", "5,2,7", "--format", "csv"],
        "5c8ee3f995cd14729befb2df6de535a4fa2e01a3eabb362ee3ff575fdb18c7fb",
    ),
    "sweep-attack-csv": (
        ONE_TP_ARGS + ["--axis", "attack", "--values", "none,ir-random,tp1-mr", "--format", "csv"],
        "49ac67669b5df6b773ada1c976da832aba35f08eaefbf5b6f107e1ec3e00eb1e",
    ),
}


def _masked_stdout(text: str) -> str:
    text = re.sub(r'"wall_clock_s": [^,\n]+', '"wall_clock_s": 0', text)
    return re.sub(r'"env": \{[^{}]*\}', '"env": {}', text)


@pytest.mark.parametrize("shape", sorted(STDOUT_SHA256))
def test_cli_stdout_bytes_are_pinned(shape, capsys, tmp_path):
    args, expected = STDOUT_SHA256[shape]
    assert main(args) == 0
    out = capsys.readouterr().out
    if shape == "threshold-csv":
        assert out.splitlines()[1].split(",")[CSV_COLUMNS.index("analytic")] == ""  # no closed form at threshold 0.3
    if shape.startswith("sweep"):
        assert "skipped: " in out or '"skipped": "' in out
    assert hashlib.sha256(_masked_stdout(out).encode()).hexdigest() == expected
    assert main(args + ["--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert _masked_stdout((tmp_path / "out").read_bytes().decode()) == _masked_stdout(out)


def test_cli_exit_codes_for_bad_configs(capsys):
    # dimension bound violated
    assert main(["--variant", "two-tp", "--n", "2", "--d", "3", "--r", "5"]) == 2
    assert "error:" in capsys.readouterr().err
    # --values without --axis, and the converse
    assert main(BASE_ARGS + ["--values", "1,2"]) == 2
    assert main(BASE_ARGS + ["--axis", "l"]) == 2
    # non-integer values for a numeric axis, bad secrets, two-tp with a key
    assert main(BASE_ARGS + ["--axis", "l", "--values", "1,x"]) == 2
    assert main(BASE_ARGS + ["--secrets", "1,zebra"]) == 2
    assert main(BASE_ARGS + ["--c", "1"]) == 2


@pytest.mark.parametrize("axis", ["d", "attack"])
@pytest.mark.parametrize("values", ["", ",", " , "], ids=("empty", "comma", "blank"))
def test_cli_empty_values_exit_2_with_one_error_line(capsys, axis, values):
    assert main(BASE_ARGS + ["--axis", axis, "--values", values]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: --values for axis {axis!r} names no value, got {values!r}"]


@pytest.mark.parametrize(
    "sizes, error",
    [
        (["--n", "2", "--d", "1000000000"], f"qudit dimension must lie in [2, {MAX_DIM}], got d=1000000000"),
        (
            ["--n", "1000000000000", "--d", "13", "--l", "8"],
            f"a run moves 2*n*(l+1) <= {MAX_QUDITS} qudits, got n=1000000000000 and l=8",
        ),
        (
            ["--n", "2", "--d", "13", "--l", "1000000000000"],
            f"a run moves 2*n*(l+1) <= {MAX_QUDITS} qudits, got n=2 and l=1000000000000",
        ),
    ],
    ids=("d", "n", "l"),
)
def test_cli_rejects_a_dimension_above_the_cap_before_running(monkeypatch, capsys, sizes, error):
    def must_not_run(*args):
        raise AssertionError("a refused size reached the protocol")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    monkeypatch.setattr(cli, "sweep", must_not_run)
    assert main(["--variant", "two-tp", *sizes, "--r", "2", "--attack", "ir-random"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {error}"]


def test_cli_exit_codes_for_bad_flags(capsys):
    assert main(BASE_ARGS + ["--bogus"]) == 2
    assert main(["--n", "2", "--d", "5", "--r", "2"]) == 2  # --variant is required
    assert main(BASE_ARGS + ["--attack", "phish"]) == 2
    capsys.readouterr()


def test_cli_main_builds_its_parser_once(capsys):
    cli.build_parser.cache_clear()
    outputs = []
    for _ in range(2):
        assert main(BASE_ARGS + ["--format", "csv"]) == 0  # CSV carries no wall clock
        outputs.append(capsys.readouterr().out)
    assert cli.build_parser.cache_info().misses == 1
    assert outputs[0] == outputs[1]


def test_a_cli_call_leaves_no_argparse_object_for_the_collector(capsys):
    assert main(BASE_ARGS) == 0  # the process's one parser is built by now, and stays reachable
    enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # what a collection finds unreachable goes to gc.garbage, not freed
    try:
        assert main(BASE_ARGS) == 0
        gc.collect()
        left = [type(obj).__qualname__ for obj in gc.garbage[kept:] if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]
        if enabled:
            gc.enable()
    assert left == []
    capsys.readouterr()


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _not_random(text: str) -> bool:
    return text.strip().lower() != "random"


# Bad values per flag against BASE_ARGS (two-tp, n=2, d=5, r=2, l=2, trials=4).
# --out is left out: an unwritable path is an I/O failure, exit code 3.
_BAD_FLAG_VALUES = {
    "--variant": st.text(max_size=8).filter(lambda v: v not in ("two-tp", "one-tp")),
    # above the cap, 2n(l+1) > MAX_QUDITS, at the base l=2 and n=2
    "--n": st.one_of(int_texts(max_value=1), int_texts(min_value=MAX_QUDITS // 6 + 1), unparsable(int)),
    "--d": st.one_of(int_texts(max_value=2), int_texts(min_value=MAX_DIM + 1), unparsable(int)),
    "--r": st.one_of(int_texts(max_value=0), int_texts(min_value=4), unparsable(int)),
    "--l": st.one_of(int_texts(max_value=0), int_texts(min_value=MAX_QUDITS // 4), unparsable(int)),
    "--secrets": st.one_of(
        st.lists(st.integers(0, 1), max_size=4).filter(lambda s: len(s) != 2).map(_csv),
        st.tuples(st.integers(), st.integers()).filter(lambda s: not all(0 <= v < 2 for v in s)).map(_csv),
        unparsable(lambda t: [int(part) for part in t.split(",")]).filter(_not_random),
    ),
    "--c": st.text(max_size=8).filter(_not_random),  # two-tp takes no shared key
    "--attack": st.text(max_size=12).filter(lambda v: v not in ATTACK_IDS),
    "--trials": st.one_of(int_texts(max_value=0), unparsable(int)),
    "--seed": st.one_of(int_texts(max_value=-1), int_texts(min_value=2**64), unparsable(int)),
    "--threshold": st.one_of(st.floats().filter(lambda v: not 0 <= v <= 1).map(str), unparsable(float)),
    "--format": st.text(max_size=8).filter(lambda v: v not in ("json", "csv")),
    "--axis": st.text(max_size=8).filter(lambda v: v not in ("d", "l", "attack")),
    "--values": st.text(max_size=8),  # without --axis
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_BAD_FLAG_VALUES)).flatmap(lambda flag: st.tuples(st.just(flag), _BAD_FLAG_VALUES[flag])))
def test_cli_bad_flag_values_exit_2_with_one_error_line(case):
    flag, value = case
    args = dict(zip(BASE_ARGS[::2], BASE_ARGS[1::2]))
    args[flag] = value
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([part for pair in args.items() for part in pair])
    assert code == 2, (args, err.getvalue())
    assert out.getvalue() == ""
    assert len([line for line in err.getvalue().splitlines() if "error:" in line]) == 1, err.getvalue()


class _FullStdout(io.StringIO):
    def write(self, text: str) -> int:
        raise OSError(errno.ENOSPC, "No space left on device")


def test_cli_io_failure_exit_code(tmp_path, capsys, monkeypatch):
    missing_dir = tmp_path / "nope" / "report.json"
    assert main(BASE_ARGS + ["--out", str(missing_dir)]) == 3
    assert "cannot write" in capsys.readouterr().err

    # stdout is a destination like --out: a failed write is exit 3 with one line;
    # python's sys.stdout is None when file descriptor 1 was closed at start
    for stdout in (_FullStdout(), None):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert main(BASE_ARGS) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot write stdout: ")

    # a pipe whose reader is gone, with stdout buffered as by default, so that
    # the exit's flush would retry an unwritten rest
    read, write = os.pipe()
    os.close(read)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qpc_sim.cli", *BASE_ARGS], stdout=write, stderr=subprocess.PIPE, text=True,
            env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 3, proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [proc.stderr.strip()]
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("extra", ([], ["--axis", "d", "--values", "5,7"]), ids=("single", "sweep"))
def test_cli_unwritable_out_exits_3_before_any_run(monkeypatch, tmp_path, capsys, extra):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: calls.append(("run_experiment", args)))
    monkeypatch.setattr(cli, "sweep", lambda *args: calls.append(("sweep", args)))
    assert main(BASE_ARGS + extra + ["--out", str(tmp_path / "nope" / "report.json")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: cannot write ")
    assert calls == []


def test_cli_seed_defaults_to_0_and_reads_no_environment(monkeypatch, capsys):
    monkeypatch.setenv("QPC_SIM_SEED", "123")  # set, and not read
    assert main(BASE_ARGS) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 0
    assert main(BASE_ARGS + ["--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 7


@pytest.mark.parametrize(
    "args",
    (
        ["--variant", "two-tp", "--n", "3", "--d", "3", "--r", "5", "--axis", "d", "--values", "13,17"],
        ["--variant", "one-tp", "--n", "3", "--d", "17", "--r", "5", "--attack", "tp1-mr", "--axis", "attack",
         "--values", "none,ir-random"],
    ),
    ids=("base-d-invalid", "base-attack-invalid"),
)
def test_cli_sweep_runs_when_its_cells_are_valid_though_its_base_is_not(args, capsys):
    # the field the axis replaces is never run, so only the cells are checked
    assert main(args + ["--l", "2", "--trials", "2"]) == 0
    cells = json.loads(capsys.readouterr().out)
    assert [cell["skipped"] for cell in cells] == [None, None]


def test_cli_sweep_with_no_valid_cell_exits_2_with_the_first_cells_reason(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    args = ["--variant", "two-tp", "--n", "3", "--d", "13", "--r", "5", "--l", "2", "--trials", "2"]
    assert main(args + ["--axis", "d", "--values", "3,4", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: two-tp requires d >= 2*r - 1 (got d=3, r=5)\n")
    assert not out.exists()  # refused before --out opens


def test_cli_secrets_and_key_flags(capsys):
    assert main(BASE_ARGS + ["--secrets", "1,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["secrets"] == [1, 0]
    assert all(row["secrets"] == [1, 0] for row in data["trials"])

    one_tp = ["--variant", "one-tp", "--n", "2", "--d", "14", "--r", "5", "--l", "2", "--trials", "3"]
    assert main(one_tp + ["--c", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(row["shared_key"] == 2 for row in data["trials"])


@pytest.mark.skipif(shutil.which("qpc-sim") is None, reason="console script not on PATH")
def test_installed_entry_point_runs():
    proc = subprocess.run(
        ["qpc-sim", *BASE_ARGS, "--trials", "2"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_trials"] == 2
