"""Adversary tests: strategy registry, tap mechanics, analytic detection rates
checked against Monte-Carlo runs, and the coalition privacy audit, whose
closed-form support is checked against a brute-force oracle."""
from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import pickle
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_draws
from dense_oracle import basis_state, overlap
from qpc_sim import (
    ATTACK_IDS,
    Coalition,
    ExperimentConfig,
    ParameterError,
    ProtocolParams,
    Variant,
    allowed_coalitions,
    analytic_abort_probability,
    coalition_view,
    per_decoy_detection_probability,
    run_experiment,
    run_one_tp_protocol,
    run_trial,
    run_two_tp_protocol,
    secret_support,
    strategy_from_id,
    tapped_checked_decoys,
)
from qpc_sim.adversary import MAX_AUDIT_PARTIES, AttackStrategy, View, tap_plan
from qpc_sim.channel import OUTSIDER, PUBLIC, Transcript
from qpc_sim.harness import _trial_runs
from qpc_sim.protocol import pad_sum_range, run_links
from qpc_sim.qudit import Basis, BasisLabel

TWO_TP = ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8)
ONE_TP = ProtocolParams(Variant.ONE_TP, n=3, d=17, r=5, l=8)


# ---------------------------------------------------------------------------
# registry and construction
# ---------------------------------------------------------------------------

def test_registry_ids_are_stable():
    assert ATTACK_IDS == (
        "none",
        "ir-fixed-t1",
        "ir-fixed-t2",
        "ir-random",
        "tp1-mr",
        "tp2-mr",
        "outsider-classical",
    )


@pytest.mark.parametrize("attack_id", ATTACK_IDS)
def test_ids_round_trip(attack_id):
    # every id names a distinct strategy, so a strategy maps back to its id
    ids_by_strategy = {strategy_from_id(known): known for known in ATTACK_IDS}
    assert ids_by_strategy[strategy_from_id(attack_id)] == attack_id


def test_unknown_id_error_lists_the_valid_ones():
    with pytest.raises(ParameterError, match="ir-random"):
        strategy_from_id("quantum-hacking")


def test_owners_and_activity():
    assert strategy_from_id("tp1-mr").owner == "TP1"
    assert strategy_from_id("tp2-mr").owner == "TP2"
    assert strategy_from_id("ir-random").owner == OUTSIDER
    assert strategy_from_id("outsider-classical").owner == OUTSIDER
    assert not strategy_from_id("none").active
    assert not strategy_from_id("outsider-classical").active
    assert all(strategy_from_id(a).active for a in ("ir-fixed-t1", "ir-fixed-t2", "ir-random", "tp1-mr", "tp2-mr"))


# ---------------------------------------------------------------------------
# link selection
# ---------------------------------------------------------------------------

#: The preparer and measurer of each wiring, written out independently of ``WIRING``.
_ENDS = {Variant.TWO_TP: ("TP1", "TP2"), Variant.ONE_TP: ("TP", "TP")}

#: Hops each attack taps on each wiring: "first" is preparer -> party, "second" is party -> measurer.
_TAPPED_HOPS = {
    ("none", Variant.TWO_TP): (),
    ("none", Variant.ONE_TP): (),
    ("ir-fixed-t1", Variant.TWO_TP): ("first", "second"),
    ("ir-fixed-t1", Variant.ONE_TP): ("first", "second"),
    ("ir-fixed-t2", Variant.TWO_TP): ("first", "second"),
    ("ir-fixed-t2", Variant.ONE_TP): ("first", "second"),
    ("ir-random", Variant.TWO_TP): ("first", "second"),
    ("ir-random", Variant.ONE_TP): ("first", "second"),
    ("tp1-mr", Variant.TWO_TP): ("second",),  # the preparing TP taps the encoded hop it does not terminate
    ("tp1-mr", Variant.ONE_TP): (),  # the lone TP terminates both hops
    ("tp2-mr", Variant.TWO_TP): ("first",),  # the measuring TP taps the hop before encoding
    ("tp2-mr", Variant.ONE_TP): (),
    ("outsider-classical", Variant.TWO_TP): (),
    ("outsider-classical", Variant.ONE_TP): (),
}


def test_the_tapped_hop_table_covers_every_attack_on_every_wiring():
    assert set(_TAPPED_HOPS) == set(itertools.product(ATTACK_IDS, Variant))


@pytest.mark.parametrize("n", [2, 3, 12])
@pytest.mark.parametrize("attack_id, variant", list(_TAPPED_HOPS))
def test_run_links_tap_exactly_the_hops_of_the_table(attack_id, variant, n):
    # ProtocolParams directly, so the insiders are also checked on one-tp, where validate refuses them
    params = ProtocolParams(variant, n=n, d=17, r=5, l=1)
    strategy = strategy_from_id(attack_id)
    preparer, measurer = _ENDS[variant]
    labels = {
        "first": {f"{preparer}->P{i}" for i in range(1, n + 1)},
        "second": {f"P{i}->{measurer}" for i in range(1, n + 1)},
    }
    expected = set().union(*(labels[hop] for hop in _TAPPED_HOPS[attack_id, variant]))
    links = list(itertools.chain(*run_links(params, strategy)))
    assert len(links) == 2 * n
    assert {link.label for link in links if link.tapper is strategy} == expected
    assert all(link.tapper is None for link in links if link.label not in expected)
    assert tapped_checked_decoys(strategy, params) == params.l * len(expected)


def test_the_run_shape_memos_tell_strategies_apart_by_every_field():
    # the memos key a strategy by its fields, not its id alone: a strategy of another basis, activity or owner
    # under the same id is another run shape
    params = ProtocolParams(Variant.TWO_TP, n=2, d=5, r=2, l=3)
    base = AttackStrategy("custom", active=True, owner=OUTSIDER)
    variants = [
        base,
        dataclasses.replace(base, basis=Basis.FOURIER),
        dataclasses.replace(base, basis=Basis.COMPUTATIONAL),
        dataclasses.replace(base, active=False),
        dataclasses.replace(base, owner="TP1"),
    ]
    plans = [tap_plan(params, strategy) for strategy in variants]
    # an outsider taps all four links, TP1 the two second hops; l+1 = 4 taps a link
    assert plans == [(16, (2, 0)), (16, (0,)), (16, (0,)), (0, ()), (8, (2, 0))]
    for strategy in variants:
        assert all(link.tapper in (None, strategy) for link in itertools.chain(*run_links(params, strategy)))


# ---------------------------------------------------------------------------
# tap mechanics
# ---------------------------------------------------------------------------

def test_passive_tap_forwards_the_state_untouched():
    state = basis_state(5, Basis.FOURIER, 3)
    out = strategy_from_id("none").tap(state, "TP1->P1", 0, np.random.default_rng(0), Transcript())
    assert out is state


def test_active_tap_fires_only_on_the_links_it_taps():
    strategy = strategy_from_id("tp1-mr")
    # full tolerance keeps the run alive through both hops
    params = ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8, error_threshold=1.0)
    transcript, outcome = run_two_tp_protocol(params, (2, 4, 1), strategy, seeded_draws(params, strategy, 3))
    assert outcome.completed
    taps = [e for e in transcript.events() if e["kind"] == "tap"]
    # every second-hop qudit is measured, no first-hop one is
    assert {e["link"] for e in taps} == {"P1->TP2", "P2->TP2", "P3->TP2"}
    assert len(taps) == params.n * (params.l + 1)


def test_measure_resend_collapses_to_the_measured_basis():
    draws = iter(np.random.default_rng(7).random(1).tolist())  # a fixed basis draws no coin
    state = BasisLabel.prepare(4, Basis.FOURIER, 1)
    out = strategy_from_id("ir-fixed-t1").tap(state, "TP1->P1", 0, draws, Transcript())
    # the resent state is some computational eigenstate
    assert any(
        overlap(out, basis_state(4, Basis.COMPUTATIONAL, j)) == pytest.approx(1.0) for j in range(4)
    )


def test_measure_resend_in_the_preparation_basis_is_invisible():
    draws = iter(np.random.default_rng(7).random(1).tolist())
    state = BasisLabel.prepare(4, Basis.COMPUTATIONAL, 2)
    out = strategy_from_id("ir-fixed-t1").tap(state, "TP1->P1", 0, draws, Transcript())
    assert overlap(out, state) == pytest.approx(1.0)


def test_tap_events_land_in_the_owners_view_only():
    strategy = strategy_from_id("ir-random")
    # full tolerance keeps the run alive through both hops
    params = ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8, error_threshold=1.0)
    transcript, _ = run_two_tp_protocol(params, (2, 4, 1), strategy, seeded_draws(params, strategy, 3))
    taps = [e for e in transcript.view(OUTSIDER) if e["kind"] == "tap"]
    # every qudit of every hop got measured: 2 hops x n parties x (l + 1) slots
    assert len(taps) == 2 * params.n * (params.l + 1)
    assert all(e["basis"] in ("computational", "fourier") for e in taps)
    assert all(e["kind"] != "tap" for e in transcript.view())
    assert all(e["kind"] != "tap" for e in transcript.view("P1"))


def test_insider_tap_events_land_in_that_tps_view():
    strategy = strategy_from_id("tp2-mr")
    transcript, _ = run_two_tp_protocol(TWO_TP, (2, 4, 1), strategy, seeded_draws(TWO_TP, strategy, 3))
    taps = [e for e in transcript.view("TP2") if e["kind"] == "tap"]
    assert {e["link"] for e in taps} == {"TP1->P1", "TP1->P2", "TP1->P3"}
    assert all(e["basis"] == "computational" for e in taps)
    assert all(e["kind"] != "tap" for e in transcript.view("TP1"))


# ---------------------------------------------------------------------------
# analytic detection rates
# ---------------------------------------------------------------------------

def test_per_decoy_rates_frozen_values():
    ir_random = strategy_from_id("ir-random")
    assert per_decoy_detection_probability(ir_random, 2) == pytest.approx(0.25)
    assert per_decoy_detection_probability(ir_random, 4) == pytest.approx(0.375)

    t1 = strategy_from_id("ir-fixed-t1")
    assert per_decoy_detection_probability(t1, 4) == pytest.approx(0.375)
    assert per_decoy_detection_probability(t1, 4, Basis.COMPUTATIONAL) == 0.0
    assert per_decoy_detection_probability(t1, 4, Basis.FOURIER) == pytest.approx(0.75)

    t2 = strategy_from_id("ir-fixed-t2")
    assert per_decoy_detection_probability(t2, 4, Basis.FOURIER) == 0.0
    assert per_decoy_detection_probability(t2, 4, Basis.COMPUTATIONAL) == pytest.approx(0.75)

    for insider in ("tp1-mr", "tp2-mr"):
        strategy = strategy_from_id(insider)
        assert per_decoy_detection_probability(strategy, 4) == pytest.approx(0.375)
        assert per_decoy_detection_probability(strategy, 4, Basis.COMPUTATIONAL) == 0.0
        assert per_decoy_detection_probability(strategy, 4, Basis.FOURIER) == pytest.approx(0.75)


def test_per_decoy_rate_rejects_passive_strategies_and_bad_dimensions():
    with pytest.raises(ParameterError):
        per_decoy_detection_probability(strategy_from_id("none"), 4)
    with pytest.raises(ParameterError):
        per_decoy_detection_probability(strategy_from_id("outsider-classical"), 4)
    with pytest.raises(ParameterError):
        per_decoy_detection_probability(strategy_from_id("ir-random"), 1)


@pytest.mark.parametrize("d", [2.5, 4.0, True, "4", None])
def test_per_decoy_rate_refuses_a_dimension_that_is_not_an_integer(d):
    with pytest.raises(ParameterError, match="dimension must be an integer"):
        per_decoy_detection_probability(strategy_from_id("ir-random"), d)


@pytest.mark.parametrize("decoy_basis", ["computational", "fourier", 0, True])
def test_per_decoy_rate_refuses_a_decoy_basis_that_is_not_a_basis(decoy_basis):
    # the string named a basis but was compared by identity, so it read as the conjugate basis: 0.75, not 0.0
    with pytest.raises(ParameterError, match="decoy_basis must be a Basis"):
        per_decoy_detection_probability(strategy_from_id("tp1-mr"), 4, decoy_basis)


def test_per_decoy_rate_takes_numpy_integer_dimensions():
    strategy = strategy_from_id("tp1-mr")
    assert per_decoy_detection_probability(strategy, np.int64(4), Basis.FOURIER) == pytest.approx(0.75)
    assert per_decoy_detection_probability(strategy, np.uint8(4)) == per_decoy_detection_probability(strategy, 4)


def test_tapped_decoy_counts():
    assert tapped_checked_decoys(strategy_from_id("ir-random"), TWO_TP) == 48
    assert tapped_checked_decoys(strategy_from_id("ir-fixed-t2"), TWO_TP) == 48
    assert tapped_checked_decoys(strategy_from_id("tp1-mr"), TWO_TP) == 24
    assert tapped_checked_decoys(strategy_from_id("tp2-mr"), TWO_TP) == 24
    assert tapped_checked_decoys(strategy_from_id("none"), TWO_TP) == 0
    assert tapped_checked_decoys(strategy_from_id("outsider-classical"), TWO_TP) == 0
    # the single-TP wiring leaves insiders with nothing to tap
    assert tapped_checked_decoys(strategy_from_id("ir-random"), ONE_TP) == 48
    assert tapped_checked_decoys(strategy_from_id("tp1-mr"), ONE_TP) == 0
    assert tapped_checked_decoys(strategy_from_id("tp2-mr"), ONE_TP) == 0


def _tap_oracle_cases():
    """Every attack x variant that validates, at full tolerance so that every check runs."""
    for attack, variant, (n, l) in itertools.product(ATTACK_IDS, ("two-tp", "one-tp"), ((2, 1), (3, 8))):
        config = ExperimentConfig(
            variant=variant, n=n, d=13, r=4, l=l, attack=attack, trials=1, seed=17, threshold=1.0
        )
        try:
            config.validate()
        except ParameterError:
            continue
        yield pytest.param(config, id=f"{attack}-{variant}-n{n}-l{l}")


@pytest.mark.parametrize("config", _tap_oracle_cases())
def test_tapped_decoy_count_matches_the_checks_a_run_makes(config):
    params, strategy = config.validate()
    run = run_trial(config, 0)
    assert run.outcome.completed
    events = run.transcript.events()
    checks = [e for e in events if e["kind"] == "decoy_check"]
    # every link that carried qudits was checked
    assert {e["link"] for e in checks} == {e["link"] for e in events if e["kind"] == "transmit"}
    # the oracle is the run itself: a link is tapped when the transcript holds a tap on it
    tapped = {e["link"] for e in events if e["kind"] == "tap"}
    assert len([e for e in events if e["kind"] == "tap"]) == len(tapped) * (params.l + 1)
    counted = sum(e["checked"] for e in checks if e["link"] in tapped)
    assert counted == tapped_checked_decoys(strategy, params)


def test_analytic_abort_probability_frozen_value():
    params = ProtocolParams(Variant.TWO_TP, n=2, d=2, r=1, l=1)
    # 4 tapped decoys, each flagging with probability 1/4
    assert analytic_abort_probability(strategy_from_id("ir-random"), params) == pytest.approx(1 - 0.75**4)
    assert analytic_abort_probability(strategy_from_id("none"), params) == 0.0
    assert analytic_abort_probability(strategy_from_id("tp1-mr"), ONE_TP) == 0.0


def test_analytic_abort_probability_requires_zero_threshold():
    params = ProtocolParams(Variant.TWO_TP, n=2, d=2, r=1, l=1, error_threshold=0.5)
    with pytest.raises(ParameterError):
        analytic_abort_probability(strategy_from_id("ir-random"), params)


_RANDOM = strategy_from_id("ir-random")


@pytest.mark.parametrize(
    "call",
    [
        lambda: per_decoy_detection_probability("ir-random", 4),
        lambda: per_decoy_detection_probability(None, 4),
        lambda: tapped_checked_decoys("ir-random", TWO_TP),
        lambda: analytic_abort_probability("ir-random", TWO_TP),
        lambda: analytic_abort_probability(TWO_TP, TWO_TP),
    ],
)
def test_analytics_refuse_a_strategy_that_is_not_an_attack_strategy(call):
    # an attack id string used to end in AttributeError
    with pytest.raises(ParameterError, match="strategy must be of type AttackStrategy"):
        call()


@pytest.mark.parametrize("params", ["x", None, ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=8)])
def test_analytics_refuse_params_that_are_not_protocol_params(params):
    for analytic in (tapped_checked_decoys, analytic_abort_probability):
        with pytest.raises(ParameterError, match="params must be of type ProtocolParams"):
            analytic(_RANDOM, params)


def test_detection_rate_degenerate_cases():
    report = run_experiment(ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=8, trials=5, seed=0))
    assert (report.abort_rate, report.abort_stderr) == (0.0, 0.0)
    with pytest.raises(ParameterError, match="trials"):
        run_experiment(ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=8, trials=0))


def test_insiders_are_invisible_in_the_single_tp_variant():
    for attack_id in ("tp1-mr", "tp2-mr"):
        strategy = strategy_from_id(attack_id)
        rng = np.random.default_rng(1)
        for _ in range(20):
            secrets = [int(s) for s in rng.integers(0, ONE_TP.r, size=ONE_TP.n)]
            key = int(rng.integers(0, ONE_TP.r))
            draws = seeded_draws(ONE_TP, strategy, int(rng.integers(2**32)))
            transcript, outcome = run_one_tp_protocol(ONE_TP, secrets, key, strategy, draws)
            assert outcome.completed
            assert all(e["kind"] != "tap" for e in transcript.events())


#: Trials of each l=1 case, by d: the fewest at which the 4-sigma bands around
#: the analytic rate and around the one-tapped-link-fewer rate are disjoint.
_OUTSIDER_L1_TRIALS = {2: 1323, 4: 1189, 8: 1230}  # four tapped links at n=2
_INSIDER_L1_TRIALS = {2: 393, 4: 276, 8: 245}  # two tapped links at n=2
L1_TRIALS = {
    "ir-fixed-t1": _OUTSIDER_L1_TRIALS,
    "ir-fixed-t2": _OUTSIDER_L1_TRIALS,
    "ir-random": _OUTSIDER_L1_TRIALS,
    "tp1-mr": _INSIDER_L1_TRIALS,
    "tp2-mr": _INSIDER_L1_TRIALS,
}


def _bands_are_disjoint(expected: float, wrong: float, trials: int) -> bool:
    sigma, sigma_wrong = (np.sqrt(q * (1 - q) / trials) for q in (expected, wrong))
    return 4 * (sigma + sigma_wrong) < expected - wrong


@pytest.mark.parametrize("attack_id", ["ir-fixed-t1", "ir-fixed-t2", "ir-random", "tp1-mr", "tp2-mr"])
@pytest.mark.parametrize(
    "d, l",
    # at l=8 every case aborts with q >= 0.99; at l=1, q lies between 0.44 and 0.90
    [pytest.param(d, 8, id=str(d)) for d in (2, 4, 8)] + [pytest.param(d, 1, id=f"{d}-l1") for d in (2, 4, 8)],
)
def test_monte_carlo_abort_rate_matches_the_analytic_form(attack_id, d, l):
    r = 1 if d < 3 else 2
    trials = 200 if l == 8 else L1_TRIALS[attack_id][d]
    config = ExperimentConfig(
        variant="two-tp", n=2, d=d, r=r, l=l, attack=attack_id, trials=trials, seed=d * 1000 + len(attack_id)
    )
    params, strategy = config.validate()
    expected = analytic_abort_probability(strategy, params)
    if l == 1:
        # sized so that a count off by one tapped link fails
        p = per_decoy_detection_probability(strategy, params.d)
        wrong = 1 - (1 - p) ** (tapped_checked_decoys(strategy, params) - params.l)
        assert _bands_are_disjoint(expected, wrong, trials)
        assert not _bands_are_disjoint(expected, wrong, trials - 1)
    rate = run_experiment(config).abort_rate
    sigma = np.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) <= 4 * sigma + 1e-9


def test_one_tp_outsider_abort_rate_matches_the_analytic_form():
    config = ExperimentConfig(variant="one-tp", n=2, d=4, r=1, l=4, attack="ir-random", trials=200, seed=77)
    params, strategy = config.validate()
    expected = analytic_abort_probability(strategy, params)  # 16 tapped decoys
    rate = run_experiment(config).abort_rate
    sigma = np.sqrt(expected * (1 - expected) / 200)
    assert abs(rate - expected) <= 4 * sigma + 1e-9


def test_mid_range_abort_rate_tells_the_analytic_form_from_one_tapped_link_fewer():
    # enough trials that the 4-sigma bands around the right rate and the planted wrong one are disjoint
    trials = 2000
    config = ExperimentConfig(variant="two-tp", n=2, d=4, r=1, l=1, attack="ir-random", trials=trials, seed=41)
    params, strategy = config.validate()
    expected = analytic_abort_probability(strategy, params)
    p = per_decoy_detection_probability(strategy, params.d)
    wrong = 1 - (1 - p) ** (tapped_checked_decoys(strategy, params) - params.l)
    assert (expected, wrong) == (pytest.approx(1 - 0.625**4), pytest.approx(1 - 0.625**3))
    sigma, sigma_wrong = (np.sqrt(q * (1 - q) / trials) for q in (expected, wrong))
    assert 4 * (sigma + sigma_wrong) < expected - wrong
    rate = run_experiment(config).abort_rate
    assert abs(rate - expected) <= 4 * sigma
    assert abs(rate - wrong) > 4 * sigma_wrong


# ---------------------------------------------------------------------------
# coalitions
# ---------------------------------------------------------------------------

def test_coalition_validation():
    Coalition(frozenset({"TP1"}), target=0)
    Coalition(frozenset({"P2", "P3"}), target=0)
    with pytest.raises(ParameterError):
        Coalition(frozenset(), target=0)
    with pytest.raises(ParameterError):
        Coalition(frozenset({"EVE"}), target=0)
    with pytest.raises(ParameterError):
        Coalition(frozenset({"TP1", "TP2"}), target=0)
    with pytest.raises(ParameterError):
        Coalition(frozenset({"TP1", "P2"}), target=0)
    with pytest.raises(ParameterError):
        Coalition(frozenset({"P1"}), target=0)
    with pytest.raises(ParameterError):
        Coalition(frozenset({"P2"}), target=-1)
    # a party role is P1, P2, ...: no P0, no leading zero, no trailing newline
    for role in ("P0", "P01", "P1\n"):
        with pytest.raises(ParameterError, match="unknown coalition role"):
            Coalition(frozenset({role}), target=1)
    with pytest.raises(ParameterError, match="unknown coalition role 1"):
        Coalition(frozenset({1}), target=0)


@pytest.mark.parametrize("target", [True, False, 1.0, 1.5, "1", None])
def test_coalition_target_must_be_an_integer_index(target):
    # a bool is no party index: True would audit party 2
    with pytest.raises(ParameterError, match="target must be a 0-based party index"):
        Coalition(frozenset({"TP2"}), target)


def test_coalition_stores_a_numpy_target_as_int():
    coalition = Coalition(["P2", "P3"], np.int64(0))
    assert type(coalition.target) is int and coalition.members == frozenset({"P2", "P3"})
    assert coalition == Coalition(frozenset({"P2", "P3"}), 0)
    transcript = _run(TWO_TP)
    assert secret_support(coalition_view(transcript, coalition), TWO_TP).target == 0


def test_coalition_members_must_be_a_collection_of_role_ids():
    with pytest.raises(ParameterError, match="members must be a collection of role ids, got the string 'P2'"):
        Coalition("P2", 0)
    for members in (None, 2, [["P2"]]):
        with pytest.raises(ParameterError, match="members must be a collection of role ids"):
            Coalition(members, 0)


def test_a_coalition_is_one_slotted_frozen_object():
    coalition = Coalition(frozenset({"P2", "P3"}), 0)
    assert not hasattr(coalition, "__dict__")
    for name, value in (("members", frozenset({"P1"})), ("target", 1), ("other", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(coalition, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del coalition.target
    assert coalition.members == frozenset({"P2", "P3"}) and coalition.target == 0
    assert coalition == Coalition(["P3", "P2"], 0) and hash(coalition) == hash((coalition.members, 0))
    assert coalition != Coalition(frozenset({"P2", "P3"}), 3) and coalition != (coalition.members, 0)
    assert repr(Coalition(frozenset({"TP1"}), 2)) == "Coalition(members=frozenset({'TP1'}), target=2)"
    for copied in (pickle.loads(pickle.dumps(coalition)), copy.deepcopy(coalition), copy.copy(coalition)):
        assert copied == coalition and hash(copied) == hash(coalition) and type(copied) is Coalition
        assert not hasattr(copied, "__dict__")


def test_coalition_view_merges_member_and_public_events():
    transcript, _ = run_two_tp_protocol(TWO_TP, (2, 4, 1), None, seeded_draws(TWO_TP, None, 11))
    view = coalition_view(transcript, Coalition(frozenset({"P2", "P3"}), target=0))
    kinds = {e["kind"] for e in view.events}
    assert "run_header" in kinds and "classical" in kinds
    assert "encode" in kinds  # members' own private events
    assert "carrier_prep" not in kinds and "carrier_measurement" not in kinds
    all_events = transcript.events()
    assert all(e in all_events for e in view.events)
    seqs = [e["seq"] for e in view.events]
    assert seqs == sorted(seqs)


def _run(params: ProtocolParams, seed: int = 11):
    """One honest run of either variant with random secrets (and key)."""
    rng = np.random.default_rng(seed)
    secrets = tuple(int(s) for s in rng.integers(0, params.r, size=params.n))
    if params.variant is Variant.TWO_TP:
        return run_two_tp_protocol(params, secrets, None, seeded_draws(params, None, seed))[0]
    return run_one_tp_protocol(params, secrets, int(rng.integers(0, params.r)), None, seeded_draws(params, None, seed))[0]


@pytest.mark.parametrize(
    "params, absent_tp", [(TWO_TP, "TP"), (ONE_TP, "TP1"), (ONE_TP, "TP2")], ids=["two-tp-TP", "one-tp-TP1", "one-tp-TP2"]
)
def test_coalition_view_rejects_roles_outside_the_run(params, absent_tp):
    transcript = _run(params)
    with pytest.raises(ParameterError):
        coalition_view(transcript, Coalition(frozenset({"P4"}), target=0))
    with pytest.raises(ParameterError):
        coalition_view(transcript, Coalition(frozenset({"P2"}), target=3))
    # a third party of the other wiring is not in this run: it has no view to audit
    with pytest.raises(ParameterError, match=f"{absent_tp} does not exist in a {params.variant.value}"):
        coalition_view(transcript, Coalition(frozenset({absent_tp}), target=0))


def test_allowed_coalitions_order_at_n3():
    def members(variant, target):
        return [set(c.members) for c in allowed_coalitions(variant, 3, target)]

    assert members(Variant.TWO_TP, 0) == [{"TP1"}, {"TP2"}, {"P2"}, {"P3"}, {"P2", "P3"}]
    assert members(Variant.ONE_TP, 1) == [{"TP"}, {"P1"}, {"P3"}, {"P1", "P3"}]
    assert members(Variant.TWO_TP, 2) == [{"TP1"}, {"TP2"}, {"P1"}, {"P2"}, {"P1", "P2"}]
    assert all(c.target == 2 for c in allowed_coalitions(Variant.ONE_TP, 3, 2))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("variant, tps", [(Variant.TWO_TP, 2), (Variant.ONE_TP, 1)], ids=["two-tp", "one-tp"])
def test_allowed_coalitions_count(variant, tps, n):
    for target in range(n):
        coalitions = allowed_coalitions(variant, n, target)
        assert len(coalitions) == 2 ** (n - 1) - 1 + tps
        assert len(set(coalitions)) == len(coalitions)


@pytest.mark.parametrize("target", [-1, 3, 4])
def test_allowed_coalitions_reject_a_target_outside_the_run(target):
    with pytest.raises(ParameterError, match="out of range"):
        allowed_coalitions(Variant.TWO_TP, 3, target)


@pytest.mark.parametrize("variant", ["two-tp", "one-tp", None, 0])
def test_allowed_coalitions_refuse_a_variant_that_is_not_a_variant(variant):
    with pytest.raises(ParameterError, match="variant must be a Variant"):
        allowed_coalitions(variant, 3, 0)


@pytest.mark.parametrize("n", [3.0, True, "3", None])
def test_allowed_coalitions_refuse_an_n_that_is_not_an_integer(n):
    # n=True used to audit a one-party run
    with pytest.raises(ParameterError, match="n must be an integer"):
        allowed_coalitions(Variant.TWO_TP, n, 0)


@pytest.mark.parametrize("n", [40, 2**40])
def test_allowed_coalitions_refuse_an_n_past_the_cap_before_building_anything(n):
    # n=40 used to build 2**39 + 1 coalitions and never return
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=f"2 to {MAX_AUDIT_PARTIES} parties"):
        allowed_coalitions(Variant.TWO_TP, n, 0)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [1, 0, -1])
def test_allowed_coalitions_refuse_fewer_than_two_parties(n):
    with pytest.raises(ParameterError, match=f"2 to {MAX_AUDIT_PARTIES} parties"):
        allowed_coalitions(Variant.ONE_TP, n, 0)


def test_allowed_coalitions_reach_the_cap():
    assert len(allowed_coalitions(Variant.ONE_TP, MAX_AUDIT_PARTIES, 0)) == 2 ** (MAX_AUDIT_PARTIES - 1)


@pytest.mark.parametrize("target", ["0", 0.0, True, None])
def test_allowed_coalitions_refuse_a_target_that_is_not_an_integer(target):
    # "0" used to end in a bare TypeError from the range comparison
    with pytest.raises(ParameterError, match="target must be a 0-based party index"):
        allowed_coalitions(Variant.TWO_TP, 3, target)


def test_the_audit_refuses_arguments_of_the_wrong_type():
    transcript = _run(TWO_TP)
    coalition = Coalition(frozenset({"TP2"}), 0)
    view = coalition_view(transcript, coalition)
    cases = [
        (lambda: coalition_view("x", coalition), "transcript must be of type Transcript"),
        (lambda: coalition_view(transcript.events(), coalition), "transcript must be of type Transcript"),
        (lambda: coalition_view(transcript, frozenset({"TP2"})), "coalition must be of type Coalition"),
        (lambda: secret_support("x", TWO_TP), "view must be of type View"),
        (lambda: secret_support((transcript, coalition.members, 0), TWO_TP), "view must be of type View"),
        (lambda: secret_support(View("x", frozenset(), 0), TWO_TP), "view.transcript must be of type Transcript"),
        (lambda: secret_support(view, "x"), "params must be of type ProtocolParams"),
    ]
    for call, message in cases:
        with pytest.raises(ParameterError, match=message):
            call()


@pytest.mark.parametrize(
    "members, target, message",
    [
        (frozenset({"TP2"}), 7, "view target"),  # used to end in IndexError
        (frozenset({"TP2"}), "0", "view target"),  # used to end in TypeError
        ([["P2"]], 0, "view members"),  # used to end in TypeError
        (frozenset({"P2"}), -1, "view target"),  # used to audit P3 and return the full support
        (frozenset({"P9"}), 0, "view members"),  # used to be accepted
    ],
    ids=["target-7", "target-str", "members-nested-list", "target-minus-1", "member-P9"],
)
def test_the_audit_refuses_a_hand_built_view_outside_the_run(members, target, message):
    transcript, _ = _two_tp_run((3, 1, 4), 0)
    with pytest.raises(ParameterError, match=message):
        secret_support(View(transcript, members, target), TWO_TP)


def test_every_refusal_still_fires_once_the_transcript_is_audited():
    # the memos remember each coalition's answer; the checks still run on every call before a memo is read
    transcript, _ = _two_tp_run((3, 1, 4), 0)
    for target in range(3):
        for coalition in allowed_coalitions(Variant.TWO_TP, 3, target):
            secret_support(coalition_view(transcript, coalition), TWO_TP)
    wrong = ProtocolParams(Variant.TWO_TP, n=3, d=40, r=16, l=8)
    cases = [
        (lambda: secret_support(View(transcript, frozenset({"TP2"}), 0), wrong), "disagree with the view's run header"),
        (lambda: secret_support(View(transcript, frozenset({"P9"}), 0), TWO_TP), "view members must be a frozenset"),
        (lambda: secret_support(View(transcript, ["TP2"], 0), TWO_TP), "view members must be a frozenset"),
        (lambda: secret_support(View(transcript, {"TP2"}, 0), TWO_TP), "view members must be a frozenset"),
        (lambda: coalition_view(transcript, Coalition(frozenset({"P4"}), 0)), "member P4 does not exist in a two-tp"),
        (lambda: coalition_view(transcript, Coalition(frozenset({"P2"}), 3)), "target index 3 out of range for n=3"),
    ]
    for target in (7, -1, "0"):
        cases.append((lambda target=target: secret_support(View(transcript, frozenset({"TP2"}), target), TWO_TP),
                      r"view target must be a party index in \[0, 3\)"))
    for call, message in cases:
        with pytest.raises(ParameterError, match=message):
            call()
    assert 3 in secret_support(coalition_view(transcript, Coalition(frozenset({"TP2"}), 0)), TWO_TP).candidates


def test_allowed_coalitions_take_a_numpy_integer_n():
    assert allowed_coalitions(Variant.ONE_TP, np.int64(3), 1) == allowed_coalitions(Variant.ONE_TP, 3, 1)
    assert allowed_coalitions(Variant.ONE_TP, 3, np.int64(1)) == allowed_coalitions(Variant.ONE_TP, 3, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_allowed_coalitions_are_exactly_what_coalition_view_accepts(variant, n):
    # oracle for the non-collusion rule: try every subset of every role either wiring or the run could name
    params = ProtocolParams(variant, n=n, d=17, r=5, l=2)
    transcript = _run(params, seed=n)
    roles = ["TP1", "TP2", "TP"] + [f"P{i + 1}" for i in range(n)]
    for target in range(n):
        accepted = set()
        for size in range(len(roles) + 1):
            for members in itertools.combinations(roles, size):
                try:
                    coalition_view(transcript, Coalition(frozenset(members), target))
                except ParameterError:
                    continue
                accepted.add(frozenset(members))
        assert accepted == {c.members for c in allowed_coalitions(variant, n, target)}


# ---------------------------------------------------------------------------
# secret support audit
# ---------------------------------------------------------------------------

def _two_tp_run(secrets, seed):
    return run_two_tp_protocol(TWO_TP, secrets, None, seeded_draws(TWO_TP, None, seed))


def _support_for(transcript, members, target, params):
    view = coalition_view(transcript, Coalition(frozenset(members), target))
    return secret_support(view, params).candidates


def test_preparing_tp_learns_nothing_beyond_the_ordering():
    for seed in range(10):
        transcript, _ = _two_tp_run((3, 1, 4), seed)
        assert _support_for(transcript, {"TP1"}, 0, TWO_TP) == frozenset(range(5))


def test_party_coalition_learns_nothing_beyond_the_ordering():
    for seed in range(10):
        transcript, _ = _two_tp_run((3, 1, 4), seed)
        assert _support_for(transcript, {"P2", "P3"}, 0, TWO_TP) == frozenset(range(5))


def test_measuring_tp_support_always_contains_the_truth():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        secrets = tuple(int(s) for s in rng.integers(0, 5, size=3))
        transcript, _ = run_two_tp_protocol(TWO_TP, secrets, None, seeded_draws(TWO_TP, None, int(rng.integers(2**32))))
        for target in range(3):
            support = _support_for(transcript, {"TP2"}, target, TWO_TP)
            assert secrets[target] in support


def _find_two_tp_run(secret0, pad0_predicate):
    """First honest run with secrets[0]=secret0 whose first pad satisfies the predicate."""
    for seed in range(500):
        transcript, _ = _two_tp_run((secret0, 1, 4), seed)
        [prep] = [e for e in transcript.events() if e["kind"] == "carrier_prep"]
        if pad0_predicate(prep["pads"][0], prep["pad_sum"]):
            return transcript
    raise AssertionError("no run matching the predicate in 500 seeds")


def test_measuring_tp_pins_the_secret_at_the_measured_floor():
    # measured value 0 forces pad = secret = 0
    transcript = _find_two_tp_run(0, lambda pad, _: pad == 0)
    assert _support_for(transcript, {"TP2"}, 0, TWO_TP) == frozenset({0})


def test_measuring_tp_sees_full_support_away_from_the_extremes():
    # measured value r-1 = 4 with a mid-range run constant is explained by every secret
    transcript = _find_two_tp_run(0, lambda pad, pad_sum: pad == 4 and pad_sum >= 8)
    assert _support_for(transcript, {"TP2"}, 0, TWO_TP) == frozenset(range(5))


def test_single_tp_support_is_the_key_uncertainty_window():
    rng = np.random.default_rng(5)
    for _ in range(15):
        secrets = tuple(int(s) for s in rng.integers(0, 5, size=3))
        key = int(rng.integers(0, 5))
        transcript, _ = run_one_tp_protocol(ONE_TP, secrets, key, None, seeded_draws(ONE_TP, None, int(rng.integers(2**32))))
        [prep] = [e for e in transcript.events() if e["kind"] == "carrier_prep"]
        measured = {e["party"]: e["value"] for e in transcript.events() if e["kind"] == "carrier_measurement"}
        for target in range(3):
            shifted = measured[target] - prep["pads"][target]  # secret + key, known to the TP
            expected = frozenset(s for s in range(5) if 0 <= shifted - s < 5)
            assert _support_for(transcript, {"TP"}, target, ONE_TP) == expected
            assert secrets[target] in expected


def test_single_tp_party_coalition_knows_only_the_key():
    transcript, _ = run_one_tp_protocol(ONE_TP, (3, 1, 4), 2, None, seeded_draws(ONE_TP, None, 9))
    assert _support_for(transcript, {"P2", "P3"}, 0, ONE_TP) == frozenset(range(5))


@pytest.mark.parametrize(
    "wrong",
    [
        ProtocolParams(Variant.ONE_TP, n=3, d=40, r=13, l=8),
        ProtocolParams(Variant.TWO_TP, n=3, d=40, r=16, l=8),
    ],
)
def test_support_rejects_params_that_disagree_with_the_run(wrong):
    transcript, _ = _two_tp_run((3, 1, 4), 0)
    view = coalition_view(transcript, Coalition(frozenset({"TP2"}), 0))
    # every call is checked: neither a refused call nor a right one lets a later wrong one through
    for right_first in (False, False, True):
        if right_first:
            assert 3 in secret_support(view, TWO_TP).candidates
        with pytest.raises(ParameterError, match="run header"):
            secret_support(view, wrong)


@pytest.mark.parametrize("variant, r", [(Variant.TWO_TP, 511), (Variant.ONE_TP, 340)], ids=["two-tp", "one-tp"])
def test_support_at_paper_scale(variant, r):
    # the paper's d-level scale, with r as large as each variant's dimension bound allows
    params = ProtocolParams(variant, n=3, d=1021, r=r, l=2)
    full = frozenset(range(r))
    rng = np.random.default_rng(1021)
    for _ in range(3):
        secrets = tuple(int(s) for s in rng.integers(0, r, size=3))
        if variant is Variant.TWO_TP:
            transcript, _ = run_two_tp_protocol(params, secrets, None, seeded_draws(params, None, int(rng.integers(2**32))))
        else:
            key = int(rng.integers(0, r))
            draws = seeded_draws(params, None, int(rng.integers(2**32)))
            transcript, _ = run_one_tp_protocol(params, secrets, key, None, draws)
        for target in range(3):
            supports = {
                c.members: secret_support(coalition_view(transcript, c), params).candidates
                for c in allowed_coalitions(variant, 3, target)
            }
            assert all(secrets[target] in support for support in supports.values())
            others = max(supports, key=len)  # the n-1 other parties
            assert len(others) == 2 and supports[others] == full
            if variant is Variant.TWO_TP:
                assert supports[frozenset({"TP1"})] == full


def brute_force_support(obs: dict[str, int], params: ProtocolParams) -> frozenset[int]:
    """Oracle: enumerate every pad x run constant x key and keep the secrets some assignment explains.

    An observed value pins its unknown; the rest range over what a run can draw.
    """
    one_tp = params.variant is Variant.ONE_TP
    pads = [obs["pad"]] if "pad" in obs else list(range(params.r))
    sums = [obs["pad_sum"]] if "pad_sum" in obs else list(pad_sum_range(params))
    if not one_tp:
        keys = [0]
    elif "shared_key" in obs:
        keys = [obs["shared_key"]]
    else:
        keys = list(range(params.r))

    def consistent(secret: int) -> bool:
        for pad in pads:
            for pad_sum in sums:
                complement = pad_sum - pad
                if not 0 <= complement < params.d:
                    continue
                if "complement" in obs and complement != obs["complement"]:
                    continue
                for key in keys:
                    measured = pad + secret + key
                    if measured >= params.d:
                        continue  # impossible on the honest path
                    if "measured" in obs and measured != obs["measured"]:
                        continue
                    if "score" in obs and measured + complement != obs["score"]:
                        continue
                    return True
        return False

    return frozenset(s for s in range(params.r) if consistent(s))


def _synthetic_view(params: ProtocolParams, facts: dict) -> tuple[View, dict[str, int]]:
    """A view of target 0 on a transcript of the given events, all public, in run order, and the facts it pins.

    ``facts`` maps each present event kind to its values; they need not be
    mutually consistent. The pad announcement follows the carrier
    preparation, so its complement is the one that counts.
    """
    transcript = Transcript()
    transcript.record(PUBLIC, "run_header", variant=params.variant.value, n=2, d=params.d, r=params.r)
    obs: dict[str, int] = {}
    if "shared_key" in facts:
        transcript.record(PUBLIC, "shared_key", value=facts["shared_key"])
        obs["shared_key"] = facts["shared_key"]
    if "carrier_prep" in facts:
        pad, pad_sum, complement = facts["carrier_prep"]
        transcript.record(PUBLIC, "carrier_prep", pads=[pad, 0], pad_sum=pad_sum, complements=[complement, 0])
        obs.update(pad=pad, pad_sum=pad_sum, complement=complement)
    if "carrier_measurement" in facts:
        transcript.record(PUBLIC, "carrier_measurement", party=0, value=facts["carrier_measurement"])
        transcript.record(PUBLIC, "carrier_measurement", party=1, value=0)
        obs["measured"] = facts["carrier_measurement"]
    if "pad_announcement" in facts:
        transcript.broadcast("TP1", "pad_announcement", values=[facts["pad_announcement"], 0])
        obs["complement"] = facts["pad_announcement"]
    if "score_computation" in facts:
        transcript.record(PUBLIC, "score_computation", scores=[facts["score_computation"], 0])
        obs["score"] = facts["score_computation"]
    return View(transcript, frozenset(), 0), obs


@pytest.mark.parametrize(
    "variant, r, d",
    [
        (Variant.TWO_TP, 1, 2),
        (Variant.TWO_TP, 1, 3),
        (Variant.TWO_TP, 2, 3),
        (Variant.TWO_TP, 2, 4),
        (Variant.TWO_TP, 3, 5),
        (Variant.ONE_TP, 1, 2),
        (Variant.ONE_TP, 1, 3),
        (Variant.ONE_TP, 2, 5),
        (Variant.ONE_TP, 2, 6),
    ],
)
def test_closed_form_support_equals_the_brute_force_exhaustively(variant, r, d):
    # every subset of the five fact-bearing events, each with every value a run can record
    params = ProtocolParams(variant, n=2, d=d, r=r, l=1)
    choices = {
        "shared_key": range(r),
        "carrier_prep": list(itertools.product(range(r), pad_sum_range(params), range(d))),
        "carrier_measurement": range(d),
        "pad_announcement": range(d),
        "score_computation": range(2 * d - 1),
    }
    for combo in itertools.product(*([None, *values] for values in choices.values())):
        facts = {kind: value for kind, value in zip(choices, combo) if value is not None}
        view, obs = _synthetic_view(params, facts)
        assert secret_support(view, params).candidates == brute_force_support(obs, params), facts


@pytest.mark.parametrize(
    "facts",
    [
        {"carrier_prep": (-1, 2, 3)},  # complement = d
        {"carrier_prep": (2, 1, -1)},  # complement = -1
        {"carrier_prep": (3, 3, 0), "carrier_measurement": 3},  # measured = d
    ],
)
def test_closed_form_support_equals_the_brute_force_on_facts_no_run_records(facts):
    # a complement or measured value outside [0, d) is unexplainable even next to a pad
    # and run constant that are themselves out of range
    params = ProtocolParams(Variant.TWO_TP, n=2, d=3, r=2, l=1)
    view, obs = _synthetic_view(params, facts)
    assert secret_support(view, params).candidates == brute_force_support(obs, params) == frozenset()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closed_form_support_equals_the_brute_force_at_larger_d(data):
    variant = data.draw(st.sampled_from(Variant))
    r = data.draw(st.integers(1, 10))
    bound = 2 * r - 1 if variant is Variant.TWO_TP else 3 * r - 1
    d = data.draw(st.integers(max(2, bound), bound + 30))
    params = ProtocolParams(variant, n=2, d=d, r=r, l=1)
    # a true assignment; each observed value is either its true value or any value
    # a run can record, give or take two, so that impossible observations occur too
    pad, secret, key = (data.draw(st.integers(0, r - 1)) for _ in range(3))
    pad_sum = data.draw(st.integers(r - 1, d - 1))
    if variant is Variant.TWO_TP:
        key = 0

    def value(true: int, lo: int, hi: int) -> int:
        return data.draw(st.one_of(st.just(true), st.integers(lo - 2, hi + 2)))

    draws = {
        "shared_key": lambda: value(key, 0, r - 1),
        "carrier_prep": lambda: (
            value(pad, 0, r - 1),
            value(pad_sum, r - 1, d - 1),
            value(pad_sum - pad, 0, d - 1),
        ),
        "carrier_measurement": lambda: value(pad + secret + key, 0, d - 1),
        "pad_announcement": lambda: value(pad_sum - pad, 0, d - 1),
        "score_computation": lambda: value(secret + key + pad_sum, 0, 2 * d - 2),
    }
    present = data.draw(st.sets(st.sampled_from(sorted(draws))))
    facts = {kind: draw() for kind, draw in draws.items() if kind in present}
    view, obs = _synthetic_view(params, facts)
    assert secret_support(view, params).candidates == brute_force_support(obs, params)


def _support_from_the_full_log(transcript: Transcript, coalition: Coalition, params: ProtocolParams) -> frozenset[int]:
    """Oracle for the indexed audit: filter the serialized log by observers and read its facts, with no index."""
    seen, target = {PUBLIC, *coalition.members}, coalition.target
    obs: dict[str, int] = {}
    for event in json.loads(transcript.to_json()):
        if not seen & set(event["observers"]):
            continue
        kind = event["kind"]
        if kind == "carrier_prep":
            obs.update(pad=event["pads"][target], pad_sum=event["pad_sum"], complement=event["complements"][target])
        elif kind == "classical" and event["message"]["kind"] == "pad_announcement":
            obs["complement"] = event["message"]["values"][target]
        elif kind == "carrier_measurement" and event["party"] == target:
            obs["measured"] = event["value"]
        elif kind == "score_computation":
            obs["score"] = event["scores"][target]
        elif kind == "shared_key":
            obs["shared_key"] = event["value"]
    return brute_force_support(obs, params)


@pytest.mark.parametrize("variant, d", [("two-tp", 5), ("two-tp", 9), ("one-tp", 8), ("one-tp", 11)])
def test_memoized_audit_equals_the_brute_force_on_the_full_log(variant, d):
    # every allowed coalition against every target of two transcripts, asked in one shuffled, interleaved order
    config = ExperimentConfig(variant=variant, n=4, d=d, r=3, l=1, trials=6, seed=d)
    params, _ = config.validate()
    shuffle = random.Random(d).shuffle
    coalitions = [c for target in range(config.n) for c in allowed_coalitions(params.variant, config.n, target)]
    for t in range(0, config.trials, 2):
        runs = (run_trial(config, t), run_trial(config, t + 1))
        queries = [(run, coalition) for run in runs for coalition in coalitions]
        shuffle(queries)
        for run, coalition in queries:
            found = secret_support(coalition_view(run.transcript, coalition), params).candidates
            assert found == _support_from_the_full_log(run.transcript, coalition, params), (t, coalition)
            assert run.secrets[coalition.target] in found


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_indexed_audit_equals_the_brute_force_on_attacked_and_aborted_runs(data):
    variant = data.draw(st.sampled_from(Variant))
    attack = data.draw(st.sampled_from([a for a in ATTACK_IDS if variant is Variant.TWO_TP or not a.startswith("tp")]))
    n, r, l = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    low = 2 * r - 1 if variant is Variant.TWO_TP else 3 * r - 1
    d = data.draw(st.integers(max(2, low), low + 4))
    threshold = data.draw(st.sampled_from([0.0, 0.5]))
    seed = data.draw(st.integers(0, 99))
    config = ExperimentConfig(variant=variant.value, n=n, d=d, r=r, l=l, attack=attack, threshold=threshold, seed=seed)
    params, _ = config.validate()
    run = run_trial(config, data.draw(st.integers(0, 9)))
    for target in range(n):
        for coalition in allowed_coalitions(variant, n, target):
            found = secret_support(coalition_view(run.transcript, coalition), params).candidates
            assert found == _support_from_the_full_log(run.transcript, coalition, params), (coalition, run.outcome)


# ROADMAP item 11: an insider that taps a first hop reads the pad off the slot its checks leave undisclosed
LEAK = ExperimentConfig(variant="two-tp", n=2, d=4, r=2, l=1, attack="tp2-mr", trials=400, seed=3)


@pytest.fixture(scope="module")
def leaked_runs():
    """The runs of ``LEAK`` that pass every check."""
    return [run for run in _trial_runs(LEAK, range(LEAK.trials)) if run.outcome.completed]


def test_tp2_recovers_p1s_secret_from_its_step7_value_and_its_carrier_tap(leaked_runs):
    assert len(leaked_runs) == 162
    for run in leaked_runs:
        seen = run.transcript.view("TP2")
        messages = [e["message"] for e in seen if e["kind"] == "classical"]
        [decoys] = [m["entries"] for m in messages if m["kind"] == "decoy_disclosure" and m["transmission"] == "TP1->P1"]
        [slot] = set(range(LEAK.l + 1)) - {position for position, _ in decoys}
        taps = [e for e in seen if e["kind"] == "tap" and e["link"] == "TP1->P1"]
        [tapped] = [e["outcome"] for e in taps if e["position"] == slot]
        [measured] = [e["value"] for e in seen if e["kind"] == "carrier_measurement" and e["party"] == 0]
        assert measured - tapped == run.secrets[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: the fact index reads no tap; 66 of the 162 supports are full")
def test_the_audit_pins_p1s_secret_for_tp2_in_every_completed_run(leaked_runs):
    params, _ = LEAK.validate()
    for run in leaked_runs:
        support = secret_support(coalition_view(run.transcript, Coalition(frozenset({"TP2"}), 0)), params)
        assert support.candidates == {run.secrets[0]}


def test_a_fact_recorded_after_an_audit_shows_in_the_next_audit():
    transcript, _ = _two_tp_run((3, 1, 4), 0)
    coalition = Coalition(frozenset({"P2"}), 0)
    assert _support_for(transcript, coalition.members, 0, TWO_TP) == frozenset(range(5))
    # a measured 0 pins pad + secret = 0 for whoever sees it
    transcript.record({"P2"}, "carrier_measurement", party=0, value=0)
    found = _support_for(transcript, coalition.members, 0, TWO_TP)
    assert found == _support_from_the_full_log(transcript, coalition, TWO_TP) == frozenset({0})


def test_a_transcript_with_no_run_header_is_audited_afresh_under_other_params():
    # with no header to disagree with, each (variant, n, d, r) is a different question about the same facts
    transcript = Transcript()
    transcript.record(PUBLIC, "carrier_measurement", party=0, value=3)
    view = View(transcript, frozenset(), 0)
    for params in (ProtocolParams(Variant.TWO_TP, 2, 9, 5, 1), ProtocolParams(Variant.TWO_TP, 2, 9, 2, 1)) * 2:
        assert secret_support(view, params).candidates == brute_force_support({"measured": 3}, params)


def test_short_lived_hand_built_views_are_read_afresh():
    # each view's transcript dies before the next is built, so CPython hands its id to a later one with other facts
    params = ProtocolParams(Variant.ONE_TP, n=2, d=8, r=3, l=1)
    rng = random.Random(3)
    draws = {
        "shared_key": lambda: rng.randrange(3),
        "carrier_prep": lambda: (rng.randrange(3), rng.randrange(2, 8), rng.randrange(8)),
        "carrier_measurement": lambda: rng.randrange(8),
        "pad_announcement": lambda: rng.randrange(8),
        "score_computation": lambda: rng.randrange(15),
    }
    ids = []
    for _ in range(200):
        view, obs = _synthetic_view(params, {kind: draw() for kind, draw in draws.items() if rng.random() < 0.5})
        ids.append(id(view.transcript))
        assert secret_support(view, params).candidates == brute_force_support(obs, params), obs
    assert len(set(ids)) < len(ids)
