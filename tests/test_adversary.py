"""Adversary tests: strategy registry, tap mechanics, analytic detection rates
checked against Monte-Carlo runs, and the coalition privacy audit."""
from __future__ import annotations

import numpy as np
import pytest

from qpc_sim import (
    ATTACK_IDS,
    AttackKind,
    AttackStrategy,
    Basis,
    Coalition,
    ConfigError,
    ExperimentConfig,
    OUTSIDER,
    ParameterError,
    ProtocolParams,
    Variant,
    analytic_abort_probability,
    basis_state,
    coalition_view,
    overlap,
    per_decoy_detection_probability,
    run_experiment,
    run_one_tp_protocol,
    run_two_tp_protocol,
    secret_support,
    strategy_from_id,
    tapped_checked_decoys,
)
from qpc_sim.qudit import BasisLabel

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


def test_fixed_basis_strategy_requires_a_basis():
    with pytest.raises(ParameterError):
        AttackStrategy(AttackKind.INTERCEPT_RESEND_FIXED)


@pytest.mark.parametrize(
    "kind",
    [AttackKind.NONE, AttackKind.INTERCEPT_RESEND_RANDOM, AttackKind.TP1_MEASURE_RESEND],
)
def test_other_strategies_reject_a_basis(kind):
    with pytest.raises(ParameterError):
        AttackStrategy(kind, Basis.FOURIER)


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

@pytest.mark.parametrize("attack_id", ["ir-fixed-t1", "ir-fixed-t2", "ir-random"])
@pytest.mark.parametrize("label", ["TP1->P1", "P3->TP2", "TP->P2", "P2->TP"])
def test_outsider_intercepts_tap_every_quantum_link(attack_id, label):
    assert strategy_from_id(attack_id).taps_link(label)


def test_insider_taps_cover_only_the_opposite_hop():
    tp1 = strategy_from_id("tp1-mr")
    assert tp1.taps_link("P1->TP2") and tp1.taps_link("P12->TP2")
    assert not tp1.taps_link("TP1->P1")
    assert not tp1.taps_link("P1->TP") and not tp1.taps_link("TP->P1")

    tp2 = strategy_from_id("tp2-mr")
    assert tp2.taps_link("TP1->P3")
    assert not tp2.taps_link("P3->TP2")
    assert not tp2.taps_link("TP->P3") and not tp2.taps_link("P3->TP")


def test_passive_strategies_tap_nothing():
    for attack_id in ("none", "outsider-classical"):
        strategy = strategy_from_id(attack_id)
        assert not any(strategy.taps_link(label) for label in ("TP1->P1", "P1->TP2", "TP->P1"))


# ---------------------------------------------------------------------------
# tap mechanics
# ---------------------------------------------------------------------------

def test_passive_tap_forwards_the_state_untouched():
    state = basis_state(5, Basis.FOURIER, 3)
    out = strategy_from_id("none").tap(state, "TP1->P1", 0, np.random.default_rng(0))
    assert out is state


def test_active_tap_fires_only_on_the_links_it_taps():
    strategy = strategy_from_id("tp1-mr")
    # full tolerance keeps the run alive through both hops
    params = ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8, error_threshold=1.0)
    transcript, outcome = run_two_tp_protocol(params, (2, 4, 1), strategy, np.random.default_rng(3))
    assert outcome.completed
    taps = [e for e in transcript.events() if e["kind"] == "tap"]
    # every second-hop qudit is measured, no first-hop one is
    assert {e["link"] for e in taps} == {"P1->TP2", "P2->TP2", "P3->TP2"}
    assert len(taps) == params.n * (params.l + 1)


def test_measure_resend_collapses_to_the_measured_basis():
    rng = np.random.default_rng(7)
    state = BasisLabel.prepare(4, Basis.FOURIER, 1)
    out = strategy_from_id("ir-fixed-t1").tap(state, "TP1->P1", 0, rng)
    # the resent state is some computational eigenstate
    assert any(
        overlap(out, basis_state(4, Basis.COMPUTATIONAL, j)) == pytest.approx(1.0) for j in range(4)
    )


def test_measure_resend_in_the_preparation_basis_is_invisible():
    rng = np.random.default_rng(7)
    state = BasisLabel.prepare(4, Basis.COMPUTATIONAL, 2)
    out = strategy_from_id("ir-fixed-t1").tap(state, "TP1->P1", 0, rng)
    assert overlap(out, state) == pytest.approx(1.0)


def test_tap_events_land_in_the_owners_view_only():
    strategy = strategy_from_id("ir-random")
    # full tolerance keeps the run alive through both hops
    params = ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8, error_threshold=1.0)
    transcript, _ = run_two_tp_protocol(params, (2, 4, 1), strategy, np.random.default_rng(3))
    taps = [e for e in transcript.view(OUTSIDER) if e["kind"] == "tap"]
    # every qudit of every hop got measured: 2 hops x n parties x (l + 1) slots
    assert len(taps) == 2 * params.n * (params.l + 1)
    assert all(e["basis"] in ("computational", "fourier") for e in taps)
    assert all(e["kind"] != "tap" for e in transcript.public_view())
    assert all(e["kind"] != "tap" for e in transcript.view("P1"))


def test_insider_tap_events_land_in_that_tps_view():
    strategy = strategy_from_id("tp2-mr")
    transcript, _ = run_two_tp_protocol(TWO_TP, (2, 4, 1), strategy, np.random.default_rng(3))
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


def test_detection_rate_degenerate_cases():
    report = run_experiment(ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=8, trials=5, seed=0))
    assert (report.abort_rate, report.abort_stderr) == (0.0, 0.0)
    with pytest.raises(ConfigError, match="trials"):
        run_experiment(ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=8, trials=0))


def test_insiders_are_invisible_in_the_single_tp_variant():
    for attack_id in ("tp1-mr", "tp2-mr"):
        strategy = strategy_from_id(attack_id)
        rng = np.random.default_rng(1)
        for _ in range(20):
            secrets = [int(s) for s in rng.integers(0, ONE_TP.r, size=ONE_TP.n)]
            key = int(rng.integers(0, ONE_TP.r))
            transcript, outcome = run_one_tp_protocol(ONE_TP, secrets, key, strategy, rng)
            assert outcome.completed
            assert all(e["kind"] != "tap" for e in transcript.events())


@pytest.mark.parametrize("attack_id", ["ir-fixed-t1", "ir-fixed-t2", "ir-random", "tp1-mr", "tp2-mr"])
@pytest.mark.parametrize(
    "d, l",
    # at l=8 every case aborts with q >= 0.99; at l=1, q lies between 0.44 and 0.90
    [pytest.param(d, 8, id=str(d)) for d in (2, 4, 8)] + [pytest.param(d, 1, id=f"{d}-l1") for d in (2, 4, 8)],
)
def test_monte_carlo_abort_rate_matches_the_analytic_form(attack_id, d, l):
    r = 1 if d < 3 else 2
    trials = 200
    config = ExperimentConfig(
        variant="two-tp", n=2, d=d, r=r, l=l, attack=attack_id, trials=trials, seed=d * 1000 + len(attack_id)
    )
    params, strategy = config.validate()
    expected = analytic_abort_probability(strategy, params)
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


def test_coalition_view_merges_member_and_public_events():
    transcript, _ = run_two_tp_protocol(TWO_TP, (2, 4, 1), None, np.random.default_rng(11))
    view = coalition_view(transcript, Coalition(frozenset({"P2", "P3"}), target=0))
    kinds = {e["kind"] for e in view.events}
    assert "run_header" in kinds and "classical" in kinds
    assert "encode" in kinds  # members' own private events
    assert "carrier_prep" not in kinds and "carrier_measurement" not in kinds
    all_events = transcript.events()
    assert all(e in all_events for e in view.events)
    seqs = [e["seq"] for e in view.events]
    assert seqs == sorted(seqs)


def test_coalition_view_rejects_roles_outside_the_run():
    transcript, _ = run_two_tp_protocol(TWO_TP, (2, 4, 1), None, np.random.default_rng(11))
    with pytest.raises(ParameterError):
        coalition_view(transcript, Coalition(frozenset({"P4"}), target=0))
    with pytest.raises(ParameterError):
        coalition_view(transcript, Coalition(frozenset({"P2"}), target=3))


# ---------------------------------------------------------------------------
# brute-force support audit
# ---------------------------------------------------------------------------

def _two_tp_run(secrets, seed):
    rng = np.random.default_rng(seed)
    return run_two_tp_protocol(TWO_TP, secrets, None, rng)


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
        transcript, _ = run_two_tp_protocol(TWO_TP, secrets, None, np.random.default_rng(int(rng.integers(2**32))))
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
        transcript, _ = run_one_tp_protocol(ONE_TP, secrets, key, None, np.random.default_rng(int(rng.integers(2**32))))
        [prep] = [e for e in transcript.events() if e["kind"] == "carrier_prep"]
        measured = {e["party"]: e["value"] for e in transcript.events() if e["kind"] == "carrier_measurement"}
        for target in range(3):
            shifted = measured[target] - prep["pads"][target]  # secret + key, known to the TP
            expected = frozenset(s for s in range(5) if 0 <= shifted - s < 5)
            assert _support_for(transcript, {"TP"}, target, ONE_TP) == expected
            assert secrets[target] in expected


def test_single_tp_party_coalition_knows_only_the_key():
    transcript, _ = run_one_tp_protocol(ONE_TP, (3, 1, 4), 2, None, np.random.default_rng(9))
    assert _support_for(transcript, {"P2", "P3"}, 0, ONE_TP) == frozenset(range(5))


def test_support_brute_force_guards_its_parameter_range():
    transcript, _ = _two_tp_run((3, 1, 4), 0)
    view = coalition_view(transcript, Coalition(frozenset({"TP1"}), 0))
    with pytest.raises(ParameterError, match="r <= 16"):
        secret_support(view, ProtocolParams(Variant.TWO_TP, n=3, d=64, r=17, l=8))
    with pytest.raises(ParameterError, match="d <= 64"):
        secret_support(view, ProtocolParams(Variant.TWO_TP, n=3, d=65, r=5, l=8))
