"""Protocol-core tests: stage operations against frozen oracles, honest-run
invariants for both variants, abort behavior, and transcript discipline."""
from __future__ import annotations

import collections
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ranking_oracle
from dense_oracle import basis_state, overlap
from qpc_sim import (
    ExperimentConfig,
    ParameterError,
    ProtocolParams,
    Variant,
    run_experiment,
    run_one_tp_protocol,
    run_trial,
    run_two_tp_protocol,
    strategy_from_id,
)
from qpc_sim.adversary import tap_plan
from qpc_sim.channel import ClassicalBus, QuantumLink, Transcript, transmit
from qpc_sim.protocol import (
    DECOY_BASES,
    MAX_DIM,
    MAX_QUDITS,
    DecoySpec,
    _disclose_and_check,
    build_transmission,
    encode_secret,
    pad_sum_range,
    rank_descending,
    run_links,
    tp_compute_result,
    tp_prepare_carriers,
    two_phase_disclosure,
)
from qpc_sim.qudit import Basis, BasisLabel
from qpc_sim.streams import trial_streams

TWO_TP = ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8)
ONE_TP = ProtocolParams(Variant.ONE_TP, n=3, d=17, r=5, l=8)


def _event(transcript, kind):
    return [e for e in transcript.events() if e["kind"] == kind]


def _carrier_draws(params: ProtocolParams, rng: np.random.Generator):
    """A preparer's first n+1 draws: the run constant's offset into pad_sum_range, then the pads."""
    return iter(rng.integers(0, [len(pad_sum_range(params))] + [params.r] * params.n).tolist())


def _recipe_draws(d: int, l: int, rng: np.random.Generator):
    """A sender's 2l+1 draws for one transmission: basis bit and index per decoy, then the carrier slot."""
    return iter(rng.integers(0, [2, d] * l + [l + 1]).tolist())


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_two_tp_dimension_bound_is_named_in_the_error():
    with pytest.raises(ParameterError, match=r"two-tp requires d >= 2\*r - 1"):
        ProtocolParams(Variant.TWO_TP, n=3, d=8, r=5, l=4)


def test_one_tp_dimension_bound_is_named_in_the_error():
    with pytest.raises(ParameterError, match=r"one-tp requires d >= 3\*r - 1"):
        ProtocolParams(Variant.ONE_TP, n=3, d=13, r=5, l=4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1),
        dict(r=0),
        dict(l=0),
        dict(error_threshold=-0.1),
        dict(error_threshold=1.5),
    ],
)
def test_invalid_scalar_params_are_rejected(kwargs):
    base = dict(variant=Variant.TWO_TP, n=3, d=13, r=5, l=8)
    base.update(kwargs)
    with pytest.raises(ParameterError):
        ProtocolParams(**base)


def test_equal_params_hash_equal_here_and_after_a_pickle_from_another_process():
    # the hash is computed once per params object, and a pickle carries it
    here = ProtocolParams(Variant.ONE_TP, n=3, d=17, r=5, l=2, error_threshold=0.5)
    same = ProtocolParams(Variant.ONE_TP, n=np.int64(3), d=17, r=5, l=2, error_threshold=np.float64(0.5))
    assert here == same and hash(here) == hash(same) == hash(dataclasses.replace(same))
    assert pickle.loads(pickle.dumps(here)) == here and hash(pickle.loads(pickle.dumps(here))) == hash(here)
    code = (
        "import pickle, sys; from qpc_sim import ProtocolParams, Variant; "
        "sys.stdout.buffer.write(pickle.dumps(ProtocolParams(Variant.ONE_TP, 3, 17, 5, 2, 0.5)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": src}  # strings hash otherwise there
    made = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=120).stdout
    assert {here: "memo"}[pickle.loads(made)] == "memo"


@pytest.mark.parametrize("value", (13.0, True), ids=("float", "bool"))
@pytest.mark.parametrize("field", ("n", "d", "r", "l"))
def test_direct_construction_refuses_a_non_integer(field, value):
    # d=13.0 used to pass and then fail inside a run; l=True ran as l=1
    base = dict(variant=Variant.TWO_TP, n=3, d=13, r=5, l=8)
    with pytest.raises(ParameterError, match=f"^{field} must be an integer, got {value!r}$"):
        ProtocolParams(**{**base, field: value})


def test_a_variant_must_be_a_variant_member():
    # the string used to skip the d >= 2r - 1 bound and then fail inside the run
    with pytest.raises(ParameterError, match="^variant must be a Variant, got 'two-tp'$"):
        ProtocolParams("two-tp", n=2, d=2, r=5, l=1)


@pytest.mark.parametrize("value", ("0.1", None, True, [0.1]), ids=("str", "None", "bool", "list"))
def test_error_threshold_must_be_a_real_number(value):
    # True used to run and be recorded as "threshold": true; a string or None ended in a TypeError
    with pytest.raises(ParameterError, match="^error_threshold must be a real number"):
        ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8, error_threshold=value)


@pytest.mark.parametrize("value", (np.float32(0.5), 1, np.int64(0), Fraction(1, 4)), ids=repr)
def test_real_thresholds_are_stored_as_floats(value):
    params = ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8, error_threshold=value)
    assert type(params.error_threshold) is float and params.error_threshold == value


def test_numpy_integers_are_stored_as_ints():
    params = ProtocolParams(Variant.TWO_TP, n=np.int64(3), d=np.uint16(13), r=np.int8(5), l=np.uint64(8))
    assert params == TWO_TP
    assert all(type(getattr(params, name)) is int for name in ("n", "d", "r", "l"))


def test_minimum_dimensions_are_accepted():
    ProtocolParams(Variant.TWO_TP, n=2, d=9, r=5, l=1)
    ProtocolParams(Variant.ONE_TP, n=2, d=14, r=5, l=1)


@pytest.mark.parametrize("n, l", [(2, MAX_QUDITS // 4 - 1), (MAX_QUDITS // 4, 1)], ids=("long", "wide"))
def test_a_run_moves_at_most_max_qudits(n, l):
    # exactly at the cap: 2 * n * (l + 1) == MAX_QUDITS
    ProtocolParams(Variant.TWO_TP, n=n, d=13, r=5, l=l)
    # the next larger n or l, the smallest step over the cap (2n(l+1) is always even)
    for over in (dict(n=n + 1, l=l), dict(n=n, l=l + 1)):
        with pytest.raises(ParameterError, match=rf"<= {MAX_QUDITS} qudits, got n={over['n']} and l={over['l']}$"):
            ProtocolParams(Variant.TWO_TP, d=13, r=5, **over)


@pytest.mark.parametrize(
    "params, first, second",
    [
        (TWO_TP, ["TP1->P1", "TP1->P2", "TP1->P3"], ["P1->TP2", "P2->TP2", "P3->TP2"]),
        (ONE_TP, ["TP->P1", "TP->P2", "TP->P3"], ["P1->TP", "P2->TP", "P3->TP"]),
    ],
    ids=("two-tp", "one-tp"),
)
def test_run_links_go_preparer_to_party_to_measurer(params, first, second):
    first_links, second_links = run_links(params, None)
    assert [link.label for link in first_links] == first
    assert [link.label for link in second_links] == second
    assert all(link.tapper is None for link in first_links + second_links)


@pytest.mark.parametrize("secrets", ({1: 4, 0: 2}, {4, 2}, frozenset({4, 2})), ids=repr)
def test_the_runners_refuse_secrets_in_no_party_order(secrets):
    # a mapping ran with its keys (1, 0) as the secrets, and a set in hash order
    two_tp, one_tp = ProtocolParams(Variant.TWO_TP, 2, 13, 5, 2), ProtocolParams(Variant.ONE_TP, 2, 14, 5, 2)
    with pytest.raises(ParameterError, match="secrets must be a sequence of integers"):
        run_two_tp_protocol(two_tp, secrets, None, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="secrets must be a sequence of integers"):
        run_one_tp_protocol(one_tp, secrets, 1, None, np.random.default_rng(0))


def test_the_runners_refuse_a_generator_of_32_bit_words():
    # the draw model reads 64-bit words; MT19937's are 32 bits, so its integers and uniforms differ
    with pytest.raises(ParameterError, match="64-bit words"):
        run_two_tp_protocol(TWO_TP, (1, 4, 0), None, np.random.Generator(np.random.MT19937(0)))
    with pytest.raises(ParameterError, match="64-bit words"):
        run_one_tp_protocol(ONE_TP, (1, 4, 0), 2, None, np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize(
    "drawn_for, attack",
    [("none", "ir-random"), ("none", "ir-fixed-t1"), ("ir-fixed-t1", "ir-random"), ("ir-random", "tp2-mr"),
     ("ir-random", "none"), ("tp2-mr", "ir-fixed-t1")],
)
def test_the_runners_refuse_draws_made_for_another_tap_plan(drawn_for, attack):
    # a trial's RunDraws hold the adversary draws of one tap plan: a run under another would read
    # past them or leave some unread, so it is refused before any stage runs
    runners = ((Variant.TWO_TP, run_two_tp_protocol, ()), (Variant.ONE_TP, run_one_tp_protocol, (1,)))
    for variant, runner, key in runners:
        params = ProtocolParams(variant, n=2, d=5, r=2, l=3)
        plans = (tap_plan(params, strategy_from_id(a)) for a in (drawn_for, attack))
        given, own = (next(trial_streams(1, range(1), params, 0, plan)) for plan in plans)
        with pytest.raises(ParameterError, match="adversary draws do not fit"):
            runner(params, (1, 0), *key, strategy_from_id(attack), given)
        runner(params, (1, 0), *key, strategy_from_id(attack), own)


def test_the_runners_draw_through_no_generator_method():
    # a plain Generator's run draws from its first spawn's bit generators, its taps' coins and uniforms included
    class Refusing(np.random.Generator):
        def integers(self, *args, **kwargs):
            raise AssertionError("a runner called Generator.integers")

        def random(self, *args, **kwargs):
            raise AssertionError("a runner called Generator.random")

    for attack in ("none", "ir-random"):
        strategy = strategy_from_id(attack)
        want = run_two_tp_protocol(TWO_TP, (1, 4, 0), strategy, np.random.default_rng(3))
        got = run_two_tp_protocol(TWO_TP, (1, 4, 0), strategy, Refusing(np.random.PCG64(3)))
        assert got[0].to_json() == want[0].to_json() and got[1] == want[1]
        run_one_tp_protocol(ONE_TP, (1, 4, 0), 2, strategy, Refusing(np.random.PCG64(3)))


@pytest.mark.parametrize("attack", ["none", "ir-random", "tp2-mr"])
def test_run_links_are_built_once_per_shape_and_frozen(attack):
    strategy = strategy_from_id(attack)
    first_links, second_links = links = run_links(TWO_TP, strategy)
    again = run_links(ProtocolParams(Variant.TWO_TP, n=3, d=13, r=5, l=8), strategy)
    assert type(first_links) is type(second_links) is tuple
    assert again[0] is first_links and again[1] is second_links
    for link in first_links + second_links:
        assert link.label == f"{link.sender}->{link.receiver}"
        for field in dataclasses.fields(link):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(link, field.name, getattr(link, field.name))
    assert run_links(TWO_TP, None) is not links


@pytest.mark.parametrize("sender, receiver", [("P1", "TP2"), ("TP1", "P1"), ("TP", "TP")])
def test_a_transmit_event_is_seen_by_the_sorted_endpoints(sender, receiver):
    transcript = Transcript()
    link = QuantumLink(sender, receiver)
    transmit(link, (BasisLabel.prepare(4, Basis.FOURIER, 1),), transcript, None)
    [event] = transcript.events()
    assert event["observers"] == sorted({sender, receiver}) == list(link.endpoints)
    assert event["link"] == link.label == f"{sender}->{receiver}"


#: A hand-built hop of five decoys at d=7: each decoy's (position, basis bit, index), and what each slot delivered.
FIVE_DECOYS = ((0, 0, 3), (1, 1, 2), (3, 0, 6), (4, 1, 0), (5, 1, 5))
ARRIVED = {0: (0, 3), 1: (1, 4), 3: (0, 6), 4: (1, 0), 5: (1, 1)}  # positions 1 and 5 mismatch, slot 2 is the carrier


def _check(entries, threshold: float):
    """Check ``entries`` of the hand-built hop through ``_disclose_and_check``; its verdict and transcript."""
    received = [BasisLabel.prepare(7, Basis.COMPUTATIONAL, 0)] * 6
    for position, (fourier, index) in ARRIVED.items():
        received[position] = BasisLabel.prepare(7, DECOY_BASES[fourier], index)
    transcript, draws = Transcript(), iter([0.25] * (len(entries) + 1))
    bus, link = ClassicalBus(transcript), QuantumLink("P1", "TP2")
    aborted = _disclose_and_check(bus, "step5", "all", link, entries, tuple(received), draws, threshold)
    assert list(draws) == [0.25]  # one uniform per decoy
    return aborted, transcript.events()


@pytest.mark.parametrize("entries, threshold, counts", [(FIVE_DECOYS, 2 / 5, (5, 2, 2 / 5)), ((), 0.0, (0, 0, 0.0))],
                         ids=["two-of-five", "no-decoys"])
def test_a_decoy_check_passes_at_exactly_its_threshold(entries, threshold, counts):
    aborted, events = _check(entries, threshold)
    [check] = [e for e in events if e["kind"] == "decoy_check"]
    assert not aborted
    assert (check["checked"], check["mismatched"], check["error_rate"]) == counts
    assert check["observers"] == ["P1"] and check["link"] == "P1->TP2"
    disclosure, report = [e["message"] for e in events if e["kind"] == "classical"]
    assert disclosure["entries"] == [[position, ("computational", "fourier")[f]] for position, f, _ in entries]
    assert report["outcomes"] == [[position, ARRIVED[position][1]] for position, _, _ in entries]


@pytest.mark.parametrize("threshold", [0.0, 1 / 5, 0.3999])
def test_a_decoy_check_aborts_below_its_error_rate(threshold):
    aborted, events = _check(FIVE_DECOYS, threshold)
    assert aborted
    assert events[-1]["sender"] == "P1" and dict(events[-1]["message"]) == {"kind": "abort", "step": "step5"}
    assert [e["mismatched"] for e in events if e["kind"] == "decoy_check"] == [2]


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

def test_prepared_carriers_satisfy_the_sum_relation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pad_sum, pads, states = tp_prepare_carriers(TWO_TP, _carrier_draws(TWO_TP, rng))
        assert pad_sum in pad_sum_range(TWO_TP)
        assert len(pads) == len(states) == TWO_TP.n
        for pad, state in zip(pads, states):
            assert 0 <= pad < TWO_TP.r
            assert 0 <= pad_sum - pad < TWO_TP.d
            assert overlap(state, basis_state(TWO_TP.d, Basis.COMPUTATIONAL, pad)) == pytest.approx(1.0)


def test_pads_are_uniform_over_their_range():
    rng = np.random.default_rng(42)
    counts = collections.Counter()
    for _ in range(5_000):
        _, pads, _ = tp_prepare_carriers(TWO_TP, _carrier_draws(TWO_TP, rng))
        counts.update(pads)
    total = sum(counts.values())
    for value in range(TWO_TP.r):
        assert counts[value] / total == pytest.approx(1 / TWO_TP.r, abs=0.02)


# ---------------------------------------------------------------------------
# transmissions and decoy checks
# ---------------------------------------------------------------------------

def test_transmission_partitions_positions_between_decoys_and_carrier():
    rng = np.random.default_rng(1)
    carrier = basis_state(7, Basis.COMPUTATIONAL, 2)
    seq, spec = build_transmission(carrier, 6, _recipe_draws(7, 6, rng))
    assert len(seq) == 7
    positions = {position for position, _, _ in spec.entries}
    assert positions | {spec.carrier_position} == set(range(7))
    assert spec.carrier_position not in positions


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, MAX_DIM), l=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_build_transmission_partitions_the_slots_by_construction(d, l, seed):
    carrier = BasisLabel.prepare(d, Basis.COMPUTATIONAL, d - 1)
    seq, spec = build_transmission(carrier, l, _recipe_draws(d, l, np.random.default_rng(seed)))
    positions = [position for position, _, _ in spec.entries]
    assert positions == sorted(positions)
    assert sorted(positions + [spec.carrier_position]) == list(range(l + 1))
    assert all(fourier in (0, 1) and 0 <= index < d for _, fourier, index in spec.entries)
    assert seq[spec.carrier_position] is carrier
    for position, fourier, index in spec.entries:
        assert seq[position] == BasisLabel.prepare(d, DECOY_BASES[fourier], index)


def test_carrier_slot_is_uniform_for_single_decoy():
    carrier = basis_state(4, Basis.COMPUTATIONAL, 0)
    hits = collections.Counter()
    for seed in range(10_000):
        _, spec = build_transmission(carrier, 1, _recipe_draws(4, 1, np.random.default_rng(seed)))
        hits[spec.carrier_position] += 1
    assert hits[0] / 10_000 == pytest.approx(0.5, abs=0.02)
    assert hits[1] / 10_000 == pytest.approx(0.5, abs=0.02)


def test_decoys_are_uniform_over_the_2d_basis_states():
    from scipy import stats

    d, l, rounds = 3, 10, 10_000
    rng = np.random.default_rng(9)
    carrier = basis_state(d, Basis.COMPUTATIONAL, 0)
    counts = collections.Counter()
    for _ in range(rounds):
        _, spec = build_transmission(carrier, l, _recipe_draws(d, l, rng))
        counts.update((DECOY_BASES[fourier], index) for _, fourier, index in spec.entries)
    cells = [(basis, index) for basis in Basis for index in range(d)]
    observed = [counts[cell] for cell in cells]
    total = sum(observed)
    assert total == rounds * l
    result = stats.chisquare(observed, f_exp=[total / len(cells)] * len(cells))
    assert result.pvalue > 0.001


def test_decoy_check_passes_untouched_transmissions():
    report = run_experiment(ExperimentConfig(variant="two-tp", n=2, d=4, r=2, l=50, trials=5, seed=3))
    assert report.n_aborted == 0
    assert all(report.decoy_stats[step]["checked"] > 0 for step in ("step3", "step5", "step6"))
    assert all(report.decoy_stats[step]["mismatched"] == 0 for step in ("step3", "step5", "step6"))


def test_decoy_check_on_empty_subset_reports_zero():
    # one decoy per second hop: one of its two disclosure phases is always empty
    config = ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=1, trials=1, seed=3)
    run = run_trial(config, 0)
    empty = [e for e in run.transcript.events() if e["kind"] == "decoy_check" and e["checked"] == 0]
    assert len(empty) == config.n
    assert all(e["mismatched"] == 0 and e["error_rate"] == 0.0 for e in empty)
    assert run.outcome.completed


def test_decoy_check_flags_replaced_fourier_decoys():
    """Fourier decoys replaced by computational states: mismatch ~ 1 - 1/d, computational ones clean."""
    d = 4
    # full tolerance keeps every run going through the second-hop checks
    config = ExperimentConfig(
        variant="two-tp", n=5, d=d, r=2, l=32, attack="ir-fixed-t1", trials=125, seed=8, threshold=1.0
    )
    stats = run_experiment(config).decoy_stats
    assert stats["step5"]["checked"] > 8_000
    assert stats["step5"]["mismatched"] / stats["step5"]["checked"] == pytest.approx(1 - 1 / d, abs=0.02)
    assert stats["step6"]["checked"] > 0 and stats["step6"]["mismatched"] == 0


# ---------------------------------------------------------------------------
# encoding and scoring
# ---------------------------------------------------------------------------

def test_encode_secret_shifts_the_carrier():
    carrier = BasisLabel.prepare(13, Basis.COMPUTATIONAL, 3)
    assert overlap(encode_secret(carrier, 2, 0), basis_state(13, Basis.COMPUTATIONAL, 5)) == pytest.approx(1.0)
    carrier17 = BasisLabel.prepare(17, Basis.COMPUTATIONAL, 3)
    assert overlap(encode_secret(carrier17, 2, 4), basis_state(17, Basis.COMPUTATIONAL, 9)) == pytest.approx(1.0)


def test_encode_zero_is_identity():
    carrier = BasisLabel.prepare(5, Basis.COMPUTATIONAL, 4)
    assert overlap(encode_secret(carrier, 0, 0), carrier) == pytest.approx(1.0)


def test_encode_rejects_wraparound_and_negatives():
    carrier = basis_state(5, Basis.COMPUTATIONAL, 0)
    with pytest.raises(ParameterError):
        encode_secret(carrier, 3, 2)
    with pytest.raises(ParameterError):
        encode_secret(carrier, -1, 0)


def test_two_phase_disclosure_orders_fourier_first():
    spec = DecoySpec(entries=((0, 0, 1), (1, 1, 2), (3, 1, 0)), carrier_position=2)
    fourier, computational = two_phase_disclosure(spec)
    assert [position for position, _, _ in fourier] == [1, 3]
    assert [position for position, _, _ in computational] == [0]
    assert all(DECOY_BASES[bit] is Basis.FOURIER for _, bit, _ in fourier)
    assert all(DECOY_BASES[bit] is Basis.COMPUTATIONAL for _, bit, _ in computational)


def test_all_computational_spec_has_empty_fourier_phase():
    spec = DecoySpec(entries=((0, 0, 1),), carrier_position=1)
    fourier, computational = two_phase_disclosure(spec)
    assert fourier == ()
    assert len(computational) == 1


def test_score_ranking_frozen_example():
    # pads (3, 0, 2) against constant 7 give complements (4, 7, 5);
    # secrets (2, 4, 1) then measure as (5, 4, 3) and score as (9, 11, 8)
    outcome = tp_compute_result((5, 4, 3), (4, 7, 5))
    assert outcome.scores == (9, 11, 8)
    assert outcome.ranking == ((1,), (0,), (2,))


def test_score_ranking_groups_ties():
    outcome = tp_compute_result((3, 1, 3), (0, 2, 0))
    assert outcome.scores == (3, 3, 3)
    assert outcome.ranking == ((0, 1, 2),)


def test_score_ranking_handles_single_party():
    assert tp_compute_result((4,), (1,)).ranking == ((0,),)


def test_rank_descending_matches_pairwise_oracle():
    rng = np.random.default_rng(12)
    for _ in range(300):
        values = [int(v) for v in rng.integers(0, 5, size=rng.integers(1, 7))]
        assert rank_descending(values) == ranking_oracle(values)


# ---------------------------------------------------------------------------
# full honest runs
# ---------------------------------------------------------------------------

def test_honest_two_tp_runs_rank_correctly_and_add_exactly():
    for seed in range(150):
        rng = np.random.default_rng(seed)
        secrets = tuple(int(s) for s in rng.integers(0, TWO_TP.r, size=TWO_TP.n))
        transcript, outcome = run_two_tp_protocol(TWO_TP, secrets, None, rng)
        assert outcome.completed
        assert outcome.ranking == ranking_oracle(secrets)
        [prep] = _event(transcript, "carrier_prep")
        assert outcome.scores == tuple(prep["pad_sum"] + s for s in secrets)
        # measured carrier values are plain sums: no wraparound on the honest path
        measured = {e["party"]: e["value"] for e in _event(transcript, "carrier_measurement")}
        for i, s in enumerate(secrets):
            assert measured[i] == prep["pads"][i] + s < TWO_TP.d


def test_honest_one_tp_runs_rank_correctly_and_add_exactly():
    for seed in range(150):
        rng = np.random.default_rng(seed)
        secrets = tuple(int(s) for s in rng.integers(0, ONE_TP.r, size=ONE_TP.n))
        key = int(rng.integers(0, ONE_TP.r))
        transcript, outcome = run_one_tp_protocol(ONE_TP, secrets, key, None, rng)
        assert outcome.completed
        assert outcome.ranking == ranking_oracle(secrets)
        [prep] = _event(transcript, "carrier_prep")
        assert outcome.scores == tuple(prep["pad_sum"] + s + key for s in secrets)


def test_extreme_values_fit_at_the_minimum_dimension():
    params = ProtocolParams(Variant.TWO_TP, n=2, d=9, r=5, l=4)
    _, outcome = run_two_tp_protocol(params, (4, 4), None, np.random.default_rng(0))
    assert outcome.completed and outcome.ranking == ((0, 1),)

    params1 = ProtocolParams(Variant.ONE_TP, n=2, d=14, r=5, l=4)
    _, outcome1 = run_one_tp_protocol(params1, (4, 0), 4, None, np.random.default_rng(0))
    assert outcome1.completed and outcome1.ranking == ((0,), (1,))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_honest_runs_rank_correctly_on_sampled_small_instances(data):
    variant = data.draw(st.sampled_from(list(Variant)))
    n = data.draw(st.integers(2, 3))
    r = data.draw(st.integers(1, 4))
    bound = 2 * r - 1 if variant is Variant.TWO_TP else 3 * r - 1
    d = max(2, bound) + data.draw(st.integers(0, 3))
    secrets = tuple(data.draw(st.integers(0, r - 1)) for _ in range(n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    params = ProtocolParams(variant, n=n, d=d, r=r, l=2)
    if variant is Variant.TWO_TP:
        _, outcome = run_two_tp_protocol(params, secrets, None, np.random.default_rng(seed))
    else:
        key = data.draw(st.integers(0, r - 1))
        _, outcome = run_one_tp_protocol(params, secrets, key, None, np.random.default_rng(seed))
    assert outcome.completed
    assert outcome.ranking == ranking_oracle(secrets)
    assert outcome.ranking == rank_descending(outcome.scores)


# ---------------------------------------------------------------------------
# input validation on the runners
# ---------------------------------------------------------------------------

def test_runners_validate_secret_vectors():
    with pytest.raises(ParameterError):
        run_two_tp_protocol(TWO_TP, (1, 2), None, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        run_two_tp_protocol(TWO_TP, (1, 2, 5), None, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        run_one_tp_protocol(ONE_TP, (1, 2, 3), 5, None, np.random.default_rng(0))


@pytest.mark.parametrize(
    "secrets", [(0.7, 1.2, 3), (True, False, 1), (1, 2, "3"), (1.0, 2, 3), "123", 5, None], ids=repr
)
def test_runners_refuse_a_secret_that_is_not_an_integer(secrets):
    # (0.7, 1.2, 3) used to run as (0, 1, 3), and (True, False, 1) as (1, 0, 1)
    with pytest.raises(ParameterError, match="^secrets must be"):
        run_two_tp_protocol(TWO_TP, secrets, None, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="^secrets must be"):
        run_one_tp_protocol(ONE_TP, secrets, 1, None, np.random.default_rng(0))


@pytest.mark.parametrize("key", [1.7, 1.0, True, "1", None, [1]], ids=repr)
def test_the_one_tp_runner_refuses_a_key_that_is_not_an_integer(key):
    # a key of 1.7 used to run as 1
    with pytest.raises(ParameterError, match="^shared_key must be"):
        run_one_tp_protocol(ONE_TP, (1, 2, 3), key, None, np.random.default_rng(0))


def test_runners_take_numpy_integers_as_ints():
    def run(secrets, key):
        return run_one_tp_protocol(ONE_TP, secrets, key, None, np.random.default_rng(4))[0].to_json()

    assert run(np.array([1, 2, 3]), np.int64(2)) == run((1, 2, 3), 2)


def test_runners_reject_params_for_the_other_variant():
    with pytest.raises(ParameterError):
        run_two_tp_protocol(ONE_TP, (1, 2, 3), None, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        run_one_tp_protocol(TWO_TP, (1, 2, 3), 0, None, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# determinism and aborts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("attack", ["none", "ir-random"])
def test_same_seed_gives_byte_identical_transcripts(attack):
    strategy = strategy_from_id(attack)

    def run():
        transcript, _ = run_two_tp_protocol(TWO_TP, (2, 4, 1), strategy, np.random.default_rng(99))
        return transcript.to_json()

    assert run() == run()


def test_one_tp_same_seed_gives_byte_identical_transcripts():
    def run():
        transcript, _ = run_one_tp_protocol(ONE_TP, (2, 4, 1), 3, None, np.random.default_rng(99))
        return transcript.to_json()

    assert run() == run()


def test_aborts_trace_back_to_a_failed_check():
    strategy = strategy_from_id("ir-random")
    aborted = 0
    for seed in range(30):
        transcript, outcome = run_two_tp_protocol(TWO_TP, (2, 4, 1), strategy, np.random.default_rng(seed))
        if outcome.completed:
            continue
        aborted += 1
        checks = _event(transcript, "decoy_check")
        # the failing check is the last one, at the reported stage
        assert checks[-1]["step"] == outcome.aborted_at
        assert checks[-1]["error_rate"] > TWO_TP.error_threshold
        # the run stops there: nothing was measured afterwards
        assert _event(transcript, "carrier_measurement") == []
        classical = [e["message"] for e in transcript.view() if e["kind"] == "classical"]
        assert classical[-1] == {"kind": "abort", "step": outcome.aborted_at}
    assert aborted == 30  # 48 checked decoys leave no realistic chance to slip through


def test_full_tolerance_threshold_never_aborts():
    params = ProtocolParams(Variant.TWO_TP, n=2, d=5, r=2, l=4, error_threshold=1.0)
    strategy = strategy_from_id("ir-random")
    for seed in range(10):
        _, outcome = run_two_tp_protocol(params, (1, 0), strategy, np.random.default_rng(seed))
        assert outcome.completed


def test_honest_runs_never_abort_even_at_zero_threshold():
    for seed in range(40):
        _, outcome = run_two_tp_protocol(TWO_TP, (0, 4, 2), None, np.random.default_rng(seed))
        assert outcome.aborted_at is None


# ---------------------------------------------------------------------------
# transcript discipline during runs
# ---------------------------------------------------------------------------

def test_role_views_do_not_leak_other_roles_private_events():
    transcript, _ = run_two_tp_protocol(TWO_TP, (2, 4, 1), None, np.random.default_rng(5))

    p1 = transcript.view("P1")
    assert all(e["kind"] != "carrier_prep" for e in p1)
    assert all(e["kind"] != "carrier_measurement" for e in p1)
    # P1 sees only its own preparation recipes
    assert {e["link"] for e in p1 if e["kind"] == "transmission_prep"} == {"P1->TP2"}

    tp1 = transcript.view("TP1")
    assert {e["link"] for e in tp1 if e["kind"] == "transmission_prep"} == {
        "TP1->P1",
        "TP1->P2",
        "TP1->P3",
    }
    assert all(e["kind"] != "encode" for e in tp1)
    assert all(e["kind"] != "carrier_measurement" for e in tp1)

    outsider = transcript.view()
    assert {e["kind"] for e in outsider} == {"run_header", "classical"}


def test_second_hop_checks_are_fourier_then_computational():
    transcript, _ = run_two_tp_protocol(TWO_TP, (2, 4, 1), None, np.random.default_rng(8))
    phases = [
        e["message"]["phase"]
        for e in transcript.view()
        if e["kind"] == "classical" and e["message"]["kind"] == "decoy_disclosure"
    ]
    # per party: one full first-hop disclosure; then all fourier, then all computational
    assert phases[: TWO_TP.n] == ["all"] * TWO_TP.n
    second = phases[TWO_TP.n :]
    assert second == ["fourier"] * TWO_TP.n + ["computational"] * TWO_TP.n
