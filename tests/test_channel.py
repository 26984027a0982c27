"""Transport-layer tests: delivery fidelity, no-cloning discipline, transcript visibility."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import random_state
from qpc_sim import (
    OUTSIDER,
    PUBLIC,
    Basis,
    ClassicalBus,
    QuantumLink,
    Transcript,
    TransmissionError,
    TransmissionSequence,
    basis_state,
    overlap,
    transmit,
)

RNG = lambda seed=0: np.random.default_rng(seed)  # noqa: E731


def _sequence(d=4, length=5, seed=1):
    return TransmissionSequence([random_state(d, seed=seed + i) for i in range(length)])


# ---------------------------------------------------------------------------
# transmission sequences
# ---------------------------------------------------------------------------

def test_take_consumes_the_slot():
    seq = _sequence()
    seq.take(2)
    with pytest.raises(TransmissionError):
        seq.take(2)
    assert 2 not in seq.remaining_positions()


def test_release_all_consumes_everything():
    seq = _sequence(length=3)
    assert len(seq.release_all()) == 3
    with pytest.raises(TransmissionError):
        seq.take(0)
    with pytest.raises(TransmissionError):
        seq.release_all()


def test_mixed_dimensions_are_rejected():
    with pytest.raises(ValueError):
        TransmissionSequence([basis_state(3, Basis.COMPUTATIONAL, 0), basis_state(4, Basis.COMPUTATIONAL, 0)])


def test_empty_sequence_is_rejected():
    with pytest.raises(ValueError):
        TransmissionSequence([])


# ---------------------------------------------------------------------------
# quantum links
# ---------------------------------------------------------------------------

def test_untapped_link_delivers_the_prepared_states():
    states = [random_state(5, seed=10 + i) for i in range(4)]
    link = QuantumLink("TP1", "P1")
    received = transmit(link, TransmissionSequence(states), RNG())
    for pos, prepared in enumerate(states):
        assert overlap(received.take(pos), prepared) >= 1 - 1e-9


def test_transmit_consumes_the_senders_handle():
    seq = _sequence()
    transmit(QuantumLink("TP1", "P1"), seq, RNG())
    with pytest.raises(TransmissionError):
        seq.take(0)


def test_tap_sees_every_qudit_once_in_order():
    seen = []

    def tap(state, position, rng):
        seen.append(position)
        return state

    transmit(QuantumLink("TP1", "P1", tap=tap), _sequence(length=6), RNG())
    assert seen == [0, 1, 2, 3, 4, 5]


def test_transmit_is_recorded_for_both_endpoints_only():
    transcript = Transcript()
    link = QuantumLink("TP1", "P2", transcript)
    transmit(link, _sequence(length=3), RNG())
    [event] = transcript.events()
    assert event["kind"] == "transmit"
    assert event["link"] == "TP1->P2"
    assert event["count"] == 3
    assert sorted(event["observers"]) == ["P2", "TP1"]
    assert transcript.view("TP3") == []
    assert transcript.public_view() == []


# ---------------------------------------------------------------------------
# transcript and classical bus
# ---------------------------------------------------------------------------

def test_views_contain_exactly_the_observable_events():
    transcript = Transcript()
    transcript.record(PUBLIC, "classical", sender="TP1", message={"kind": "x"})
    transcript.record({"P1"}, "transmission_prep", step="step4", link="P1->TP2")
    transcript.record({"TP2"}, "carrier_measurement", step="step7", party=0, value=3)

    p1_kinds = [e["kind"] for e in transcript.view("P1")]
    assert p1_kinds == ["classical", "transmission_prep"]
    tp2_kinds = [e["kind"] for e in transcript.view("TP2")]
    assert tp2_kinds == ["classical", "carrier_measurement"]
    assert [e["kind"] for e in transcript.public_view()] == ["classical"]

    # every view is a sub-list of the full log
    full = {e["seq"] for e in transcript.events()}
    for role in ("P1", "TP2", OUTSIDER):
        assert {e["seq"] for e in transcript.view(role)} <= full


def test_broadcast_is_append_only_and_public():
    transcript = Transcript()
    bus = ClassicalBus(transcript)
    bus.broadcast("TP1", {"kind": "pad_announcement", "values": [1, 2]})
    bus.broadcast("TP2", {"kind": "ordering_announcement", "ranking": [[0], [1]]})
    seen_by_outsider = [e for e in transcript.public_view() if e["kind"] == "classical"]
    assert [e["sender"] for e in seen_by_outsider] == ["TP1", "TP2"]
    assert [e["seq"] for e in seen_by_outsider] == [0, 1]
    # delivered unmodified
    assert seen_by_outsider[0]["message"] == {"kind": "pad_announcement", "values": [1, 2]}


def test_view_json_is_deterministic():
    def build():
        transcript = Transcript()
        transcript.record(PUBLIC, "classical", sender="TP1", message={"kind": "x", "values": [3, 1]})
        transcript.record({"P1", "TP1"}, "transmit", link="TP1->P1", count=2)
        return transcript

    assert build().view_json("P1") == build().view_json("P1")
    assert build().to_json() == build().to_json()
