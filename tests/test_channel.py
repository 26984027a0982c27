"""Transport-layer tests: delivery fidelity, no-cloning discipline, transcript visibility."""
from __future__ import annotations

import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from dense_oracle import basis_state, overlap
from qpc_sim import Coalition, coalition_view
from qpc_sim.channel import (
    OUTSIDER,
    PUBLIC,
    ClassicalBus,
    Event,
    QuantumLink,
    Transcript,
    TransmissionError,
    TransmissionSequence,
    transmit,
)
from qpc_sim.qudit import Basis

RNG = lambda seed=0: np.random.default_rng(seed)  # noqa: E731


def _view_json(transcript, role):
    return json.dumps(transcript.view(role), sort_keys=True, separators=(",", ":"))


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
    received = transmit(link, TransmissionSequence(states), Transcript(), RNG())
    for pos, prepared in enumerate(states):
        assert overlap(received.take(pos), prepared) >= 1 - 1e-9


def test_transmit_consumes_the_senders_handle():
    seq = _sequence()
    transmit(QuantumLink("TP1", "P1"), seq, Transcript(), RNG())
    with pytest.raises(TransmissionError):
        seq.take(0)


def test_tap_sees_every_qudit_once_in_order():
    seen = []

    class Tapper:
        def tap(self, state, link_label, position, rng, transcript):
            seen.append((link_label, position, transcript))
            return state

    transcript = Transcript()
    transmit(QuantumLink("TP1", "P1", Tapper()), _sequence(length=6), transcript, RNG())
    assert seen == [("TP1->P1", position, transcript) for position in range(6)]


def test_transmit_is_recorded_for_both_endpoints_only():
    transcript = Transcript()
    transmit(QuantumLink("TP1", "P2"), _sequence(length=3), transcript, RNG())
    [event] = transcript.events()
    assert event["kind"] == "transmit"
    assert event["link"] == "TP1->P2"
    assert event["count"] == 3
    assert sorted(event["observers"]) == ["P2", "TP1"]
    assert transcript.view("TP3") == []
    assert transcript.view() == []


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
    assert [e["kind"] for e in transcript.view()] == ["classical"]

    # every view is a sub-list of the full log
    full = {e["seq"] for e in transcript.events()}
    for role in ("P1", "TP2", OUTSIDER):
        assert {e["seq"] for e in transcript.view(role)} <= full


def test_broadcast_is_append_only_and_public():
    transcript = Transcript()
    bus = ClassicalBus(transcript)
    bus.broadcast("TP1", "pad_announcement", values=[1, 2])
    bus.broadcast("TP2", "ordering_announcement", ranking=[[0], [1]])
    seen_by_outsider = [e for e in transcript.view() if e["kind"] == "classical"]
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

    assert _view_json(build(), "P1") == _view_json(build(), "P1")
    assert build().to_json() == build().to_json()


# ---------------------------------------------------------------------------
# read-only events and the per-role index
# ---------------------------------------------------------------------------

def _announced() -> Transcript:
    transcript = Transcript()
    ClassicalBus(transcript).broadcast("TP1", "pad_announcement", values=[1, 2])
    transcript.record({"P1", "TP1"}, "transmit", step="step2", link="TP1->P1", count=2)
    return transcript


def _augment(event):
    event |= {"kind": "x"}


_MUTATORS = {
    "setitem": lambda e: e.__setitem__("kind", "x"),
    "delitem": lambda e: e.__delitem__("kind"),
    "ior": _augment,
    "update": lambda e: e.update(kind="x"),
    "pop": lambda e: e.pop("kind"),
    "popitem": lambda e: e.popitem(),
    "setdefault": lambda e: e.setdefault("fresh", 1),
    "clear": lambda e: e.clear(),
}


@pytest.mark.parametrize("mutate", list(_MUTATORS.values()), ids=list(_MUTATORS))
def test_every_mutator_of_an_event_raises_and_changes_nothing(mutate):
    transcript = _announced()
    before = transcript.to_json()
    events = transcript.events() + transcript.view("P1") + transcript.view()
    for event in events + [e["message"] for e in events if e["kind"] == "classical"]:
        with pytest.raises(TypeError, match="read-only"):
            mutate(event)
    assert transcript.to_json() == before


def test_a_broadcast_message_is_read_only_on_every_view():
    transcript = _announced()
    before = transcript.to_json()
    for view in (transcript.events(), transcript.view(OUTSIDER), transcript.view()):
        with pytest.raises(TypeError):
            view[0]["message"]["kind"] = "forged"
    assert transcript.to_json() == before


def test_dict_of_an_event_is_a_mutable_private_copy():
    transcript = _announced()
    before = transcript.to_json()
    event = transcript.events()[1]
    private = dict(event)
    private["kind"] = "edited"
    del private["count"]
    assert type(private) is dict and private != event
    assert transcript.to_json() == before
    assert transcript.events()[1]["kind"] == "transmit"


@pytest.mark.parametrize(
    "round_trip",
    [
        lambda e: json.loads(json.dumps(e)),
        copy.deepcopy,
        copy.copy,
        lambda e: pickle.loads(pickle.dumps(e)),
    ],
    ids=["json", "deepcopy", "copy", "pickle"],
)
def test_an_event_survives_serialisation_and_copies(round_trip):
    for event in _announced().events():
        again = round_trip(event)
        assert again == event and again is not event
        if not isinstance(again, Event):  # json gives plain dicts back
            continue
        with pytest.raises(TypeError):
            again["kind"] = "x"
        if "message" in event:
            assert type(again["message"]) is Event


_OBSERVERS = (PUBLIC, OUTSIDER, "TP1", "TP2", "P1", "P2", "P3", "P4")
_PARTIES = ("P1", "P2", "P3", "P4")


def _naive(transcript: Transcript, roles) -> list[dict]:
    """Oracle: filter the serialized log, with no index and no shared objects."""
    return [e for e in json.loads(transcript.to_json()) if PUBLIC in e["observers"] or set(roles) & set(e["observers"])]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_read_equals_a_naive_filter_over_the_json(data):
    transcript = Transcript()
    bus = ClassicalBus(transcript)
    for _ in range(data.draw(st.integers(0, 30), label="steps")):
        action = data.draw(st.sampled_from(["record", "broadcast", "view", "public", "events", "coalition", "json"]))
        if action == "record":
            observers = data.draw(st.sampled_from(_OBSERVERS) | st.lists(st.sampled_from(_OBSERVERS), min_size=1))
            step = data.draw(st.sampled_from([None, "step3"]))
            transcript.record(observers, "probe", step=step, value=data.draw(st.integers(0, 9)))
        elif action == "broadcast":
            bus.broadcast(data.draw(st.sampled_from(_OBSERVERS[2:])), "note", values=[1, 2])
        elif action == "view":
            roles = data.draw(st.lists(st.sampled_from(_OBSERVERS), max_size=4))
            assert transcript.view(*roles) == _naive(transcript, roles)
        elif action == "public":
            assert transcript.view() == _naive(transcript, ())
        elif action == "events":
            assert transcript.events() == json.loads(transcript.to_json())
        elif action == "coalition":
            members = data.draw(
                st.sampled_from([("TP1",), ("TP2",)]) | st.lists(st.sampled_from(_PARTIES), min_size=1, unique=True)
            )
            target = data.draw(st.sampled_from([i for i in range(5) if f"P{i + 1}" not in members]))
            view = coalition_view(transcript, Coalition(frozenset(members), target))
            assert list(view.events) == _naive(transcript, members)
        else:
            role = data.draw(st.sampled_from(_OBSERVERS))
            expected = json.dumps(_naive(transcript, [role]), sort_keys=True, separators=(",", ":"))
            assert _view_json(transcript, role) == expected
