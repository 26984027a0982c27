"""Transport-layer tests: delivery fidelity, the read-once rule over whole runs, transcript visibility.

A transmission is a plain tuple, so no-cloning is not enforced per qudit at
run time. It holds by construction, and the read-once test below checks it:
every slot of every delivered transmission is read once in a run that
completes, and at most once in a run that aborts.
"""
from __future__ import annotations

import copy
import gc
import itertools
import json
import pickle
import weakref
from collections.abc import Sized
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, thaw
from dense_oracle import overlap
from qpc_sim import ATTACK_IDS, Coalition, ExperimentConfig, allowed_coalitions, coalition_view, run_trial
from qpc_sim import adversary, channel, harness, protocol, secret_support, streams
from qpc_sim.channel import (
    OUTSIDER,
    PUBLIC,
    Event,
    QuantumLink,
    Transcript,
    transmit,
)

RNG = lambda seed=0: np.random.default_rng(seed)  # noqa: E731


def _view_json(transcript, role):
    return json.dumps(transcript.view(role), sort_keys=True, separators=(",", ":"))


def _sequence(d=4, length=5, seed=1):
    return tuple(random_state(d, seed=seed + i) for i in range(length))


# ---------------------------------------------------------------------------
# quantum links
# ---------------------------------------------------------------------------

def test_untapped_link_delivers_the_prepared_states():
    states = tuple(random_state(5, seed=10 + i) for i in range(4))
    link = QuantumLink("TP1", "P1")
    received = transmit(link, states, Transcript(), RNG())
    assert received is states
    for pos, prepared in enumerate(states):
        assert overlap(received[pos], prepared) >= 1 - 1e-9


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
# the read-once rule over whole runs
# ---------------------------------------------------------------------------

class _CountedReads(tuple):
    """A delivered transmission that counts how often each slot is read."""

    def __new__(cls, states):
        delivered = super().__new__(cls, states)
        delivered.reads = [0] * len(delivered)
        return delivered

    def __getitem__(self, position):
        for slot in range(len(self))[position] if isinstance(position, slice) else [position]:
            self.reads[slot] += 1
        return super().__getitem__(position)

    def __iter__(self):
        return (self[slot] for slot in range(len(self)))


def _small_config(data) -> ExperimentConfig:
    """A valid config of either wiring under any attack that applies to it: n <= 4, small d, r and l."""
    variant = data.draw(st.sampled_from(["two-tp", "one-tp"]))
    attack = data.draw(st.sampled_from([a for a in ATTACK_IDS if variant == "two-tp" or not a.startswith("tp")]))
    n, r, l = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    low = 2 * r - 1 if variant == "two-tp" else 3 * r - 1
    return ExperimentConfig(
        variant=variant,
        n=n,
        d=data.draw(st.integers(max(2, low), low + 4)),
        r=r,
        l=l,
        attack=attack,
        threshold=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        seed=data.draw(st.integers(0, 999)),
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_slot_of_every_delivered_transmission_is_read_once(data):
    # no-cloning as a property of whole runs: a completed run reads each delivered slot exactly once
    # (decoys in their check, the carrier when its receiver takes it), and an aborted run at most once
    config = _small_config(data)
    n, l = config.n, config.l
    delivered = []

    def counted(*args):
        delivered.append(_CountedReads(transmit(*args)))
        return delivered[-1]

    with mock.patch.object(protocol, "transmit", counted):
        outcome = run_trial(config, data.draw(st.integers(0, 9))).outcome
    assert all(len(seq) == l + 1 for seq in delivered)
    if outcome.completed:
        assert len(delivered) == 2 * n
        assert all(seq.reads == [1] * (l + 1) for seq in delivered)
    else:
        assert all(max(seq.reads) <= 1 for seq in delivered)


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
    transcript.broadcast("TP1", "pad_announcement", values=[1, 2])
    transcript.broadcast("TP2", "ordering_announcement", ranking=[[0], [1]])
    seen_by_outsider = [e for e in transcript.view() if e["kind"] == "classical"]
    assert [e["sender"] for e in seen_by_outsider] == ["TP1", "TP2"]
    assert [e["seq"] for e in seen_by_outsider] == [0, 1]
    # delivered unmodified
    assert seen_by_outsider[0]["message"] == {"kind": "pad_announcement", "values": [1, 2]}
    # the broadcast's old owner is only a name for the transcript, kept for perfbench's tracer
    assert channel.ClassicalBus is channel.Transcript


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
    transcript.broadcast("TP1", "pad_announcement", values=(1, 2))
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


def _frozen_leaves(value) -> bool:
    """True if ``value`` is a JSON scalar, a string, an ``Event`` of such values, or a tuple of such values."""
    if type(value) is Event:
        return all(type(key) is str and _frozen_leaves(item) for key, item in value.items())
    if type(value) is tuple:
        return all(map(_frozen_leaves, value))
    return value is None or type(value) in (bool, int, float, str)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_run_records_events_immutable_to_their_leaves(data):
    # each event, its classical message included, holds only scalars, strings and tuples of them, so no reader
    # can edit what another role reads; its JSON load equals it with the tuples as lists
    transcript = run_trial(_small_config(data), data.draw(st.integers(0, 9))).transcript
    events = transcript.events()
    assert events and all(map(_frozen_leaves, events))
    assert thaw(events) == json.loads(transcript.to_json())


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
    "round_trip, want",
    [
        (lambda e: json.loads(json.dumps(e)), thaw),  # a JSON load holds lists where the event holds tuples
        (copy.deepcopy, lambda e: e),
        (copy.copy, lambda e: e),
        (lambda e: pickle.loads(pickle.dumps(e)), lambda e: e),
    ],
    ids=["json", "deepcopy", "copy", "pickle"],
)
def test_an_event_survives_serialisation_and_copies(round_trip, want):
    for event in _announced().events():
        again = round_trip(event)
        assert again == want(event) and again is not event
        if not isinstance(again, Event):  # json gives plain dicts back
            continue
        with pytest.raises(TypeError):
            again["kind"] = "x"
        if "message" in event:
            assert type(again["message"]) is Event


def _logged(*observer_sets) -> Transcript:
    transcript = Transcript()
    for i, observers in enumerate(observer_sets):
        transcript.record(observers, "probe", value=i)
    return transcript


class _Role(str):
    pass


@pytest.mark.parametrize(
    "observers, want",
    [
        ("P1", ("P1",)),
        (_Role("P1"), ("P1",)),  # a str subclass is one role, not a set of characters
        (("P1", "TP1"), ("P1", "TP1")),  # a tuple is taken as sorted and distinct
        (["TP1", "P1", "P1"], ("P1", "TP1")),
        ({"TP1", "P1"}, ("P1", "TP1")),
        (frozenset({"P2"}), ("P2",)),
        ((role for role in ("TP2", "P1")), ("P1", "TP2")),
    ],
    ids=("str", "str subclass", "tuple", "list", "set", "frozenset", "generator"),
)
def test_record_stores_its_observers_as_one_sorted_tuple_of_roles(observers, want):
    [event] = _logged(observers).events()
    assert event["observers"] == want and type(event["observers"]) is tuple


def test_a_returned_view_is_the_callers_own_list():
    transcript = _logged(PUBLIC, "P1", "P2")
    first = transcript.view("P1")
    first.append("forged")
    first.pop(0)
    assert [e["value"] for e in transcript.view("P1")] == [0, 1]


def test_a_record_after_a_view_shows_in_the_next_view_of_that_role_set():
    transcript = _logged(PUBLIC, "P1")
    assert [e["value"] for e in transcript.view("P1", "P2")] == [0, 1]
    transcript.record({"P2", "TP1"}, "probe", value=2)
    assert [e["value"] for e in transcript.view("P1", "P2")] == [0, 1, 2]
    view = coalition_view(transcript, Coalition(frozenset({"P1", "P2"}), 2))
    assert [e["value"] for e in view.events] == [0, 1, 2]


def test_a_view_depends_on_the_role_set_only():
    transcript = _logged(PUBLIC, "P1", "P2", {"P1", "P2"}, "P3")
    assert transcript.view("P1", "P2") == transcript.view("P2", "P1", "P1")
    assert thaw(transcript.view("P1", "P2")) == _naive(transcript, ["P1", "P2"])


def test_the_fact_index_holds_no_entry_for_a_transcript_once_it_is_gone():
    # the index and its remembered answers go with the transcript: nothing at module level holds them
    config = ExperimentConfig(variant="two-tp", n=3, d=13, r=5, l=1, trials=1, seed=4)
    params, _ = config.validate()
    transcript = run_trial(config, 0).transcript
    support = secret_support(coalition_view(transcript, Coalition(frozenset({"TP2"}), 0)), params)
    assert secret_support(coalition_view(transcript, Coalition(frozenset({"TP2"}), 0)), params) is support  # remembered
    gone, answer = weakref.ref(transcript), weakref.ref(support)
    del transcript, support
    gc.collect()
    assert gone() is None
    assert answer() is None


def _module_sizes() -> dict[tuple[str, str], int]:
    """The length of every sized module-level value of the package's modules."""
    modules = (adversary, channel, harness, protocol, streams)
    return {(m.__name__, name): len(v) for m in modules for name, v in vars(m).items() if isinstance(v, Sized)}


def test_auditing_every_allowed_coalition_merges_no_view(monkeypatch):
    # the audit reads a transcript only through events() and its log's length: no view, nor any other merge of the log
    runs = []
    for variant in ("two-tp", "one-tp"):
        config = ExperimentConfig(variant=variant, n=4, d=17, r=5, l=2, trials=1, seed=6)
        runs.append((config.validate()[0], run_trial(config, 0)))

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the audit called Transcript.{name}")
        return call

    for name, attr in vars(Transcript).items():
        if callable(attr) and name not in ("events", "__len__"):
            monkeypatch.setattr(Transcript, name, refused(name))
    for params, run in runs:
        for target in range(params.n):
            for coalition in allowed_coalitions(params.variant, params.n, target):
                support = secret_support(coalition_view(run.transcript, coalition), params).candidates
                assert run.secrets[target] in support


def test_audit_memos_stay_within_their_fixed_size_over_many_transcripts():
    config = ExperimentConfig(variant="one-tp", n=3, d=17, r=5, l=1, trials=200, seed=4)
    params, _ = config.validate()
    plans = [allowed_coalitions(params.variant, config.n, target) for target in range(config.n)]
    sizes = _module_sizes()
    for t in range(config.trials):
        run = run_trial(config, t)
        for coalition in itertools.chain(*plans):
            assert run.secrets[coalition.target] in secret_support(coalition_view(run.transcript, coalition), params).candidates
    assert _module_sizes() == sizes
    assert adversary._check_members.cache_info().currsize <= adversary._MEMO_SIZE
    assert adversary._run_roles.cache_info().currsize <= adversary._MEMO_SIZE


_OBSERVERS = (PUBLIC, OUTSIDER, "TP1", "TP2", "P1", "P2", "P3", "P4")
_PARTIES = ("P1", "P2", "P3", "P4")


def _naive(transcript: Transcript, roles) -> list[dict]:
    """Oracle: filter the serialized log, with no index and no shared objects."""
    return [e for e in json.loads(transcript.to_json()) if PUBLIC in e["observers"] or set(roles) & set(e["observers"])]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_read_equals_a_naive_filter_over_the_json(data):
    transcript = Transcript()
    for _ in range(data.draw(st.integers(0, 30), label="steps")):
        action = data.draw(st.sampled_from(["record", "broadcast", "view", "public", "events", "coalition", "json"]))
        if action == "record":
            observers = data.draw(st.sampled_from(_OBSERVERS) | st.lists(st.sampled_from(_OBSERVERS), min_size=1))
            step = data.draw(st.sampled_from([None, "step3"]))
            transcript.record(observers, "probe", step=step, value=data.draw(st.integers(0, 9)))
        elif action == "broadcast":
            transcript.broadcast(data.draw(st.sampled_from(_OBSERVERS[2:])), "note", values=(1, 2))
        elif action == "view":
            roles = data.draw(st.lists(st.sampled_from(_OBSERVERS), max_size=4))
            assert thaw(transcript.view(*roles)) == _naive(transcript, roles)
        elif action == "public":
            assert thaw(transcript.view()) == _naive(transcript, ())
        elif action == "events":
            assert thaw(transcript.events()) == json.loads(transcript.to_json())
        elif action == "coalition":
            members = data.draw(
                st.sampled_from([("TP1",), ("TP2",)]) | st.lists(st.sampled_from(_PARTIES), min_size=1, unique=True)
            )
            target = data.draw(st.sampled_from([i for i in range(5) if f"P{i + 1}" not in members]))
            view = coalition_view(transcript, Coalition(frozenset(members), target))
            assert thaw(view.events) == _naive(transcript, members)
        else:
            role = data.draw(st.sampled_from(_OBSERVERS))
            expected = json.dumps(_naive(transcript, [role]), sort_keys=True, separators=(",", ":"))
            assert _view_json(transcript, role) == expected
