"""Transport layer: quantum links with a single tap point, an authenticated
classical broadcast bus, and the per-role transcript of everything observable.

The transcript is the evidence store for all privacy claims, so the recording
rules are strict: an event is visible to a role if and only if that role
legitimately observes it (its own preparations, its own measurement results,
its own tap, or any classical broadcast). Classical broadcasts are public —
a passive outsider reads them all — but are delivered unmodified and with
authenticated sender identity.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .qudit import BasisLabel

#: Observer marker for events every role (and any outsider) can see.
PUBLIC = "*"

#: Role id of a passive outside eavesdropper (sees exactly the public events).
OUTSIDER = "EVE"

TapFn = Callable[[BasisLabel, int, np.random.Generator], BasisLabel]


class TransmissionError(RuntimeError):
    """A qudit handle was used after being consumed (no-cloning discipline)."""


class TransmissionSequence:
    """Ordered block of qudits travelling as one transmission.

    Slots are addressed by their original position. Taking a slot consumes it,
    and transmitting the sequence consumes every slot on the sender's side:
    a state is never both kept and sent. The sequence reads only a qudit's
    ``dim``, so the dense engine's states travel the same way as labels.
    """

    def __init__(self, states: Iterable[BasisLabel]):
        slots = list(states)
        if not slots:
            raise ValueError("a transmission carries at least one qudit")
        dims = {s.dim for s in slots}
        if len(dims) != 1:
            raise ValueError(f"all qudits in a transmission share one dimension, got {sorted(dims)}")
        self._slots: list[Optional[BasisLabel]] = slots
        self._released = False

    def __len__(self) -> int:
        return len(self._slots)

    def remaining_positions(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self._slots) if s is not None)

    def take(self, position: int) -> BasisLabel:
        """Remove and return the qudit at ``position`` (original indexing)."""
        if self._released:
            raise TransmissionError("sequence was handed to a channel; sender keeps no copy")
        if not 0 <= position < len(self._slots):
            raise TransmissionError(f"position {position} outside [0, {len(self._slots)})")
        state = self._slots[position]
        if state is None:
            raise TransmissionError(f"slot {position} already consumed")
        self._slots[position] = None
        return state

    def release_all(self) -> list[BasisLabel]:
        """Consume every slot at once (used by :func:`transmit`)."""
        if self._released or any(s is None for s in self._slots):
            raise TransmissionError("sequence already partially or fully consumed")
        states = [s for s in self._slots if s is not None]
        self._slots = [None] * len(self._slots)
        self._released = True
        return states


class Transcript:
    """Append-only event log for one protocol run, with per-role visibility.

    Events are JSON-safe dicts. ``view(role)`` returns exactly the events the
    role observes; byte comparisons between views use :meth:`view_json`, which
    serializes canonically (sorted keys, fixed separators).
    """

    def __init__(self) -> None:
        self._events: list[dict] = []

    def record(self, observers: Iterable[str] | str, kind: str, step: str | None = None, **payload) -> None:
        if isinstance(observers, str):
            obs = [observers]
        else:
            obs = sorted(set(observers))
        event: dict = {"seq": len(self._events), "kind": kind, "observers": obs}
        if step is not None:
            event["step"] = step
        event.update(payload)
        self._events.append(event)

    def events(self) -> list[dict]:
        """God's-eye copy of the full log (analysis only, not a role's view)."""
        return [dict(e) for e in self._events]

    def view(self, role: str) -> list[dict]:
        """Events observable by ``role``: public ones plus its own private ones."""
        return [dict(e) for e in self._events if PUBLIC in e["observers"] or role in e["observers"]]

    def public_view(self) -> list[dict]:
        """Strictly public events — what a passive outsider on the classical channel sees.

        An *active* outsider knows more than this (its own tap records);
        that knowledge is ``view(OUTSIDER)``.
        """
        return [dict(e) for e in self._events if PUBLIC in e["observers"]]

    def view_json(self, role: str) -> str:
        return json.dumps(self.view(role), sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        return json.dumps(self._events, sort_keys=True, separators=(",", ":"))


@dataclass
class ClassicalBus:
    """Authenticated append-only broadcast channel; everyone (outsiders included) reads it."""

    transcript: Transcript

    def broadcast(self, sender: str, message: dict) -> None:
        """Append ``message`` to the transcript under ``sender``'s authenticated identity."""
        self.transcript.record(PUBLIC, "classical", sender=sender, message=dict(message))


@dataclass
class QuantumLink:
    """One-directional qudit channel with at most one adversarial tap point."""

    sender: str
    receiver: str
    transcript: Transcript | None = None
    tap: TapFn | None = None

    @property
    def label(self) -> str:
        return f"{self.sender}->{self.receiver}"


def transmit(link: QuantumLink, seq: TransmissionSequence, rng: np.random.Generator) -> TransmissionSequence:
    """Move a sequence through ``link``, passing each qudit through the tap once, in order.

    The sender's handle on the sequence is consumed; the returned sequence is
    the receiver's handle. With no tap the delivered states are the prepared
    ones, since the channel itself is noiseless.
    """
    states = seq.release_all()
    delivered = []
    for position, state in enumerate(states):
        if link.tap is not None:
            state = link.tap(state, position, rng)
        delivered.append(state)
    if link.transcript is not None:
        link.transcript.record(
            {link.sender, link.receiver}, "transmit", link=link.label, count=len(delivered)
        )
    return TransmissionSequence(delivered)


__all__ = [
    "PUBLIC",
    "OUTSIDER",
    "ClassicalBus",
    "QuantumLink",
    "Transcript",
    "TransmissionError",
    "TransmissionSequence",
    "transmit",
]
