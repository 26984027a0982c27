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
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from .qudit import BasisLabel

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .adversary import AttackStrategy

#: Observer marker for events every role (and any outsider) can see.
PUBLIC = "*"

#: Role id of a passive outside eavesdropper (sees exactly the public events).
OUTSIDER = "EVE"


class TransmissionError(RuntimeError):
    """A qudit handle was used after being consumed (no-cloning discipline)."""


class TransmissionSequence:
    """Ordered block of qudits travelling as one transmission.

    Slots are addressed by their original position. Taking a slot consumes it,
    and transmitting the sequence consumes every slot on the sender's side:
    a state is never both kept and sent. The sequence reads only a qudit's
    ``dim``, so the tests' dense states travel the same way as labels.
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
        states, self._slots = self._slots, [None] * len(self._slots)
        self._released = True
        return states


class Event(dict):
    """One recorded transcript event: a JSON-safe dict that refuses every in-place change.

    The transcript stores each event once and hands the same object to every
    read, so a reader cannot edit what another role sees. ``dict(event)`` is a
    mutable private copy. Nested lists are not frozen.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("transcript events are read-only; dict(event) gives a private copy")

    __setitem__ = __delitem__ = __ior__ = update = pop = popitem = setdefault = clear = _read_only

    def __reduce__(self):
        # pickle and copy rebuild through __init__, never through the blocked __setitem__
        return Event, (dict(self),)


class Transcript:
    """Append-only event log for one protocol run, with per-role visibility.

    Each event is recorded once as a read-only :class:`Event` and every read
    shares it. ``view(*roles)`` returns exactly the events those roles observe,
    in ``seq`` order; it reads a per-role index of ``seq`` numbers that the
    first read after a write extends, so recording does no index work.
    :meth:`to_json` serializes the whole log canonically (sorted keys, fixed
    separators).
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._seqs: dict[str, list[int]] = {}
        self._indexed = 0

    def record(self, observers: Iterable[str] | str, kind: str, step: str | None = None, **payload) -> None:
        payload["seq"] = len(self._events)
        payload["kind"] = kind
        payload["observers"] = [observers] if isinstance(observers, str) else sorted(set(observers))
        if step is not None:
            payload["step"] = step
        self._events.append(Event(payload))

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[Event]:
        """God's-eye list of the full log (analysis only, not a role's view); the events are shared."""
        return list(self._events)

    def view(self, *roles: str) -> list[Event]:
        """Events observable by any of ``roles``: every public one plus their private ones, each once.

        ``view()`` is what a passive outsider reads; an active one also knows its taps, ``view(OUTSIDER)``.
        The list is the caller's own; the events in it are shared."""
        events, index = self._events, self._seqs
        for seq in range(self._indexed, len(events)):
            for role in events[seq]["observers"]:
                index.setdefault(role, []).append(seq)
        self._indexed = len(events)
        seqs = set(index.get(PUBLIC, ()))
        for role in roles:
            seqs.update(index.get(role, ()))
        return list(map(events.__getitem__, sorted(seqs)))

    def to_json(self) -> str:
        return json.dumps(self._events, sort_keys=True, separators=(",", ":"))


@dataclass
class ClassicalBus:
    """Authenticated append-only broadcast channel; everyone (outsiders included) reads it."""

    transcript: Transcript

    def broadcast(self, sender: str, kind: str, **payload) -> None:
        """Append a ``kind`` message with ``payload`` to the transcript, under ``sender``'s authenticated identity."""
        payload["kind"] = kind
        self.transcript.record(PUBLIC, "classical", sender=sender, message=Event(payload))


@dataclass
class QuantumLink:
    """One-directional qudit channel; ``tapper``, if set, is the adversary on it, its one tap point."""

    sender: str
    receiver: str
    tapper: AttackStrategy | None = None

    @property
    def label(self) -> str:
        return f"{self.sender}->{self.receiver}"


def transmit(
    link: QuantumLink, seq: TransmissionSequence, transcript: Transcript, rng: np.random.Generator
) -> TransmissionSequence:
    """Move a sequence through ``link``, passing each qudit through the tapper once, in order.

    The sender's handle on the sequence is consumed; the returned sequence is
    the receiver's handle. With no tapper the released states are delivered
    as they are, since the channel itself is noiseless. The transmission is
    recorded for both endpoints, after any tap records.
    """
    delivered, label, tapper = seq.release_all(), link.label, link.tapper
    if tapper is not None:
        delivered = [tapper.tap(state, label, i, rng, transcript) for i, state in enumerate(delivered)]
    transcript.record({link.sender, link.receiver}, "transmit", link=label, count=len(delivered))
    return TransmissionSequence(delivered)


__all__ = [
    "PUBLIC",
    "OUTSIDER",
    "ClassicalBus",
    "Event",
    "QuantumLink",
    "Transcript",
    "TransmissionError",
    "TransmissionSequence",
    "transmit",
]
