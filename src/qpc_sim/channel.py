"""Transport layer: quantum links with a single tap point, and the per-role
transcript of everything observable, authenticated classical broadcasts included.

A transmission is a plain tuple of qudits, addressed by position. Every
qudit is prepared once, sent once per hop and measured once: the sender's
recipe (``protocol.DecoySpec``) partitions the slots, so each stage reads
the slots it owns and no slot twice. The tests check that read-once rule on
whole runs; nothing here re-checks it per qudit.

The transcript is the evidence store for all privacy claims, so the recording
rules are strict: an event is visible to a role if and only if that role
legitimately observes it (its own preparations, its own measurement results,
its own tap, or any classical broadcast). Classical broadcasts are public —
a passive outsider reads them all — but are delivered unmodified and with
authenticated sender identity. An event holds scalars, strings, tuples of them
and a read-only classical ``message``; its observers are one sorted tuple.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from .qudit import BasisLabel

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .adversary import AttackStrategy

#: Observer marker for events every role (and any outsider) can see.
PUBLIC = "*"

#: Role id of a passive outside eavesdropper (sees exactly the public events).
OUTSIDER = "EVE"


class Event(dict):
    """One recorded transcript event: a JSON-safe dict that refuses every in-place change.

    The transcript stores each event once and hands the same object to every
    read, so a reader cannot edit what another role sees. ``dict(event)`` is a
    mutable private copy. Nested values are tuples or a read-only ``message``,
    so no leaf can be edited either; a JSON load holds lists for the tuples.
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
    shares it. ``view(*roles)`` filters the log for exactly the events those
    roles observe, in ``seq`` order. :meth:`to_json` serializes the whole log
    canonically (sorted keys, fixed separators).
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._facts: tuple | None = None  # the audit's index of the log (adversary._fact_index), set by the first audit

    def record(self, observers: Iterable[str] | str, kind: str, step: str | None = None, **payload) -> None:
        """Append a ``kind`` event; its observers (a role, a sorted tuple or any roles) are stored as a sorted tuple."""
        payload["seq"] = len(self._events)
        payload["kind"] = kind
        if isinstance(observers, str):
            payload["observers"] = (observers,)
        else:
            payload["observers"] = observers if type(observers) is tuple else tuple(sorted(set(observers)))
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
        seen = {PUBLIC, *roles}
        return [event for event in self._events if not seen.isdisjoint(event["observers"])]

    def broadcast(self, sender: str, kind: str, **payload) -> None:
        """Record a public ``kind`` message with ``payload``, under ``sender``'s authenticated identity."""
        payload["kind"] = kind
        self.record(PUBLIC, "classical", sender=sender, message=Event(payload))

    def to_json(self) -> str:
        return json.dumps(self._events, sort_keys=True, separators=(",", ":"))


#: Another name for Transcript, kept only because perfbench's tracer patches it; ROADMAP item 16 drops it.
ClassicalBus = Transcript


@dataclass(frozen=True)
class QuantumLink:
    """One-directional qudit channel; ``tapper``, if set, is the adversary on it, its one tap point.

    Frozen, since the runs of one shape share it; ``label`` and ``endpoints``
    (both ends sorted, a transmission's observers) are computed when it is built.
    """

    sender: str
    receiver: str
    tapper: AttackStrategy | None = None
    label: str = field(init=False, repr=False, compare=False)
    endpoints: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", f"{self.sender}->{self.receiver}")
        object.__setattr__(self, "endpoints", tuple(sorted({self.sender, self.receiver})))


def transmit(
    link: QuantumLink, seq: tuple[BasisLabel, ...], transcript: Transcript, draws: tuple[Iterator, Iterator]
) -> tuple[BasisLabel, ...]:
    """Move a transmission through ``link``, passing each qudit through the tapper once, in order.

    With no tapper ``seq`` itself is delivered, since the channel is
    noiseless; a tapped link delivers a new tuple of the tapped states. The
    transmission is recorded for both endpoints, after any tap records. The
    tapper reads its coins and uniforms from ``draws``, the run's iterators over them.
    """
    label, tapper = link.label, link.tapper
    if tapper is not None:
        seq = tuple([tapper.tap(state, label, i, draws, transcript) for i, state in enumerate(seq)])
    transcript.record(link.endpoints, "transmit", link=label, count=len(seq))
    return seq


__all__ = [
    "PUBLIC",
    "OUTSIDER",
    "Event",
    "QuantumLink",
    "Transcript",
    "transmit",
]
