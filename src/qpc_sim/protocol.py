"""Core of the two comparison protocols over d-level single particles.

Both variants follow the same seven-stage shape: a preparer encodes a random
pad value per party into a computational-basis carrier, pads each carrier with
decoys drawn from the two mutually unbiased bases, and ships it; the party
measures the first hop's check, shift-encodes its secret onto the carrier,
re-decoys, and ships again; the measuring side measures the second hop's check
in two phases (Fourier decoys first, then computational), measures the carrier,
and announces only the *ordering* of the per-party scores. Each hop's sender,
who drew its decoys, checks it. Scores differ from the secrets by one
common additive constant, so their ordering is the secrets' ordering while the
values themselves stay masked.

Variant differences: with two third parties the pad complements are broadcast
so the measuring side can form scores; with a single third party the
complements stay internal and every party shifts by an extra pre-shared key.

Each role reads its draws, in order, from lists that ``streams.run_draws``
computed before the run, the adversary's taps included; a run builds no
``Generator``. Nor does a run build its links: ``run_links`` states them once
per run shape, and ``adversary.tap_plan`` reads the taps off them, both
remembered by ``functools.lru_cache``. A decoy check discloses, measures and
counts mismatches in one pass over the decoys.
"""
from __future__ import annotations

import enum
import functools
import numbers
from collections.abc import Mapping, Set
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from . import adversary as adversary_module  # a cycle: adversary.py imports this module, so read it at call time
from .channel import (
    OUTSIDER,
    PUBLIC,
    QuantumLink,
    Transcript,
    transmit,
)
from .qudit import Basis, BasisLabel, ParameterError, _expect, _expect_int, _plain_int
from .streams import RunDraws

# Every qudit a run creates is a basis label. These module names are the seams
# where the tests plug in the dense oracle's functions of the same names, and
# where tracing wraps the primitives.
basis_state = BasisLabel.prepare
apply_shift = BasisLabel.shift
measure = BasisLabel.measure

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .adversary import AttackStrategy

TP1_ROLE = "TP1"
TP2_ROLE = "TP2"
SOLO_TP_ROLE = "TP"

#: Largest accepted qudit dimension. An honest run is O(1) in d, but a
#: measurement across bases builds the O(d) uniform table.
MAX_DIM = 2**16

#: Most qudits one run may move, 2n(l+1). Memory grows with it: one two-tp
#: trial at the cap (n=2, d=4, l=65535) peaks at 197 MB RSS (``ru_maxrss``)
#: with no attack, at 216 MB with ir-random, which aborts at step 3, and at
#: 332 MB with ir-random at threshold 1, which completes (CPython 3.11, numpy 2.4).
MAX_QUDITS = 2**18


def party_role(index: int) -> str:
    """Role id of the index-th comparing party (0-based index, 1-based label)."""
    return f"P{index + 1}"


class Variant(enum.Enum):
    TWO_TP = "two-tp"
    ONE_TP = "one-tp"


#: (preparer, measurer) of each wiring: carriers travel preparer -> party -> measurer.
WIRING: dict[Variant, tuple[str, str]] = {
    Variant.TWO_TP: (TP1_ROLE, TP2_ROLE),
    Variant.ONE_TP: (SOLO_TP_ROLE, SOLO_TP_ROLE),
}


@dataclass(frozen=True)
class ProtocolParams:
    """Validated run parameters.

    The lower dimension bounds are what keep the shift encoding
    wraparound-free on the honest path: pads and secrets both live in [0, r),
    so the measured carrier value is at most 2(r-1) with two third parties,
    and at most 3(r-1) when the pre-shared key is added in the single-TP
    variant. The upper bounds are MAX_DIM and MAX_QUDITS. ``variant`` is a
    :class:`Variant`; ``n``, ``d``, ``r`` and ``l`` are integers other than bools
    (numpy's stored as ints); ``error_threshold`` is a real other than a bool, stored as a float.
    """

    variant: Variant
    n: int
    d: int
    r: int
    l: int
    error_threshold: float = 0.0

    def __post_init__(self) -> None:
        if type(self.variant) is not Variant:
            raise ParameterError(f"variant must be a Variant, got {self.variant!r}")
        for name in ("n", "d", "r", "l"):
            object.__setattr__(self, name, _expect_int(getattr(self, name), name))
        threshold = self.error_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) or not 0 <= threshold <= 1:
            raise ParameterError(f"error_threshold must be a real number in [0, 1], got {threshold!r}")
        object.__setattr__(self, "error_threshold", float(threshold))
        if self.n < 2:
            raise ParameterError(f"at least two comparing parties are required (n >= 2), got n={self.n}")
        if self.r < 1:
            raise ParameterError(f"the secret range needs r >= 1, got r={self.r}")
        if self.l < 1:
            raise ParameterError(f"each transmission needs l >= 1 decoys, got l={self.l}")
        if 2 * self.n * (self.l + 1) > MAX_QUDITS:
            raise ParameterError(f"a run moves 2*n*(l+1) <= {MAX_QUDITS} qudits, got n={self.n} and l={self.l}")
        if not 2 <= self.d <= MAX_DIM:
            raise ParameterError(f"qudit dimension must lie in [2, {MAX_DIM}], got d={self.d}")
        if self.variant is Variant.TWO_TP and self.d < 2 * self.r - 1:
            raise ParameterError(f"two-tp requires d >= 2*r - 1 (got d={self.d}, r={self.r})")
        if self.variant is Variant.ONE_TP and self.d < 3 * self.r - 1:
            raise ParameterError(f"one-tp requires d >= 3*r - 1 (got d={self.d}, r={self.r})")
        # hash once, from values that hash alike in every process, since a pickle keeps it
        fields = (self.variant is Variant.TWO_TP, self.n, self.d, self.r, self.l, self.error_threshold)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash


#: The decoy basis for each value of the drawn basis bit, and its transcript name.
DECOY_BASES = (Basis.COMPUTATIONAL, Basis.FOURIER)
DECOY_BASIS_NAMES = tuple(basis.value for basis in DECOY_BASES)

#: One decoy of a recipe: ``(position, fourier, index)``, where ``fourier`` is the drawn basis bit.
Decoy = tuple[int, int, int]

#: Stages that check decoys, in run order: the first hop's full check, then the second hop's two phases.
CHECK_STEPS = ("step3", "step5", "step6")


class DecoySpec(NamedTuple):
    """Sender-private recipe of a transmission: its draw, as decoys in position order, plus the carrier slot.

    :func:`build_transmission` lays the decoys on every slot but
    ``carrier_position``, so the two partition the transmission by construction.
    """

    entries: tuple[Decoy, ...]
    carrier_position: int


class ComparisonOutcome(NamedTuple):
    """Result of one run: either a total preorder over parties or the abort stage.

    ``ranking`` lists 0-based party indices grouped into ties, highest score
    first; ``scores`` are the per-party sums whose ordering it reflects. Only
    :func:`tp_compute_result` and an abort build one, so the fields agree by construction.
    """

    ranking: tuple[tuple[int, ...], ...] | None
    scores: tuple[int, ...] | None
    aborted_at: str | None = None

    @property
    def completed(self) -> bool:
        return self.aborted_at is None


def rank_descending(values: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Total preorder of indices by value, largest first, ties grouped together."""
    groups: dict[int, list[int]] = {}
    for idx, v in enumerate(values):
        groups.setdefault(int(v), []).append(idx)
    return tuple(tuple(groups[v]) for v in sorted(groups, reverse=True))


def pad_sum_range(params: ProtocolParams) -> range:
    """Admissible run constants: any value in [r-1, d-1] keeps every complement in [0, d)."""
    return range(params.r - 1, params.d)


# --------------------------------------------------------------------------
# stage operations
# --------------------------------------------------------------------------

def tp_prepare_carriers(
    params: ProtocolParams, draws: Iterator[int]
) -> tuple[int, tuple[int, ...], list[BasisLabel]]:
    """Take the run constant and one pad per party from the preparer's draws; carrier i starts as |pad_i>.

    Each pad's complement is ``pad_sum - pad``, which ``pad_sum_range`` keeps
    in [0, d). The n+1 draws are the run constant's offset into
    ``pad_sum_range``, uniform below its length, then the pads, uniform below r.
    """
    offset, *pads = islice(draws, params.n + 1)
    pad_sum = pad_sum_range(params).start + offset
    return pad_sum, tuple(pads), [basis_state(params.d, Basis.COMPUTATIONAL, pad) for pad in pads]


def build_transmission(
    carrier_state: BasisLabel, l: int, draws: Iterator[int]
) -> tuple[tuple[BasisLabel, ...], DecoySpec]:
    """Hide the carrier among l decoys drawn uniformly from the 2d basis states.

    Each decoy picks its basis and index independently and uniformly; the
    carrier slot is uniform over the l+1 positions, and the decoys fill the
    other slots in order. Only the returned DecoySpec (sender-private) says
    which slot is which. The recipe is the sender's next 2l+1 draws: a basis
    bit below 2 and an index below d per decoy, then the slot below l+1. Each
    decoy is prepared by one ``basis_state`` call.
    """
    d = carrier_state.dim
    *draw, carrier_position = islice(draws, 2 * l + 1)
    positions = [*range(carrier_position), *range(carrier_position + 1, l + 1)]
    entries = tuple(zip(positions, draw[::2], draw[1::2]))
    states = [basis_state(d, DECOY_BASES[fourier], index) for _, fourier, index in entries]
    states.insert(carrier_position, carrier_state)
    return tuple(states), DecoySpec(entries, carrier_position)


def two_phase_disclosure(spec: DecoySpec) -> tuple[tuple[Decoy, ...], tuple[Decoy, ...]]:
    """Split a decoy recipe into its two disclosure phases: Fourier first, then computational.

    Each phase keeps the recipe's triples in position order. The order is
    part of the protocol contract — the Fourier phase must be checked before
    any computational positions are revealed.
    """
    fourier, computational = [], []
    for entry in spec.entries:
        (fourier if entry[1] else computational).append(entry)
    return tuple(fourier), tuple(computational)


def tp_compute_result(
    measured_values: Sequence[int], pad_complements: Sequence[int]
) -> ComparisonOutcome:
    """Combine measured carrier values with pad complements into scores and rank them.

    Sums are plain integers (no modular reduction); ties stay grouped.
    """
    scores = tuple(int(m) + int(c) for m, c in zip(measured_values, pad_complements))
    return ComparisonOutcome(rank_descending(scores), scores)


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------

def _normalize_secrets(secrets: Sequence[int], params: ProtocolParams) -> tuple[int, ...]:
    """The one check of a secret vector: n integers other than bools in [0, r), numpy's stored as ints.

    A string, set or mapping is refused: a set has no party order and a mapping iterates its keys.
    """
    try:
        values = None if isinstance(secrets, (str, Set, Mapping)) else tuple(map(_plain_int, secrets))
    except TypeError:  # not iterable
        values = None
    if values is None or any(type(s) is not int for s in values):
        raise ParameterError(f"secrets must be a sequence of integers, got {secrets!r}")
    if len(values) != params.n:
        raise ParameterError(f"expected {params.n} secrets, got {len(values)}")
    for i, s in enumerate(values):
        if not 0 <= s < params.r:
            raise ParameterError(f"every secret must lie in [0, r={params.r}), got secret {s} for party {i}")
    return values


def _check_shared_key(shared_key: int, params: ProtocolParams) -> int:
    """The one check of a one-tp key: an integer other than a bool in [0, r), numpy's stored as an int."""
    key = _expect_int(shared_key, "shared_key")
    if not 0 <= key < params.r:
        raise ParameterError(f"the shared key must lie in [0, r={params.r}), got {key}")
    return key


def _check_run(params: ProtocolParams, variant: Variant, adversary: object, draws: object) -> None:
    """A runner's entry checks besides secrets and key: params of ``variant``, an attack or None, and ``draws``.

    ``draws`` is a trial's ``RunDraws`` whose adversary draws fit ``adversary_module.tap_plan`` of this run.
    """
    _expect(params, ProtocolParams, "params")
    if params.variant is not variant:
        raise ParameterError(f"params are for {params.variant.value}, expected {variant.value}")
    if adversary is not None:
        _expect(adversary, adversary_module.AttackStrategy, "adversary")
    _expect(draws, RunDraws, "draws")
    taps, per_tap = adversary_module.tap_plan(params, adversary)
    if tuple(map(len, draws.adversary)) != (taps * per_tap.count(2), taps * per_tap.count(0)):
        raise ParameterError(f"the adversary draws do not fit this run's {taps} taps, each drawing {per_tap}")


@functools.lru_cache(maxsize=64)
def run_links(
    params: ProtocolParams, adversary: "AttackStrategy | None"
) -> tuple[tuple[QuantumLink, ...], tuple[QuantumLink, ...]]:
    """The run's n preparer->party links and n party->measurer links, each in party order.

    Only an active adversary taps, and only from the wiring: an outsider taps
    every link, and a third party of this wiring taps exactly the links it is
    not an end of. Any other owner taps nothing. The links are frozen and
    built once per ``(params, adversary)``; every run of that shape shares them.
    """
    preparer, measurer = wiring = WIRING[params.variant]
    taps = adversary is not None and adversary.active and adversary.owner in (OUTSIDER, *wiring)

    def link(sender: str, receiver: str) -> QuantumLink:
        return QuantumLink(sender, receiver, adversary if taps and adversary.owner not in (sender, receiver) else None)

    parties = [party_role(i) for i in range(params.n)]
    return tuple(link(preparer, p) for p in parties), tuple(link(p, measurer) for p in parties)


def _disclose_and_check(
    transcript: Transcript,
    step: str,
    phase: str,
    link: QuantumLink,
    entries: Sequence[Decoy],
    received: Sequence[BasisLabel],
    draws: Iterator[float],
    threshold: float,
) -> bool:
    """One eavesdropping check of ``link``: disclose, measure, report, compare. True means abort.

    The link's sender, who drew its decoys, announces positions and bases;
    the receiver measures and reports publicly; and the sender, who alone
    knows the prepared indices, computes the mismatch rate. The receiver
    measures each decoy with its next uniform from ``draws``, one per decoy.
    """
    label, sender = link.label, link.sender
    disclosed, outcomes, mismatched = [], [], 0
    for (position, fourier, index), u in zip(entries, islice(draws, len(entries))):
        disclosed.append((position, DECOY_BASIS_NAMES[fourier]))
        value = measure(received[position], DECOY_BASES[fourier], u)[0]
        outcomes.append((position, value))
        mismatched += value != index
    transcript.broadcast(sender, "decoy_disclosure", transmission=label, phase=phase, entries=tuple(disclosed))
    transcript.broadcast(link.receiver, "measurement_report", transmission=label, outcomes=tuple(outcomes))
    error_rate = mismatched / len(entries) if entries else 0.0
    transcript.record(
        sender,
        "decoy_check",
        step=step,
        link=label,
        checked=len(entries),
        mismatched=mismatched,
        error_rate=error_rate,
    )
    if error_rate > threshold:
        transcript.broadcast(sender, "abort", step=step)
        return True
    return False


def _run_protocol(
    params: ProtocolParams,
    secrets: tuple[int, ...],
    shared_key: int | None,
    adversary: "AttackStrategy | None",
    draws: RunDraws,
) -> tuple[Transcript, ComparisonOutcome]:
    n, l, threshold = params.n, params.l, params.error_threshold
    offset = shared_key or 0
    preparer, measurer = WIRING[params.variant]
    first_links, second_links = run_links(params, adversary)

    transcript = Transcript()
    prep_draws, measure_draws = iter(draws.preparer), iter(draws.measurer)
    party_draws = [iter(own) for own in draws.parties]
    tap_draws = tuple(map(iter, draws.adversary))

    transcript.record(
        PUBLIC,
        "run_header",
        variant=params.variant.value,
        n=n,
        d=params.d,
        r=params.r,
        l=l,
        threshold=threshold,
    )
    if shared_key is not None:
        transcript.record({link.sender for link in second_links}, "shared_key", value=shared_key)

    def aborted(step: str) -> tuple[Transcript, ComparisonOutcome]:
        return transcript, ComparisonOutcome(None, None, step)

    def hop(
        link: QuantumLink, step: str, carrier: BasisLabel, sender_draws: Iterator[int]
    ) -> tuple[tuple[BasisLabel, ...], DecoySpec]:
        """Hide the carrier among l fresh decoys, record the sender's recipe, and send it over ``link``."""
        seq, spec = build_transmission(carrier, l, sender_draws)
        transcript.record(
            link.sender,
            "transmission_prep",
            step=step,
            link=link.label,
            carrier_position=spec.carrier_position,
            decoys=tuple([(position, DECOY_BASIS_NAMES[fourier], index) for position, fourier, index in spec.entries]),
        )
        return transmit(link, seq, transcript, tap_draws), spec

    # stage 1: carriers
    pad_sum, pads, carrier_states = tp_prepare_carriers(params, prep_draws)
    complements = tuple([pad_sum - pad for pad in pads])
    transcript.record(
        preparer,
        "carrier_prep",
        step="step1",
        pad_sum=pad_sum,
        pads=pads,
        complements=complements,
    )

    # stage 2: first hop (preparer -> party), decoys drawn by the preparer
    first_hop = [hop(link, "step2", carrier, prep_draws) for link, carrier in zip(first_links, carrier_states)]

    # stage 3: full decoy check of every first hop
    step = CHECK_STEPS[0]
    for link, (received, spec), draws in zip(first_links, first_hop, party_draws):
        if _disclose_and_check(transcript, step, "all", link, spec.entries, received, draws, threshold):
            return aborted(step)

    # stage 4: the party takes the carrier from the one slot its recipe left undisclosed,
    # shifts it by secret + offset (the bounds keep that below d), and ships it under fresh decoys
    second_hop = []
    for i, (link, (received, spec)) in enumerate(zip(second_links, first_hop)):
        encoded = apply_shift(received[spec.carrier_position], secrets[i] + offset)
        transcript.record(link.sender, "encode", step="step4", party=i, shift=secrets[i] + offset)
        received, spec = hop(link, "step4", encoded, party_draws[i])
        second_hop.append((received, spec.carrier_position, two_phase_disclosure(spec)))

    # stages 5 and 6: two-phase second-hop check, Fourier decoys strictly first (two_phase_disclosure's order)
    for selector, (step, phase) in enumerate(zip(CHECK_STEPS[1:], reversed(DECOY_BASIS_NAMES))):
        for link, (received, _, phases) in zip(second_links, second_hop):
            if _disclose_and_check(transcript, step, phase, link, phases[selector], received, measure_draws, threshold):
                return aborted(step)

    # stage 7: measure carriers, form scores, announce the ordering only
    measured = []
    for i, (received, carrier_position, _) in enumerate(second_hop):
        outcome = measure(received[carrier_position], Basis.COMPUTATIONAL, next(measure_draws))
        transcript.record(measurer, "carrier_measurement", step="step7", party=i, value=outcome.value)
        measured.append(outcome.value)

    if preparer != measurer:
        transcript.broadcast(preparer, "pad_announcement", values=complements)  # a tuple, so the two events share it
    result = tp_compute_result(measured, complements)
    transcript.record(measurer, "score_computation", step="step7", scores=result.scores)
    transcript.broadcast(measurer, "ordering_announcement", ranking=result.ranking)
    return transcript, result


def run_two_tp_protocol(
    params: ProtocolParams,
    secrets: Sequence[int],
    adversary: "AttackStrategy | None",
    draws: RunDraws,
) -> tuple[Transcript, ComparisonOutcome]:
    """One run of the two-third-party variant, reading its draws from a trial's ``RunDraws``.

    The preparing TP knows pads and the run constant but never sees a carrier
    after encoding; the measuring TP sees encoded values but no pads. The pad
    complements are broadcast publicly so the measuring TP can rank.
    """
    _check_run(params, Variant.TWO_TP, adversary, draws)
    return _run_protocol(params, _normalize_secrets(secrets, params), None, adversary, draws)


def run_one_tp_protocol(
    params: ProtocolParams,
    secrets: Sequence[int],
    shared_key: int,
    adversary: "AttackStrategy | None",
    draws: RunDraws,
) -> tuple[Transcript, ComparisonOutcome]:
    """One run of the single-third-party variant, reading its draws as :func:`run_two_tp_protocol` does.

    The lone TP plays both ends, so every party also shifts by a key shared
    among the parties but hidden from the TP; complements stay TP-internal and
    nothing about them is broadcast.
    """
    _check_run(params, Variant.ONE_TP, adversary, draws)
    values = _normalize_secrets(secrets, params)
    return _run_protocol(params, values, _check_shared_key(shared_key, params), adversary, draws)
