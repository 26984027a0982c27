"""Attack strategies, their analytic detection rates, and privacy audits.

Each attack id is one row of data: whether it is active, the basis it
measures in (or a fair coin per qudit) and its owner, the role whose view
records its taps. Active rows measure qudits in flight and resend the
collapsed state, on the links ``protocol.run_links`` gives them from the
wiring; passive rows just read the public classical bus. A two-tp insider is
rejected on one-tp because its owner is not a role of that wiring. Coalition
views and a closed-form support interval quantify what any allowed group of
roles can infer about a single party's secret; the brute-force enumeration
of that support is the test oracle.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .channel import OUTSIDER, PUBLIC, Event, Transcript
from .protocol import (
    DECOY_BASES,
    WIRING,
    ProtocolParams,
    TP1_ROLE,
    TP2_ROLE,
    Variant,
    pad_sum_range,
    party_role,
    run_links,
)
from .qudit import Basis, BasisLabel, ParameterError, _expect, _expect_int, _new

# taps collapse basis labels; tests plug the dense oracle's measure in here
measure = BasisLabel.measure

_TP_ROLES = frozenset().union(*WIRING.values())
_PARTY_RE = re.compile(r"P[1-9]\d*")
#: Entries each coalition memo keeps (member sets, run role sets): every role set of an n=7 audit.
_MEMO_SIZE = 128
#: Most parties ``allowed_coalitions`` enumerates: a two-tp target has 2**(n-1) + 1 coalitions, 32,769 at the cap.
MAX_AUDIT_PARTIES = 16


@dataclass(frozen=True)
class AttackStrategy:
    """One adversary as a row: whether it taps, in which basis, and who owns it and sees the results.

    ``protocol.run_links`` decides which links an active strategy taps from
    its owner. ``basis`` ``None`` means a fair coin per qudit.
    """

    id: str
    active: bool = False
    basis: Basis | None = None
    owner: str = OUTSIDER

    def tap(
        self,
        state: BasisLabel,
        link_label: str,
        position: int,
        draws,
        transcript: Transcript,
    ) -> BasisLabel:
        """Measure-and-resend one in-flight qudit; passive strategies forward untouched.

        ``draws`` holds an iterator over each of the run's ``RunDraws.adversary``
        lists, its coins and its uniforms: a fair-coin tap reads its basis bit
        from the coins, and every active tap its measurement's uniform.
        """
        if not self.active:
            return state
        coins, uniforms = draws
        basis = self.basis
        if basis is None:
            basis = DECOY_BASES[next(coins)]
        outcome = measure(state, basis, next(uniforms))
        # _value_ and a plain owner string: the enum's value property and a set cost more per tap
        transcript.record(
            self.owner,
            "tap",
            link=link_label,
            position=position,
            basis=basis._value_,
            outcome=outcome.value,
        )
        return outcome.post_state


@functools.lru_cache(maxsize=64)
def tap_plan(params: ProtocolParams, strategy: AttackStrategy | None) -> tuple[int, tuple[int, ...]]:
    """The taps of one run, l+1 per tapped link of ``run_links``, and each tap's draws as ``tap`` reads them.

    Bounds in draw order, 0 a uniform and b an integer below b: a basis coin if ``basis`` is None, then a uniform.
    """
    taps = (params.l + 1) * sum(link.tapper is not None for link in itertools.chain(*run_links(params, strategy)))
    return taps, (((2, 0) if strategy.basis is None else (0,)) if taps else ())


_STRATEGIES: dict[str, AttackStrategy] = {
    s.id: s
    for s in (
        AttackStrategy("none"),
        AttackStrategy("ir-fixed-t1", True, Basis.COMPUTATIONAL),
        AttackStrategy("ir-fixed-t2", True, Basis.FOURIER),
        AttackStrategy("ir-random", True),
        AttackStrategy("tp1-mr", True, Basis.COMPUTATIONAL, TP1_ROLE),
        AttackStrategy("tp2-mr", True, Basis.COMPUTATIONAL, TP2_ROLE),
        AttackStrategy("outsider-classical"),
    )
}

ATTACK_IDS: tuple[str, ...] = tuple(_STRATEGIES)


def strategy_from_id(attack_id: str) -> AttackStrategy:
    """Look up a strategy by its stable id (the ids the CLI accepts)."""
    try:
        return _STRATEGIES[attack_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise ParameterError(f"unknown attack id {attack_id!r}; valid ids: {', '.join(ATTACK_IDS)}") from None


# --------------------------------------------------------------------------
# detection analytics
# --------------------------------------------------------------------------

def _flag_probability(strategy: AttackStrategy, d: int, prepared: Basis) -> float:
    """Chance that one decoy prepared in ``prepared`` is flagged by its check.

    A measure-resend in the preparation basis is invisible; in the conjugate
    basis the resent state is unbiased over the checked basis, so the verifier
    sees the prepared index again with probability exactly 1/d.
    """
    mismatch = 1.0 - 1.0 / d
    if strategy.basis is None:
        return 0.5 * mismatch
    return mismatch if prepared is not strategy.basis else 0.0


def per_decoy_detection_probability(
    strategy: AttackStrategy, d: int, decoy_basis: Basis | None = None
) -> float:
    """Analytic probability that one decoy flags the strategy.

    With ``decoy_basis=None`` the decoy is uniformly drawn over both bases
    (the distribution used when building transmissions); passing a basis
    restricts to decoys known to be prepared in it, e.g. the Fourier-only
    phase of the second-hop check.
    """
    _expect(strategy, AttackStrategy, "strategy")
    d = _expect_int(d, "dimension", "an integer >= 2", 2)
    if decoy_basis is not None and type(decoy_basis) is not Basis:
        raise ParameterError(f"decoy_basis must be a Basis or None, got {decoy_basis!r}")
    if not strategy.active:
        raise ParameterError(f"{strategy.id} never touches a qudit; no detection probability")
    if decoy_basis is not None:
        return _flag_probability(strategy, d, decoy_basis)
    return 0.5 * (
        _flag_probability(strategy, d, Basis.COMPUTATIONAL) + _flag_probability(strategy, d, Basis.FOURIER)
    )


def tapped_checked_decoys(strategy: AttackStrategy, params: ProtocolParams) -> int:
    """How many checked decoys per run cross a link the strategy taps: l of the l+1 taps per tapped link of the run."""
    _expect(strategy, AttackStrategy, "strategy")
    _expect(params, ProtocolParams, "params")
    return tap_plan(params, strategy)[0] // (params.l + 1) * params.l


def analytic_abort_probability(strategy: AttackStrategy, params: ProtocolParams) -> float:
    """Closed-form run-abort probability at zero error threshold.

    Decoys flag independently, each with the uniform per-decoy probability, so
    a run survives only if every tapped-and-checked decoy stays silent:
    abort = 1 - (1 - p)^D over the D such decoys.
    """
    _expect(params, ProtocolParams, "params")
    if params.error_threshold != 0.0:
        raise ParameterError("the analytic abort composition assumes error_threshold = 0")
    count = tapped_checked_decoys(strategy, params)
    if count == 0:
        return 0.0
    p = per_decoy_detection_probability(strategy, params.d)
    return 1.0 - (1.0 - p) ** count


# --------------------------------------------------------------------------
# coalitions and the privacy audit
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=_MEMO_SIZE)
def _check_members(members: frozenset[str]) -> frozenset[int]:
    """Refuse an empty set, an unknown role or a colluding TP; a set that passes gives its party indices, remembered."""
    if not members:
        raise ParameterError("a coalition needs at least one member")
    for role in members:
        if role not in _TP_ROLES and not (isinstance(role, str) and _PARTY_RE.fullmatch(role)):
            raise ParameterError(f"unknown coalition role {role!r}")
    if members & _TP_ROLES and len(members) > 1:
        raise ParameterError("third parties do not collude: a TP coalition is that TP alone")
    return frozenset(int(role[1:]) - 1 for role in members - _TP_ROLES)


@dataclass(frozen=True, init=False)
class Coalition:
    """A set of colluding roles trying to learn one party's secret.

    Third parties are assumed not to collude with anyone (neither with each
    other nor with a party), so any coalition containing a TP role is that TP
    alone. The target is a 0-based party index outside the coalition.
    """

    __slots__ = ("members", "target")  # not dataclass(slots=True): its class raises TypeError on writes in Python 3.11
    members: frozenset[str]
    target: int

    def __init__(self, members: frozenset[str], target: int) -> None:
        if type(members) is not frozenset:
            if isinstance(members, str):
                raise ParameterError(f"members must be a collection of role ids, got the string {members!r}")
            try:
                members = frozenset(members)
            except TypeError:
                raise ParameterError(f"members must be a collection of role ids, got {members!r}") from None
        if type(target) is not int or target < 0:  # numpy integers are stored as int; a bool is no index
            target = _expect_int(target, "target", "a 0-based party index", 0)
        if target in _check_members(members):
            raise ParameterError(f"party {party_role(target)} cannot audit its own secret")
        _set_members(self, members)  # the slots' own setters, past the frozen __setattr__
        _set_target(self, target)

    def __reduce__(self):  # pickle and copy rebuild through __init__, never through the frozen __setattr__
        return Coalition, (self.members, self.target)


_set_members, _set_target = Coalition.members.__set__, Coalition.target.__set__


def allowed_coalitions(variant: Variant, n: int, target: int) -> tuple[Coalition, ...]:
    """Every coalition the model allows against ``target``, in one fixed order.

    Each TP of the wiring alone, in ``WIRING`` order, then every non-empty group of
    the other parties, smallest first, in ``combinations`` order by party index.
    ``n`` lies in [2, ``MAX_AUDIT_PARTIES``], since the count doubles with each party.
    """
    if type(variant) is not Variant:
        raise ParameterError(f"variant must be a Variant, got {variant!r}")
    n = _expect_int(n, "n")
    if not 2 <= n <= MAX_AUDIT_PARTIES:
        raise ParameterError(f"an audit enumerates coalitions of 2 to {MAX_AUDIT_PARTIES} parties, got n={n}")
    target = _expect_int(target, "target", "a 0-based party index")
    if not 0 <= target < n:
        raise ParameterError(f"target index {target} out of range for n={n}")
    others = [party_role(i) for i in range(n) if i != target]
    groups = [(tp,) for tp in dict.fromkeys(WIRING[variant])]
    groups += [group for size in range(1, n) for group in itertools.combinations(others, size)]
    return tuple(Coalition(frozenset(group), target) for group in groups)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _run_roles(variant: str, n: int) -> frozenset[str]:
    """Every role of a ``variant`` run with n parties: its wiring's third parties (none if unknown) and P1..Pn."""
    tps = next((roles for wiring, roles in WIRING.items() if wiring.value == variant), ())
    return frozenset((*tps, *map(party_role, range(n))))


class View(NamedTuple):
    """What a coalition observed in one run: the public events plus each member's own, filtered only when read."""

    transcript: Transcript
    members: frozenset[str]
    target: int

    @property
    def events(self) -> list[Event]:
        return self.transcript.view(*self.members)


def coalition_view(transcript: Transcript, coalition: Coalition) -> View:
    """The coalition's view of ``transcript``: the public events plus any member's own, each once, in order.

    Nothing is filtered here; ``View.events`` reads the transcript when asked.
    The first run header, if any, bounds the target and the party members; it
    comes from the transcript's fact index, which the audit reads anyway.
    """
    if type(transcript) is not Transcript:
        _expect(transcript, Transcript, "transcript")
    if type(coalition) is not Coalition:
        _expect(coalition, Coalition, "coalition")
    entry = transcript._facts
    if entry is None or len(entry[0]) != len(transcript._events):
        entry = _fact_index(transcript)
    headers = entry[2]
    if headers:
        variant, n = headers[0][:2]
        if coalition.target >= n:
            raise ParameterError(f"target index {coalition.target} out of range for n={n}")
        roles = entry[3]
        if not coalition.members <= roles:
            absent = min(coalition.members - roles)
            raise ParameterError(f"coalition member {absent} does not exist in a {variant} n={n} run")
    return _new(View, (transcript, coalition.members, coalition.target))  # as qudit.py builds labels


@dataclass(frozen=True)
class SecretSupport:
    """Candidate values of the target's secret consistent with a view."""

    target: int
    candidates: frozenset[int]


_FACT_KINDS = frozenset({"carrier_prep", "carrier_measurement", "score_computation", "shared_key"})


def _fact_index(transcript: Transcript) -> tuple[list[Event], dict, tuple[tuple, ...], frozenset | None, dict, dict]:
    """Index the log in one pass: (events, role -> fact seqs, run headers, run roles, member memo, fact-set memo).

    A role's fact seqs are the ``seq`` numbers of the fact events it sees,
    public ones included. Facts are the preparer's carrier record, the pad
    announcement, the measurer's carrier records and scores, and the shared
    key. The ordering announcement is deliberately not one: the ranking is the
    protocol's declared output, so the audit measures leakage *beyond* it. The
    headers are each distinct (variant, n, d, r), first seen first, and the run
    roles those of the first. The memos map (members, run) and (fact seqs, run)
    to every target's support. The transcript keeps it as ``_facts``, and it refers to
    no transcript, so both go together; callers read it first and rebuild it once the log grows.
    """
    events, roles, headers = transcript.events(), {}, {}
    for e in events:
        if e["kind"] == "run_header":
            headers[e["variant"], e["n"], e["d"], e["r"]] = None
        elif e["kind"] in _FACT_KINDS or (e["kind"] == "classical" and e["message"]["kind"] == "pad_announcement"):
            for role in e["observers"]:
                roles.setdefault(role, set()).add(e["seq"])
    public = roles.get(PUBLIC, set())
    roles = {role: frozenset(public | seqs) for role, seqs in roles.items()}
    run = next(iter(headers), None)  # every header must equal the first, so its roles are the run's
    entry = transcript._facts = (events, roles, tuple(headers), run and _run_roles(*run[:2]), {}, {})
    return entry


def secret_support(view: View, params: ProtocolParams) -> SecretSupport:
    """The target secrets consistent with the coalition's numeric facts: one closed-form interval.

    The coalition's facts are the public ones plus its members' own, from the
    transcript's fact index in ``seq`` order. The first audit of a fact set
    under one (variant, n, d, r) walks its events once for every target's
    interval, which the transcript keeps for that fact set and member set.
    Unknowns: pad x in [0, r), run constant y in ``pad_sum_range``, key k (0 on
    two-tp, [0, r) on one-tp) and secret s in [0, r); an observation pins its
    unknown, and a later one of the same unknown wins. With t = s + k the
    facts complement = y - x in [0, d), measured = x + t < d and score = t + y
    are difference constraints over (x, y, -t), so eliminating y, then x,
    leaves one integer interval of t. A run header that disagrees with
    ``params``, a target outside [0, n) and a member that is no role of the
    run are errors, not facts, refused on every call, remembered answer or
    not. The brute-force enumeration of pad x run constant x key is the oracle.
    """
    if type(view) is not View:
        _expect(view, View, "view")
    transcript, members, target = view
    if type(transcript) is not Transcript:
        _expect(transcript, Transcript, "view.transcript")
    if type(params) is not ProtocolParams:
        _expect(params, ProtocolParams, "params")
    entry = transcript._facts
    if entry is None or len(entry[0]) != len(transcript._events):
        entry = _fact_index(transcript)
    n = params.n
    given = (params.variant._value_, n, params.d, params.r)  # _value_: the enum's value property costs 10x more
    for ran in entry[2]:
        if ran != given:
            raise ParameterError(f"params (variant, n, d, r) = {given} disagree with the view's run header {ran}")
    if not isinstance(members, frozenset) or not members <= (entry[3] or _run_roles(given[0], n)):
        raise ParameterError(f"view members must be a frozenset of {given[0]} n={n} roles, got {members!r}")
    if type(target) is not int or not 0 <= target < n:
        raise ParameterError(f"view target must be a party index in [0, {n}), got {target!r}")
    found = entry[4].get((members, given))
    if found is None:
        events, roles, _, _, by_members, by_facts = entry
        public = roles.get(PUBLIC, frozenset())
        seqs = public.union(*map(roles.__getitem__, roles.keys() & members))
        found = by_facts.get((seqs, given))
        if found is None:
            found = by_facts[seqs, given] = _supports(map(events.__getitem__, sorted(seqs)), params)
        by_members[members, given] = found
    return found[target]


def _supports(events, params: ProtocolParams) -> tuple[SecretSupport, ...]:
    """Every target's support under the fact events ``events``, in ``seq`` order: one walk, then one interval each."""
    n, r, d = params.n, params.r, params.d
    # the facts of each target by party index, a later event replacing an earlier one's, and the run-wide ones
    pads = complements = scores = (None,) * n
    measured: dict[int, int] = {}
    y = k = None
    for event in events:
        kind = event["kind"]
        if kind == "carrier_prep":
            pads, y, complements = event["pads"], event["pad_sum"], event["complements"]
        elif kind == "classical":
            complements = event["message"]["values"]
        elif kind == "carrier_measurement":
            measured[event["party"]] = event["value"]
        elif kind == "score_computation":
            scores = event["scores"]
        elif kind == "shared_key":
            k = event["value"]
    sums = pad_sum_range(params)
    y_lo, y_hi = (sums.start, sums.stop - 1) if y is None else (y, y)
    k_lo, k_hi = (0, 0) if params.variant is Variant.TWO_TP else (0, r - 1) if k is None else (k, k)
    found = []
    for target in range(n):
        x, c, m, q = pads[target], complements[target], measured.get(target), scores[target]
        x_lo, x_hi = (0, r - 1) if x is None else (x, x)
        c_lo, c_hi = (0, d - 1) if c is None else (max(c, 0), min(c, d - 1))
        m_lo, m_hi = (-math.inf, d - 1) if m is None else (m, min(m, d - 1))
        q_lo, q_hi = (-math.inf, math.inf) if q is None else (q, q)
        # eliminate y: it bounds x through the complement and x + t through the score
        x_lo, x_hi = max(x_lo, y_lo - c_hi), min(x_hi, y_hi - c_lo)
        m_lo, m_hi = max(m_lo, q_lo - c_hi), min(m_hi, q_hi - c_lo)
        # eliminate x
        t_lo = max(q_lo - y_hi, m_lo - x_hi)
        t_hi = min(q_hi - y_lo, m_hi - x_lo)
        lo, hi = max(0, t_lo - k_hi), min(r - 1, t_hi - k_lo)
        if c_lo > c_hi or x_lo > x_hi or m_lo > m_hi or t_lo > t_hi:
            hi = lo - 1  # no assignment explains the facts
        found.append(SecretSupport(target=target, candidates=frozenset(range(lo, hi + 1))))
    return tuple(found)
