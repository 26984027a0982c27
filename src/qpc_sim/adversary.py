"""Attack strategies, their analytic detection rates, and privacy audits.

Each attack id is one row of data: the links it taps (a pattern over whole
link labels, or none for a passive strategy), the basis it measures in (or a
fair coin per qudit) and the role whose view records its taps. Active rows
measure qudits in flight and resend the collapsed state: an outsider on every
link, or a third party on the hop its role does not terminate. Passive rows
just read the public classical bus. The per-decoy flag probability reads the
row's basis, the tapped-decoy count counts the run's links it taps, and a
two-tp insider is rejected on one-tp because its owner is not a role of
that wiring. On top of that, coalition views and a closed-form
support interval quantify what any allowed group of roles can infer about a
single party's secret; the brute-force enumeration of that support is the
test oracle.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .channel import OUTSIDER, Transcript
from .protocol import (
    WIRING,
    ProtocolParams,
    TP1_ROLE,
    TP2_ROLE,
    Variant,
    pad_sum_range,
    party_role,
    run_links,
)
from .qudit import Basis, BasisLabel, ParameterError

# taps collapse basis labels; the dense qudit.measure plugs in here as the oracle
measure = BasisLabel.measure

_TP_ROLES = frozenset().union(*WIRING.values())
_WIRED = {variant.value: frozenset(roles) for variant, roles in WIRING.items()}
_PARTY_RE = re.compile(r"P[1-9]\d*")


@dataclass(frozen=True)
class AttackStrategy:
    """One adversary as a row: which links it taps, in which basis, and who sees the results.

    ``links`` is matched against whole link labels; ``None`` makes the
    strategy passive. ``basis`` ``None`` means a fair coin per qudit.
    """

    id: str
    links: re.Pattern[str] | None = None
    basis: Basis | None = None
    owner: str = OUTSIDER

    @property
    def active(self) -> bool:
        return self.links is not None

    def taps_link(self, link_label: str) -> bool:
        """Whether this strategy measures qudits crossing the given link."""
        return self.links is not None and self.links.fullmatch(link_label) is not None

    def tap(
        self,
        state: BasisLabel,
        link_label: str,
        position: int,
        rng: np.random.Generator,
        transcript: Transcript,
    ) -> BasisLabel:
        """Measure-and-resend one in-flight qudit; passive strategies forward untouched."""
        if not self.active:
            return state
        basis = self.basis
        if basis is None:
            basis = Basis.FOURIER if int(rng.integers(0, 2)) else Basis.COMPUTATIONAL
        outcome = measure(state, basis, rng)
        transcript.record(
            {self.owner},
            "tap",
            link=link_label,
            position=position,
            basis=basis.value,
            outcome=outcome.value,
        )
        return outcome.post_state


_EVERY_LINK = re.compile(r"\w+->\w+")

# An insider taps the hop its role does not terminate: the preparing TP the
# encoded second hop, the measuring TP the first hop. On one-tp the lone TP
# terminates both hops, so neither pattern matches a link there.
_STRATEGIES: dict[str, AttackStrategy] = {
    s.id: s
    for s in (
        AttackStrategy("none"),
        AttackStrategy("ir-fixed-t1", _EVERY_LINK, Basis.COMPUTATIONAL),
        AttackStrategy("ir-fixed-t2", _EVERY_LINK, Basis.FOURIER),
        AttackStrategy("ir-random", _EVERY_LINK),
        AttackStrategy("tp1-mr", re.compile(r"P\d+->TP2"), Basis.COMPUTATIONAL, TP1_ROLE),
        AttackStrategy("tp2-mr", re.compile(r"TP1->P\d+"), Basis.COMPUTATIONAL, TP2_ROLE),
        AttackStrategy("outsider-classical"),
    )
}

ATTACK_IDS: tuple[str, ...] = tuple(_STRATEGIES)


def strategy_from_id(attack_id: str) -> AttackStrategy:
    """Look up a strategy by its stable id (the ids the CLI accepts)."""
    try:
        return _STRATEGIES[attack_id]
    except KeyError:
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
    if d < 2:
        raise ParameterError(f"dimension must be >= 2, got {d}")
    if not strategy.active:
        raise ParameterError(f"{strategy.id} never touches a qudit; no detection probability")
    if decoy_basis is not None:
        return _flag_probability(strategy, d, decoy_basis)
    return 0.5 * (
        _flag_probability(strategy, d, Basis.COMPUTATIONAL) + _flag_probability(strategy, d, Basis.FOURIER)
    )


def tapped_checked_decoys(strategy: AttackStrategy, params: ProtocolParams) -> int:
    """How many checked decoys per run cross a link the strategy taps: l per tapped link of the run."""
    first_links, second_links = run_links(params, strategy)
    return params.l * sum(link.tapper is not None for link in first_links + second_links)


def analytic_abort_probability(strategy: AttackStrategy, params: ProtocolParams) -> float:
    """Closed-form run-abort probability at zero error threshold.

    Decoys flag independently, each with the uniform per-decoy probability, so
    a run survives only if every tapped-and-checked decoy stays silent:
    abort = 1 - (1 - p)^D over the D such decoys.
    """
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

@dataclass(frozen=True)
class Coalition:
    """A set of colluding roles trying to learn one party's secret.

    Third parties are assumed not to collude with anyone (neither with each
    other nor with a party), so any coalition containing a TP role is that TP
    alone. The target is a 0-based party index outside the coalition.
    """

    members: frozenset[str]
    target: int

    def __post_init__(self) -> None:
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ParameterError("a coalition needs at least one member")
        for role in members:
            if role not in _TP_ROLES and not _PARTY_RE.fullmatch(role):
                raise ParameterError(f"unknown coalition role {role!r}")
        if members & _TP_ROLES and len(members) > 1:
            raise ParameterError("third parties do not collude: a TP coalition is that TP alone")
        if self.target < 0:
            raise ParameterError(f"target must be a 0-based party index, got {self.target}")
        if party_role(self.target) in members:
            raise ParameterError(f"party {party_role(self.target)} cannot audit its own secret")


def allowed_coalitions(variant: Variant, n: int, target: int) -> tuple[Coalition, ...]:
    """Every coalition the model allows against ``target``, in one fixed order.

    Each TP of the wiring alone, in ``WIRING`` order, then every non-empty group of
    the other parties, smallest first, in ``combinations`` order by party index.
    """
    if not 0 <= target < n:
        raise ParameterError(f"target index {target} out of range for n={n}")
    others = [party_role(i) for i in range(n) if i != target]
    groups = [(tp,) for tp in dict.fromkeys(WIRING[variant])]
    groups += [group for size in range(1, n) for group in itertools.combinations(others, size)]
    return tuple(Coalition(frozenset(group), target) for group in groups)


@dataclass(frozen=True)
class View:
    """Everything a coalition observed in one run: members' events plus the public bus."""

    events: tuple[dict, ...]
    members: frozenset[str]
    target: int


def coalition_view(transcript: Transcript, coalition: Coalition) -> View:
    """The members' merged transcript view: public events plus any member's own, each once, in order.

    The events are the transcript's shared read-only records, not copies. A
    run header, if present, bounds the target and the party members.
    """
    header = next((e for e in transcript.events() if e["kind"] == "run_header"), None)
    if header is not None:
        n, variant = header["n"], header["variant"]
        if coalition.target >= n:
            raise ParameterError(f"target index {coalition.target} out of range for n={n}")
        for role in coalition.members:
            if not (role in _WIRED[variant] if role in _TP_ROLES else int(role[1:]) <= n):
                raise ParameterError(f"coalition member {role} does not exist in a {variant} n={n} run")
    events = tuple(transcript.view(*coalition.members))
    return View(events=events, members=coalition.members, target=coalition.target)


@dataclass(frozen=True)
class SecretSupport:
    """Candidate values of the target's secret consistent with a view."""

    target: int
    candidates: frozenset[int]


def _observations(view: View, params: ProtocolParams) -> dict[str, int]:
    """Numeric facts about the target that the view pins down.

    The ordering announcement is deliberately not extracted: the ranking is
    the protocol's declared output, so the audit measures leakage *beyond* it.
    A run header that disagrees with ``params`` is an error, not a fact.
    """
    target = view.target
    obs: dict[str, int] = {}
    for event in view.events:
        kind = event["kind"]
        if kind == "run_header":
            ran, given = (event["variant"], event["d"], event["r"]), (params.variant.value, params.d, params.r)
            if ran != given:
                raise ParameterError(f"params (variant, d, r) = {given} disagree with the view's run header {ran}")
        elif kind == "carrier_prep":
            obs["pad"] = event["pads"][target]
            obs["pad_sum"] = event["pad_sum"]
            obs["complement"] = event["complements"][target]
        elif kind == "classical" and event["message"]["kind"] == "pad_announcement":
            obs["complement"] = event["message"]["values"][target]
        elif kind == "carrier_measurement" and event["party"] == target:
            obs["measured"] = event["value"]
        elif kind == "score_computation":
            obs["score"] = event["scores"][target]
        elif kind == "shared_key":
            obs["shared_key"] = event["value"]
    return obs


def secret_support(view: View, params: ProtocolParams) -> SecretSupport:
    """The target secrets consistent with the view's numeric facts: one closed-form interval.

    Unknowns: pad x in [0, r), run constant y in ``pad_sum_range``, key k (0 on
    two-tp, [0, r) on one-tp) and secret s in [0, r); an observation pins its
    unknown. With t = s + k the facts complement = y - x in [0, d),
    measured = x + t < d and score = t + y are difference constraints over
    (x, y, -t), so eliminating y, then x, leaves one integer interval of t.
    The brute-force enumeration of pad x run constant x key is the test oracle.
    """
    obs = _observations(view, params)
    r, d = params.r, params.d

    def bounds(name: str, lo: float, hi: float) -> tuple[float, float]:
        return (obs[name], obs[name]) if name in obs else (lo, hi)

    sums = pad_sum_range(params)
    x_lo, x_hi = bounds("pad", 0, r - 1)
    y_lo, y_hi = bounds("pad_sum", sums.start, sums.stop - 1)
    k_lo, k_hi = bounds("shared_key", 0, r - 1) if params.variant is Variant.ONE_TP else (0, 0)
    c_lo, c_hi = bounds("complement", 0, d - 1)
    m_lo, m_hi = bounds("measured", -math.inf, d - 1)
    q_lo, q_hi = bounds("score", -math.inf, math.inf)
    c_lo, c_hi, m_hi = max(c_lo, 0), min(c_hi, d - 1), min(m_hi, d - 1)
    # eliminate y: it bounds x through the complement and x + t through the score
    x_lo, x_hi = max(x_lo, y_lo - c_hi), min(x_hi, y_hi - c_lo)
    m_lo, m_hi = max(m_lo, q_lo - c_hi), min(m_hi, q_hi - c_lo)
    # eliminate x
    t_lo = max(q_lo - y_hi, m_lo - x_hi)
    t_hi = min(q_hi - y_lo, m_hi - x_lo)
    lo, hi = max(0, t_lo - k_hi), min(r - 1, t_hi - k_lo)
    if c_lo > c_hi or x_lo > x_hi or m_lo > m_hi or t_lo > t_hi:
        hi = lo - 1  # no assignment explains the facts
    return SecretSupport(target=view.target, candidates=frozenset(range(lo, hi + 1)))
