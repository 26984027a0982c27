"""Correctness checks on the program's outputs; each returns True when the check passes.

The oracles here are written independently of qpc_sim (no call into the
library), so a defect in the library cannot also hide itself in the check.
"""
from __future__ import annotations

import math
from typing import Sequence

#: Two-sided z bound of the statistical checks. A correct program fails one
#: with probability about 6e-7, while a per-decoy target for the wrong d
#: (0.4 instead of 0.375) still fails at the checked-decoy counts used here.
Z = 5.0


def ranking_oracle(values: Sequence[int]) -> list[list[int]]:
    """Ranking by pairwise counting: the party at level k has exactly k strictly larger values."""
    levels: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        levels.setdefault(sum(1 for other in values if other > v), []).append(i)
    return [levels[k] for k in sorted(levels)]


def ranked_trial_ok(row: dict) -> bool:
    """One trial row of a report: it completed and ranked its secrets correctly."""
    return row["aborted_at"] is None and row["ranking"] == ranking_oracle(row["secrets"])


def per_decoy_ok(step_stats: dict, d: int) -> bool:
    """Outsider random-basis intercept-resend: each checked decoy mismatches w.p. (1 - 1/d)/2."""
    checked, mismatched = step_stats["checked"], step_stats["mismatched"]
    if checked == 0:
        return False
    p = 0.5 * (1.0 - 1.0 / d)
    return abs(mismatched / checked - p) <= Z * math.sqrt(p * (1.0 - p) / checked)


def abort_rate_ok(abort_rate: float, analytic: float | None, trials: int) -> bool:
    """Observed abort rate within a binomial bound of the closed-form abort probability."""
    if analytic is None:
        return False
    return abs(abort_rate - analytic) <= Z * math.sqrt(analytic * (1.0 - analytic) / trials) + 1e-12


def support_ok(candidates: frozenset[int], secret: int, r: int, must_be_full: bool) -> bool:
    """The true secret is a candidate; coalitions that learn nothing see all of [0, r)."""
    if secret not in candidates:
        return False
    return not must_be_full or candidates == frozenset(range(r))
