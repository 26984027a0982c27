"""Shared test helpers: independent oracles, state constructors and bad-flag strategies."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dense_oracle import QuditState


def random_state(d: int, seed: int) -> QuditState:
    """Deterministic pseudo-random pure state (complex Gaussian, normalized)."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return QuditState(amps / np.linalg.norm(amps))


def ranking_oracle(values) -> tuple[tuple[int, ...], ...]:
    """Ranking by pairwise counting: party at level k has exactly k strictly larger values.

    Deliberately a different algorithm from the library's sort-based grouping.
    """
    levels: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        level = sum(1 for other in values if other > v)
        levels.setdefault(level, []).append(i)
    return tuple(tuple(levels[k]) for k in sorted(levels))


def shift_matrix_oracle(d: int, m: int) -> np.ndarray:
    """Explicit permutation matrix sum_k |k+m mod d><k| built element by element."""
    mat = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        mat[(k + m) % d, k] = 1.0
    return mat


def unparsable(parse) -> st.SearchStrategy[str]:
    """Short texts that ``parse`` rejects with ValueError."""

    def rejected(text: str) -> bool:
        try:
            parse(text)
        except ValueError:
            return True
        return False

    return st.text(max_size=8).filter(rejected)


def int_texts(**bounds) -> st.SearchStrategy[str]:
    """Decimal texts of integers within ``bounds`` (st.integers keywords)."""
    return st.integers(**bounds).map(str)
