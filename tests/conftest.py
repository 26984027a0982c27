"""Shared test helpers: independent oracles, state constructors and bad-flag strategies."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dense_oracle import QuditState
from qpc_sim import ATTACK_IDS, ProtocolParams, Variant
from qpc_sim.adversary import AttackStrategy, tap_plan
from qpc_sim.streams import RunDraws, run_draws, run_streams


def random_state(d: int, seed: int) -> QuditState:
    """Deterministic pseudo-random pure state (complex Gaussian, normalized)."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return QuditState(amps / np.linalg.norm(amps))


def seeded_draws(params: ProtocolParams, adversary: AttackStrategy | None, seed) -> RunDraws:
    """The draws of one run of ``params`` under ``adversary`` from the first spawn of ``SeedSequence(seed)``.

    The root stream is ``seed``'s own PCG64 and draws nothing; the preparer,
    the parties, the measurer and the adversary read the spawned children, as
    a trial's streams are laid out by ``run_streams``.
    """
    root = np.random.SeedSequence(seed)
    streams = [np.random.PCG64(root), *map(np.random.PCG64, root.spawn(run_streams(params.n)))]
    return run_draws(params, [streams], 0, tap_plan(params, adversary))[0]


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


#: Junk for any argument: integers, bools, floats and their numpy kinds, text, None, the run ids, lists and arrays.
ANY_VALUE = st.one_of(
    st.integers(-2, 16),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.none(),
    st.integers(-2, 16).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.sampled_from(Variant),
    st.sampled_from(("two-tp", "one-tp", *ATTACK_IDS)),
    st.lists(st.integers(-1, 5), max_size=3),
    st.lists(st.integers(-1, 5), max_size=3).map(np.array),
)


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
