"""Trial streams: numpy's ``SeedSequence((seed, t))`` for a chunk of trials at once.

A trial of an experiment draws from ``default_rng(SeedSequence((seed, t)))``
and from the children its run spawns. numpy's ``SeedSequence`` is O'Neill's
``seed_seq_fe`` mixer over a pool of four uint32 words, and its hash constants
do not depend on the data, so one pass of uint32 array arithmetic hashes the
pools of a chunk of trials, and the PCG64 states of their children, bit for bit
as numpy does. Each trial's generator is built only when the caller asks for it.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

#: Streams, roots and children, that one chunk of trials hashes at once: its
#: PCG64 states take at most 1024 * 32 bytes.
_CHUNK_STREAMS = 1024


def chunk_trials(n_children: int) -> int:
    """Trials per chunk of :func:`trial_streams` when each trial's first spawn makes ``n_children``."""
    return max(1, _CHUNK_STREAMS // (n_children + 1))


def _words(value: int) -> list[int]:
    """``value`` (>= 0) as numpy coerces entropy: its little-endian uint32 words, 0 as one zero word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _chain(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 for k in [0, count]: hash step k xors with item k and multiplies by item k + 1."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    hashed = (values ^ xor) * mult
    return hashed ^ (hashed >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * _MIX_L - y * _MIX_R
    return mixed ^ (mixed >> 16)


_Constants = tuple[np.ndarray, np.ndarray]  # (xor, multiplier) of a hash step, one item per word it hashes


@lru_cache(maxsize=8)
def _hash_plan(
    n_words: int, n_children: int
) -> tuple[_Constants, tuple[_Constants, ...], tuple[_Constants, ...], np.ndarray, _Constants]:
    """Every constant of one chunk's hash, for one entropy length and spawn count.

    In order: the first four entropy words (or zeros) into the pool; each pool
    word into the three others; each entropy word past the fourth; each
    child's hashed spawn key (one row per child); and generate_state(4,
    np.uint64), one item per uint32 word.
    """
    n_extra = max(n_words - _POOL, 0)
    n_steps = _POOL * (5 + n_extra)
    a = _chain(_INIT_A, _MULT_A, n_steps)
    steps = iter(range(n_steps))  # the pool's hash steps, in numpy's order

    def take(ks: list[int]) -> _Constants:
        ks = np.array(ks)
        return a[ks], a[ks + 1]

    def next_four() -> _Constants:
        return take([next(steps) for _ in range(_POOL)])

    fill = next_four()
    # a source word is not mixed into itself: its column is put back after the mix
    spread = tuple(take([0 if dst == src else next(steps) for dst in range(_POOL)]) for src in range(_POOL))
    extra = tuple(next_four() for _ in range(n_extra))
    children = _hashmix(np.arange(n_children, dtype=np.uint32)[:, None], *next_four())
    b = _chain(_INIT_B, _MULT_B, 2 * _POOL)
    return fill, spread, extra, children, (b[:-1], b[1:])


def _chunk_states(seed_words: list[int], start: int, stop: int, n_children: int) -> np.ndarray:
    """PCG64 states of trials [start, stop): shape (trials, 1 + n_children, 4), root first.

    Row ``[i, 0]`` is ``SeedSequence((seed, start + i)).generate_state(4,
    np.uint64)`` and row ``[i, 1 + j]`` that of its child j. The range must
    not cross a multiple of 2**32, so the trial index has one low word that
    counts up and high words that do not change.
    """
    high = start >> 32
    entropy = [*seed_words, start & _MASK32, *(_words(high) if high else ())]
    fill, spread, extra, children, state = _hash_plan(len(entropy), n_children)
    words = np.zeros((stop - start, _POOL), dtype=np.uint32)
    head = entropy[:_POOL]
    words[:, : len(head)] = head
    words[:, len(seed_words)] = np.arange(start & _MASK32, (start & _MASK32) + stop - start, dtype=np.uint32)
    pool = _hashmix(words, *fill)
    for src, constants in enumerate(spread):
        mixed = _mix(pool, _hashmix(pool[:, src, None], *constants))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for word, constants in zip(entropy[_POOL:], extra):
        pool = _mix(pool, _hashmix(np.full(_POOL, word, dtype=np.uint32), *constants))
    pools = np.empty((stop - start, 1 + n_children, 2 * _POOL), dtype=np.uint32)
    pools[:, 0, :_POOL] = pool
    pools[:, 1:, :_POOL] = _mix(pool[:, None, :], children)
    pools[..., _POOL:] = pools[..., :_POOL]
    # numpy reads the eight words as little-endian pairs, whatever the host order
    states = _hashmix(pools, *state).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    states.flags.writeable = False
    return states


class _HashedSeedSequence:
    """``SeedSequence(entropy, spawn_key=spawn_key)`` whose PCG64 states are hashed already.

    ``state`` is this sequence's ``generate_state(4, np.uint64)`` and
    ``children`` holds its first children's, one row each. The first
    ``spawn`` of exactly that many children returns them; any other request
    (another count, a second spawn, another state size) goes to numpy's own
    SeedSequence, so every answer is numpy's. :func:`trial_streams` registers
    the class as numpy's ``ISpawnableSeedSequence``.
    """

    def __init__(
        self, entropy: tuple[int, ...], spawn_key: tuple[int, ...], state: np.ndarray, children: np.ndarray = ()
    ) -> None:
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.n_children_spawned = 0
        self._state = state
        self._children = children

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and dtype is np.uint64:
            return self._state
        return self._numpy().generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> list:
        if self.n_children_spawned == 0 and n_children == len(self._children):
            entropy, key = self.entropy, self.spawn_key
            children = [_HashedSeedSequence(entropy, (*key, i), state) for i, state in enumerate(self._children)]
        else:
            children = self._numpy().spawn(n_children)
        self.n_children_spawned += n_children
        return children

    def _numpy(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            self.entropy, spawn_key=self.spawn_key, n_children_spawned=self.n_children_spawned
        )


def trial_streams(seed: int, trials: range, n_children: int) -> Iterator[np.random.Generator]:
    """The generator of each trial in ``trials`` (a range of step 1), in order.

    Trial t's generator is bit for bit ``default_rng(SeedSequence((seed, t)))``,
    and its first ``spawn(n_children)`` gives numpy's children; any other spawn
    is numpy's own. The states are hashed a chunk of :func:`chunk_trials`
    trials at a time; each generator is built when the caller asks for it.
    """
    if min(seed, trials.start) < 0:
        raise ValueError(f"entropy must be non-negative, got seed {seed} and trials {trials}")
    seed_words = _words(seed)
    # registered here, not at import, so that importing the package does not
    # load numpy.random: loading it at import raised the peak RSS of a
    # 100-trial CLI run by about 0.3 MB (CPython 3.11, numpy 2.4, 2-core x86-64)
    np.random.bit_generator.ISpawnableSeedSequence.register(_HashedSeedSequence)
    size = chunk_trials(n_children)
    start = trials.start
    while start < trials.stop:
        # a chunk stops at a multiple of 2**32, so the trial index's high words are fixed within it
        stop = min(start + size, trials.stop, (start | _MASK32) + 1)
        states = _chunk_states(seed_words, start, stop, n_children)
        for t, trial_states in zip(range(start, stop), states):
            stream = _HashedSeedSequence((seed, t), (), trial_states[0], trial_states[1:])
            yield np.random.Generator(np.random.PCG64(stream))
        start = stop
