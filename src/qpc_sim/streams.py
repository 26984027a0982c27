"""Trial streams and their draws, a chunk of trials at a time.

A trial of an experiment draws from ``default_rng(SeedSequence((seed, t)))``
and from the children its run spawns. numpy's ``SeedSequence`` is O'Neill's
``seed_seq_fe`` mixer over a pool of four uint32 words, and its hash constants
do not depend on the data, so one pass of uint32 array arithmetic hashes the
pools of a chunk of trials, and the PCG64 states of their children, bit for bit
as numpy does. A one-trial chunk, a replay's, mixes its pool in plain ints, as
numpy's per-array cost outweighs one row, then takes the same array pass.

Which draws a run makes, and from which stream, follows from its parameters
alone, so :func:`run_draws` computes a chunk's up front, in one numpy pass,
from the streams' raw 64-bit words, as numpy's ``Generator`` does:

- a uniform (``random``) is a whole word ``w``, as ``(w >> 11) * 2**-53``;
- an integer below ``b`` (``integers``) is Lemire's method on a uint32 half
  ``h`` (Lemire, ACM TOMACS 29(1), 2019): ``(h * b) >> 32``. The low half of a
  fresh word goes first and its high half is kept for the next integer; a
  uniform leaves a kept half alone, and a bound of 1 draws nothing. numpy
  rejects ``h`` when the low word of ``h * b`` is below ``(2**32 - b) % b``,
  and draws again: a run with a rejected draw is redrawn by the scalar model
  :func:`_scalar_draws`, so the values never depend on the fast path.

The adversary's taps draw on its own stream too: each its coin, an integer
below 2 that is never rejected, if it draws one, then its uniform. So
:func:`_run_layout` places them from the plan that ``adversary.tap_plan`` reads
off a run's links, and a run never builds a ``Generator``.

numpy's NEP 19 lets these streams change between releases; the pins in
tests/test_determinism.py fail if they do.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .protocol import ProtocolParams

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

#: Streams, roots and children, that one chunk of trials hashes at once: its
#: PCG64 states take at most 1024 * 32 bytes.
_CHUNK_STREAMS = 1024
#: Draws one chunk computes at most: a 400-trial n=2, l=32 CLI run peaks 0.2 MB higher (3.2 MB at 2**16).
_CHUNK_DRAWS = 2**13


def run_streams(n: int) -> int:
    """Streams a run spawns from its generator: the preparer's, one per party, the measurer's, the adversary's."""
    return n + 3


def chunk_trials(params: ProtocolParams, root_draws: int, plan: tuple[int, tuple[int, ...]]) -> int:
    """Trials per chunk of :func:`trial_streams`: at least one, at most 1024 streams and 2**13 of the layout's draws."""
    draws = _run_layout(params.n, params.d, params.r, params.l, root_draws, *plan).slices[-1].stop
    return max(1, min(_CHUNK_STREAMS // (run_streams(params.n) + 1), _CHUNK_DRAWS // draws))


def _words(value: int) -> list[int]:
    """``value`` (>= 0) as numpy coerces entropy: its little-endian uint32 words, 0 as one zero word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _chain(init: int, mult: int, count: int) -> list[int]:
    """``init * mult**k`` mod 2**32 for k in [0, count]: hash step k xors with item k and multiplies by item k + 1."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


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
) -> tuple[_Constants, tuple[_Constants, ...], tuple[_Constants, ...], np.ndarray, _Constants, list[int]]:
    """Every constant of one chunk's hash, for one entropy length and spawn count.

    In order: the first four entropy words (or zeros) into the pool; each pool
    word into the three others; each entropy word past the fourth; each
    child's hashed spawn key (one row per child); generate_state(4,
    np.uint64), one item per uint32 word; and the pool's chain as plain ints.
    """
    n_extra = max(n_words - _POOL, 0)
    n_steps = _POOL * (5 + n_extra)
    chain = _chain(_INIT_A, _MULT_A, n_steps)
    a = np.array(chain, dtype=np.uint32)
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
    b = np.array(_chain(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)
    return fill, spread, extra, children, (b[:-1], b[1:]), chain


def _int_pool(entropy: list[int], chain: list[int]) -> list[int]:
    """The pool of ``SeedSequence(entropy)`` in plain ints, hash step by hash step as numpy mixes it."""
    words = entropy + [0] * (_POOL - len(entropy))  # the pool's words, then the entropy words past the fourth
    # (into, from) of each step: fill the pool; mix each pool word into the three others, each later word into all four
    plan = [(i, i) for i in range(_POOL)] + [(i, j) for j in range(len(words)) for i in range(_POOL) if i != j]
    for k, (dst, src) in enumerate(plan):  # step k xors with chain[k] and multiplies by chain[k + 1]
        hashed = (words[src] ^ chain[k]) * chain[k + 1] & _MASK32
        hashed ^= hashed >> 16
        mixed = words[dst] * _MIX_L - hashed * _MIX_R & _MASK32
        words[dst] = hashed if k < _POOL else mixed ^ mixed >> 16
    return words[:_POOL]


def _chunk_states(seed_words: list[int], start: int, stop: int, n_children: int) -> np.ndarray:
    """PCG64 states of trials [start, stop): shape (trials, 1 + n_children, 4), root first.

    Row ``[i, 0]`` is ``SeedSequence((seed, start + i)).generate_state(4,
    np.uint64)`` and row ``[i, 1 + j]`` that of its child j. The range must
    not cross a multiple of 2**32, so the trial index has one low word that
    counts up and high words that do not change.
    """
    high = start >> 32
    entropy = [*seed_words, start & _MASK32, *(_words(high) if high else ())]
    fill, spread, extra, children, state, chain = _hash_plan(len(entropy), n_children)
    if stop - start == 1:
        pool = np.array([_int_pool(entropy, chain)], dtype=np.uint32)
    else:
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
    """``SeedSequence(entropy, spawn_key=spawn_key)`` whose PCG64 state is hashed already.

    PCG64 asks it only for ``generate_state(4, np.uint64)``, which is
    ``state``; any other request goes to numpy's own SeedSequence. It spawns
    nothing: the chunk's hash gives a run its streams.
    """

    def __init__(self, entropy: tuple[int, ...], spawn_key: tuple[int, ...], state: np.ndarray) -> None:
        self.entropy = entropy
        self.spawn_key = spawn_key
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and dtype is np.uint64:
            return self._state
        return np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key).generate_state(n_words, dtype)


def _bit_generators(seed: int, trials: range, n_children: int, size: int) -> Iterator[list[list]]:
    """Per chunk of ``size`` trials of ``trials``, each trial's PCG64 bit generators: its root's, then its children's.

    Trial t's are bit for bit those of ``default_rng(SeedSequence((seed, t)))``
    and of its first ``spawn(n_children)``.
    """
    if min(seed, trials.start) < 0:
        raise ValueError(f"entropy must be non-negative, got seed {seed} and trials {trials}")
    seed_words = _words(seed)
    # registered here, not at import, so that importing the package does not
    # load numpy.random: loading it at import raised the peak RSS of a
    # 100-trial CLI run by about 0.3 MB (CPython 3.11, numpy 2.4, 2-core x86-64)
    np.random.bit_generator.ISeedSequence.register(_HashedSeedSequence)
    keys = [(), *((i,) for i in range(n_children))]
    start = trials.start
    while start < trials.stop:
        # a chunk stops at a multiple of 2**32, so the trial index's high words are fixed within it
        stop = min(start + size, trials.stop, (start | _MASK32) + 1)
        states = _chunk_states(seed_words, start, stop, n_children)
        yield [
            [np.random.PCG64(_HashedSeedSequence((seed, t), key, state)) for key, state in zip(keys, trial_states)]
            for t, trial_states in zip(range(start, stop), states)
        ]
        start = stop


def _scalar_draws(words: Iterator[int], bounds: Sequence[int]) -> tuple[list, int | None]:
    """The draws ``bounds`` asks of a stream of raw words, one at a time, and the half it keeps after them.

    A bound of 0 asks for a uniform, any other bound b for an integer in
    [0, b). This is the model that :func:`run_draws` computes for a chunk of
    runs at once, and the path of a run with a rejected integer.
    """
    out, kept = [], None
    for b in bounds:
        if not b:
            out.append((next(words) >> 11) * 2**-53)
            continue
        product = 0  # a bound of 1 draws nothing
        while b > 1:
            if kept is None:
                word = next(words)
                half, kept = word & _MASK32, word >> 32
            else:
                half, kept = kept, None
            product = half * b
            if product & _MASK32 >= (2**32 - b) % b:
                break
        out.append(product >> 32)
    return out, kept


class _Layout(NamedTuple):
    """Where a run's draws lie: per stream, and per draw in the run's row of draws and in its row of raw words."""

    bounds: tuple[list[int], ...]  # each stream's draws in draw order: 0 asks for a uniform, b an integer below b
    slices: tuple[slice, ...]  # each stream's span of the row of draws
    blocks: tuple[slice, ...]  # each stream's block of the row of raw words
    uniform_slots: np.ndarray
    uniform_words: np.ndarray  # the word of each uniform
    integer_slots: np.ndarray
    integer_halves: np.ndarray  # the uint32 half of each integer
    integer_bounds: np.ndarray


@lru_cache(maxsize=4)
def _run_layout(n: int, d: int, r: int, l: int, root_draws: int, taps: int, per_tap: tuple[int, ...]) -> _Layout:
    """The one statement of a run's draws: which stream draws what, in which order, and where each draw lies.

    The streams are :class:`RunDraws`' fields; the adversary's ``taps`` taps each draw the bounds ``per_tap``.
    One walk places every draw by :func:`_scalar_draws`' rule.
    """
    recipe = [2, d] * l + [l + 1]
    # the preparer's first bound, d - r + 1, is the length of pad_sum_range
    preparer, adversary = [d - r + 1] + [r] * n + recipe * n, list(per_tap) * taps
    streams = ([r] * root_draws, preparer, *[[0] * l + recipe] * n, [0] * (n * (l + 1)), adversary)
    slices, blocks, sources = [], [], []  # each draw's source: a uniform's word, an integer's uint32 half
    word = 0
    for stream_bounds in streams:
        start, kept = word, None
        for b in stream_bounds:
            if not b:
                sources.append(word)
                word += 1
            elif b == 1:  # any half times 1 is below 2**32: it gives 0 and is never rejected, so it draws nothing
                sources.append(0)
            elif kept is None:
                sources.append(2 * word)
                kept, word = 2 * word + 1, word + 1
            else:
                sources.append(kept)
                kept = None
        slices.append(slice(len(sources) - len(stream_bounds), len(sources)))
        blocks.append(slice(start, word))
    sources, bounds = np.array(sources, dtype=np.intp), np.fromiter(chain(*streams), np.uint64)
    uniforms, integers = np.flatnonzero(bounds == 0), np.flatnonzero(bounds)
    return _Layout(
        streams, (*slices,), (*blocks,), uniforms, sources[uniforms], integers, sources[integers], bounds[integers]
    )


class RunDraws(NamedTuple):
    """Every draw one run makes: one list per stream, in :func:`_run_layout`'s draw order.

    ``root`` holds the random secrets, then the random key, as the run asks.
    ``preparer`` holds the run constant, as an offset into ``pad_sum_range``,
    the n pads and the n first-hop recipes; ``parties`` each party's l step-3
    uniforms, then its step-4 recipe; ``measurer`` the n(l+1) uniforms of
    stages 5 to 7. A recipe is 2l+1 integers: a basis bit and an index per
    decoy, then the carrier slot. ``adversary`` holds each tap's coin, if any,
    then its uniform, in transmit order: first hops, then second hops.
    """

    root: list[int]
    preparer: list[int]
    parties: list[list]
    measurer: list[float]
    adversary: list


def run_draws(
    params: ProtocolParams, streams: list[list], root_draws: int, plan: tuple[int, tuple[int, ...]]
) -> list[RunDraws]:
    """The draws of a chunk of runs of ``params``, computed in one numpy pass over the chunk.

    Each run's ``streams`` are its root's bit generator, then the fresh ones of
    its preparer, its n parties, its measurer and its adversary, in that order;
    an untapped ``plan`` (tap count, each tap's draws) reads nothing of the last,
    which may be left out. The root draws ``root_draws`` integers below r. Each
    draw fills its slot of the run's row from one block of raw words per stream,
    and each field is its stream's slice of the row; a run with a rejected
    integer is refilled by :func:`_scalar_draws`, which reads on past each block.
    """
    layout = _run_layout(params.n, params.d, params.r, params.l, root_draws, *plan)
    sizes = [block.stop - block.start for block in layout.blocks]
    raw = [bg.random_raw(size) for run in streams for bg, size in zip(run, sizes)]
    words = np.concatenate(raw).reshape(len(streams), layout.blocks[-1].stop)
    # an object row holds each draw as the Python float or int that numpy's tolist gives
    rows = np.empty((len(streams), layout.slices[-1].stop), dtype=object)
    rows[:, layout.uniform_slots] = (words[:, layout.uniform_words] >> 11) * 2.0**-53
    # numpy reads a word's halves low first, whatever the host order
    b = layout.integer_bounds
    products = words.astype("<u8", copy=False).view("<u4")[:, layout.integer_halves] * b
    rows[:, layout.integer_slots] = products >> 32
    rows = rows.tolist()
    for i in np.flatnonzero(((products & _MASK32) < (2**32 - b) % b).any(axis=1)).tolist():
        rows[i] = []
        for bg, stream_bounds, block in zip(streams[i], layout.bounds, layout.blocks):
            more = iter(bg.random_raw, None)  # the words past the block, one at a time
            rows[i] += _scalar_draws(chain(words[i, block].tolist(), more), stream_bounds)[0]
    root, prep, *parties, measurer, adversary = layout.slices
    return [RunDraws(row[root], row[prep], [row[p] for p in parties], row[measurer], row[adversary]) for row in rows]


def trial_streams(
    seed: int, trials: range, params: ProtocolParams, root_draws: int, plan: tuple[int, tuple[int, ...]]
) -> Iterator[RunDraws]:
    """The draws of each run in ``trials`` (a range of step 1), in order; each root draws ``root_draws`` integers.

    Trial t's streams are ``default_rng(SeedSequence((seed, t)))``'s and its
    first ``spawn(run_streams(n))``'s, bit for bit, but for the adversary's,
    which is built only when ``plan`` (tap count, each tap's draws) taps. They are
    hashed and drawn a chunk of :func:`chunk_trials` trials at a time.
    """
    n_children = run_streams(params.n) - (not plan[0])
    for chunk in _bit_generators(seed, trials, n_children, chunk_trials(params, root_draws, plan)):
        yield from run_draws(params, chunk, root_draws, plan)
