"""Pins on the bytes a config produces.

``trial_streams`` hashes the ``SeedSequence((seed, t))`` pools of a chunk of
trials, and the states of their first children, in one array pass; the tests
below pin every root and child to numpy's own ``SeedSequence``.

``run_draws`` computes every draw of a chunk of runs from the streams' raw
words, with the repo's own model of numpy's ``Generator``: Lemire's method on
uint32 halves, low half first and the high half kept, for ``integers``, and a
whole word for ``random``. The tests below pin that model, in values and in
end state (the words read plus the half kept), against numpy's scalar calls,
its array-bound and ``size=`` calls and ``random(k)``, with the rejection branch
forced; they pin what ``build_transmission``, ``tp_prepare_carriers``, a
decoy check and a run's taps read from their draws; and they pin
``canonical_json`` digests for a small corpus and transcript digests for a
smaller one. So a numpy change or a protocol change that moves a draw fails
here instead of silently changing reports. The adversary's draws are pinned
against ``integers(0, 2)`` and ``random()`` interleaved on the same stream, the
calls a tap stands for, with an odd coin count and with the rejection branch
forced on another stream of the run.
"""
from __future__ import annotations

import hashlib
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpc_sim import ATTACK_IDS, ExperimentConfig, ParameterError, run_experiment, run_trial, strategy_from_id
from qpc_sim.adversary import tap_plan
from qpc_sim.channel import QuantumLink, Transcript
from qpc_sim.protocol import (
    DECOY_BASES,
    DECOY_BASIS_NAMES,
    MAX_DIM,
    ProtocolParams,
    Variant,
    _disclose_and_check,
    basis_state,
    build_transmission,
    run_links,
    tp_prepare_carriers,
)
from qpc_sim.qudit import Basis
from qpc_sim.streams import (
    _bit_generators,
    _chunk_states,
    _scalar_draws,
    _words,
    chunk_trials,
    run_draws,
    run_streams,
    trial_streams,
)

SEEDS = range(40)
DIMS = (2, 3, 4, 13, 17, 512, 2048, MAX_DIM)


# (seed, t) pairs. Trailing zero words mix like absent ones, so (0, 1) and the
# pairs of five and six words (more than the pool's four) are the ones a dropped
# zero word changes.
ENTROPIES = (
    (0, 0),
    (0, 1),
    (1, 2**32 - 1),
    (2**32, 7),
    (2**63, 2**32 + 1),
    (2**64 - 1, 0),
    (2**64 - 1, 2**64 + 3),
    (2**64 - 1, 2**96),
)


def _assert_numpys_streams(got: list, seed: int, t: int, n_children: int) -> None:
    """``got`` are the bit generators of ``default_rng(SeedSequence((seed, t)))`` and of its first spawn."""
    want = np.random.default_rng(np.random.SeedSequence((seed, t))).bit_generator
    assert [g.state for g in got] == [w.state for w in (want, *want.spawn(n_children))]


@pytest.mark.parametrize("n_children", (5, 8))
@pytest.mark.parametrize("seed, t", ENTROPIES, ids=repr)
def test_trial_streams_are_the_seed_sequences_of_seed_and_trial(seed, t, n_children):
    ((got,),) = _bit_generators(seed, range(t, t + 1), n_children, 1)
    _assert_numpys_streams(got, seed, t, n_children)
    # any request but PCG64's goes to numpy's own SeedSequence
    for bit_generator, key in zip(got, [(), *((i,) for i in range(n_children))]):
        want = np.random.SeedSequence((seed, t), spawn_key=key)
        assert isinstance(bit_generator.seed_seq, np.random.bit_generator.ISeedSequence)
        for size, dtype in ((3, np.uint32), (4, np.uint32), (2, np.uint64)):
            assert bit_generator.seed_seq.generate_state(size, dtype).tolist() == want.generate_state(size, dtype).tolist()


_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from((0, 2**32 - 1, 2**32, 2**63, 2**64 - 1)))
# where the trial index gains a word, and so the pool a hash step
_WORD_EDGES = (0, 2**32, 2**64)


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, n=st.integers(2, 6), data=st.data())
def test_trial_streams_of_a_range_are_numpys_across_chunks_and_word_edges(seed, n, data):
    size = chunk_trials(ProtocolParams(Variant.TWO_TP, n=n, d=2, r=1, l=1), (0, ()))
    edge = data.draw(st.sampled_from(_WORD_EDGES), label="edge")
    start = data.draw(st.integers(max(edge - size - 2, 0), edge + 2), label="start")
    # either a few trials or more than a chunk
    count = data.draw(st.one_of(st.integers(1, 4), st.integers(size + 1, size + 3)), label="count")
    trials = range(start, start + count)
    runs = [run for chunk in _bit_generators(seed, trials, n + 3, size) for run in chunk]
    assert len(runs) == count
    for t, got in zip(trials, runs):
        _assert_numpys_streams(got, seed, t, n + 3)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**96 - 1)),
    n_children=st.sampled_from((5, 8)),
    data=st.data(),
)
def test_a_one_trial_chunk_hashes_as_its_row_of_a_longer_chunk(seed, n_children, data):
    # a one-trial chunk mixes its pool in plain ints, a longer one in uint32 arrays: each is the other's oracle
    edge = data.draw(st.sampled_from(_WORD_EDGES), label="edge")
    count, offset = data.draw(st.integers(2, 6), label="count"), data.draw(st.integers(0, 3), label="offset")
    # a chunk ends at a multiple of 2**32 at the latest, so it lies wholly before the edge or from it on
    if edge and data.draw(st.booleans(), label="before"):
        start = edge - offset - count
    else:
        start = edge + offset
    t = data.draw(st.integers(start, start + count - 1), label="t")
    words = _words(seed)
    chunk = _chunk_states(words, start, start + count, n_children)
    assert chunk.shape == (count, 1 + n_children, 4)
    assert np.array_equal(_chunk_states(words, t, t + 1, n_children)[0], chunk[t - start])


def test_trial_streams_refuse_negative_entropy():
    params = ProtocolParams(Variant.TWO_TP, n=2, d=2, r=1, l=1)
    with pytest.raises(ValueError):
        next(trial_streams(-1, range(1), params, 0, (0, ())))
    with pytest.raises(ValueError):
        next(trial_streams(1, range(-1, 1), params, 0, (0, ())))


# --------------------------------------------------------------------------
# the draw model against numpy
# --------------------------------------------------------------------------

class _Recorder:
    """A fresh PCG64 that keeps every raw word it hands out, the only call ``run_draws`` makes of a stream."""

    def __init__(self, seed_seq) -> None:
        self.bit_generator = np.random.PCG64(seed_seq)
        self.start = self.bit_generator.state
        self.words: list[int] = []

    def random_raw(self, size=None):
        out = self.bit_generator.random_raw(size)
        self.words += [out] if size is None else out.tolist()
        return out


def _assert_same_end_state(words: list[int], start: dict, kept: int | None, want: np.random.Generator) -> None:
    """numpy read exactly ``words`` from the stream that began at ``start``, and keeps the half ``kept``, if any."""
    read = np.random.PCG64()
    read.state = start
    read.advance(len(words))
    state = want.bit_generator.state
    assert state["state"] == read.state["state"]
    assert (state["uinteger"] if state["has_uint32"] else None) == kept


def _kept(words: list[int], integers: int) -> int | None:
    """The half a stream keeps after whole words for its uniforms and ``integers`` halves: the last high half if odd."""
    return words[-1] >> 32 if integers % 2 else None


# bounds that force numpy's rejection branch: below 2**16, (2**32 - b) % b is up to b - 1
# (65025 for 65281, so about 2**-16 per draw), and at or above 2**31 it is about half of all draws
REJECTING = (65281, 2**31 + 1, 2**31 + 2**29, 3 * 2**30)
_BOUNDS = st.one_of(
    st.sampled_from((1, 2, 3, 13, 2**16, *REJECTING)),
    st.integers(1, 2**16),
    st.integers(2**31, 2**32 - 1),
)
# seeds whose n=2, l=1024 run at d=65281 has a rejected index draw, about one seed in twenty
SEEDS_65281 = (6, 10)
# an op is a bound: 0 asks for a uniform, any other b for an integer below b
_OPS = st.lists(st.one_of(st.just(0), _BOUNDS), max_size=40)


def _numpy_scalar(rng: np.random.Generator, ops: list[int]) -> list:
    return [rng.random() if b == 0 else int(rng.integers(0, b)) for b in ops]


def _numpy_batched(rng: np.random.Generator, ops: list[int]) -> list:
    """The same draws, each run of uniforms as one random(k) and each run of integers as one array-bound call."""
    out, i = [], 0
    while i < len(ops):
        j = i
        while j < len(ops) and (ops[j] == 0) == (ops[i] == 0):
            j += 1
        out += rng.random(j - i).tolist() if ops[i] == 0 else rng.integers(0, np.array(ops[i:j], dtype=np.int64)).tolist()
        i = j
    return out


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), ops=_OPS, batched=st.booleans())
def test_the_scalar_model_draws_numpys_values_and_leaves_its_end_state(seed, ops, batched):
    # any interleaving: a uniform after an odd count of integers must leave the kept half alone
    seq = np.random.SeedSequence(seed)
    stream = _Recorder(seq)
    got, kept = _scalar_draws(iter(stream.random_raw, None), ops)
    want = np.random.default_rng(seq)
    assert got == (_numpy_batched if batched else _numpy_scalar)(want, ops)
    _assert_same_end_state(stream.words, stream.start, kept, want)


def test_the_scalar_model_takes_the_rejection_branch_as_numpy_does():
    # every rejecting bound is redrawn at least once over these seeds, and a bound of 1 reads nothing
    for b in REJECTING:
        redrawn = 0
        for seed in SEEDS:
            seq = np.random.SeedSequence(seed)
            stream = _Recorder(seq)
            ops = [b, 1] * 20
            got, kept = _scalar_draws(iter(stream.random_raw, None), ops)
            want = np.random.default_rng(seq)
            assert got == _numpy_scalar(want, ops)
            _assert_same_end_state(stream.words, stream.start, kept, want)
            redrawn += 2 * len(stream.words) > 20 + (kept is not None)
        assert redrawn or b == 65281  # at 65281 a rejection needs about 2**16 draws, as in the run pins below


def _numpy_taps(rng: np.random.Generator, taps: int, coin: bool) -> tuple[list[int], list[float]]:
    """A run's tap draws by numpy's Generator: per tap, ``integers(0, 2)`` if ``coin``, then ``random()``."""
    coins, uniforms = [], []
    for _ in range(taps):
        if coin:
            coins.append(int(rng.integers(0, 2)))
        uniforms.append(rng.random())
    return coins, uniforms


def _tap_kept(words: list[int], taps: int, coin: bool) -> int | None:
    """The half the adversary's stream keeps: with an odd coin count, the high half of the last coin's word.

    Each pair of taps reads a coin's word, a uniform's and then a uniform's, so tap 2j's coin is word 3j.
    """
    return words[3 * (taps // 2)] >> 32 if coin and taps % 2 else None


def _numpy_run_draws(
    params, gens: list[np.random.Generator], root_draws: int, batched: bool, plan: tuple[int, bool] = (0, False)
) -> tuple:
    """One run's draws made by numpy's Generator, role by role, as scalar calls or as batched ones."""
    root, prep, *parties, measurer, adversary = gens
    n, d, r, l = params.n, params.d, params.r, params.l
    recipe = [2, d] * l + [l + 1]
    if batched:
        secrets = root.integers(0, r, size=root_draws).tolist()
        constant, *pads = prep.integers([r - 1] + [0] * n, [d] + [r] * n).tolist()
        draw = lambda g, k: g.random(k).tolist()
        recipes = lambda g, k: g.integers(0, np.array(recipe * k, dtype=np.int64)).tolist()
    else:
        secrets = [int(root.integers(0, r)) for _ in range(root_draws)]
        constant, *pads = [int(prep.integers(r - 1, d))] + [int(prep.integers(0, r)) for _ in range(n)]
        draw = lambda g, k: [g.random() for _ in range(k)]
        recipes = lambda g, k: [int(g.integers(0, b)) for b in recipe * k]
    preparer = [constant - (r - 1), *pads, *recipes(prep, n)]
    taps, coin = plan
    # a batch of taps is one random(k) when no tap draws a coin; coins interleave, so they stay scalar calls
    adversary = ([], draw(adversary, taps)) if batched and not coin else _numpy_taps(adversary, taps, coin)
    measured = draw(measurer, n * (l + 1))
    return secrets, preparer, [draw(g, l) + recipes(g, 1) for g in parties], measured, adversary


def _assert_run_draws_are_numpys(
    params, seed: int, root_draws: int, batched: bool = False, plan: tuple[int, bool] = (0, False)
) -> int:
    """``run_draws`` of one run equals numpy's draws in values and end state; returns the halves numpy rejected."""
    root = np.random.SeedSequence(seed)
    streams = [_Recorder(seq) for seq in (root, *root.spawn(run_streams(params.n)))]
    (got,) = run_draws(params, [streams], root_draws, _plan(*plan))
    root = np.random.SeedSequence(seed)
    gens = [np.random.default_rng(seq) for seq in (root, *root.spawn(run_streams(params.n)))]
    assert tuple(got) == _numpy_run_draws(params, gens, root_draws, batched, plan)
    taps, coin = plan
    integers = [len([b for b in bounds if b > 1]) for bounds in _stream_bounds(params, root_draws)] + [taps * coin]
    uniforms = [0, 0] + [params.l] * params.n + [params.n * (params.l + 1), taps]
    rejected = 0
    for stream, gen, k, u in zip(streams, gens, integers, uniforms):
        # numpy read the words the model read, and keeps the last one's high half or nothing; a role's last
        # word holds an integer, but the adversary's last word may be a uniform's
        kept = stream.words[-1] >> 32 if gen.bit_generator.state["has_uint32"] else None
        if stream is streams[-1]:
            kept = _tap_kept(stream.words, taps, coin)
        _assert_same_end_state(stream.words, stream.start, kept, gen)
        rejected += 2 * (len(stream.words) - u) - (kept is not None) - k
    return rejected


def _stream_bounds(params, root_draws: int) -> list[list[int]]:
    n, d, r, l = params.n, params.d, params.r, params.l
    recipe = [2, d] * l + [l + 1]
    return [[r] * root_draws, [d - r + 1] + [r] * n + recipe * n, *[recipe] * n, []]


def _plan(taps: int, coin: bool) -> tuple[int, tuple[int, ...]]:
    """``tap_plan``'s form of ``taps`` taps that each draw a coin, if ``coin``, then a uniform."""
    return taps, ((2, 0) if coin else (0,)) if taps else ()


def _plans(n: int, l: int) -> list[tuple[int, bool]]:
    """Untapped; n(l+1) taps (an insider's count) without and with a coin; an outsider's 2n(l+1) fair-coin taps."""
    return [(0, False), (n * (l + 1), False), (n * (l + 1), True), (2 * n * (l + 1), True)]


@pytest.mark.parametrize("batched", (False, True), ids=("scalar calls", "array and size= calls"))
@pytest.mark.parametrize(
    "n, d, r, l", [(2, 2, 1, 1), (3, 3, 1, 2), (2, 13, 5, 8), (5, 13, 5, 8), (3, 512, 200, 4), (2, MAX_DIM, 2**15, 3)]
)
def test_run_draws_are_numpys_draws_for_every_role(n, d, r, l, batched):
    # roots draw n secrets then a key (n + 1), the secrets alone, or nothing; r=1 draws nothing at all.
    # At n=3, l=2 (and n=5, l=8) n(l+1) coins are odd, so the adversary's stream ends on a kept half
    params = SimpleNamespace(n=n, d=d, r=r, l=l)
    for seed in range(8):
        for root_draws, plan in zip((0, n, n + 1, n + 1), _plans(n, l)):
            assert _assert_run_draws_are_numpys(params, seed, root_draws, batched, plan) == 0


@pytest.mark.parametrize("d, l, seeds", [(65281, 1024, SEEDS_65281), (2**31 + 1, 2, range(3)), (3 * 2**30, 2, range(3))])
def test_run_draws_redraw_a_rejected_run_as_numpy_does(d, l, seeds):
    # bounds past MAX_DIM are not a protocol's, but they make a quarter to a half of all index draws rejections;
    # the redrawn run's adversary draws n(l+1) + 1 coins and uniforms interleaved, an odd count
    params = SimpleNamespace(n=2, d=d, r=2, l=l)
    for plan in ((0, False), (params.n * (l + 1) + 1, True)):
        assert all(_assert_run_draws_are_numpys(params, seed, params.n + 1, plan=plan) > 0 for seed in seeds)


@pytest.mark.parametrize("kind", (np.random.PCG64DXSM, np.random.Philox, np.random.SFC64), ids=lambda k: k.__name__)
def test_run_draws_are_numpys_on_the_other_bit_generators_of_64_bit_words(kind):
    # run_draws reads raw 64-bit words, so its draws are a Generator's on any bit generator of such words, not only PCG64
    params = SimpleNamespace(n=3, d=13, r=5, l=8)
    for seed in range(8):
        root = np.random.SeedSequence(seed)
        seqs = [root, *root.spawn(run_streams(params.n))]
        (got,) = run_draws(params, [[kind(seq) for seq in seqs]], params.n + 1, (0, ()))
        want = _numpy_run_draws(params, [np.random.Generator(kind(seq)) for seq in seqs], params.n + 1, False)
        assert tuple(got) == want


@pytest.mark.parametrize("attack", ("none", "ir-random", "ir-fixed-t2"))
def test_a_chunk_draws_what_its_runs_draw_one_at_a_time(attack):
    params = ProtocolParams(Variant.ONE_TP, n=3, d=13, r=4, l=5)
    plan = tap_plan(params, strategy_from_id(attack))
    size = chunk_trials(params, plan)
    chunked = list(trial_streams(9, range(size + 2), params, params.n + 1, plan))
    alone = [next(trial_streams(9, range(t, t + 1), params, params.n + 1, plan)) for t in (0, size - 1, size, size + 1)]
    assert [chunked[t] for t in (0, size - 1, size, size + 1)] == alone


# --------------------------------------------------------------------------
# what the stages read from their draws
# --------------------------------------------------------------------------

def _scalar_transmission(d: int, l: int, rng: np.random.Generator) -> tuple[list[tuple[int, int, int]], int]:
    """The decoys and carrier slot as 2l+1 scalar draws: basis bit, then index, per decoy, then the slot.

    Each decoy is a ``(position, fourier, index)`` triple, in position order.
    """
    decoys = []
    for _ in range(l):
        fourier = int(rng.integers(0, 2))
        decoys.append((fourier, int(rng.integers(0, d))))
    carrier_position = int(rng.integers(0, l + 1))
    positions = [pos for pos in range(l + 1) if pos != carrier_position]
    return [(pos, fourier, index) for pos, (fourier, index) in zip(positions, decoys)], carrier_position


def _one_run(params, seed: int):
    """A run's draws from ``SeedSequence(seed)``'s first spawn, its streams, and numpy's Generators on the same streams."""
    seqs = np.random.SeedSequence(seed).spawn(run_streams(params.n))
    streams = [_Recorder(seq) for seq in seqs]
    (got,) = run_draws(params, [[np.random.PCG64(seed), *streams]], 0, (0, ()))
    return got, streams, [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(run_streams(params.n))]


@pytest.mark.parametrize("l", (1, 8, 32))
@pytest.mark.parametrize("d", DIMS)
def test_build_transmission_draws_what_the_scalar_calls_draw(d, l):
    # a party's stream: l step-3 uniforms, then its step-4 recipe
    params = SimpleNamespace(n=2, d=d, r=1, l=l)
    carrier = basis_state(d, Basis.COMPUTATIONAL, d - 1)
    for seed in SEEDS:
        got, streams, gens = _one_run(params, seed)
        draws, party, scalar = iter(got.parties[0]), streams[1], gens[1]
        assert list(islice(draws, l)) == [scalar.random() for _ in range(l)]
        seq, spec = build_transmission(carrier, l, draws)
        assert next(draws, None) is None
        entries, carrier_position = _scalar_transmission(d, l, scalar)
        assert list(spec.entries) == entries
        assert spec.carrier_position == carrier_position
        assert seq[carrier_position] is carrier
        for position, fourier, index in entries:
            assert seq[position] == basis_state(d, DECOY_BASES[fourier], index)
        _assert_same_end_state(party.words, party.start, _kept(party.words, 2 * l + 1), scalar)


@pytest.mark.parametrize("n", (2, 3, 9))
@pytest.mark.parametrize("d, r", [(2, 1), (3, 1), (3, 2), (13, 5), (13, 7), (512, 200), (MAX_DIM, 2**15)])
def test_tp_prepare_carriers_draws_what_the_scalar_calls_draw(d, r, n):
    # the preparer's stream: the run constant, the pads, then the first hops' recipes
    params = ProtocolParams(variant=Variant.TWO_TP, n=n, d=d, r=r, l=1)
    for seed in SEEDS:
        got, streams, gens = _one_run(params, seed)
        draws, scalar = iter(got.preparer), gens[0]
        pad_sum, pads, states = tp_prepare_carriers(params, draws)
        assert pad_sum == int(scalar.integers(r - 1, d))
        assert pads == tuple(int(scalar.integers(0, r)) for _ in range(n))
        assert states == [basis_state(d, Basis.COMPUTATIONAL, pad) for pad in pads]
        for _ in range(n):
            _, spec = build_transmission(basis_state(d, Basis.COMPUTATIONAL, 0), 1, draws)
            assert (list(spec.entries), spec.carrier_position) == _scalar_transmission(d, 1, scalar)
        assert next(draws, None) is None
        integers = 1 + n * (r > 1) + 3 * n
        _assert_same_end_state(streams[0].words, streams[0].start, _kept(streams[0].words, integers), scalar)


def test_array_bound_integers_frozen_example():
    # literal values and end state: a numpy change to the bounded-integer stream must fail here,
    # and so must a change to the model of it
    rng = np.random.default_rng(5812)
    assert rng.integers(0, [2, 13] * 4 + [5]).tolist() == [0, 12, 0, 8, 0, 5, 1, 5, 2]
    assert rng.integers([4] + [0] * 3, [13] + [5] * 3).tolist() == [4, 4, 3, 0]
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {
            "state": 156113911787685417109844840060959942805,
            "inc": 155137860756801106896579353402926175279,
        },
        "has_uint32": 1,
        "uinteger": 1220337425,
    }
    stream = _Recorder(np.random.SeedSequence(5812))
    model, kept = _scalar_draws(iter(stream.random_raw, None), [2, 13] * 4 + [5] + [9] + [5] * 3)
    assert model == [0, 12, 0, 8, 0, 5, 1, 5, 2, 0, 4, 3, 0]
    _assert_same_end_state(stream.words, stream.start, kept, rng)


@pytest.mark.parametrize("k", (0, 1, 8, 33))
def test_random_of_k_draws_what_k_scalar_calls_draw(k):
    # numpy's random(k) is k whole words, as the model's uniforms are
    for seed in SEEDS:
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        values = batched.random(k).tolist()
        assert values == [scalar.random() for _ in range(k)]
        assert batched.bit_generator.state == scalar.bit_generator.state
        stream = _Recorder(np.random.SeedSequence(seed))
        assert _scalar_draws(iter(stream.random_raw, None), [0] * k) == (values, None)
        _assert_same_end_state(stream.words, stream.start, None, batched)


def _adversary_draws(seq, taps: int, coin: bool) -> tuple[tuple[list, list], _Recorder]:
    """``run_draws``' adversary lists for one run whose adversary stream is ``seq``'s, and that stream."""
    params = SimpleNamespace(n=3, d=5, r=2, l=2)
    stream = _Recorder(seq)
    (got,) = run_draws(params, [[*map(np.random.PCG64, range(run_streams(params.n))), stream]], 0, _plan(taps, coin))
    return got.adversary, stream


@pytest.mark.parametrize("coin", (True, False), ids=("coin each tap", "no coin"))
@pytest.mark.parametrize("taps", (1, 9, 18, 67))
def test_tap_draws_are_integers_and_random_interleaved(taps, coin):
    # a tap's coin is numpy's integers(0, 2) and its uniform random(); the full end
    # state, the kept half (has_uint32, uinteger) included, must be Generator's, or
    # the next draw of the stream would differ. 9 is an odd count of coins
    for seed in SEEDS:
        got, stream = _adversary_draws(np.random.SeedSequence(seed), taps, coin)
        want = np.random.default_rng(seed)
        assert got == _numpy_taps(want, taps, coin)
        _assert_same_end_state(stream.words, stream.start, _tap_kept(stream.words, taps, coin), want)


def test_tap_draws_frozen_example():
    # literal values and end state: a numpy change to the taps' draws, or to the model of them, must fail here
    rng = np.random.default_rng(5324)
    assert _numpy_taps(rng, 3, True) == ([1, 0, 1], [0.8207246403666033, 0.04740025757535893, 0.1829746130928649])
    got, stream = _adversary_draws(np.random.SeedSequence(5324), 3, True)
    assert got == ([1, 0, 1], [0.8207246403666033, 0.04740025757535893, 0.1829746130928649])
    _assert_same_end_state(stream.words, stream.start, _tap_kept(stream.words, 3, True), rng)
    assert rng.random(3).tolist() == [0.2976649062402089, 0.8949163849049764, 0.3106553712377148]
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {
            "state": 97163306882097539581664905149675372164,
            "inc": 178948848460689084501098233358188242283,
        },
        "has_uint32": 1,
        "uinteger": 2291771039,
    }


@pytest.mark.parametrize("attack", ("ir-random", "ir-fixed-t2", "tp2-mr"))
def test_a_runs_taps_read_its_adversary_stream_in_transmit_order(attack):
    # two-tp n=3, l=2: an outsider taps 9 first-hop qudits, an odd count of coins, then 9 second-hop ones;
    # full tolerance runs every trial through both hops
    config = ExperimentConfig("two-tp", 3, 5, 2, 2, attack=attack, trials=4, seed=11, threshold=1.0)
    params, strategy = config.validate()
    taps, per_tap = tap_plan(params, strategy)
    coin = 2 in per_tap
    first_links, second_links = run_links(params, strategy)
    assert taps == (params.l + 1) * sum(link.tapper is not None for link in first_links + second_links)
    assert (taps, per_tap) == {"ir-random": (18, (2, 0)), "ir-fixed-t2": (18, (0,)), "tp2-mr": (9, (0,))}[attack]
    tapped = [link.label for link in first_links + second_links if link.tapper is not None]
    for t in range(config.trials):
        events = [e for e in run_trial(config, t).transcript.events() if e["kind"] == "tap"]
        stream = np.random.SeedSequence((config.seed, t)).spawn(run_streams(params.n))[-1]
        coins, _ = _numpy_taps(np.random.default_rng(stream), taps, coin)
        bases = [DECOY_BASIS_NAMES[c] for c in coins] if coin else [strategy.basis.value] * taps
        assert [e["basis"] for e in events] == bases
        # in transmit order: each tapped link's l+1 qudits, the first hops before the second hops
        assert [(e["link"], e["position"]) for e in events] == [(x, i) for x in tapped for i in range(params.l + 1)]


@pytest.mark.parametrize("k", (0, 1, 8, 33))
def test_measurement_consumes_one_draw_regardless_of_outcome(k):
    # a check reads one uniform per disclosed decoy, whether each measurement
    # is certain (the decoy as prepared) or uniform (its conjugate)
    entries = tuple((position, position % 2, position % 5) for position in range(k))
    as_prepared = [basis_state(5, DECOY_BASES[fourier], index) for _, fourier, index in entries]
    conjugate = [basis_state(5, DECOY_BASES[1 - fourier], index) for _, fourier, index in entries]
    link = QuantumLink("TP1", "P1")
    for seed in SEEDS:
        uniforms = np.random.default_rng(seed).random(k + 3).tolist()
        for received in (as_prepared, conjugate):
            draws = iter(uniforms)
            _disclose_and_check(Transcript(), "step3", "all", link, entries, received, draws, 1.0)
            assert list(draws) == uniforms[k:]


# sha256 of canonical_json, computed before the draws were batched
CANONICAL_SHA256 = {
    ("two-tp", "none", 2): "c39566e83da8956e9b09ffcca42c555c313b56c6c48cb4e1a7b1cb48aebaf839",
    ("two-tp", "none", 7): "604beba1f4eb48903236f40de7565f5eae8f2979582d61715b0d788d53da30f6",
    ("two-tp", "ir-fixed-t1", 2): "ef1d8afb082fddef8588a7ded3e880a0160dfe4a2e2d93f7e693a0acea8cef15",
    ("two-tp", "ir-fixed-t1", 7): "81e36a43d8032322a454a396bb01ef3e554f73eefdf81815827f1c141254c060",
    ("two-tp", "ir-fixed-t2", 2): "8de88b490a292daf9db4c929acdd6e2a82723d6c3d61c7cb8ce8b26481f231e3",
    ("two-tp", "ir-fixed-t2", 7): "6043c39959a5afccfb7fb69dae800daa52537f92bfdaf1e7a12caf3ea1a11242",
    ("two-tp", "ir-random", 2): "61c0cf6483b064757535864c1edc1dbd1865e662594f3ca4a48faa85315a9249",
    ("two-tp", "ir-random", 7): "f5914b2050768205c1e374342aa11f76b93a97d8f21cc692a1245f5f76565795",
    ("two-tp", "tp1-mr", 2): "a77665fca53511a031d84a42da631fc5c4c2ea4b9520681a84755b33cf090429",
    ("two-tp", "tp1-mr", 7): "bb28fc62dc121dc27b014bbb1a089e35cf19d5914827bce3f2fc4692258a874a",
    ("two-tp", "tp2-mr", 2): "ad9a3102559ff16d5dca74d6561471e5833e791f0c9ccef9cc1d0e33d4488ef1",
    ("two-tp", "tp2-mr", 7): "28042e4fdd1fe7d685df0cf07e9211a6776e433789e12ac96373fe1aa3b7fad3",
    ("two-tp", "outsider-classical", 2): "a2bf678a5b43ba8bdf458cfd5c24a0e6ee220377f054f0127d041ad5e857cf66",
    ("two-tp", "outsider-classical", 7): "458b0455dba07e9bc5b1a85d26f754ef5e56c0c9927898fcdfacd2f98ccd08f7",
    ("one-tp", "none", 2): "794581dc19e5a59acdffab65768eef8ec6dab671874745e08b62398bfd2dceda",
    ("one-tp", "none", 7): "4b04a5e01693354516114f8548e05d0a0a532dbb2807b530b13e94802861f852",
    ("one-tp", "ir-fixed-t1", 2): "1d6e423b87bc343777a89b6b112a0f13c236d3fa9f843322be9808d37dbc7460",
    ("one-tp", "ir-fixed-t1", 7): "9d8ad029d8d1a5400ce536820bc4030db7e13a1ca8b678d7783e62ff3bf66bc7",
    ("one-tp", "ir-fixed-t2", 2): "baafbca58a456740f6a169c71a333c75fb508e9d2494e0161549c40bd515c2db",
    ("one-tp", "ir-fixed-t2", 7): "9c58f9b4adb6d93eb8cc3ac574419be68dded71715518ce999062eb86514a735",
    ("one-tp", "ir-random", 2): "f819c10dee94137463165c2be80e36cc1adb3451c2db4f6357325394d406e47b",
    ("one-tp", "ir-random", 7): "af2fe10ea88592fc02f2f72cd4894eae29f408a11ad3420779ae8e0ee815a775",
    ("one-tp", "outsider-classical", 2): "189df1635a9f9b70f3754280b26af8be3f91e97b000b2f7e4b767d1b07e23b11",
    ("one-tp", "outsider-classical", 7): "8d38077357dd8447c980ad4b4bc007e698b969538dd34e04a273d50970bee000",
}


def test_canonical_bytes_are_pinned_for_every_attack_on_both_variants():
    digests = {}
    for variant in ("two-tp", "one-tp"):
        for attack in ATTACK_IDS:
            for d, r, l in ((2, 1, 1), (7, 2, 4)):
                config = ExperimentConfig(
                    variant=variant, n=3, d=d, r=r, l=l, attack=attack, trials=20, seed=5000 + d
                )
                try:
                    config.validate()
                except ParameterError:
                    continue  # insider attacks model two-tp only
                text = run_experiment(config).canonical_json()
                digests[variant, attack, d] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == CANONICAL_SHA256


# sha256 of the trials' Transcript.to_json() texts, one per line, for each (variant, attack)
TRANSCRIPT_SHA256 = {
    ("two-tp", "none"): "ff5ef2c6d44ae7a62208a6d2be00c2361614290783bc74411e080fc9f055f8b2",
    ("two-tp", "tp1-mr"): "e7e7da961e1fc8828e355d480bddb6f8db724838dffc288f8f98246f04a43f61",
    ("two-tp", "ir-random"): "48e42a8e96d933e97106f842769b383587e7c5b3306ae35ebb943973bc0db9a8",
    ("one-tp", "none"): "a5b47adb9ac0efc505d55dc6cb12af90dcde35556cac79571a705508c203a887",
    ("one-tp", "ir-random"): "55bfbe29bc963e1e82b4257630bcd735444a5e22179f952129eb08138083ec3e",
}


def test_transcript_bytes_are_pinned_for_honest_insider_and_outsider_runs():
    digests, aborts = {}, set()
    for variant, attack in TRANSCRIPT_SHA256:
        config = ExperimentConfig(variant=variant, n=2, d=5, r=2, l=2, attack=attack, trials=3, seed=2)
        runs = [run_trial(config, t) for t in range(config.trials)]
        aborts.update(run.outcome.aborted_at for run in runs)
        text = "\n".join(run.transcript.to_json() for run in runs)
        digests[variant, attack] = hashlib.sha256(text.encode()).hexdigest()
    # the grid records every classical message kind: completed runs, and aborts at step 3 and step 5
    assert aborts == {None, "step3", "step5"}
    assert digests == TRANSCRIPT_SHA256
