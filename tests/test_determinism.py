"""Pins on the bytes a config produces.

``trial_streams`` hashes the ``SeedSequence((seed, t))`` pools of a chunk of
trials, and the states of their first children, in one array pass; the tests
below pin every root and child, and the spawns that fall back to numpy, to
numpy's own ``SeedSequence``.
``build_transmission`` and ``tp_prepare_carriers`` draw with one array-bound
``Generator.integers`` call each. That this call returns the values, and leaves
the generator in the state, of the scalar calls made in the same order is numpy
behaviour, not a documented guarantee. The tests below pin it against scalar
draws and against literal values, and pin ``canonical_json`` digests for a small
corpus and transcript digests for a smaller one, so that a numpy change or a protocol change that moves a draw fails here
instead of silently changing reports. A decoy check draws its uniforms with one
``Generator.random(k)`` call, and a tap draws through the bit generator's
``ctypes`` functions; both are pinned here against the scalar ``Generator``
calls they stand for, in values and end state, and against literal values.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpc_sim import ATTACK_IDS, ExperimentConfig, ParameterError, run_experiment, run_trial
from qpc_sim.channel import ClassicalBus, QuantumLink, Transcript
from qpc_sim.streams import chunk_trials, trial_streams
from qpc_sim.protocol import (
    DECOY_BASES,
    MAX_DIM,
    ProtocolParams,
    Variant,
    _disclose_and_check,
    basis_state,
    build_transmission,
    tp_prepare_carriers,
)
from qpc_sim.qudit import Basis

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


def _assert_numpys_streams(got: np.random.Generator, seed: int, t: int, n_children: int) -> None:
    """``got`` and its first spawn are ``default_rng(SeedSequence((seed, t)))`` and its children."""
    want = np.random.default_rng(np.random.SeedSequence((seed, t)))
    assert got.bit_generator.state == want.bit_generator.state
    children = zip(got.spawn(n_children), want.spawn(n_children), strict=True)
    assert all(g.bit_generator.state == w.bit_generator.state for g, w in children)


def _assert_numpys_fallbacks(seed: int, t: int, n_children: int) -> None:
    """A second spawn, a first spawn of another count, a grandchild and another state size are numpy's."""
    def pair():
        (got,) = trial_streams(seed, range(t, t + 1), n_children)
        return got, np.random.default_rng(np.random.SeedSequence((seed, t)))

    def same(gots, wants):
        assert [g.bit_generator.state for g in gots] == [w.bit_generator.state for w in wants]

    got, want = pair()
    got_children, want_children = got.spawn(n_children), want.spawn(n_children)
    same(got.spawn(2), want.spawn(2))
    same(got_children[0].spawn(3), want_children[0].spawn(3))
    same(got_children[-1].spawn(1)[0].spawn(2), want_children[-1].spawn(1)[0].spawn(2))
    got, want = pair()
    same(got.spawn(n_children + 1), want.spawn(n_children + 1))
    got, want = pair()
    same(got.spawn(1), want.spawn(1))
    same(got.spawn(n_children), want.spawn(n_children))
    got_seq, want_seq = got.bit_generator.seed_seq, want.bit_generator.seed_seq
    assert got_seq.generate_state(3).tolist() == want_seq.generate_state(3).tolist()
    assert got_seq.generate_state(4).tolist() == want_seq.generate_state(4).tolist()


@pytest.mark.parametrize("n_children", (5, 8))
@pytest.mark.parametrize("seed, t", ENTROPIES, ids=repr)
def test_trial_streams_are_the_seed_sequences_of_seed_and_trial(seed, t, n_children):
    (got,) = trial_streams(seed, range(t, t + 1), n_children)
    assert isinstance(got.bit_generator.seed_seq, np.random.bit_generator.ISpawnableSeedSequence)
    _assert_numpys_streams(got, seed, t, n_children)
    _assert_numpys_fallbacks(seed, t, n_children)


_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from((0, 2**32 - 1, 2**32, 2**63, 2**64 - 1)))
# where the trial index gains a word, and so the pool a hash step
_WORD_EDGES = (0, 2**32, 2**64)


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, n=st.integers(2, 6), data=st.data())
def test_trial_streams_of_a_range_are_numpys_across_chunks_and_word_edges(seed, n, data):
    size = chunk_trials(n + 3)
    edge = data.draw(st.sampled_from(_WORD_EDGES), label="edge")
    start = data.draw(st.integers(max(edge - size - 2, 0), edge + 2), label="start")
    # either a few trials or more than a chunk
    count = data.draw(st.one_of(st.integers(1, 4), st.integers(size + 1, size + 3)), label="count")
    trials = range(start, start + count)
    streams = trial_streams(seed, trials, n + 3)
    for t, got in zip(trials, streams, strict=True):
        _assert_numpys_streams(got, seed, t, n + 3)
    for t in (trials[0], trials[-1]):
        _assert_numpys_fallbacks(seed, t, n + 3)


def test_trial_streams_refuse_negative_entropy():
    with pytest.raises(ValueError):
        next(trial_streams(-1, range(1), 5))
    with pytest.raises(ValueError):
        next(trial_streams(1, range(-1, 1), 5))


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


@pytest.mark.parametrize("l", (1, 8, 32))
@pytest.mark.parametrize("d", DIMS)
def test_build_transmission_draws_what_the_scalar_calls_draw(d, l):
    carrier = basis_state(d, Basis.COMPUTATIONAL, d - 1)
    for seed in SEEDS:
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        seq, spec = build_transmission(carrier, l, batched)
        entries, carrier_position = _scalar_transmission(d, l, scalar)
        assert list(spec.entries) == entries
        assert spec.carrier_position == carrier_position
        assert seq[carrier_position] is carrier
        for position, fourier, index in entries:
            assert seq[position] == basis_state(d, DECOY_BASES[fourier], index)
        assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("n", (2, 3, 9))
@pytest.mark.parametrize("d, r", [(2, 1), (3, 1), (3, 2), (13, 5), (13, 7), (512, 200), (MAX_DIM, 2**15)])
def test_tp_prepare_carriers_draws_what_the_scalar_calls_draw(d, r, n):
    params = ProtocolParams(variant=Variant.TWO_TP, n=n, d=d, r=r, l=1)
    for seed in SEEDS:
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        pad_sum, pads, states = tp_prepare_carriers(params, batched)
        assert pad_sum == int(scalar.integers(r - 1, d))
        assert pads == tuple(int(scalar.integers(0, r)) for _ in range(n))
        assert states == [basis_state(d, Basis.COMPUTATIONAL, pad) for pad in pads]
        assert batched.bit_generator.state == scalar.bit_generator.state


def test_array_bound_integers_frozen_example():
    # literal values and end state: a numpy change to the bounded-integer stream must fail here
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


@pytest.mark.parametrize("k", (0, 1, 8, 33))
def test_random_of_k_draws_what_k_scalar_calls_draw(k):
    # a decoy check draws its k uniforms with one random(k) call
    for seed in SEEDS:
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert batched.random(k).tolist() == [scalar.random() for _ in range(k)]
        assert batched.bit_generator.state == scalar.bit_generator.state


def _ctypes_taps(rng: np.random.Generator, coins: list[bool]) -> list:
    """A tap's draws through the bit generator's C functions: a coin where asked, then the uniform."""
    draws, out = rng.bit_generator.ctypes, []
    for coin in coins:
        if coin:
            out.append(draws.next_uint32(draws.state) >> 31)
        out.append(draws.next_double(draws.state))
    return out


def _generator_taps(rng: np.random.Generator, coins: list[bool]) -> list:
    """The same taps through ``Generator``: ``integers(0, 2)`` where asked, then ``random()``."""
    out = []
    for coin in coins:
        if coin:
            out.append(int(rng.integers(0, 2)))
        out.append(rng.random())
    return out


@pytest.mark.parametrize("pattern", ("coin each tap", "no coin", "mixed"))
def test_ctypes_tap_draws_are_integers_and_random(pattern):
    # AttackStrategy.tap draws next_uint32 >> 31 and next_double; the full end
    # state, has_uint32 and uinteger included, must be Generator's, or the
    # next draw of the stream would differ
    for seed in SEEDS:
        coins = {
            "coin each tap": [True] * 67,
            "no coin": [False] * 67,
            "mixed": [bool(c) for c in np.random.default_rng(seed + 1000).integers(0, 2, 67)],
        }[pattern]
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _ctypes_taps(fast, coins) == _generator_taps(slow, coins)
        assert fast.bit_generator.state == slow.bit_generator.state
        assert (fast.random(), int(fast.integers(0, 2))) == (slow.random(), int(slow.integers(0, 2)))


def test_ctypes_tap_draws_frozen_example():
    # literal values and end state: a numpy change to the tap's draws must fail here
    rng = np.random.default_rng(5324)
    assert _ctypes_taps(rng, [True] * 3) == [1, 0.8207246403666033, 0, 0.04740025757535893, 1, 0.1829746130928649]
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


@pytest.mark.parametrize("k", (0, 1, 8, 33))
def test_measurement_consumes_one_draw_regardless_of_outcome(k):
    # a check draws one uniform per disclosed decoy, whether each measurement
    # is certain (the decoy as prepared) or uniform (its conjugate)
    entries = tuple((position, position % 2, position % 5) for position in range(k))
    as_prepared = [basis_state(5, DECOY_BASES[fourier], index) for _, fourier, index in entries]
    conjugate = [basis_state(5, DECOY_BASES[1 - fourier], index) for _, fourier, index in entries]
    link = QuantumLink("TP1", "P1")
    for seed in SEEDS:
        ends = []
        for received in (as_prepared, conjugate):
            rng = np.random.default_rng(seed)
            _disclose_and_check(ClassicalBus(Transcript()), "step3", "all", link, entries, received, rng, 1.0)
            ends.append(rng.bit_generator.state)
        scalar = np.random.default_rng(seed)
        for _ in range(k):
            scalar.random()
        assert ends == [scalar.bit_generator.state] * 2


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
