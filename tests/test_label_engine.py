"""The basis-label engine against the dense state-vector engine it replaces on
the protocol's hot path: outcome for outcome, draw for draw, the bound on
where the two may differ, and whole reports byte for byte."""
from __future__ import annotations

import math

import numpy as np
import pytest

import dense_oracle
from dense_oracle import apply_shift, basis_state, born_cdf, measure, overlap
from qpc_sim import ATTACK_IDS, ConfigError, ExperimentConfig, adversary, protocol, qudit, run_experiment
from qpc_sim.qudit import Basis, BasisLabel

DIMS = (2, 3, 4, 13, 17)
BOUND_DIMS = (2, 3, 4, 5, 13, 17, 31, 47, 64)
GRID = 2.0**53


def _uniform_table(d: int) -> list[float]:
    return np.cumsum(np.full(d, 1.0 / d)).tolist()


class _Draws:
    """Stands in for a generator whose random() returns the given values in turn."""

    def __init__(self, *values: float) -> None:
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)


def test_prepare_checks_its_arguments_as_basis_state_does():
    for args in ((1, Basis.COMPUTATIONAL, 0), (4, Basis.FOURIER, 4), (4, Basis.COMPUTATIONAL, -1)):
        with pytest.raises(qudit.ParameterError):
            basis_state(*args)
        with pytest.raises(qudit.ParameterError):
            BasisLabel.prepare(*args)
    with pytest.raises(qudit.ParameterError):
        BasisLabel.prepare(4, Basis.COMPUTATIONAL, 0).shift(4)


def test_labels_and_outcomes_are_immutable():
    label = BasisLabel.prepare(5, Basis.FOURIER, 2)
    outcome = label.measure(Basis.COMPUTATIONAL, np.random.default_rng(0))
    for value, fields in ((label, ("dim", "basis", "index")), (outcome, ("value", "post_state"))):
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
    assert label == (5, Basis.FOURIER, 2)
    assert outcome.post_state == (5, Basis.COMPUTATIONAL, outcome.value)


@pytest.mark.parametrize("d", (2, 5, 13))
def test_labels_with_equal_fields_are_equal_however_built(d):
    for basis in Basis:
        conjugate = Basis.FOURIER if basis is Basis.COMPUTATIONAL else Basis.COMPUTATIONAL
        for j in range(d):
            prepared = BasisLabel.prepare(d, basis, j)
            source = (j - 1) % d if basis is Basis.COMPUTATIONAL else j  # a Fourier label keeps its index
            labels = (
                prepared,
                BasisLabel.prepare(d, basis, source).shift(1),
                prepared.measure(basis, _Draws(0.5)).post_state,
                BasisLabel.prepare(d, conjugate, 0).measure(basis, _Draws((j + 0.5) / d)).post_state,
            )
            assert all(label == prepared and hash(label) == hash(prepared) for label in labels)
            assert prepared != BasisLabel.prepare(d, conjugate, j)
            assert prepared != BasisLabel.prepare(d, basis, (j + 1) % d)


@pytest.mark.parametrize("d", DIMS)
def test_label_operations_match_the_dense_engine_draw_for_draw(d):
    for prepared in Basis:
        for j in range(d):
            for m in range(d):
                label = BasisLabel.prepare(d, prepared, j).shift(m)
                dense = apply_shift(basis_state(d, prepared, j), m)
                assert overlap(label, dense) == pytest.approx(1.0)
                for measured in Basis:
                    label_rng, dense_rng, one_draw = (np.random.default_rng((d, j, m)) for _ in range(3))
                    for _ in range(5):
                        got = label.measure(measured, label_rng)
                        want = measure(dense, measured, dense_rng)
                        one_draw.random()
                        assert got.value == want.value
                        assert got.post_state == BasisLabel(d, measured, got.value)
                        assert label_rng.bit_generator.state == one_draw.bit_generator.state


def test_generator_random_returns_multiples_of_2_to_the_minus_53():
    # the bound below counts draws on this grid; a numpy change to the grid must fail here
    draws = np.random.default_rng(2024).random(100_000).tolist()
    draws += [np.random.default_rng(seed).random() for seed in range(1000)]
    assert all(0.0 <= u < 1.0 and (u * GRID).is_integer() for u in draws)


@pytest.mark.parametrize("d", BOUND_DIMS)
def test_conjugate_outcome_steps_where_the_uniform_table_does(d):
    # the bound below is computed for this table, so the engine must step exactly at its grid points
    table = _uniform_table(d)
    for prepared in Basis:
        conjugate = Basis.FOURIER if prepared is Basis.COMPUTATIONAL else Basis.COMPUTATIONAL
        for j in range(d):
            label = BasisLabel.prepare(d, prepared, j)
            assert label.measure(prepared, _Draws(0.0)).value == j
            assert label.measure(prepared, _Draws(1.0 - 1.0 / GRID)).value == j
            assert label.measure(conjugate, _Draws(0.0)).value == 0
            assert label.measure(conjugate, _Draws(1.0 - 1.0 / GRID)).value == d - 1
            for k in range(d - 1):
                step = math.ceil(table[k] * GRID) / GRID
                assert label.measure(conjugate, _Draws(step - 1.0 / GRID)).value == k
                assert label.measure(conjugate, _Draws(step)).value == k + 1


def _differing_mass(dense_cdf: np.ndarray, label_cdf, d: int) -> float:
    """Probability, over draws on the 2**-53 grid, that the two engines' outcomes differ.

    Both outcomes are min(#{k : table[k] <= u}, d - 1) = #{k < d - 1 : table[k] <= u}
    for nondecreasing tables, so they differ exactly on the union over k < d - 1
    of [min(C_k, L_k), max(C_k, L_k)).
    """
    spans = sorted(
        tuple(sorted((min(float(dense_cdf[k]), 1.0), min(float(label_cdf[k]), 1.0)))) for k in range(d - 1)
    )
    points = 0
    end = 0.0
    for lo, hi in spans:
        lo = max(lo, end)
        if lo < hi:
            points += math.ceil(hi * GRID) - math.ceil(lo * GRID)
            end = hi
    return points / GRID


#: The conjugate-basis bounds stated in qudit's docstring; 1.2e-14 at every other d <= 64.
CONJUGATE_BOUND = {2: 0.0, 4: 0.0, 13: 3.0e-15}


@pytest.mark.parametrize("d", BOUND_DIMS)
def test_label_and_dense_outcomes_differ_only_within_the_stated_bound(d):
    uniform = _uniform_table(d)
    own = {Basis.COMPUTATIONAL: 0.0, Basis.FOURIER: 0.0}
    conjugate = 0.0
    for prepared in Basis:
        for j in range(d):
            # a shifted computational vector is an exact basis vector; a shifted Fourier one differs in rounding
            for m in range(d) if prepared is Basis.FOURIER else (0,):
                label = BasisLabel.prepare(d, prepared, j).shift(m)
                dense = apply_shift(basis_state(d, prepared, j), m)
                for measured in Basis:
                    if measured is prepared:
                        own_cdf = [0.0] * label.index + [1.0] * (d - 1 - label.index)
                        own[prepared] = max(own[prepared], _differing_mass(born_cdf(dense, measured), own_cdf, d))
                    else:
                        conjugate = max(conjugate, _differing_mass(born_cdf(dense, measured), uniform, d))
    assert own[Basis.COMPUTATIONAL] == 0.0
    assert own[Basis.FOURIER] <= 2.0**-53
    assert conjugate <= CONJUGATE_BOUND.get(d, 1.2e-14)


def _corpus():
    for variant in ("two-tp", "one-tp"):
        for attack in ATTACK_IDS:
            for d in DIMS:
                for l in (1, 8):
                    r = (d + 1) // (2 if variant == "two-tp" else 3)
                    yield ExperimentConfig(variant=variant, n=3, d=d, r=r, l=l, attack=attack, trials=20, seed=d * 100 + l)


def _corpus_bytes() -> list[str]:
    out = []
    for config in _corpus():
        try:
            config.validate()
        except ConfigError:
            continue  # insider attacks model two-tp only
        out.append(run_experiment(config).canonical_json())
    return out


def test_reports_are_byte_identical_under_the_dense_engine(monkeypatch):
    labels = _corpus_bytes()
    for name in ("basis_state", "apply_shift", "measure"):
        monkeypatch.setattr(protocol, name, getattr(dense_oracle, name))
    monkeypatch.setattr(adversary, "measure", dense_oracle.measure)
    dense = _corpus_bytes()
    assert len(labels) == 120
    assert labels == dense
