"""Engine tests: frozen state vectors, algebraic properties, sampling statistics."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import random_state, shift_matrix_oracle
from dense_oracle import QuditState, apply_shift, basis_state, iqft, measure, overlap, qft
from qpc_sim import ParameterError
from qpc_sim.qudit import Basis, fourier_matrix

TOL = 1e-9
DIMS = range(2, 17)


# ---------------------------------------------------------------------------
# frozen vectors
# ---------------------------------------------------------------------------

def test_computational_basis_state_is_one_hot():
    state = basis_state(5, Basis.COMPUTATIONAL, 3)
    expected = np.zeros(5, dtype=complex)
    expected[3] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_fourier_basis_state_d4_index1():
    # hand-computed: amplitudes (1/2) * i^k
    state = basis_state(4, Basis.FOURIER, 1)
    expected = np.array([0.5, 0.5j, -0.5, -0.5j])
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_fourier_basis_state_index0_is_uniform():
    state = basis_state(3, Basis.FOURIER, 0)
    np.testing.assert_allclose(state.amplitudes, np.full(3, 1 / np.sqrt(3)), atol=1e-12)


def test_qft_of_ket2_d4():
    # hand-computed: (1/2) * (-1)^k
    state = qft(basis_state(4, Basis.COMPUTATIONAL, 2))
    expected = np.array([0.5, -0.5, 0.5, -0.5], dtype=complex)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 7, 16])
def test_qft_maps_computational_onto_fourier_basis(d):
    for j in range(d):
        transformed = qft(basis_state(d, Basis.COMPUTATIONAL, j))
        assert overlap(transformed, basis_state(d, Basis.FOURIER, j)) == pytest.approx(1.0, abs=TOL)


def test_shift_frozen_examples():
    assert overlap(apply_shift(basis_state(4, Basis.COMPUTATIONAL, 2), 3),
                   basis_state(4, Basis.COMPUTATIONAL, 1)) == pytest.approx(1.0, abs=TOL)
    assert overlap(apply_shift(basis_state(7, Basis.COMPUTATIONAL, 3), 2),
                   basis_state(7, Basis.COMPUTATIONAL, 5)) == pytest.approx(1.0, abs=TOL)


def test_shift_zero_is_identity():
    state = random_state(6, seed=7)
    np.testing.assert_allclose(apply_shift(state, 0).amplitudes, state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("d", [2, 5, 8])
def test_shift_matches_matrix_oracle(d):
    for m in range(d):
        state = random_state(d, seed=100 * d + m)
        expected = shift_matrix_oracle(d, m) @ state.amplitudes
        np.testing.assert_allclose(apply_shift(state, m).amplitudes, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------

@given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_qft_roundtrip(d, seed):
    state = random_state(d, seed)
    assert overlap(iqft(qft(state)), state) == pytest.approx(1.0, abs=TOL)
    assert overlap(qft(iqft(state)), state) == pytest.approx(1.0, abs=TOL)


@given(d=st.integers(2, 16), data=st.data())
@settings(max_examples=60, deadline=None)
def test_shift_group_law(d, data):
    a = data.draw(st.integers(0, d - 1))
    b = data.draw(st.integers(0, d - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    state = random_state(d, seed)
    chained = apply_shift(apply_shift(state, a), b)
    direct = apply_shift(state, (a + b) % d)
    assert overlap(chained, direct) == pytest.approx(1.0, abs=TOL)


@given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1), m=st.integers(0, 15))
@settings(max_examples=60, deadline=None)
def test_unitarity_preserves_norm(d, seed, m):
    state = random_state(d, seed)
    for image in (qft(state), iqft(state), apply_shift(state, m % d)):
        assert float(np.vdot(image.amplitudes, image.amplitudes).real) == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("d", DIMS)
def test_orthonormality_within_each_basis(d):
    for basis in Basis:
        states = [basis_state(d, basis, j) for j in range(d)]
        for j in range(d):
            for k in range(d):
                expected = 1.0 if j == k else 0.0
                assert overlap(states[j], states[k]) == pytest.approx(expected, abs=TOL)


@pytest.mark.parametrize("d", DIMS)
def test_bases_are_mutually_unbiased(d):
    for j in range(d):
        for k in range(d):
            got = overlap(basis_state(d, Basis.COMPUTATIONAL, j), basis_state(d, Basis.FOURIER, k))
            assert got == pytest.approx(1.0 / d, abs=TOL)


def test_global_phase_is_invisible_to_overlap():
    state = random_state(5, seed=3)
    rotated = QuditState(np.exp(1j * 0.71) * state.amplitudes)
    assert overlap(state, rotated) == pytest.approx(1.0, abs=TOL)


def test_fourier_matrix_cache_stays_bounded():
    bound = fourier_matrix.cache_info().maxsize
    assert bound is not None and bound >= 2
    for d in range(2, bound + 8):
        fourier_matrix(d)
        assert fourier_matrix.cache_info().currsize <= bound


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 4, 13])
@pytest.mark.parametrize("basis", list(Basis))
def test_measuring_an_eigenstate_is_deterministic(d, basis):
    rng = np.random.default_rng(5)
    for j in range(d):
        outcome = measure(basis_state(d, basis, j), basis, rng.random())
        assert outcome.value == j
        assert overlap(outcome.post_state, basis_state(d, basis, j)) == pytest.approx(1.0, abs=TOL)


def test_measurement_collapses_the_state():
    rng = np.random.default_rng(11)
    state = random_state(6, seed=2)
    outcome = measure(state, Basis.FOURIER, rng.random())
    again = measure(outcome.post_state, Basis.FOURIER, rng.random())
    assert again.value == outcome.value


def test_fourier_measurement_of_computational_state_is_uniform():
    """Chi-square over 1e5 samples against the exact 1/d distribution (d=4)."""
    d, n_samples = 4, 100_000
    rng = np.random.default_rng(2024)
    state = basis_state(d, Basis.COMPUTATIONAL, 1)
    counts = np.zeros(d, dtype=int)
    for _ in range(n_samples):
        counts[measure(state, Basis.FOURIER, rng.random()).value] += 1
    result = stats.chisquare(counts, f_exp=np.full(d, n_samples / d))
    assert result.pvalue > 0.001


def test_born_rule_on_a_generic_state():
    d, n_samples = 6, 100_000
    rng = np.random.default_rng(77)
    state = random_state(d, seed=41)
    expected = np.abs(state.amplitudes) ** 2 * n_samples
    assert expected.min() > 10  # chi-square validity
    counts = np.zeros(d, dtype=int)
    for _ in range(n_samples):
        counts[measure(state, Basis.COMPUTATIONAL, rng.random()).value] += 1
    result = stats.chisquare(counts, f_exp=expected)
    assert result.pvalue > 0.001


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_rejects_unnormalized_vectors():
    with pytest.raises(ParameterError):
        QuditState(np.array([1.0, 1.0]))


def test_rejects_dimension_below_two():
    with pytest.raises(ParameterError):
        basis_state(1, Basis.COMPUTATIONAL, 0)
    with pytest.raises(ParameterError):
        QuditState(np.array([1.0]))


@pytest.mark.parametrize("j", [-1, 4])
def test_rejects_basis_index_outside_range(j):
    with pytest.raises(ParameterError):
        basis_state(4, Basis.COMPUTATIONAL, j)


@pytest.mark.parametrize("m", [-1, 4])
def test_rejects_shift_outside_range(m):
    with pytest.raises(ParameterError):
        apply_shift(basis_state(4, Basis.COMPUTATIONAL, 0), m)


def test_overlap_requires_matching_dimensions():
    with pytest.raises(ParameterError):
        overlap(basis_state(3, Basis.COMPUTATIONAL, 0), basis_state(4, Basis.COMPUTATIONAL, 0))
