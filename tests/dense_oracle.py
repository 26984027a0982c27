"""The dense state-vector engine: the tests' oracle for the basis-label engine.

It holds exact state vectors and works on any pure state, with the same three
primitives as the label engine in ``qpc_sim.qudit``: preparation in one of the
two mutually unbiased bases, the cyclic shift operator, and projective
measurement with Born-rule sampling from one uniform the caller drew. Its
functions also accept a label of the library's engine, read by duck typing as
``(dim, basis, index)``, so that a label can be compared with a dense state.
It imports nothing of the label engine, so that it stays an independent check
on it; the argument checks are qudit's own, so both engines refuse the same
arguments with the same messages.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qpc_sim.qudit import (
    Basis,
    MeasurementOutcome,
    ParameterError,
    _check_basis_vector,
    _check_index,
    fourier_matrix,
)

#: Tolerance for normalization and state-equality (overlap) checks.
NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class QuditState:
    """Immutable pure state of one d-level system.

    Equality of states is never tested amplitude-wise (global phase is
    physically meaningless); compare with :func:`overlap` instead.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ParameterError(f"state vector must be 1-D with dim >= 2, got shape {amps.shape}")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ParameterError(f"state vector is not normalized: |psi|^2 = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def amplitudes(state) -> np.ndarray:
    """The dense vector of ``state``: a :class:`QuditState`'s own, or the basis vector a label names."""
    if isinstance(state, QuditState):
        return state.amplitudes
    return basis_state(state.dim, state.basis, state.index).amplitudes


def basis_state(d: int, basis: Basis, j: int) -> QuditState:
    """The j-th vector of the given basis in dimension d."""
    _check_basis_vector(d, j)
    if basis is Basis.COMPUTATIONAL:
        amps = np.zeros(d, dtype=np.complex128)
        amps[j] = 1.0
    else:
        amps = fourier_matrix(d)[:, j]
    return QuditState(amps)


def apply_shift(state, m: int) -> QuditState:
    """Apply the cyclic shift U_m: amplitude at k moves to (k + m) mod d."""
    _check_index(state.dim, m, "shift amount")
    return QuditState(np.roll(amplitudes(state), m))


def qft(state) -> QuditState:
    """Discrete Fourier transform; maps computational basis vectors onto Fourier ones."""
    return QuditState(fourier_matrix(state.dim) @ amplitudes(state))


def iqft(state) -> QuditState:
    """Inverse of :func:`qft`."""
    return QuditState(fourier_matrix(state.dim).conj().T @ amplitudes(state))


def measure(state, basis: Basis, u: float) -> MeasurementOutcome:
    """Projectively measure in the given basis, sampling by the Born rule from the uniform ``u`` in [0, 1).

    The caller draws ``u``, one per measurement whatever the outcome, so
    parallel runs with aligned generators stay aligned.
    """
    value = int(np.searchsorted(born_cdf(state, basis), u, side="right"))
    value = min(value, state.dim - 1)
    return MeasurementOutcome(value=value, post_state=basis_state(state.dim, basis, value))


def born_cdf(state, basis: Basis) -> np.ndarray:
    """Cumulative Born probabilities of measuring ``state`` in ``basis``: the table :func:`measure` samples."""
    if basis is Basis.COMPUTATIONAL:
        coeffs = amplitudes(state)
    else:
        coeffs = fourier_matrix(state.dim).conj().T @ amplitudes(state)
    probs = np.abs(coeffs) ** 2
    probs /= probs.sum()
    return np.cumsum(probs)


def overlap(a, b) -> float:
    """Squared inner product |<a|b>|^2 (1.0 = same ray, 0.0 = orthogonal)."""
    if a.dim != b.dim:
        raise ParameterError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(amplitudes(a), amplitudes(b))) ** 2)
