"""Exact state-vector engine for single d-level quantum systems.

Everything downstream (decoy checks, shift encoding, attack taps) runs on the
three primitives here: the two mutually unbiased preparation bases, the cyclic
shift operator, and projective measurement with Born-rule sampling.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Tolerance for normalization and state-equality (overlap) checks.
NORM_TOL = 1e-9


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class Basis(enum.Enum):
    """The two preparation/measurement bases in use.

    COMPUTATIONAL is the standard basis {|0>, ..., |d-1>}; FOURIER is its
    discrete-Fourier conjugate. For any dimension d the two are mutually
    unbiased: every cross-basis overlap has squared magnitude exactly 1/d.
    """

    COMPUTATIONAL = "computational"
    FOURIER = "fourier"


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


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of one projective measurement: the observed index and the collapsed state."""

    value: int
    post_state: QuditState


#: One run uses one dimension and the privacy audit alternates two; the bound
#: keeps a sweep over d from holding every d x d matrix for the process's life.
@lru_cache(maxsize=4)
def fourier_matrix(d: int) -> np.ndarray:
    """d x d unitary with entries F[k, j] = exp(2*pi*i*j*k/d)/sqrt(d); column j is the j-th Fourier basis vector."""
    if d < 2:
        raise ParameterError(f"dimension must be >= 2, got {d}")
    k, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    mat = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
    mat.setflags(write=False)
    return mat


def _check_index(d: int, j: int, what: str) -> None:
    if not 0 <= j < d:
        raise ParameterError(f"{what} must lie in [0, {d}), got {j}")


def basis_state(d: int, basis: Basis, j: int) -> QuditState:
    """The j-th vector of the given basis in dimension d."""
    if d < 2:
        raise ParameterError(f"dimension must be >= 2, got {d}")
    _check_index(d, j, "basis index")
    if basis is Basis.COMPUTATIONAL:
        amps = np.zeros(d, dtype=np.complex128)
        amps[j] = 1.0
    else:
        amps = fourier_matrix(d)[:, j]
    return QuditState(amps)


def apply_shift(state: QuditState, m: int) -> QuditState:
    """Apply the cyclic shift U_m: amplitude at k moves to (k + m) mod d."""
    _check_index(state.dim, m, "shift amount")
    return QuditState(np.roll(state.amplitudes, m))


def qft(state: QuditState) -> QuditState:
    """Discrete Fourier transform; maps computational basis vectors onto Fourier ones."""
    return QuditState(fourier_matrix(state.dim) @ state.amplitudes)


def iqft(state: QuditState) -> QuditState:
    """Inverse of :func:`qft`."""
    return QuditState(fourier_matrix(state.dim).conj().T @ state.amplitudes)


def measure(state: QuditState, basis: Basis, rng: np.random.Generator) -> MeasurementOutcome:
    """Projectively measure in the given basis, sampling by the Born rule.

    Consumes exactly one uniform draw from ``rng`` regardless of the outcome,
    so parallel runs with aligned generators stay aligned.
    """
    if basis is Basis.COMPUTATIONAL:
        coeffs = state.amplitudes
    else:
        coeffs = fourier_matrix(state.dim).conj().T @ state.amplitudes
    probs = np.abs(coeffs) ** 2
    probs /= probs.sum()
    cumulative = np.cumsum(probs)
    value = int(np.searchsorted(cumulative, rng.random(), side="right"))
    value = min(value, state.dim - 1)
    return MeasurementOutcome(value=value, post_state=basis_state(state.dim, basis, value))


def overlap(a: QuditState, b: QuditState) -> float:
    """Squared inner product |<a|b>|^2 (1.0 = same ray, 0.0 = orthogonal)."""
    if a.dim != b.dim:
        raise ParameterError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
