"""Two engines for single d-level quantum systems.

Both offer the same three primitives: preparation in one of the two mutually
unbiased bases, the cyclic shift operator, and projective measurement with
Born-rule sampling from exactly one uniform draw.

- The dense engine (:class:`QuditState`, :func:`basis_state`,
  :func:`apply_shift`, :func:`measure`) holds exact state vectors and works on
  any pure state. It is the library API and the oracle the tests compare
  against.
- The label engine (:class:`BasisLabel`) runs the protocol's hot path. Every
  qudit the protocols and the modelled attacks create is a basis vector of
  one of the two bases, up to global phase, so it is tracked as
  ``(dim, basis, index)``: preparing and shifting are O(1), and a measurement
  is one draw plus, across bases, one binary search in the uniform table
  ``cumsum(full(d, 1/d))`` kept once per ``d``.

The engines return the same outcome for the same draw except on a tiny set
of draws. numpy's ``Generator.random()`` returns multiples of 2**-53. Over
every basis vector and every cyclic shift of one, the draws on that grid for
which the label outcome differs from the dense outcome have total probability
at most:

- in the label's own basis, 2**-53 (about 1.1e-16) for any d, and 0 for a
  computational label;
- in the conjugate basis, 0 at d in {2, 4}, 3.0e-15 at d=13 (2.8e-15 over
  unshifted vectors), 1.2e-14 for d <= 64 and 1.2e-13 at d=2048.

Those draws sit where the dense engine's rounded cumulative Born table
(:func:`born_cdf`) and the label engine's table part. Both engines' outcome is
``min(#{k : table[k] <= u}, d - 1)``, so the set is the union over k < d - 1
of the draws between the two tables' k-th entries.
"""
from __future__ import annotations

import enum
from bisect import bisect_right
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
    post_state: QuditState | BasisLabel


@dataclass(frozen=True, slots=True)
class BasisLabel:
    """Basis vector ``index`` of ``basis`` in dimension ``dim``, up to global phase.

    The label engine's state: shifting and measuring it never leave the two
    bases. Build one with :meth:`prepare`, which checks its arguments.
    """

    dim: int
    basis: Basis
    index: int

    @classmethod
    def prepare(cls, d: int, basis: Basis, j: int) -> BasisLabel:
        """The j-th vector of the given basis in dimension d; checks its arguments as :func:`basis_state` does."""
        _check_basis_vector(d, j)
        return cls(d, basis, j)

    def shift(self, m: int) -> BasisLabel:
        """Apply U_m: a computational label moves to (index + m) mod d, a Fourier label only gains a phase."""
        _check_index(self.dim, m, "shift amount")
        if self.basis is Basis.FOURIER:
            return self
        return BasisLabel(self.dim, Basis.COMPUTATIONAL, (self.index + m) % self.dim)

    def measure(self, basis: Basis, rng: np.random.Generator) -> MeasurementOutcome:
        """Measure in ``basis`` with exactly one uniform draw from ``rng``, as :func:`measure` does.

        In the label's own basis the outcome is the label. In the conjugate
        basis every outcome has probability 1/d, and the draw picks it from
        the uniform table.
        """
        u = rng.random()
        if basis is self.basis:
            return MeasurementOutcome(self.index, self)
        value = min(bisect_right(_uniform_cdf(self.dim), u), self.dim - 1)
        return MeasurementOutcome(value, BasisLabel(self.dim, basis, value))

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense vector of this label, so :func:`overlap` and the dense engine accept it."""
        return basis_state(self.dim, self.basis, self.index).amplitudes


@lru_cache(maxsize=4)
def _uniform_cdf(d: int) -> tuple[float, ...]:
    """Cumulative table of the uniform distribution over d outcomes, as floats."""
    return tuple(np.cumsum(np.full(d, 1.0 / d)).tolist())


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


def _check_basis_vector(d: int, j: int) -> None:
    if d < 2:
        raise ParameterError(f"dimension must be >= 2, got {d}")
    _check_index(d, j, "basis index")


def basis_state(d: int, basis: Basis, j: int) -> QuditState:
    """The j-th vector of the given basis in dimension d."""
    _check_basis_vector(d, j)
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
    value = int(np.searchsorted(born_cdf(state, basis), rng.random(), side="right"))
    value = min(value, state.dim - 1)
    return MeasurementOutcome(value=value, post_state=basis_state(state.dim, basis, value))


def born_cdf(state: QuditState, basis: Basis) -> np.ndarray:
    """Cumulative Born probabilities of measuring ``state`` in ``basis``: the table :func:`measure` samples."""
    if basis is Basis.COMPUTATIONAL:
        coeffs = state.amplitudes
    else:
        coeffs = fourier_matrix(state.dim).conj().T @ state.amplitudes
    probs = np.abs(coeffs) ** 2
    probs /= probs.sum()
    return np.cumsum(probs)


def overlap(a: QuditState, b: QuditState) -> float:
    """Squared inner product |<a|b>|^2 (1.0 = same ray, 0.0 = orthogonal)."""
    if a.dim != b.dim:
        raise ParameterError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
