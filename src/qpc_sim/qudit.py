"""Single d-level quantum systems, tracked as basis labels.

The protocols prepare, shift and measure qudits only in the computational
basis and its discrete-Fourier conjugate, and so do the modelled attacks. So
every qudit a run creates is a basis vector of one of the two bases, up to
global phase, and :class:`BasisLabel` tracks it as the tuple
``(dim, basis, index)``: preparing and shifting are O(1), and a measurement is
a pure function of one uniform the caller drew: across bases, one binary
search in the first d - 1 entries of the uniform table
``cumsum(full(d, 1/d))``, kept once per ``d``, which needs no clamp to d - 1.
Labels and measurement outcomes are immutable named tuples, so equal fields
mean equal, equally hashed values.

The dense state-vector engine in ``tests/dense_oracle.py`` is the oracle the
tests compare this engine against. The two return the same outcome for the
same uniform except on a tiny set of uniforms. numpy's ``Generator.random()``
returns multiples of 2**-53. Over every basis vector and every cyclic shift of
one, the draws on that grid for which the label outcome differs from the
dense outcome have total probability at most:

- in the label's own basis, 2**-53 (about 1.1e-16) for any d, and 0 for a
  computational label;
- in the conjugate basis, 0 at d in {2, 4}, 3.0e-15 at d=13 (2.8e-15 over
  unshifted vectors), 1.2e-14 for d <= 64 and 1.2e-13 at d=2048.

Those draws sit where the dense engine's rounded cumulative Born table (its
``born_cdf``) and the label engine's table part. Both engines' outcome is
``min(#{k : table[k] <= u}, d - 1)``, which the label engine counts as
``#{k < d - 1 : table[k] <= u}``, so the set is the union over k < d - 1 of
the draws between the two tables' k-th entries.
"""
from __future__ import annotations

import enum
import numbers
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


def _expect(value: object, kind: type, name: str) -> None:
    """Refuse an argument of the wrong type with ``ParameterError``, before it fails deeper in."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be of type {kind.__name__}, got {value!r}")


def _plain_int(value: object) -> object:
    """``value`` as an ``int`` if it is an integer other than a bool (numpy's included), else unchanged."""
    if type(value) is int:
        return value
    return int(value) if isinstance(value, numbers.Integral) and not isinstance(value, bool) else value


def _expect_int(value: object, name: str, kind: str = "an integer", low: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer other than a bool, and at least ``low`` if given; else refused."""
    plain = _plain_int(value)
    if type(plain) is not int or (low is not None and plain < low):
        raise ParameterError(f"{name} must be {kind}, got {value!r}")
    return plain


class Basis(enum.Enum):
    """The two preparation/measurement bases in use.

    COMPUTATIONAL is the standard basis {|0>, ..., |d-1>}; FOURIER is its
    discrete-Fourier conjugate. For any dimension d the two are mutually
    unbiased: every cross-basis overlap has squared magnitude exactly 1/d.
    """

    COMPUTATIONAL = "computational"
    FOURIER = "fourier"


class MeasurementOutcome(NamedTuple):
    """Result of one projective measurement: the observed index and the collapsed state, as a tuple."""

    value: int
    post_state: BasisLabel


# The hot constructors build through tuple.__new__: a NamedTuple's generated
# __new__ is one more Python-level call per qudit.
_new = tuple.__new__


class BasisLabel(NamedTuple):
    """Basis vector ``index`` of ``basis`` in dimension ``dim``, up to global phase.

    The label engine's state, an immutable ``(dim, basis, index)`` tuple:
    shifting and measuring it never leave the two bases. Build one with
    :meth:`prepare`, which checks its arguments.
    """

    dim: int
    basis: Basis
    index: int

    @classmethod
    def prepare(cls, d: int, basis: Basis, j: int) -> BasisLabel:
        """The j-th vector of the given basis in dimension d; refuses d < 2 and j outside [0, d)."""
        if d < 2 or not 0 <= j < d:
            _check_basis_vector(d, j)
        return _new(cls, (d, basis, j))

    def shift(self, m: int) -> BasisLabel:
        """Apply U_m: a computational label moves to (index + m) mod d, a Fourier label only gains a phase."""
        d = self.dim
        if not 0 <= m < d:
            _check_index(d, m, "shift amount")
        if self.basis is Basis.FOURIER:
            return self
        return _new(BasisLabel, (d, Basis.COMPUTATIONAL, (self.index + m) % d))

    def measure(self, basis: Basis, u: float) -> MeasurementOutcome:
        """Measure in ``basis``, sampling from the uniform ``u`` in [0, 1) that the caller drew.

        In the label's own basis the outcome is the label and ``u`` is unused.
        In the conjugate basis every outcome has probability 1/d, and ``u``
        picks it from the uniform table. The caller draws one ``u`` per
        measurement whatever the outcome, which keeps generators that run
        side by side aligned.
        """
        if basis is self.basis:
            return _new(MeasurementOutcome, (self.index, self))
        value = bisect_right(_uniform_cdf(self.dim), u)
        return _new(MeasurementOutcome, (value, _new(BasisLabel, (self.dim, basis, value))))


@lru_cache(maxsize=4)
def _uniform_cdf(d: int) -> tuple[float, ...]:
    """The first d - 1 entries of the cumulative table of the uniform distribution over d outcomes, as floats.

    The last entry is left out: a bisection of the first d - 1 entries already
    lies in [0, d - 1], and for a non-decreasing table it equals the clamped
    bisection of the whole table, ``min(bisect_right(table, u), d - 1)``.
    """
    return tuple(np.cumsum(np.full(d, 1.0 / d))[:-1].tolist())


#: Only the dense test oracle calls this; perfbench patches it and tests pin it by this name.
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
