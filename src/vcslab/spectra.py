"""Eigenvalue sequences of the input Hamiltonians.

A :class:`SpectralSequence` holds the lowest ``dim`` eigenvalues of one
Hamiltonian (strictly increasing, nonnegative ground level).  Shifting
subtracts the ground level so that running factorial products
``e[1]*e[2]*...*e[n]`` are well defined; those products are the series
denominators used everywhere else in the library.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BadDeformationError, DimensionMismatchError, NegativeGroundError, NonMonotoneError

__all__ = [
    "SpectralSequence",
    "ShiftedSequence",
    "DisjointnessReport",
    "make_sequence",
    "linear_sequence",
    "quon_sequence",
    "quon_numbers",
    "shift",
    "factorials",
    "eds_check",
]

#: gap below which two eigenvalues count as colliding
EDS_TOLERANCE = 1e-9


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpectralSequence:
    """Strictly increasing eigenvalue sequence with nonnegative ground level."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def ground(self) -> float:
        return float(self.values[0])


@dataclass(frozen=True)
class ShiftedSequence:
    """A spectral sequence with its ground level subtracted off."""

    values: np.ndarray
    shift: float

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DisjointnessReport:
    """Result of the pairwise spectral-collision scan."""

    disjoint: bool
    min_gap: float
    pair: tuple[int, int]
    tol: float


def make_sequence(values) -> SpectralSequence:
    """Validate a raw eigenvalue list into a :class:`SpectralSequence`.

    Raises
    ------
    NonMonotoneError
        if the values are not strictly increasing (or not finite).
    NegativeGroundError
        if the first value is negative.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise NonMonotoneError("need a 1-d sequence of at least two eigenvalues")
    if not np.all(np.isfinite(arr)):
        raise NonMonotoneError("eigenvalues must be finite")
    if not np.all(np.diff(arr) > 0):
        raise NonMonotoneError("eigenvalues must be strictly increasing")
    if arr[0] < 0:
        raise NegativeGroundError(f"ground level {arr[0]} is negative")
    return SpectralSequence(arr)


def linear_sequence(dim: int, omega: float = 1.0, offset: float = 0.0) -> SpectralSequence:
    """Equally spaced spectrum ``e[n] = omega*n + offset``."""
    return make_sequence(omega * np.arange(dim, dtype=float) + offset)


def quon_numbers(dim: int, q: float) -> np.ndarray:
    """Deformed integers ``[n]_q``, ``n < dim``, via the recurrence
    ``[n+1] = 1 + q*[n]``, for q in (0, 1]; any other q raises
    ``BadDeformationError``, and ``dim < 1`` ``DimensionMismatchError``.

    The recurrence is exact at q = 1 where the closed form (1-q^n)/(1-q)
    degenerates.  It runs on Python floats, the same IEEE operations as on
    numpy scalars, so the same bits.
    """
    if not (0 < q <= 1):
        raise BadDeformationError(f"deformation q must lie in (0, 1], got {q}")
    if dim < 1:
        raise DimensionMismatchError(f"deformed integers need dim >= 1, got {dim}")
    q = float(q)
    numbers = itertools.accumulate(itertools.repeat(q), lambda n, q: 1.0 + q * n, initial=0.0)
    return np.fromiter(numbers, dtype=float, count=dim)


def quon_sequence(dim: int, q: float, omega: float = 1.0, offset: float = 0.0) -> SpectralSequence:
    """Deformed spectrum ``e[n] = omega*[n]_q + offset`` for q in (0, 1]."""
    return make_sequence(omega * quon_numbers(dim, q) + offset)


def shift(seq: SpectralSequence) -> ShiftedSequence:
    """Subtract the ground level; the result starts at exactly zero."""
    shifted = seq.values - seq.values[0]
    shifted[0] = 0.0
    return ShiftedSequence(values=shifted, shift=seq.ground)


def factorials(shifted: ShiftedSequence) -> np.ndarray:
    """Running products ``p[n] = e[1]*e[2]*...*e[n]`` of a shifted sequence,
    kept in the log domain only, where no truncation of interest overflows:
    a read-only array with ``log p[0] = 0`` (the empty product)."""
    return _readonly(np.concatenate(([0.0], np.cumsum(np.log(shifted.values[1:])))))


def eds_check(s1: SpectralSequence, s2: SpectralSequence) -> DisjointnessReport:
    """Find the smallest cross gap between two spectra.

    The spectra count as (essentially) disjoint when every cross gap
    ``|e1[n] - e2[m]|`` exceeds ``EDS_TOLERANCE``.  The report carries the
    minimizing pair either way, the first in row-major order on ties.
    Symmetric in its two arguments.  Both spectra increase strictly, so the gaps of row ``n``
    fall and then rise (rounding keeps that order), and their minimum sits
    next to where ``e1[n]`` would be inserted into ``e2``: O(D log D).
    """
    v1, v2 = s1.values, s2.values
    right = np.minimum(np.searchsorted(v2, v1), len(v2) - 1)
    left = np.maximum(right - 1, 0)
    row_min = np.minimum(np.abs(v1 - v2[left]), np.abs(v1 - v2[right]))
    n = int(np.argmin(row_min))
    m = int(np.argmin(np.abs(v1[n] - v2)))
    min_gap = float(row_min[n])
    return DisjointnessReport(
        disjoint=min_gap > EDS_TOLERANCE, min_gap=min_gap, pair=(n, m), tol=EDS_TOLERANCE
    )
