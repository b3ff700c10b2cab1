"""Truncated sector space, block operators, and ladder realizations.

The working arena is ``C^N (x) H_D``: ``N`` sectors of one truncated
``D``-level space each.  Vectors are stored flat (sector-major,
``flat index = sector*D + level``) with block accessors; operators never mix
sectors and are stored as one ``D x D`` block per sector.  All values are
immutable after construction; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadDeformationError,
    DimensionMismatchError,
    LengthMismatchError,
    NonPositiveDerivativeError,
    RegimeError,
)
from .spectra import SpectralSequence, quon_numbers

__all__ = [
    "SectorSpace",
    "SusyVector",
    "BlockOperator",
    "LadderRealization",
    "GridSpec",
    "basis_vector",
    "lowering_operator",
    "delta_lowering_operator",
    "boson_ladder",
    "quon_ladder",
    "grid_ladder",
    "susy_hamiltonian",
    "shifted_hamiltonian",
    "window_levels",
    "max_abs",
]

#: extra levels excluded from the valid window beyond the ladder degree
WINDOW_BUFFER = 2


def max_abs(m) -> float:
    """Entrywise max-norm, the norm used by all operator residuals."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


@dataclass(frozen=True)
class SectorSpace:
    """``sectors`` copies of a ``dim``-level truncated space."""

    sectors: int
    dim: int

    def __post_init__(self):
        if self.sectors < 1 or self.dim < 2:
            raise DimensionMismatchError(
                f"need sectors >= 1 and dim >= 2, got {self.sectors}, {self.dim}"
            )

    @property
    def total_dim(self) -> int:
        return self.sectors * self.dim

    def flat_index(self, sector: int, level: int) -> int:
        return sector * self.dim + level


@dataclass(frozen=True)
class SusyVector:
    """Coefficient vector on the sector space, stored flat (sector-major)."""

    space: SectorSpace
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.shape != (self.space.total_dim,):
            raise DimensionMismatchError(
                f"vector length {data.shape} does not match space {self.space}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def block(self, sector: int) -> np.ndarray:
        d = self.space.dim
        return self.data[sector * d : (sector + 1) * d]

    def inner(self, other: "SusyVector") -> complex:
        """Sector-summed inner product <self, other> (conjugate-linear left)."""
        if self.space != other.space:
            raise DimensionMismatchError("vectors live on different spaces")
        return complex(np.vdot(self.data, other.data))

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __sub__(self, other: "SusyVector") -> "SusyVector":
        if self.space != other.space:
            raise DimensionMismatchError("vectors live on different spaces")
        return SusyVector(self.space, self.data - other.data)

    def __add__(self, other: "SusyVector") -> "SusyVector":
        if self.space != other.space:
            raise DimensionMismatchError("vectors live on different spaces")
        return SusyVector(self.space, self.data + other.data)

    def __rmul__(self, scalar) -> "SusyVector":
        return SusyVector(self.space, scalar * self.data)


@dataclass(frozen=True)
class BlockOperator:
    """Block-diagonal operator on the sector space, one ``D x D`` block per sector.

    Each block keeps the dtype of its input, so operators built from real
    spectra and ladders stay real.  ``matrix`` is the dense export.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(np.array(b) for b in self.blocks)
        shapes = {b.shape for b in blocks}
        if len(shapes) != 1 or blocks[0].ndim != 2 or blocks[0].shape[0] != blocks[0].shape[1]:
            raise LengthMismatchError("blocks must be square and equally sized")
        for b in blocks:
            b.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        self.space  # SectorSpace rejects blocks of fewer than two levels

    @property
    def space(self) -> SectorSpace:
        return SectorSpace(len(self.blocks), self.blocks[0].shape[0])

    @property
    def matrix(self) -> np.ndarray:
        """Dense ``N*D x N*D`` export, zero off the diagonal blocks."""
        d, n = self.space.dim, self.space.total_dim
        m = np.zeros((n, n), dtype=np.result_type(*self.blocks))
        for j, b in enumerate(self.blocks):
            m[j * d : (j + 1) * d, j * d : (j + 1) * d] = b
        return m

    def _blockwise(self, other: "BlockOperator", op) -> "BlockOperator":
        if self.space != other.space:
            raise DimensionMismatchError("operator spaces differ")
        return BlockOperator([op(a, b) for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "BlockOperator":
        return BlockOperator([b.conj().T for b in self.blocks])

    def apply(self, vec: SusyVector) -> SusyVector:
        if vec.space != self.space:
            raise DimensionMismatchError("operator and vector spaces differ")
        return SusyVector(
            self.space, np.concatenate([b @ vec.block(j) for j, b in enumerate(self.blocks)])
        )

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        return self._blockwise(other, np.matmul)

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return self._blockwise(other, np.add)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self._blockwise(other, np.subtract)

    def max_abs(self, keep: int | None = None) -> float:
        """Entrywise max-norm over all sectors; with ``keep``, over the
        top-left ``keep x keep`` window of each block.  A NaN propagates."""
        return float(np.max([max_abs(b[:keep, :keep]) for b in self.blocks]))


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-d grid on [xmin, xmax] with a fixed number of points."""

    xmin: float
    xmax: float
    points: int

    def __post_init__(self):
        if self.points < 64:
            raise NonPositiveDerivativeError(
                f"grid needs at least 64 points, got {self.points}"
            )
        if not self.xmax > self.xmin:
            raise NonPositiveDerivativeError("grid needs xmax > xmin")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.points)

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.points - 1)


@dataclass(frozen=True)
class LadderRealization:
    """One concrete lowering operator on a single sector.

    ``kind`` is one of ``boson``, ``quon``, ``grid``.  ``diagnostics``
    records the deviation of the realization's commutation relation from its
    ideal form (truncation or discretization artifacts).
    """

    kind: str
    matrix: np.ndarray
    params: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.array(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def basis_vector(space: SectorSpace, sector: int, level: int) -> SusyVector:
    """Unit vector with a single 1 at ``level`` of block ``sector``."""
    if not (0 <= sector < space.sectors):
        raise IndexError(f"sector {sector} outside 0..{space.sectors - 1}")
    if not (0 <= level < space.dim):
        raise IndexError(f"level {level} outside 0..{space.dim - 1}")
    data = np.zeros(space.total_dim, dtype=complex)
    data[space.flat_index(sector, level)] = 1.0
    return SusyVector(space, data)


def _phase_twisted_lowering(amplitudes, diffs, gamma, sign=+1.0):
    """D x D lowering matrix: entry (n-1, n) = amp[n] * exp(sign*i*diffs[n]*gamma)."""
    d = len(amplitudes)
    m = np.zeros((d, d), dtype=complex)
    n = np.arange(1, d)
    m[n - 1, n] = np.sqrt(amplitudes[1:]) * np.exp(sign * 1j * diffs * gamma)
    return m


def lowering_operator(seqs, gamma: float) -> BlockOperator:
    """Block-diagonal lowering operator, one phase-twisted ladder per sector.

    Each block acts as ``sqrt(e~[n]) * exp(i*(e[n]-e[n-1])*gamma)`` on level
    ``n``, mapping it to ``n-1``; the ground level is annihilated.  Eigenvalue
    differences are shift-invariant, so the shifted values determine the
    phases as well.

    Parameters
    ----------
    seqs : list of ShiftedSequence
        One shifted spectrum per sector (any number of sectors).
    gamma : float
        Phase parameter shared by all sectors.
    """
    if not seqs:
        raise LengthMismatchError("need at least one sector sequence")
    dims = {s.dim for s in seqs}
    if len(dims) != 1:
        raise LengthMismatchError(f"sector truncations differ: {sorted(dims)}")
    return BlockOperator(
        [_phase_twisted_lowering(s.values, np.diff(s.values), gamma) for s in seqs]
    )


def delta_lowering_operator(seqs, gamma: float) -> BlockOperator:
    """Two-sector lowering operator of the delta-regularized family.

    Requires both spectra to start at exactly zero.  The two sectors carry
    opposite phase signs (plus in the first, minus in the second); this is a
    genuinely different operator from :func:`lowering_operator` whenever
    ``gamma != 0``.
    """
    if len(seqs) != 2:
        raise LengthMismatchError(f"this family is two-sector, got {len(seqs)}")
    dims = {s.dim for s in seqs}
    if len(dims) != 1:
        raise LengthMismatchError(f"sector truncations differ: {sorted(dims)}")
    for j, s in enumerate(seqs):
        if not isinstance(s, SpectralSequence):
            raise RegimeError("delta family takes unshifted sequences starting at zero")
        if s.ground != 0.0:
            raise RegimeError(
                f"sector {j} ground level {s.ground} != 0; "
                "the delta family lives in the zero-ground regime"
            )
    signs = (+1.0, -1.0)
    blocks = [
        _phase_twisted_lowering(s.values, np.diff(s.values), gamma, sign)
        for s, sign in zip(seqs, signs)
    ]
    return BlockOperator(blocks)


def boson_ladder(dim: int) -> LadderRealization:
    """Standard Fock lowering matrix ``a|n> = sqrt(n)|n-1>``.

    On the truncated space ``[a, a+] = 1`` holds exactly below the top level;
    the top diagonal entry of the commutator is ``-dim`` instead of ``+1``
    (recorded in the diagnostics).
    """
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    defect = a @ a.T - a.T @ a - np.eye(dim)
    return LadderRealization(
        kind="boson",
        matrix=a,
        diagnostics={
            "commutator_defect_interior": max_abs(defect[: dim - 1, : dim - 1]),
            "commutator_defect_top": float(defect[-1, -1]),
        },
    )


def quon_ladder(dim: int, q: float) -> LadderRealization:
    """Deformed lowering matrix ``a|n> = sqrt([n]_q)|n-1>``.

    Satisfies ``a a+ - q a+ a = 1`` exactly below the top level; ``q = 1``
    reproduces :func:`boson_ladder`.
    """
    if not (0 < q <= 1):
        raise BadDeformationError(f"deformation q must lie in (0, 1], got {q}")
    a = np.diag(np.sqrt(quon_numbers(dim, q)[1:]), 1)
    defect = a @ a.T - q * (a.T @ a) - np.eye(dim)
    return LadderRealization(
        kind="quon",
        matrix=a,
        params={"q": q},
        diagnostics={
            "qmutator_defect_interior": max_abs(defect[: dim - 1, : dim - 1]),
            "qmutator_defect_top": float(defect[-1, -1]),
        },
    )


def _derivative_matrix(grid: GridSpec) -> np.ndarray:
    """Central-difference first derivative, one-sided at the two boundary rows."""
    n, dx = grid.points, grid.dx
    m = np.zeros((n, n))
    i = np.arange(1, n - 1)
    m[i, i + 1] = 0.5 / dx
    m[i, i - 1] = -0.5 / dx
    m[0, 0], m[0, 1] = -1.0 / dx, 1.0 / dx
    m[-1, -2], m[-1, -1] = -1.0 / dx, 1.0 / dx
    return m


def _gaussian_probes(grid: GridSpec) -> np.ndarray:
    """Smooth confined test vectors for grid diagnostics (columns of the array)."""
    x = grid.x
    center = 0.5 * (grid.xmin + grid.xmax)
    sigma = (grid.xmax - grid.xmin) / 8.0
    u = (x - center) / sigma
    bump = np.exp(-0.5 * u * u)
    return np.column_stack([bump, u * bump, (u * u - 1.0) * bump])


def grid_ladder(
    w, grid: GridSpec, hbar: float = 1.0, mass: float = 1.0
) -> LadderRealization:
    """First-order differential ladder ``a = c d/dx + W(x)``, ``c = hbar/sqrt(2m)``.

    ``w`` is the superpotential callable, sampled on the grid; its derivative
    (central differences) must be strictly positive everywhere.  The adjoint
    is the matrix adjoint, so ``[a, a+]`` approximates ``2c W'(x)`` with a
    second-order error.  The diagnostic measures that error on smooth
    confined probe vectors over interior points.
    """
    if not (hbar > 0 and mass > 0):
        raise NonPositiveDerivativeError("hbar and mass must be positive")
    x = grid.x
    w_values = np.asarray([w(xi) for xi in x], dtype=float)
    w_prime = np.gradient(w_values, grid.dx)
    if w_prime.min() <= 0:
        raise NonPositiveDerivativeError(
            f"superpotential derivative reaches {w_prime.min():.3e} <= 0 on the grid"
        )
    c = hbar / np.sqrt(2.0 * mass)
    a = c * _derivative_matrix(grid) + np.diag(w_values)

    # [a, a+] - 2c W' applied to the probes, one column each
    phis = _gaussian_probes(grid)
    defect = a @ (a.T @ phis) - a.T @ (a @ phis) - 2.0 * c * w_prime[:, None] * phis
    # rows within 2 of the boundary carry one-sided-stencil corrections of
    # size O(1/dx^2); beyond that the derivative-matrix self-commutator
    # cancels exactly and only the O(dx^2) Taylor error remains
    interior = slice(3, grid.points - 3)
    resid = np.max(np.abs(defect[interior]).max(axis=0) / np.abs(phis).max(axis=0))
    return LadderRealization(
        kind="grid",
        matrix=a,
        params={"hbar": hbar, "mass": mass, "c": c, "grid": grid},
        diagnostics={
            "commutator_probe_residual": float(resid),
            "w_values": w_values,
            "w_prime": w_prime,
        },
    )


def susy_hamiltonian(seqs) -> BlockOperator:
    """Block-diagonal Hamiltonian with the given spectra on the sectors."""
    return BlockOperator([np.diag(s.values) for s in seqs])


def shifted_hamiltonian(seqs) -> BlockOperator:
    """The Hamiltonian minus its per-sector ground levels (each block starts at 0)."""
    return BlockOperator([np.diag(s.values - s.values[0]) for s in seqs])


def window_levels(space: SectorSpace, exclude_top: int) -> int:
    """Number of levels per sector inside the valid window.

    Operator identities that involve ``k`` raising/lowering steps hold on the
    truncated space only below the top ``k + buffer`` levels; restricting
    residuals to this window isolates truncation artifacts.
    """
    keep = space.dim - exclude_top
    if keep < 1:
        raise DimensionMismatchError(
            f"window excludes all {space.dim} levels (exclude_top={exclude_top})"
        )
    return keep
