"""Truncated sector space, block operators, and ladder realizations.

The working arena is ``C^N (x) H_D``: ``N`` sectors of one truncated
``D``-level space each.  Coefficients are ``N x D`` arrays, one row per
sector, and dense exports are sector-major (``flat index = sector*D +
level``); operators never mix sectors, and each block is a weighted shift
stored as one weight vector.
All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    GridOverflowError,
    LengthMismatchError,
    NonPositiveDerivativeError,
)
from .spectra import quon_numbers

__all__ = [
    "SectorSpace",
    "BlockOperator",
    "GridLadder",
    "GridSpec",
    "lowering_operator",
    "lowering_weights",
    "quon_ladder",
    "grid_ladder",
    "shifted_hamiltonian",
    "window_levels",
    "weighted_shift",
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


def _source_range(dim: int, offset: int) -> tuple:
    """Source levels ``[lo, hi)`` that a shift by ``offset`` keeps inside ``dim`` levels."""
    return max(0, -offset), dim - max(0, offset)


def weighted_shift(weights: np.ndarray, offset: int, data: np.ndarray) -> np.ndarray:
    """Weighted shifts applied along the last axis of ``data``, as complex.

    Level ``n`` goes to ``n + offset`` with weight ``weights[..., n - lo]``,
    ``[lo, hi)`` being the source levels the shift keeps; the other levels of
    the result are zero.  Leading axes broadcast, so one call applies the
    sector blocks of a :class:`BlockOperator` (``weights`` of shape
    ``(N, D - |offset|)``) to ``N x D`` sector blocks, or a stack of ``S``
    operators to a stack of ``S`` states.
    """
    lo, hi = _source_range(data.shape[-1], offset)
    shape = np.broadcast_shapes(weights.shape[:-1], data.shape[:-1]) + data.shape[-1:]
    out = np.zeros(shape, dtype=complex)
    np.multiply(weights, data[..., lo:hi], out=out[..., lo + offset : hi + offset])
    return out


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Block-diagonal operator on the sector space whose every block is a
    weighted shift: one nonzero diagonal at ``offset``.

    Block ``j`` maps level ``n`` to level ``n + offset`` with weight
    ``blocks[j, n - max(0, -offset)]``: ``blocks`` holds one row of length
    ``D - |offset|`` per sector, ``np.diag(M, -offset)`` of its dense block
    ``M``.  Products add offsets, ``adjoint`` negates it, and sums need equal
    offsets.  The rows are real unless an input is complex.  ``matrix`` is
    the dense export.  Cost: one allocation and one numpy kernel per
    operation, on the stored rows, then the constructor's copy; ``space``
    fixed at construction.  ``==`` compares by identity, not by entries.
    """

    blocks: np.ndarray
    offset: int = 0
    space: SectorSpace = field(init=False, repr=False)

    def __post_init__(self):
        try:
            blocks = np.array(self.blocks)
        except ValueError:
            raise LengthMismatchError("sector blocks differ in shape") from None
        if blocks.ndim != 2 or not blocks.size:
            raise LengthMismatchError("blocks must be nonempty weight vectors")
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        # SectorSpace rejects blocks of fewer than two levels
        object.__setattr__(self, "space", SectorSpace(len(blocks), blocks.shape[1] + abs(self.offset)))

    @property
    def matrix(self) -> np.ndarray:
        """Dense ``N*D x N*D`` export, zero off the diagonal blocks."""
        d, n = self.space.dim, self.space.total_dim
        m = np.zeros((n, n), dtype=self.blocks.dtype)
        for j, b in enumerate(self.blocks):
            m[j * d : (j + 1) * d, j * d : (j + 1) * d] = np.diag(b, -self.offset)
        return m

    def _check_space(self, other) -> None:
        if self.space != other.space:
            raise DimensionMismatchError("operator spaces differ")

    def _elementwise(self, other: "BlockOperator", op) -> "BlockOperator":
        self._check_space(other)
        if self.offset != other.offset:
            raise DimensionMismatchError(f"offsets {self.offset} and {other.offset} differ")
        return BlockOperator(op(self.blocks, other.blocks), self.offset)

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(self.blocks.conj(), -self.offset)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        """``self @ other``: level ``n`` goes to ``n + b`` under ``other`` and on
        to ``n + a + b`` under ``self``; where the middle level leaves the
        space the product vanishes, as the truncated dense product does."""
        self._check_space(other)
        d, a, b = self.space.dim, self.offset, other.offset
        if abs(a + b) >= d:
            raise DimensionMismatchError(f"offset {a + b} leaves all {d} levels")
        lo, hi = _source_range(d, a + b)
        (la, _), (lb, hb) = _source_range(d, a), _source_range(d, b)
        # sources kept by ``other`` and the product; their middle levels n + b are sources of ``self``
        s, e = max(lo, lb), min(hi, hb)
        x, y = self.blocks, other.blocks
        out = np.zeros((len(x), hi - lo), dtype=np.result_type(x, y))
        np.multiply(x[:, s + b - la : e + b - la], y[:, s - lb : e - lb], out=out[:, s - lo : e - lo])
        return BlockOperator(out, a + b)

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return self._elementwise(other, np.add)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self._elementwise(other, np.subtract)

    def weights(self) -> np.ndarray:
        """``N x D``: the weight of every source level of every sector, zero
        where the shift leaves the space."""
        lo, hi = _source_range(self.space.dim, self.offset)
        out = np.zeros((self.space.sectors, self.space.dim), dtype=self.blocks.dtype)
        out[:, lo:hi] = self.blocks
        return out

    def window(self, keep: int | None = None) -> np.ndarray:
        """The weights inside the top-left ``keep x keep`` window of every
        block (all of them when ``keep`` is None), one row per sector."""
        return self.blocks if keep is None else self.blocks[:, : max(0, keep - abs(self.offset))]

    def max_abs(self, keep: int | None = None) -> float:
        """Entrywise max-norm over all sectors; with ``keep``, over the
        top-left ``keep x keep`` window of each block.  A NaN propagates."""
        return max_abs(self.window(keep))


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
        if not 0.0 < self.dx < np.inf:
            raise NonPositiveDerivativeError(
                f"grid step {self.dx} of [{self.xmin}, {self.xmax}] is not positive and finite"
            )

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.points)

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.points - 1)


def _tridiagonal_apply(lower, main, upper, v: np.ndarray) -> np.ndarray:
    """``M v`` for the columns of the block ``v``, ``M`` tridiagonal with the
    diagonals ``lower`` (``M[i+1, i]``), ``main`` and ``upper`` (``M[i, i+1]``);
    each row sums its three terms left to right."""
    out = main[:, None] * v
    out[1:] += lower[:, None] * v[:-1]
    out[:-1] += upper[:, None] * v[1:]
    return out


@dataclass(frozen=True)
class GridLadder:
    """The grid lowering operator ``a = c d/dx + W(x)`` on a single sector,
    stored as its three diagonals: ``lower[i] = a[i+1, i]``,
    ``main[i] = a[i, i]`` and ``upper[i] = a[i, i+1]``.

    ``a`` and ``a+`` act on blocks as three-point stencils; ``gram_bands``
    gives the pentadiagonal ``a+ a`` or ``a a+`` as band storage, and
    ``matrix`` is the dense export of ``a``.  ``w_prime`` is ``W'`` on the
    grid; ``commutator_residual`` measures the deviation of ``[a, a+]`` from
    ``2c W'`` (a discretization artifact).
    """

    lower: np.ndarray
    main: np.ndarray
    upper: np.ndarray
    c: float
    w_prime: np.ndarray
    commutator_residual: float

    def __post_init__(self):
        for name in ("lower", "main", "upper"):
            d = np.array(getattr(self, name), dtype=float)
            d.setflags(write=False)
            object.__setattr__(self, name, d)

    @property
    def matrix(self) -> np.ndarray:
        """Dense ``n x n`` export of ``a``."""
        return np.diag(self.lower, -1) + np.diag(self.main) + np.diag(self.upper, 1)

    def apply(self, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """``a v`` (``a+ v`` with ``adjoint``) for the columns of the ``n x k`` block ``v``, in O(n k)."""
        # the transpose of a real tridiagonal matrix swaps its off-diagonals
        lower, upper = (self.upper, self.lower) if adjoint else (self.lower, self.upper)
        return _tridiagonal_apply(lower, self.main, upper, v)

    def gram_bands(self, adjoint: bool = False) -> np.ndarray:
        """``a+ a`` (``a a+`` with ``adjoint``) in symmetric lower band storage:
        a ``(3, n)`` array whose row ``k`` holds the ``k``-th subdiagonal,
        ``out[k, j] = (a+ a)[j + k, j]``, zero-padded at the end.  Filled in
        O(n); each entry sums its terms in increasing inner index."""
        # a a+ is the Gram matrix of a+, whose off-diagonals are a's swapped
        lower, upper = (self.upper, self.lower) if adjoint else (self.lower, self.upper)
        main = self.main
        out = np.zeros((3, len(main)))
        out[0] = main * main
        out[0, 1:] += upper * upper
        out[0, :-1] += lower * lower
        out[1, :-1] = main[:-1] * upper + lower * main[1:]
        out[2, :-2] = lower[:-1] * upper[1:]
        return out


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
    return BlockOperator(lowering_weights(seqs, [gamma])[0], -1)


def lowering_weights(seqs, gammas) -> np.ndarray:
    """The sector blocks of :func:`lowering_operator` at every phase in ``gammas``.

    Returns an ``(S, N, D-1)`` array whose row ``s`` holds the blocks of
    ``lowering_operator(seqs, gammas[s])`` (offset ``-1``), built in one pass.
    ``gammas`` may also be ``S x N``, a phase per sector: a coherent family
    twists each sector by its own phase sign.
    """
    if not seqs:
        raise LengthMismatchError("need at least one sector sequence")
    dims = {s.dim for s in seqs}
    if len(dims) != 1:
        raise LengthMismatchError(f"sector truncations differ: {sorted(dims)}")
    values = np.array([s.values for s in seqs])
    gammas = np.asarray(gammas, dtype=float)
    gammas = gammas[:, :, None] if gammas.ndim == 2 else gammas[:, None, None]
    return np.sqrt(values[:, 1:]) * np.exp(1j * np.diff(values, axis=1) * gammas)


def quon_ladder(dim: int, q: float) -> BlockOperator:
    """Deformed lowering operator ``a|n> = sqrt([n]_q)|n-1>`` on one sector,
    for q in (0, 1] (:func:`~vcslab.spectra.quon_numbers` checks it).

    Satisfies ``a a+ - q a+ a = 1`` exactly below the top level.  ``q = 1``
    is the standard Fock ladder ``a|n> = sqrt(n)|n-1>``, since ``[n]_1`` is
    exactly ``n``: there ``[a, a+] = 1`` holds below the top level, whose
    diagonal entry of the commutator is ``-(dim - 1)`` instead of ``+1``.
    """
    return BlockOperator([np.sqrt(quon_numbers(dim, q)[1:])], -1)


def _derivative_diagonals(grid: GridSpec) -> tuple:
    """Central-difference first derivative, one-sided at the two boundary rows,
    as its (lower, main, upper) diagonals."""
    n, dx = grid.points, grid.dx
    lower, main, upper = np.full(n - 1, -0.5 / dx), np.zeros(n), np.full(n - 1, 0.5 / dx)
    main[0], upper[0] = -1.0 / dx, 1.0 / dx
    lower[-1], main[-1] = -1.0 / dx, 1.0 / dx
    return lower, main, upper


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
) -> GridLadder:
    """First-order differential ladder ``a = c d/dx + W(x)``, ``c = hbar/sqrt(2m)``.

    ``w`` is the superpotential, called once on the array of grid points and
    returning the array of its values there; its derivative (central
    differences) must be strictly positive everywhere.  The adjoint
    is the matrix adjoint, so ``[a, a+]`` approximates ``2c W'(x)`` with a
    second-order error.  The diagnostic measures that error on smooth
    confined probe vectors over interior points.  Raises
    ``GridOverflowError`` when an entry of ``a`` is so large that ``a+ a``
    or its band norm could leave the float range.
    """
    if not (hbar > 0 and mass > 0):
        raise NonPositiveDerivativeError("hbar and mass must be positive")
    w_values = np.asarray(w(grid.x), dtype=float)
    w_prime = np.gradient(w_values, grid.dx)
    if w_prime.min() <= 0:
        raise NonPositiveDerivativeError(
            f"superpotential derivative reaches {w_prime.min():.3e} <= 0 on the grid"
        )
    c = hbar / np.sqrt(2.0 * mass)
    lower, main, upper = (c * d for d in _derivative_diagonals(grid))
    main += w_values
    # an entry of a+ a, and a row sum of its band, adds at most nine products
    # of two entries of a, so (3 s)^2 bounds them, s the largest entry
    largest = max(np.abs(d).max() for d in (lower, main, upper))
    if not 3.0 * largest <= np.sqrt(np.finfo(float).max):
        raise GridOverflowError(
            f"grid ladder entry {largest:.3e} (hbar / sqrt(2 mass) / dx, or W on the domain) "
            "puts a+ a beyond the float range"
        )

    # [a, a+] - 2c W' applied to the probes, one column each
    phis = _gaussian_probes(grid)
    a = functools.partial(_tridiagonal_apply, lower, main, upper)
    ad = functools.partial(_tridiagonal_apply, upper, main, lower)
    defect = a(ad(phis)) - ad(a(phis)) - 2.0 * c * w_prime[:, None] * phis
    # rows within 2 of the boundary carry one-sided-stencil corrections of
    # size O(1/dx^2); beyond that the derivative-matrix self-commutator
    # cancels exactly and only the O(dx^2) Taylor error remains
    interior = slice(3, grid.points - 3)
    resid = np.max(np.abs(defect[interior]).max(axis=0) / np.abs(phis).max(axis=0))
    return GridLadder(lower, main, upper, c, w_prime, commutator_residual=float(resid))


def shifted_hamiltonian(seqs) -> BlockOperator:
    """The Hamiltonian minus its per-sector ground levels (each block starts at 0)."""
    return BlockOperator([s.values - s.values[0] for s in seqs])


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
