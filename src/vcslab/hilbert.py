"""Truncated sector space, block operators, and ladder realizations.

The working arena is ``C^N (x) H_D``: ``N`` sectors of one truncated
``D``-level space each.  Coefficients are ``N x D`` arrays, one row per
sector, and dense exports are sector-major (``flat index = sector*D +
level``); operators never mix sectors, and each block is a weighted shift
stored as one weight vector.  A band is a tuple of weighted shifts, the
operator their sum (:func:`band_apply`, :func:`gram_product`).
All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

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
    "lowering_steps",
    "lowering_weights",
    "quon_ladder",
    "grid_ladder",
    "shifted_hamiltonian",
    "window_levels",
    "weighted_shift",
    "band_apply",
    "gram_product",
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
    """Weighted shifts applied along the last axis of ``data``, real when ``weights`` and ``data`` are.

    Level ``n`` goes to ``n + offset`` with weight ``weights[..., n - lo]``,
    ``[lo, hi)`` being the source levels the shift keeps; the other levels of
    the result are zero.  Leading axes broadcast, so one call applies the
    sector blocks of a :class:`BlockOperator` (``weights`` of shape
    ``(N, D - |offset|)``) to ``N x D`` sector blocks, or a stack of ``S``
    operators to a stack of ``S`` states.
    """
    lo, hi = _source_range(data.shape[-1], offset)
    shape = np.broadcast_shapes(weights.shape[:-1], data.shape[:-1]) + data.shape[-1:]
    out = np.zeros(shape, dtype=np.result_type(weights, data))
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
    operation, on the stored rows; the result freezes that fresh array in
    place and takes its ``space`` from the operands, while the constructor
    copies and checks the caller's rows.  ``==`` compares by identity, not
    by entries.
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

    def _result(self, blocks: np.ndarray, offset: int) -> "BlockOperator":
        """An operation's result on this operator's space, built in one step:
        ``blocks``, a fresh array that no caller holds, is frozen in place
        instead of copied and checked as the constructor does."""
        blocks.setflags(write=False)
        result = object.__new__(BlockOperator)
        # the fields go into the instance dict in one call, the frozen
        # dataclass's own __setattr__ refusing them
        result.__dict__.update(blocks=blocks, offset=offset, space=self.space)
        return result

    def _elementwise(self, other: "BlockOperator", op) -> "BlockOperator":
        self._check_space(other)
        if self.offset != other.offset:
            raise DimensionMismatchError(f"offsets {self.offset} and {other.offset} differ")
        return self._result(op(self.blocks, other.blocks), self.offset)

    def adjoint(self) -> "BlockOperator":
        # np.conjugate, not .conj(): of a real array that returns the array itself
        return self._result(np.conjugate(self.blocks), -self.offset)

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
        return self._result(out, a + b)

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


def band_apply(band, data: np.ndarray) -> np.ndarray:
    """The sum of the weighted shifts in ``band`` applied along the last axis
    of ``data`` (:func:`weighted_shift`), the terms added in order."""
    return sum(weighted_shift(term.blocks, term.offset, data) for term in band)


def gram_product(band, adjoint_first: bool = True) -> tuple:
    """``a+ a`` of the band ``a``, or ``a a+`` unless ``adjoint_first``: a
    band with one term per offset, in increasing order.  Every pair of terms
    multiplies with ``@``, and the products at one offset add with ``+``,
    left factor outermost."""
    adjoint = tuple(term.adjoint() for term in band)
    left, right = (adjoint, band) if adjoint_first else (band, adjoint)
    terms = {}
    for term in (p @ q for p in left for q in right):
        terms[term.offset] = terms[term.offset] + term if term.offset in terms else term
    return tuple(terms[k] for k in sorted(terms))


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
        # xmax <= xmin, or NaN, gives a step that is not positive
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


@dataclass(frozen=True)
class GridLadder:
    """The staggered grid lowering operator ``a = c d/dx + W`` and the target
    of its partner, each a band of one-sector weighted shifts on ``n`` levels.

    ``a`` (``terms``, offsets 0 and -1) maps the ``n`` nodes to the ``n - 1``
    bond midpoints, and its last row, the dead bond, is zero; so is the last
    row and column of ``n1``, the band ``N1 = a a+`` (:func:`gram_product`).
    ``target`` is ``T = b+ b + 2c W'`` on the bonds, ``b`` the same ladder one
    level down, from the bonds to the inner nodes, tridiagonal and zero on the
    dead bond.  ``norm_bound`` bounds every entry and row sum of ``N1`` and
    ``T``; ``commutator_residual`` measures ``a a+ - T`` on smooth probes (a
    discretization artifact, second order in the step).
    """

    terms: tuple
    n1: tuple
    target: tuple
    norm_bound: float
    commutator_residual: float


def lowering_operator(seqs, gamma) -> BlockOperator:
    """Block-diagonal lowering operator, one phase-twisted ladder per sector.

    Each block acts as ``sqrt(e~[n]) * exp(i*(e[n]-e[n-1])*gamma)`` on level
    ``n``, mapping it to ``n-1``; the ground level is annihilated.  Eigenvalue
    differences are shift-invariant, so the shifted values determine the
    phases as well.

    Parameters
    ----------
    seqs : list of ShiftedSequence
        One shifted spectrum per sector (any number of sectors).
    gamma : float or sequence of float
        Phase parameter shared by all sectors.  A sequence of ``S`` phases
        gives ``S`` members on ``S*N`` sectors, member-major: sector
        ``s*N + j`` is sector ``j`` at ``gamma[s]``.
    """
    weights = lowering_weights(seqs, np.atleast_1d(gamma))
    return BlockOperator(weights.reshape(-1, weights.shape[-1]), -1)


def lowering_steps(seqs) -> tuple:
    """The factors of :func:`lowering_weights` that no phase enters, each
    ``N x (D-1)``: ``sqrt(e~[n])`` and ``i (e~[n] - e~[n-1])`` for ``n >= 1``."""
    if not seqs:
        raise LengthMismatchError("need at least one sector sequence")
    dims = {s.dim for s in seqs}
    if len(dims) != 1:
        raise LengthMismatchError(f"sector truncations differ: {sorted(dims)}")
    values = np.array([s.values for s in seqs])
    return np.sqrt(values[:, 1:]), 1j * np.diff(values, axis=1)


def lowering_weights(seqs, gammas, steps=None) -> np.ndarray:
    """The sector blocks of :func:`lowering_operator` at every phase in ``gammas``.

    Returns an ``(S, N, D-1)`` array whose row ``s`` holds the blocks of
    ``lowering_operator(seqs, gammas[s])`` (offset ``-1``), built in one pass.
    ``gammas`` may also be ``S x N``, a phase per sector: a coherent family
    twists each sector by its own phase sign.  ``steps``, when given, is
    ``lowering_steps(seqs)``, formed once for many calls; only the phase
    factor ``exp(i (e~[n] - e~[n-1]) gamma)`` is formed here.
    """
    roots, gaps = lowering_steps(seqs) if steps is None else steps
    gammas = np.asarray(gammas, dtype=float)
    gammas = gammas[:, :, None] if gammas.ndim == 2 else gammas[:, None, None]
    return roots * np.exp(gaps * gammas)


def quon_ladder(dim: int, q) -> BlockOperator:
    """Deformed lowering operator ``a|n> = sqrt([n]_q)|n-1>`` for q in (0, 1]
    (:func:`~vcslab.spectra.quon_numbers` checks it), on one sector, or on
    one sector per entry when ``q`` is a sequence.

    Satisfies ``a a+ - q a+ a = 1`` exactly below the top level.  ``q = 1``
    is the standard Fock ladder ``a|n> = sqrt(n)|n-1>``, since ``[n]_1`` is
    exactly ``n``: there ``[a, a+] = 1`` holds below the top level, whose
    diagonal entry of the commutator is ``-(dim - 1)`` instead of ``+1``.
    """
    return BlockOperator([np.sqrt(quon_numbers(dim, qk)[1:]) for qk in np.atleast_1d(q)], -1)


def _gaussian_probes(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """Smooth test vectors at the points ``x``, confined to the middle of the
    domain of ``grid`` (rows of the array)."""
    center = 0.5 * (grid.xmin + grid.xmax)
    sigma = (grid.xmax - grid.xmin) / 8.0
    u = (x - center) / sigma
    bump = np.exp(-0.5 * u * u)
    return np.array([bump, u * bump, (u * u - 1.0) * bump])


def _staggered(step: float, left: np.ndarray, right: np.ndarray, n: int) -> tuple:
    """The band ``(a f)_i = step (f_{i+1} - f_i) + left_i f_i + right_i f_{i+1}``
    on ``n`` levels, its rows from ``len(left)`` on zero."""
    diagonal, upper = np.zeros(n), np.zeros(n - 1)
    diagonal[: len(left)] = left - step
    upper[: len(right)] = right + step
    return BlockOperator([diagonal]), BlockOperator([upper], -1)


def grid_ladder(w, grid: GridSpec) -> GridLadder:
    """Staggered first-order ladder ``a = c d/dx + W(x)``, ``c = 1/sqrt(2)``,
    from the nodes to the bond midpoints ``xb`` (Yee's grid):

        (a f)_i = c (f_{i+1} - f_i) / dx + W(xb_i) (f_i + f_{i+1}) / 2

    ``w`` is the superpotential, called once on the array of bond midpoints
    and returning the array of its values there; its derivative there
    (``np.gradient``) must be strictly positive.  The partner's ladder ``b``
    maps the bonds to the inner nodes with the products averaged,
    ``(b g)_j = c (g_{j+1} - g_j) / dx + (W_j g_j + W_{j+1} g_{j+1}) / 2``, so
    the ``W^2`` parts of ``a a+`` and ``b+ b`` cancel in the interior and
    ``a a+ - b+ b - 2c W'`` is a second-order error.  The diagnostic measures
    it on smooth confined probes over interior bonds.  Raises
    ``GridOverflowError`` when the entries of ``a`` are so large that ``a a+``
    or ``T`` could overflow, or so small that their products underflow.

    ``c`` is ``hbar/sqrt(2m)`` at ``hbar = m = 1``; any other ``hbar`` and
    ``m`` give the same ladder on the grid rescaled by ``x = kappa y``,
    ``kappa = hbar/sqrt(m)``: pass ``W(kappa y)`` on the domain divided by
    ``kappa``.
    """
    n, dx, x = grid.points, grid.dx, grid.x
    bonds = 0.5 * (x[:-1] + x[1:])
    w_values = np.asarray(w(bonds), dtype=float)
    w_prime = np.gradient(w_values, dx)
    if w_prime.min() <= 0:
        raise NonPositiveDerivativeError(
            f"superpotential derivative reaches {w_prime.min():.3e} <= 0 on the grid"
        )
    c = 1.0 / np.sqrt(2.0)
    half = 0.5 * w_values
    a = _staggered(c / dx, half, half, n)
    # a row or column of a holds two entries of at most s, the largest, so
    # the entries and row sums of a a+ and b+ b are at most 4 s^2; c / dx
    # and |W| / 2 are at most s, so 2c |W'| is at most 8 s^2: (4 s)^2 bounds
    # them all, and must be a normal float
    largest = max(np.abs(term.blocks).max() for term in a)
    finfo = np.finfo(float)
    if not np.sqrt(finfo.tiny) <= 4.0 * largest <= np.sqrt(finfo.max):
        raise GridOverflowError(
            f"grid ladder entry {largest:.3e} (c / dx, or W on the domain) "
            "puts a a+ out of the float range"
        )
    below, diagonal, above = gram_product(_staggered(c / dx, half[:-1], half[1:], n))
    target = (below, diagonal + BlockOperator([np.append(2.0 * c * w_prime, 0.0)]), above)

    # a a+ - T applied to the probes, one row each, zero on the dead bond
    phis = np.pad(_gaussian_probes(grid, bonds), ((0, 0), (0, 1)))
    n1 = gram_product(a, adjoint_first=False)
    defect = band_apply(n1, phis) - band_apply(target, phis)
    # the end rows of N1 and T differ by O(1/dx^2) edge terms: three rows at
    # either end of the bonds are left out
    interior = slice(3, n - 4)
    resid = np.max(np.abs(defect[:, interior]).max(axis=1) / np.abs(phis).max(axis=1))
    return GridLadder(a, n1, target, (4.0 * largest) ** 2, commutator_residual=float(resid))


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
