"""Companion Hamiltonians from intertwining operators.

Given a Hermitian ``h`` and an operator ``x`` with ``[x x+, h] = 0`` and
``N1 = x+ x`` invertible, the companion ``H = N1^-1 (x+ h x)`` is Hermitian,
weakly intertwined with ``h``, and carries the eigenvalues of ``h`` on the
nonzero images ``x+ phi_n``.  Replacing ``h`` by ``f(h)`` for a real map
``f`` with a power-series form yields a companion with spectrum ``f(e_n)``
instead; a map is any real callable on arrays, such as a
``numpy.polynomial.Polynomial`` or ``numpy.exp``.  In an
:class:`IntertwiningProblem` ``x`` is one weighted shift,
so ``x x+`` is diagonal, and ``h`` is diagonal, so the commutant hypothesis
holds by construction; only the invertibility of ``N1`` is checked.
Everything is verified numerically on the valid window: on the truncated
space, ladder-built operators are only faithful below the top few levels,
and ``N1`` routinely acquires spurious null directions there, which are
identified and excluded rather than inverted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, GridOverflowError, HypothesisViolatedError, ProbeCountError, VcsLabError
from .hilbert import (
    WINDOW_BUFFER,
    BlockOperator,
    GridSpec,
    band_apply,
    grid_ladder,
    lowering_operator,
    quon_ladder,
    shifted_hamiltonian,
    window_levels,
)
from .spectra import shift

__all__ = [
    "IntertwiningProblem",
    "Certificate",
    "construct_companion",
    "certify",
    "example_problem",
    "example_from_lowering",
    "h_tau_residual",
    "h_tau_from_lowering",
    "power_series_equality_probe",
    "ladder_problem",
    "ladder_closed_forms",
    "grid_partner_comparison",
    "fit_power_law",
    "N1_CUTOFF",
]

#: eigenvalues of N1 below this are not invertible
N1_CUTOFF = 1e-10

#: bisection tolerance of the grid probes' eigenvalues, in units of N1's norm bound
PROBE_TOL = 1e-10


@dataclass(frozen=True)
class IntertwiningProblem:
    """The pair ``(h, x)`` of a companion construction, its hypotheses
    checked and ``N1`` inverted once, at construction, for every map ``f``.

    ``h`` must be diagonal (offset 0).  ``x`` is one weighted shift, so
    ``x x+`` is diagonal and commutes with ``h``: the commutant hypothesis
    holds by construction.  The valid window, the top-left ``keep`` levels
    of each sector, excludes the ``|x.offset|`` levels ``x`` moves by plus
    ``WINDOW_BUFFER``.  ``n1_inverse`` inverts the diagonal ``n1 = x+ x``
    except its ``dropped_modes`` entries at most ``N1_CUTOFF``, truncation
    artifacts above the window; such an entry inside it violates the
    invertibility hypothesis.  ``x_adjoint``, the ``x+`` of ``n1``, is formed
    once here for :func:`construct_companion` and :func:`certify`.  A
    violated hypothesis raises ``HypothesisViolatedError``; the sector it
    names counts the sectors of every member of a batched problem,
    member-major (:func:`example_problem`).
    """

    h: BlockOperator
    x: BlockOperator
    keep: int = field(init=False)
    x_adjoint: BlockOperator = field(init=False, repr=False)
    n1: BlockOperator = field(init=False, repr=False)
    n1_inverse: BlockOperator = field(init=False, repr=False)
    dropped_modes: int = field(init=False)

    def __post_init__(self):
        if self.h.space != self.x.space:
            raise DimensionMismatchError("h and x must act on the same space")
        if self.h.offset != 0:
            raise HypothesisViolatedError(
                f"h is a weighted shift at offset {self.h.offset}, not a Hermitian diagonal"
            )
        keep = window_levels(self.h.space, abs(self.x.offset) + WINDOW_BUFFER)
        x_adjoint = self.x.adjoint()
        n1 = x_adjoint @ self.x
        values = n1.blocks.real
        small = values <= N1_CUTOFF
        inside = np.argwhere(small[:, :keep])
        if inside.size:
            sector, n = inside[0]
            raise HypothesisViolatedError(
                f"N1 eigenvalue {values[sector, n]:.3e} <= {N1_CUTOFF:.1e} at level {n} of sector "
                f"{sector}, inside the {keep}-level window: not invertible"
            )
        inverse = np.divide(1.0, values, out=np.zeros_like(values), where=~small)
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "x_adjoint", x_adjoint)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n1_inverse", BlockOperator(inverse))
        object.__setattr__(self, "dropped_modes", int(small.sum()))


@dataclass(frozen=True)
class Certificate:
    """Residuals of the three defining conditions of a companion operator.

    alpha: Hermiticity of H.  beta: weak intertwining x+(x H - f(h) x) = 0.
    gamma: worst Rayleigh residual of the mapped eigenvalue relation over
    window eigenvectors with nonzero image.  All three are normalized by the
    natural magnitude of the quantities whose cancellation they certify
    (operator scale for alpha, product scale for beta, eigenvalue scale for
    gamma), so a genuine O(1) violation of a condition shows up as an O(1)
    residual at every truncation size.  Each scale is a maximum over all
    sectors, so in a batched problem over every member's sectors too.
    """

    alpha_residual: float
    beta_residual: float
    gamma_residual: float
    skipped_levels: tuple = ()


def apply_map(f, op: BlockOperator) -> BlockOperator:
    """``f(op)`` of a diagonal Hermitian ``op``: the real callable ``f``
    applied once to the array of its diagonal entries."""
    if op.offset != 0:
        raise HypothesisViolatedError(
            f"the mapped operator is a weighted shift at offset {op.offset}, "
            "not a Hermitian diagonal"
        )
    return BlockOperator(f(op.blocks.real))


def construct_companion(problem: IntertwiningProblem, f=None) -> BlockOperator:
    """The companion ``H = N1^-1 (x+ f(h) x)``, uncertified.

    With ``f=None`` this is the isospectral construction (``f = id``, ``h``
    used as it is); otherwise ``f`` is a real callable with a power-series
    form, and ``f(h)`` is ``f`` of each diagonal entry of ``h``
    (:func:`apply_map`).  :func:`certify` checks the result where a caller reads it.
    """
    mapped = problem.h if f is None else apply_map(f, problem.h)
    return problem.n1_inverse @ (problem.x_adjoint @ (mapped @ problem.x))


def certify(problem: IntertwiningProblem, companion: BlockOperator, f=None) -> Certificate:
    """The scale-normalized alpha/beta/gamma residuals of ``companion`` as the
    companion of ``f(h)`` (``f=None``: of ``h``), on the valid window; ``f``
    is a real callable, as in :func:`construct_companion`.

    ``h`` is diagonal, so its eigenvectors are the unit vectors ``e_n`` with
    eigenvalues ``h[n]``, judged on the window levels ``n < keep`` against
    the mapped eigenvalues ``f(h[n])``.  ``x+`` and the companion after it
    each move ``e_n`` to one level, so their weights at source ``n`` are the
    image ``x+ e_n`` and ``H x+ e_n``.  Pass the ``f`` the companion was
    built with: against another map, beta and gamma measure the mismatch.
    The alpha and beta scales are maxima over all sectors, members of a
    batched problem included; gamma is judged level by level.
    """
    keep = problem.keep
    mapped = problem.h if f is None else apply_map(f, problem.h)
    companion_scale = np.maximum(1.0, companion.max_abs(keep))
    alpha = (companion - companion.adjoint()).max_abs(keep) / companion_scale

    xd = problem.x_adjoint
    beta_op = xd @ ((problem.x @ companion) - (mapped @ problem.x))
    x_scale = np.maximum(1.0, problem.x.max_abs())
    beta_scale = np.maximum(1.0, x_scale**2 * np.maximum(companion_scale, mapped.max_abs(keep)))
    beta = beta_op.max_abs(keep) / beta_scale

    t = mapped.blocks.real[:, :keep]
    images = xd.weights()[:, :keep]
    moved = (companion @ xd).weights()[:, :keep]
    live = images != 0
    resid = np.abs(moved - images * t)[live]
    ratios = resid / (np.abs(images[live]) * np.maximum(1.0, np.abs(t[live])))
    return Certificate(
        alpha_residual=float(alpha),
        beta_residual=float(beta),
        # np.max, not max(): a NaN residual must fail the check, not vanish
        gamma_residual=float(np.max(ratios, initial=0.0)),
        skipped_levels=tuple((int(j), int(n)) for j, n in np.argwhere(~live)),
    )


def example_problem(which: int, seqs, gamma) -> IntertwiningProblem:
    """The four worked ladder constructions on the two-sector space.

    1: h = B+B,      x = B+    (plain partner pair)
    2: h = B+B,      x = (B+)^2  (N1^-1 does not cancel in H)
    3: h = B+B,      x = (B+)^3
    4: h = (B+)^2B^2, x = B+   (h has eigenvalues e~[n] e~[n-1])

    ``seqs`` are per-sector shifted sequences; ``h`` and the companion come
    out independent of ``gamma`` in all four cases.  A sequence of ``S``
    gammas builds all ``S`` members as one problem on ``S*N`` sectors,
    member-major (:func:`~vcslab.hilbert.lowering_operator`): its blocks,
    reshaped to ``(S, N, ...)``, are those of each member's own problem.
    The problem of a ``B`` already built is :func:`example_from_lowering`.
    """
    return example_from_lowering(which, lowering_operator(seqs, gamma))


def example_from_lowering(which: int, b: BlockOperator) -> IntertwiningProblem:
    """Example ``which`` of :func:`example_problem` on the lowering operator ``b``."""
    bd = b.adjoint()
    if which == 1:
        return IntertwiningProblem(h=bd @ b, x=bd)
    if which == 2:
        return IntertwiningProblem(h=bd @ b, x=bd @ bd)
    if which == 3:
        return IntertwiningProblem(h=bd @ b, x=bd @ bd @ bd)
    if which == 4:
        return IntertwiningProblem(h=bd @ bd @ b @ b, x=bd)
    raise VcsLabError(f"example number must be 1..4, got {which}")


def h_tau_residual(seqs, gamma) -> float:
    """Max-norm of ``(H - ground shifts) - B+ B`` on the full truncated space.

    Both sides are diagonal with the shifted eigenvalues, so this vanishes to
    rounding; the phases of B cancel in the product.  A sequence of gammas
    gives the worst member: ``B`` holds every member's sectors, member-major,
    and ``H`` is repeated once per member to match.  The residual of a ``B``
    already built is :func:`h_tau_from_lowering`.
    """
    return h_tau_from_lowering(seqs, lowering_operator([shift(s) for s in seqs], gamma))


def h_tau_from_lowering(seqs, b: BlockOperator) -> float:
    """:func:`h_tau_residual` of the unshifted ``seqs`` with ``b``, the
    lowering operator of their shifts at one gamma or a sequence of them."""
    h_tau = shifted_hamiltonian(list(seqs) * (b.space.sectors // len(seqs)))
    return (h_tau - (b.adjoint() @ b)).max_abs()


def power_series_equality_probe(problem: IntertwiningProblem, f) -> float:
    """Compare ``f(N1^-1 x+ h x)`` with ``N1^-1 x+ f(h) x`` on the window,
    for a real callable ``f`` with a power-series form.

    Returns ``max ||P_w (f(H1) - H2) phi|| / ||phi||`` over window-supported
    ``phi``, with ``P_w`` the window projector: the operator norm of the
    difference on the valid window, exact on the truncated space but no
    proof of the operator identity on the full space.  Both companions are
    diagonal, so that maximum is the largest entry of the difference on the
    window, reached at a window basis vector.
    """
    diff = apply_map(f, construct_companion(problem)) - construct_companion(problem, f)
    return diff.max_abs(problem.keep)


def ladder_problem(dim: int, q=1.0) -> IntertwiningProblem:
    """``h = a+ a`` and ``x = (a+)^2`` for the deformed lowering operator
    ``a = quon_ladder(dim, q)``; ``q = 1`` is the plain (boson) ladder.  A
    sequence of q values builds one sector per value, in that order, each
    the one-sector problem at its q."""
    a = quon_ladder(dim, q)
    ad = a.adjoint()
    return IntertwiningProblem(h=ad @ a, x=ad @ ad)


def ladder_closed_forms(problem: IntertwiningProblem, companion: BlockOperator, q) -> tuple:
    """Worst window entries ``(n1_deviations, companion_deviations)`` of
    ``N1`` and the isospectral ``companion`` of ``ladder_problem(dim, q)``
    against their closed forms in ``h = a+ a`` (at ``q = 1``, ``h^2 + 3h + 2``
    and ``h + 2``):

        N1 = q^3 h^2 + q (1 + 2q) h + (1 + q) 1
        N1^-1 (x+ h x) = (1 + q) 1 + q^2 h

    ``q`` is broadcast as a column, one value per sector, and each deviation
    takes its shape: a float for one q, an array of one entry per sector for
    a sequence.  A NaN deviation propagates.
    """
    shape = np.shape(q)
    q = np.reshape(q, (-1, 1))
    num = problem.h.blocks
    n1_closed = q**3 * (num * num) + q * (1 + 2 * q) * num + (1 + q)
    h_closed = (1 + q) + q**2 * num
    window = np.s_[:, : problem.keep]
    return tuple(
        np.abs((op.blocks - closed)[window]).max(axis=1).reshape(shape)[()]
        for op, closed in ((problem.n1, n1_closed), (companion, h_closed))
    )


@dataclass(frozen=True)
class GridComparisonReport:
    """Grid-ladder partner comparison at one resolution."""

    dx: float
    commutator_residual: float
    comparison_residual: float


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Row 2-norms of ``v``, each row scaled by its largest entry: no overflow, NaN kept."""
    scale = np.abs(v).max(axis=1, keepdims=True)
    return scale[:, 0] * np.linalg.norm(np.divide(v, scale, out=np.zeros_like(v), where=scale > 0), axis=1)


def _horner(coeffs, band, v: np.ndarray) -> np.ndarray:
    """``p(A) v`` by Horner's rule, for the polynomial ``p`` with ``coeffs``
    (lowest order first) and the band ``A``, applied to the rows of ``v``."""
    out = coeffs[-1] * v
    for c in coeffs[-2::-1]:
        out = band_apply(band, out) + c * v
    return out


def grid_partner_comparison(w, grid: GridSpec, coeffs=(0.0, 1.0), *, n_modes: int) -> GridComparisonReport:
    """Compare the companion of the grid ladder against its closed form.

    With the staggered ``a = c d/dx + W`` (:func:`~vcslab.hilbert.grid_ladder`),
    ``x = a+`` and ``h = a+ a``, ``N1 = a a+`` is invertible on the bonds, so
    ``a f(h) = f(N1) a`` makes the companion ``N1^-1 a f(h) a+`` equal to
    ``f(N1)``, whose continuum form is ``f(T)``, ``T = b+ b + 2c W'``; the two
    differ by the discretization error of the commutator, second order in the
    grid step.  ``f`` is the polynomial with ``coeffs``, lowest order first
    (default: the identity).  Residuals are ``max ||(f(N1) - f(T)) phi||`` over
    the ``n_modes`` lowest eigenvectors ``phi`` of ``N1``; hold it fixed for
    scaling studies.  ``N1`` is tridiagonal, and its last row, the dead bond,
    is zero: ``eigh_tridiagonal`` on the leading ``n - 1`` block bisects the
    eigenvalues, up to one past the probes, to ``PROBE_TOL`` times the norm
    bound, as inverse iteration needs shifts only well inside the gaps; a gap
    below ``1e4 PROBE_TOL`` repeats the solve at scipy's default tolerance.
    ``f`` is applied by Horner's rule over the bands.  Raises ``ProbeCountError``
    for ``n_modes`` outside ``1..n - 1``, and ``GridOverflowError`` when ``f``
    of the ladder's norm bound leaves the float range.
    """
    # imported here, not at module level: only the grid comparison needs
    # scipy, and ``import vcslab`` should not pay its import time and memory
    from scipy.linalg import eigh_tridiagonal

    if not 1 <= n_modes <= grid.points - 1:
        raise ProbeCountError(f"n_modes {n_modes} outside 1..{grid.points - 1}, the modes of N1 on the n - 1 bonds")
    ladder = grid_ladder(w, grid)
    # every Horner step, and the norm of the difference of the two sides, is
    # at most 2 sqrt(n) times this polynomial of the bound on N1 and T
    with np.errstate(over="ignore"):
        bound = np.polynomial.polynomial.polyval(max(1.0, ladder.norm_bound), np.abs(coeffs))
    if not bound <= np.finfo(float).max / (2.0 * np.sqrt(grid.points)):
        raise GridOverflowError(
            f"map {list(coeffs)} of N1 and its target, bounded by {ladder.norm_bound:.3e}, "
            "can leave the float range"
        )
    # scaled to entries below 1: the solver squares them
    diagonal, off = (term.blocks[0][:-1] / ladder.norm_bound for term in ladder.n1[1:])
    select = dict(select="i", select_range=(0, min(n_modes, grid.points - 2)))
    values, vecs = eigh_tridiagonal(diagonal, off, tol=PROBE_TOL, **select)
    if not np.diff(values).min() >= 1e4 * PROBE_TOL:
        _, vecs = eigh_tridiagonal(diagonal, off, **select)
    # the probes are rows, as the bands act along the last axis, and vanish on the dead bond
    phi = np.pad(vecs[:, :n_modes].T, ((0, 0), (0, 1)))
    diff = _horner(coeffs, ladder.n1, phi) - _horner(coeffs, ladder.target, phi)
    return GridComparisonReport(grid.dx, ladder.commutator_residual, float(np.max(_row_norms(diff))))


def fit_power_law(x, y) -> float:
    """Least-squares exponent p of ``y ~ C x^p`` on log-log axes; data that
    are not all positive raise ``VcsLabError``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise VcsLabError("power-law fit needs positive data")
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)
