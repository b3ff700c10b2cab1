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

from .errors import DimensionMismatchError, HypothesisViolatedError, VcsLabError
from .hilbert import (
    WINDOW_BUFFER,
    BlockOperator,
    GridSpec,
    band_apply,
    gram_products,
    grid_ladder,
    lowering_operator,
    max_abs,
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
    "h_tau_residual",
    "power_series_equality_probe",
    "ladder_problem",
    "ladder_closed_forms",
    "grid_partner_comparison",
    "fit_power_law",
    "N1_CUTOFF",
]

#: eigenvalues of N1 below this are not invertible
N1_CUTOFF = 1e-10

#: images x+ phi_n shorter than this count as the zero vector
IMAGE_CUTOFF = 1e-12


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
    invertibility hypothesis.  A violated hypothesis raises
    ``HypothesisViolatedError``.
    """

    h: BlockOperator
    x: BlockOperator
    keep: int = field(init=False)
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
        n1 = self.x.adjoint() @ self.x
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
    residual at every truncation size.
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
    return problem.n1_inverse @ (problem.x.adjoint() @ (mapped @ problem.x))


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
    """
    keep = problem.keep
    mapped = problem.h if f is None else apply_map(f, problem.h)
    companion_scale = np.maximum(1.0, companion.max_abs(keep))
    alpha = (companion - companion.adjoint()).max_abs(keep) / companion_scale

    beta_op = problem.x.adjoint() @ ((problem.x @ companion) - (mapped @ problem.x))
    x_scale = np.maximum(1.0, problem.x.max_abs())
    beta_scale = np.maximum(1.0, x_scale**2 * np.maximum(companion_scale, mapped.max_abs(keep)))
    beta = beta_op.max_abs(keep) / beta_scale

    t = mapped.blocks.real[:, :keep]
    xd = problem.x.adjoint()
    images = xd.weights()[:, :keep]
    moved = (companion @ xd).weights()[:, :keep]
    norms = np.abs(images)
    vanishing = norms <= IMAGE_CUTOFF
    live = ~vanishing
    resid = np.abs(moved - images * t)[live]
    ratios = resid / (norms[live] * np.maximum(1.0, np.abs(t[live])))
    return Certificate(
        alpha_residual=float(alpha),
        beta_residual=float(beta),
        # np.max, not max(): a NaN residual must fail the check, not vanish
        gamma_residual=float(np.max(ratios, initial=0.0)),
        skipped_levels=tuple((int(j), int(n)) for j, n in np.argwhere(vanishing)),
    )


def example_problem(which: int, seqs, gamma: float) -> IntertwiningProblem:
    """The four worked ladder constructions on the two-sector space.

    1: h = B+B,      x = B+    (plain partner pair)
    2: h = B+B,      x = (B+)^2  (N1^-1 does not cancel in H)
    3: h = B+B,      x = (B+)^3
    4: h = (B+)^2B^2, x = B+   (h has eigenvalues e~[n] e~[n-1])

    ``seqs`` are per-sector shifted sequences; ``h`` and the companion come
    out independent of ``gamma`` in all four cases.
    """
    b = lowering_operator(seqs, gamma)
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


def h_tau_residual(seqs, gamma: float) -> float:
    """Max-norm of ``(H - ground shifts) - B+ B`` on the full truncated space.

    Both sides are diagonal with the shifted eigenvalues, so this vanishes to
    rounding; the phases of B cancel in the product.
    """
    h_tau = shifted_hamiltonian(seqs)
    b = lowering_operator([shift(s) for s in seqs], gamma)
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


def ladder_problem(dim: int, q: float = 1.0) -> IntertwiningProblem:
    """``h = a+ a`` and ``x = (a+)^2`` for the deformed lowering operator
    ``a = quon_ladder(dim, q)``; ``q = 1`` is the plain (boson) ladder."""
    a = quon_ladder(dim, q)
    ad = a.adjoint()
    return IntertwiningProblem(h=ad @ a, x=ad @ ad)


def ladder_closed_forms(problem: IntertwiningProblem, companion: BlockOperator, q: float) -> tuple:
    """Worst window entries ``(n1_deviation, companion_deviation)`` of ``N1``
    and the isospectral ``companion`` of ``ladder_problem(dim, q)`` against
    their closed forms in ``h = a+ a`` (at ``q = 1``, ``h^2 + 3h + 2`` and ``h + 2``):

        N1 = q^3 h^2 + q (1 + 2q) h + (1 + q) 1
        N1^-1 (x+ h x) = (1 + q) 1 + q^2 h
    """
    num = problem.h.blocks[0]
    n1_closed = q**3 * (num * num) + q * (1 + 2 * q) * num + (1 + q)
    h_closed = (1 + q) + q**2 * num
    window = np.s_[: problem.keep]
    return (
        max_abs((problem.n1.blocks[0] - n1_closed)[window]),
        max_abs((companion.blocks[0] - h_closed)[window]),
    )


@dataclass(frozen=True)
class GridComparisonReport:
    """Grid-ladder partner comparison at one resolution."""

    dx: float
    commutator_residual: float
    comparison_residual: float
    n_modes: int


def _check_null_modes(null: np.ndarray, grid: GridSpec) -> None:
    """Raise ``HypothesisViolatedError`` unless every column of ``null`` (unit
    null vectors of the grid N1) is a discretization artifact.

    Central differences admit a checkerboard quasi-kernel of the raising
    operator (sign-alternating at the grid's highest frequency), and confining
    superpotentials can pin further quasi-null modes to the outermost grid
    points.  Both live outside the trustworthy low-frequency interior
    subspace and are dropped; a smooth interior null direction is a
    genuine invertibility failure.
    """
    band = max(4, grid.points // 32)
    smoothness = np.sum((null[1:] + null[:-1]) ** 2, axis=0)  # ~4 smooth, ~0 Nyquist
    edge_mass = np.sum(null[:band] ** 2, axis=0) + np.sum(null[-band:] ** 2, axis=0)
    genuine = int(np.count_nonzero(~((smoothness < 0.5) | (edge_mass > 0.5))))
    if genuine:
        raise HypothesisViolatedError(
            f"grid N1 has {genuine} eigenvalue(s) <= {N1_CUTOFF:.1e} with a smooth interior "
            "eigenvector: not invertible"
        )


#: pairs of eigenvalues of the grid ``h`` closer than ``eps ||h|| / CLUSTER_ANGLE``
#: form one cluster: a backward-stable eigensolver fixes the eigenvectors of
#: a pair with gap ``g`` only to an angle of about ``eps ||h|| / g``, so below
#: that gap the basis inside the pair is not a property of ``h``
CLUSTER_ANGLE = 1e-10


def _lower_band(terms) -> np.ndarray:
    """A symmetric one-sector band, one term per offset in increasing order
    (:func:`~vcslab.hilbert.gram_products`), in LAPACK's lower band storage:
    row ``k`` holds the ``k``-th subdiagonal, zero-padded at the end."""
    return np.array([np.pad(term.blocks[0], (0, term.offset)) for term in terms if term.offset >= 0])


def _band_norm(band: np.ndarray) -> float:
    """Infinity norm of the symmetric matrix in lower band storage ``band``."""
    mag = np.abs(band)
    rows = mag.sum(axis=0)
    for k in range(1, len(band)):
        rows[k:] += mag[k, :-k]
    return float(rows.max())


def _inverse_iteration(band: np.ndarray, shifts, x: np.ndarray, starts) -> np.ndarray:
    """Two sweeps of inverse iteration on the symmetric matrix ``B`` in lower
    band storage ``band``, from the starting block ``x``: column ``j`` is solved
    against ``B - shifts[j]``, and after each sweep each group of columns
    ``starts[g]:starts[g + 1]`` is re-orthonormalized by QR.  Groups are
    independent, so they are done one at a time: each run of equal shifts in
    the group is LU-factored once (``gbtrf``), each sweep solves the run's
    columns as one block on that factor (``gbtrs``), and the QR is LAPACK's
    (``geqrf`` and ``orgqr``), all in place on a Fortran-ordered copy of
    ``x``, which is returned.  Raises ``LinAlgError`` when a shifted ``B`` is
    singular."""
    # imported here, not at module level: only the grid comparison needs
    # scipy, and ``import vcslab`` should not pay its import time and memory
    from scipy.linalg.lapack import dgbtrf, dgbtrs, dgeqrf, dorgqr

    def check(name, info):
        if info > 0 and name == "dgbtrf":
            raise np.linalg.LinAlgError(f"shifted band matrix is singular at pivot {info}")
        if info:
            raise np.linalg.LinAlgError(f"{name} returned info = {info}")

    # general band storage for gbtrf: rows 0..p-1 hold the fill-in of the LU
    # factors, row 2p - k the k-th superdiagonal and row 2p + k the k-th
    # subdiagonal
    p = len(band) - 1
    ab = np.zeros((3 * p + 1, band.shape[1]))
    ab[2 * p :] = band
    for k in range(1, p + 1):
        ab[2 * p - k, k:] = band[k, :-k]
    diagonal = ab[2 * p].copy()
    shifts = np.asarray(shifts, dtype=float)
    # the runs of equal shifts, none crossing a group boundary
    edges = np.zeros(len(shifts) + 1, dtype=bool)
    edges[1:-1] = shifts[1:] != shifts[:-1]
    edges[starts] = True
    edges = np.flatnonzero(edges)
    x = np.asfortranarray(x)
    for a, b in zip(starts[:-1], starts[1:]):
        cuts = edges[(a <= edges) & (edges <= b)]
        runs = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            ab[2 * p] = diagonal - shifts[lo]
            lu, piv, info = dgbtrf(ab, p, p)
            check("dgbtrf", info)
            # columns lo:hi of the Fortran-ordered x are contiguous, so gbtrs
            # solves the block in place
            runs.append((lu, piv, x[:, lo:hi]))
        group = x[:, a:b]
        for _ in range(2):
            for lu, piv, block in runs:
                check("dgbtrs", dgbtrs(lu, p, p, block, piv, overwrite_b=1)[1])
            qr, tau, _, info = dgeqrf(group, overwrite_a=1)
            check("dgeqrf", info)
            check("dorgqr", dorgqr(qr, tau, overwrite_a=1)[2])
    return x


def _cluster_shifts(evals: np.ndarray, starts) -> np.ndarray:
    """The inverse-iteration shift of each eigenvalue in ``evals``, whose
    clusters are ``starts[g]:starts[g + 1]``.

    A cluster whose spread is at most ``sqrt(eps)`` times its distance to the
    nearest eigenvalue outside it shares one shift, its lowest eigenvalue:
    each sweep then damps the other clusters by at least ``sqrt(eps)``
    against it, so two leave about ``eps`` of them in its block.  Any other
    cluster keeps one shift per eigenvalue.
    """
    lowest, highest = evals[starts[:-1]], evals[starts[1:] - 1]
    gaps = lowest[1:] - highest[:-1]
    distance = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
    shared = highest - lowest <= np.sqrt(np.finfo(float).eps) * distance
    sizes = np.diff(starts)
    return np.where(np.repeat(shared, sizes), np.repeat(lowest, sizes), evals)


def _lowest_eigenpairs(band: np.ndarray, count: int):
    """The lowest eigenpairs of the symmetric matrix ``B`` in lower band
    storage, grouped into clusters of near-equal eigenvalues.

    The ``count`` lowest eigenvalues come from band bisection (``dsbevx``) to
    LAPACK's default tolerance ``eps ||T||_1``, ``T`` the tridiagonal form of
    ``B``: the reduction to ``T`` is backward stable, so no eigenvalue of
    ``B`` is fixed more closely than about ``eps ||B||``.  When ``count < n``
    the top cluster may continue past them and is dropped.  The eigenvectors
    come from two sweeps of inverse iteration from seeded random starts, with
    the shifts of ``_cluster_shifts``: a cluster that shares one shift gets
    one band LU factor and one block solve per sweep, and each cluster a QR
    after each sweep.  Returns ``(evals, vecs, starts)`` with cluster ``g``
    in columns ``starts[g]:starts[g + 1]`` of the Fortran-ordered ``vecs``.
    """
    from scipy.linalg.lapack import dsbevx  # see _inverse_iteration

    n = band.shape[1]
    evals, _, _, _, info = dsbevx(
        band, 0.0, 0.0, 1, count, compute_v=0, range=2, lower=1, abstol=0.0, mmax=1, overwrite_ab=0
    )
    if info:
        raise np.linalg.LinAlgError(f"dsbevx returned info = {info}")
    evals = evals[:count]
    tol = np.finfo(float).eps * _band_norm(band) / CLUSTER_ANGLE
    starts = np.concatenate(([0], np.flatnonzero(np.diff(evals) > tol) + 1, [count]))
    shifts = _cluster_shifts(evals, starts)
    if count < n:
        starts = starts[:-1]
        evals, shifts = evals[: starts[-1]], shifts[: starts[-1]]
    # random starts: a structured one such as all ones is orthogonal to every
    # odd eigenvector when the superpotential is odd
    x = np.asfortranarray(np.random.default_rng(0).standard_normal((n, len(evals))))
    return evals, _inverse_iteration(band, shifts, x, starts), starts


def _smoothness_basis(vecs: np.ndarray, starts):
    """Rotate each cluster of ``vecs`` to the eigenbasis of the smoothness
    form ``sum_i (v_i + v_{i+1})^2`` (about 4 on smooth modes, 0 on the
    checkerboard), in ascending order, with one batched ``eigh`` over the
    clusters of each size.  Returns the rotated vectors and the form on each."""
    d = vecs[1:] + vecs[:-1]
    form = d.T @ d
    del d
    rot = np.eye(len(form))
    sizes = np.diff(starts)
    for size in np.unique(sizes[sizes > 1]):
        cols = starts[:-1][sizes == size][:, None] + np.arange(size)
        block = (cols[:, :, None], cols[:, None, :])
        rot[block] = np.linalg.eigh(form[block])[1]
    return vecs @ rot, np.einsum("jk,jl,lk->k", rot, form, rot)


def _smooth_eigenpairs(band: np.ndarray, k: int):
    """The lowest eigenpairs of the grid ``h`` with every cluster in its
    smoothness basis, enough of them to hold ``k`` smooth modes and all null
    modes: ``2k + 16`` at first, doubled up to ``n`` until they do.  Returns
    ``(evals, vecs, smoothness)``."""
    n = band.shape[1]
    count = min(n, 2 * k + 16)
    while True:
        evals, vecs, starts = _lowest_eigenpairs(band, count)
        vecs, smoothness = _smoothness_basis(vecs, starts)
        enough = np.count_nonzero(smoothness > 2.0) >= k and evals.size > 0 and evals[-1] > N1_CUTOFF
        if enough or count == n:
            return evals, vecs, smoothness
        count = min(n, 2 * count)


def _n1_null_modes(n1_band: np.ndarray, h_null: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Unit null vectors of ``N1 = a a+`` (lower band storage ``n1_band``),
    checked by ``_check_null_modes``.

    ``N1`` and ``h = a+ a`` have equally many null modes, and central
    differences make ``N1 ~ S h S`` with the checkerboard sign
    ``S = (-1)^i``, so ``S`` carries the null vectors ``h_null`` of ``h``
    close to those of ``N1``.  Inverse iteration on ``N1 + N1_CUTOFF`` from
    there corrects them where the two differ, at the one-sided boundary rows.
    """
    null = np.where(np.arange(len(h_null)) % 2, -1.0, 1.0)[:, None] * h_null
    count = null.shape[1]
    null = _inverse_iteration(n1_band, np.full(count, -N1_CUTOFF), null, [0, count])
    _check_null_modes(null, grid)
    return null


def _horner(coeffs, apply, v: np.ndarray) -> np.ndarray:
    """``p(A) v`` by Horner's rule, for the polynomial ``p`` with ``coeffs``
    (lowest order first) and ``A`` given by its action ``apply`` on a block."""
    out = coeffs[-1] * v
    for c in coeffs[-2::-1]:
        out = apply(out) + c * v
    return out


def _companion_image(n1, null: np.ndarray, coeffs, phi: np.ndarray) -> np.ndarray:
    """The companion ``N1^+ a f(h) a+`` of the grid, applied to the rows of ``phi``.

    ``x = a+``, so ``N1 = x+ x = a a+``; ``a f(h) = f(N1) a`` turns the
    companion into ``N1^+ N1 f(N1) = P f(N1)``, with ``P = I - Q Q+`` the
    projector off the unit null modes ``null`` of ``N1`` (its columns).
    ``n1`` applies ``N1`` to the rows of a block and ``f`` is the polynomial
    with ``coeffs``.
    """
    image = _horner(coeffs, n1, phi)
    return image - (image @ null) @ null.T


def grid_partner_comparison(
    w,
    grid: GridSpec,
    coeffs=(0.0, 1.0),
    hbar: float = 1.0,
    mass: float = 1.0,
    n_modes: int | None = None,
) -> GridComparisonReport:
    """Compare the companion of the grid ladder against its closed form.

    With ``a = c d/dx + W`` (``x = a+``, ``h = a+ a``) the companion of
    ``f(h)`` equals ``f(a a+)``, whose continuum form is
    ``f(a+ a + 2 c W'(x))``; the two differ by the discretization error of
    the commutator, second order in the grid step.  ``f`` is the polynomial
    with ``coeffs``, lowest order first (default: the identity).  Residuals
    are measured on the ``n_modes`` lowest smooth eigenvectors of ``h``
    (default: the bottom quarter of the grid spectrum); hold it fixed for
    scaling studies.  The ladder is a band, so no ``n x n`` array is formed:
    ``h`` and ``N1 = a a+`` are band products, formed once.  The lowest
    eigenpairs of ``h`` come from band bisection and inverse iteration, with
    the basis inside each cluster of near-equal eigenvalues fixed by
    smoothness, and both sides of the comparison apply ``N1`` and
    ``h + 2c W'`` to the ``k`` probes as bands, with ``f`` applied by
    Horner's rule.
    """
    ladder = grid_ladder(w, grid, hbar=hbar, mass=mass)
    h, n1 = gram_products(ladder.terms)

    # central differences double the spectrum: every smooth eigenmode has a
    # checkerboard twin at a nearby eigenvalue on which the commutator flips
    # sign, and excited eigenvectors hybridize weakly with the doubler branch
    # near their turning points.  Only smooth content represents the continuum
    # operator, so the comparison keeps the lowest smooth eigenvectors and
    # low-pass filters them (double three-point average: exact on the doubler
    # mode, relative O(dx^2) on resolved modes) before applying the operators.
    k_max = grid.points // 4 if n_modes is None else n_modes
    evals, vecs, smoothness = _smooth_eigenpairs(_lower_band(h), k_max)
    # the probes are rows, as the bands act along the last axis
    phi = vecs[:, np.flatnonzero(smoothness > 2.0)[:k_max]].T
    null = _n1_null_modes(_lower_band(n1), vecs[:, evals <= N1_CUTOFF], grid)
    del vecs
    for _ in range(2):
        phi = 0.25 * (np.hstack((phi[:, :1], phi[:, :-1])) + 2.0 * phi + np.hstack((phi[:, 1:], phi[:, -1:])))
    phi = phi / np.linalg.norm(phi, axis=1)[:, None]

    # the target h + 2c W' as a band: the terms of h and one more diagonal
    target = (*h, BlockOperator([2.0 * ladder.c * ladder.w_prime]))
    image = _companion_image(lambda v: band_apply(n1, v), null, coeffs, phi)
    diff = image - _horner(coeffs, lambda v: band_apply(target, v), phi)
    return GridComparisonReport(
        dx=grid.dx,
        commutator_residual=ladder.commutator_residual,
        comparison_residual=float(np.max(np.linalg.norm(diff, axis=1), initial=0.0)),
        n_modes=phi.shape[0],
    )


def fit_power_law(x, y) -> float:
    """Least-squares exponent p of ``y ~ C x^p`` on log-log axes; data that
    are not all positive raise ``VcsLabError``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise VcsLabError("power-law fit needs positive data")
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)
