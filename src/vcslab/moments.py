"""Moment weights, quadrature, and resolution-of-identity checks.

The coherent-state families resolve the identity when integrated against
``N(J) rho1(J1) dJ1 rho2(J2) dJ2`` and a phase average over gamma.  The
weights ``rho_j`` must reproduce the shifted factorial products as their
moments; the phase average is the large-horizon Cesaro mean, realized as a
uniform trapezoid sum.  Because the normalization in the measure cancels the
normalization of the state, the assembled operator factorizes exactly into
per-sector half-integer moments times one phase-average factor per entry
pair; the assembly below evaluates that factorization (it is the same finite
sum as the literal tensor-product quadrature, reorganized).

Only the phase average depends on the horizon.  A run therefore computes the
Gauss-Laguerre rule, the moment verification and the half-moments once
(:func:`resolution_assembly`, or :func:`cross_entry` for the zero-regulator
entry) and applies the phase average of each horizon to that (``report``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import ConfigError, RegimeError, UnverifiableWeightError
from .spectra import SpectralSequence, factorials, shift
from .vcs import CoherentFamily

__all__ = [
    "MomentWeight",
    "ResolutionReport",
    "ResolutionAssembly",
    "CrossEntryReport",
    "CrossEntry",
    "verify_moments",
    "resolution_assembly",
    "cross_entry",
    "cesaro_phase_average",
]


@dataclass(frozen=True)
class MomentWeight:
    """The exponential weight ``rho(u) = exp(-u/omega)/omega`` on [0, inf).

    Its moments ``omega^k k!`` are the factorial products of the equally
    spaced shifted spectrum ``e~[n] = omega*n``.
    """

    omega: float

    @classmethod
    def gamma_family(cls, omega: float = 1.0) -> "MomentWeight":
        if not omega > 0:
            raise ConfigError(f"weight scale must be positive, got {omega}")
        return cls(float(omega))

    def quadrature(self, rule: tuple):
        """Nodes and weights such that ``sum w_k f(x_k) ~ int rho(u) f(u) du``.

        ``rule`` is the Gauss-Laguerre rule ``laggauss(n_nodes)`` of the
        weight ``exp(-x)``, so one rule serves every weight of a run.  It
        maps onto this weight with its nodes scaled by omega, exact for
        polynomial f up to degree ``2 n_nodes - 1``.
        """
        x, w = rule
        return self.omega * x, w


def _resolved_k_check(n_nodes: int, k_check: int | None, dim: int) -> int:
    """The moment order to check (``None`` means the full truncation); the
    rule must have enough nodes to be exact to that order."""
    k = dim - 1 if k_check is None else k_check
    if n_nodes < k / 2 + 1:
        raise ConfigError(
            f"{n_nodes} nodes cannot verify moments to order {k}; "
            f"need at least {math.ceil(k / 2 + 1)}"
        )
    return k


def verify_moments(quadrature, seq, k_max: int) -> np.ndarray:
    """Relative errors of a weight's moments against the factorial products.

    ``quadrature`` is the weight's nodes and weights (from
    :meth:`MomentWeight.quadrature`).  ``seq`` may be a spectral sequence
    (shifted internally) or an already shifted one.  Returns
    ``errors[k] = |moment_k - e~[k]!| / e~[k]!`` for k = 0..k_max.  A
    factorial product or a moment that overflows the float range raises
    ``UnverifiableWeightError``; for a moment, it names the order.
    """
    shifted = shift(seq) if isinstance(seq, SpectralSequence) else seq
    if k_max > shifted.dim - 1:
        raise ConfigError(f"k_max {k_max} exceeds truncation {shifted.dim - 1}")
    reference = factorials(shifted).products[: k_max + 1]
    if not np.all(np.isfinite(reference)):
        raise UnverifiableWeightError(
            "factorial products overflow the float range at this order; "
            "reduce k_max or the truncation"
        )
    nodes, weights = quadrature
    with np.errstate(over="ignore"):
        moments = weights @ (nodes[:, None] ** np.arange(k_max + 1)[None, :])
    overflowing = np.flatnonzero(~np.isfinite(moments))
    if overflowing.size:
        raise UnverifiableWeightError(
            f"the quadrature moment of order {overflowing[0]} ({len(nodes)} nodes) overflows "
            "the float range: a limit of linear-domain moments, not a fault in the weight"
        )
    return np.abs(moments - reference) / reference


def cesaro_phase_average(thetas, horizon: float, step: float):
    """Trapezoid Cesaro mean of ``exp(i theta gamma)`` over ``[-horizon, horizon]``.

    The uniform grid has ``M = ceil(2 horizon / step)`` panels.  The closed
    form is the exact value of that trapezoid sum (a finite geometric sum):

        T(theta) = sinc(theta*horizon) * x*cot(x),   x = theta*s/2

    with ``s`` the realized step.
    """
    thetas = np.asarray(thetas, dtype=float)
    m = max(16, math.ceil(2.0 * horizon / step))
    s = 2.0 * horizon / m
    x = 0.5 * thetas * s
    if np.abs(x).max() >= 0.5 * np.pi:
        raise ConfigError(
            f"phase step {s:.3e} does not resolve the fastest frequency "
            f"{np.abs(thetas).max():.3e}; decrease the step"
        )
    small = np.abs(x) < 1e-8
    xcot = np.where(small, 1.0 - x * x / 3.0, x / np.tan(np.where(small, 1.0, x)))
    return np.sinc(thetas * horizon / np.pi) * xcot


@dataclass(frozen=True)
class ResolutionReport:
    """Deviation of the assembled identity candidate from the identity.

    The diagonal error is quadrature-limited (horizon independent); the
    off-diagonal error is phase-average-limited and decays like
    ``1/(horizon * gap)``.  Both restrict to levels whose moments were
    checked.  ``n_samples`` counts the points of the uniform phase grid, and
    ``moment_errors`` holds each sector's worst relative moment error, for
    the caller to judge.
    """

    gamma_horizon: float
    n_samples: int
    n_nodes: int
    k_check: int
    diag_error: float
    offdiag_error: float
    hermiticity_defect: float
    moment_errors: tuple


def _phase_step(freqs, gamma_horizon: float) -> tuple:
    """The phase step ``pi / (8 * fastest frequency)`` and its panel count."""
    fastest = max(float(np.abs(freqs).max()), 1e-9)
    step = np.pi / (8.0 * fastest)
    return step, max(16, math.ceil(2.0 * gamma_horizon / step))


def _run_quadratures(weights, n_nodes: int) -> list:
    """Every weight's nodes and weights from one Gauss-Laguerre rule."""
    rule = laggauss(n_nodes)
    return [w.quadrature(rule) for w in weights]


def _phase_free_candidate(seqs, quadratures) -> np.ndarray:
    """The factorized assembly of ``int |psi><psi| d nu`` before the phase
    average: ``g[p, q] / sqrt(e~[n]! e~[m]!)``, with ``g`` the products of
    per-sector half-integer moments."""
    dim = seqs[0].dim
    n = len(seqs)

    # per-sector half-integer moments hm[t] = int rho(u) u^(t/2) du
    half_moments = []
    for nodes, wq in quadratures:
        powers = nodes[:, None] ** (0.5 * np.arange(2 * dim - 1)[None, :])
        half_moments.append(wq @ powers)
    zeros = np.array([hm[0] for hm in half_moments])
    zero_product = float(np.prod(zeros))

    facts = [factorials(shift(s)).products for s in seqs]
    if not all(np.all(np.isfinite(f)) for f in facts):
        raise UnverifiableWeightError("factorial products overflow at this truncation")
    inv_sqrt_fact = 1.0 / np.sqrt(np.concatenate(facts))

    g = np.empty((n * dim, n * dim))
    idx = np.arange(dim)
    pair_sums = idx[:, None] + idx[None, :]
    for a in range(n):
        for b in range(n):
            rows = slice(a * dim, (a + 1) * dim)
            cols = slice(b * dim, (b + 1) * dim)
            if a == b:
                g[rows, cols] = half_moments[a][pair_sums] * (zero_product / zeros[a])
            else:
                g[rows, cols] = np.outer(half_moments[a][idx], half_moments[b][idx]) * (
                    zero_product / (zeros[a] * zeros[b])
                )
    return g * np.outer(inv_sqrt_fact, inv_sqrt_fact)


@dataclass(frozen=True, eq=False)
class ResolutionAssembly:
    """The horizon-independent part of a resolution check, built once per
    run by :func:`resolution_assembly`: the worst relative moment error of
    each sector, and the assembled candidate before its phase average.
    ``window`` marks the levels whose moments were checked.  :meth:`report`
    applies the phase average of one horizon."""

    n_nodes: int
    k_check: int
    moment_errors: tuple
    window: np.ndarray = field(repr=False)
    freqs: np.ndarray = field(repr=False)
    phase_free: np.ndarray = field(repr=False)

    def candidate(self, gamma_horizon: float) -> np.ndarray:
        """The identity candidate: the phase-free assembly times the phase
        average over ``[-gamma_horizon, gamma_horizon]``."""
        theta = self.freqs[:, None] - self.freqs[None, :]
        step, _ = _phase_step(self.freqs, gamma_horizon)
        return self.phase_free * cesaro_phase_average(theta, gamma_horizon, step)

    def report(self, gamma_horizon: float) -> ResolutionReport:
        """The candidate's deviations from the identity at one horizon."""
        candidate = self.candidate(gamma_horizon)
        _, m = _phase_step(self.freqs, gamma_horizon)
        dev = (candidate - np.eye(candidate.shape[0]))[np.ix_(self.window, self.window)]
        diag = np.diag(dev)
        return ResolutionReport(
            gamma_horizon=gamma_horizon,
            n_samples=m + 1,
            n_nodes=self.n_nodes,
            k_check=self.k_check,
            diag_error=float(np.abs(diag).max()),
            offdiag_error=float(np.abs(dev - np.diag(diag)).max()),
            hermiticity_defect=float(np.abs(candidate - candidate.T.conj()).max()),
            moment_errors=self.moment_errors,
        )


def resolution_assembly(
    family: CoherentFamily, weights, n_nodes: int = 40, k_check: int | None = None
) -> ResolutionAssembly:
    """Check the weights' moments to order ``k_check`` and assemble the
    candidate of ``family`` up to its phase average, from one
    ``n_nodes``-point rule.

    The phases are the family's own frequencies.  A delta family built
    without a regulator (``delta = 0``) does not resolve the identity, which
    :func:`cross_entry` demonstrates.
    """
    seqs = family.seqs
    dim = seqs[0].dim
    k_check = _resolved_k_check(n_nodes, k_check, dim)
    quadratures = _run_quadratures(weights, n_nodes)
    moment_errors = tuple(
        float(verify_moments(q, s, k_check).max())
        for w, s, q in zip(weights, seqs, quadratures)
    )
    # the levels whose moments were checked, in every sector
    window = np.tile(np.arange(dim) <= k_check, len(seqs))
    return ResolutionAssembly(
        n_nodes=n_nodes,
        k_check=k_check,
        moment_errors=moment_errors,
        window=window,
        freqs=family.frequencies.ravel(),
        phase_free=_phase_free_candidate(seqs, quadratures),
    )


@dataclass(frozen=True)
class CrossEntryReport:
    """The ground-ground cross-sector entry of the delta-family assembly.

    At ``delta = 0`` its phase frequency vanishes exactly, so the entry is
    the bare product of the zeroth weight moments: order one, independent of
    the horizon.  For ``delta > 0`` the same entry is suppressed by the phase
    average of ``exp(-2 i delta gamma)`` and decays like ``1/horizon``.
    """

    magnitude: float
    j_integral: float
    cesaro_factor: float
    delta: float
    gamma_horizon: float


@dataclass(frozen=True, eq=False)
class CrossEntry:
    """The ground-ground cross entry ``[0, dim]`` of a two-sector family's
    assembly before its phase average, built once per run by
    :func:`cross_entry`: the product ``j_integral`` of the two zeroth weight
    moments.  The rest of the candidate is never formed."""

    family: CoherentFamily
    j_integral: float

    def report(self, gamma_horizon: float, delta: float = 0.0) -> CrossEntryReport:
        """The entry at regulator ``delta``: ``j_integral`` times the phase
        average at the entry's frequency difference (``-2 delta`` for the
        delta family's equal grounds), on the assembly's step."""
        freqs = replace(self.family, delta=delta).frequencies.ravel()
        step, _ = _phase_step(freqs, gamma_horizon)
        dim = self.family.shape[1]
        cesaro = float(cesaro_phase_average(freqs[0] - freqs[dim], gamma_horizon, step))
        return CrossEntryReport(
            magnitude=abs(self.j_integral * cesaro),
            j_integral=self.j_integral,
            cesaro_factor=cesaro,
            delta=delta,
            gamma_horizon=gamma_horizon,
        )


def cross_entry(
    family: CoherentFamily, weights, n_nodes: int = 40, k_check: int | None = None
) -> CrossEntry:
    """The cross entry of a two-sector family, the delta family's for the
    regulator-failure demo, from one ``n_nodes``-point rule (held to the node
    floor the full assembly needs).  Its report sets the regulator."""
    if family.shape[0] != 2:
        raise RegimeError(f"the cross entry is two-sector, got {family.shape[0]} sectors")
    _resolved_k_check(n_nodes, k_check, family.shape[1])
    zeros = [float(wq.sum()) for _, wq in _run_quadratures(weights, n_nodes)]
    return CrossEntry(family, zeros[0] * zeros[1])
