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
(:func:`resolution_assembly`) and applies the phase average of each horizon
to that (``report``).  The zero-regulator demonstration needs no quadrature:
the ground-ground cross entry is the product of two zeroth moments, which
``moment-verification`` checks, times its phase average
(:func:`cross_phase_average`), and only that factor depends on the regulator
and the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import DimensionMismatchError, RegimeError, UnverifiableWeightError, VcsLabError
from .spectra import factorials, shift
from .vcs import CoherentFamily

__all__ = [
    "MomentWeight",
    "ResolutionReport",
    "ResolutionAssembly",
    "verify_moments",
    "resolution_assembly",
    "cross_phase_average",
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
            raise VcsLabError(f"weight scale must be positive, got {omega}")
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


def verify_moments(quadrature, seq, k_max: int) -> np.ndarray:
    """Relative errors of a weight's moments against the factorial products.

    ``quadrature`` is the weight's nodes and weights (from
    :meth:`MomentWeight.quadrature`), and ``seq`` a spectral sequence,
    shifted here.  Returns ``errors[k] = |moment_k - e~[k]!| / e~[k]!`` for
    k = 0..k_max; a ``k_max`` past the truncation raises
    ``DimensionMismatchError``.  A factorial product or a moment that
    overflows the float range raises ``UnverifiableWeightError``; for a
    moment, it names the order.  So does a quadrature with non-finite
    weights (``laggauss`` loses them to overflow from 187 nodes on), before
    any moment is formed.
    """
    shifted = shift(seq)
    if k_max > shifted.dim - 1:
        raise DimensionMismatchError(f"k_max {k_max} exceeds truncation {shifted.dim - 1}")
    reference = factorials(shifted).products[: k_max + 1]
    if not np.all(np.isfinite(reference)):
        raise UnverifiableWeightError(
            "factorial products overflow the float range at this order; "
            "reduce k_max or the truncation"
        )
    nodes, weights = quadrature
    broken = np.count_nonzero(~np.isfinite(weights))
    if broken:
        raise UnverifiableWeightError(
            f"{broken} of the {len(nodes)} quadrature weights are not finite: "
            f"the {len(nodes)}-node Gauss-Laguerre rule overflows the float range"
        )
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

    The uniform grid has ``M = max(16, ceil(2 horizon / step))`` panels.  The closed
    form is the exact value of that trapezoid sum (a finite geometric sum):

        T(theta) = sinc(theta*horizon) * x*cot(x),   x = theta*s/2

    with ``s`` the realized step, which must resolve every frequency
    (``|x| < pi/2``); a coarser one raises ``VcsLabError``.
    """
    thetas = np.asarray(thetas, dtype=float)
    s = 2.0 * horizon / _panels(horizon, step)
    x = 0.5 * thetas * s
    if np.abs(x).max() >= 0.5 * np.pi:
        raise VcsLabError(
            f"phase step {s:.3e} does not resolve the fastest frequency "
            f"{np.abs(thetas).max():.3e}; decrease the step"
        )
    # below |x| = 1e-8, x cot x = 1 - x^2/3 + ... rounds to 1, and 0/0 at x = 0 is avoided
    small = np.abs(x) < 1e-8
    xcot = np.where(small, 1.0, x / np.tan(np.where(small, 1.0, x)))
    return np.sinc(thetas * horizon / np.pi) * xcot


@dataclass(frozen=True)
class ResolutionReport:
    """Off-diagonal deviation of the assembled identity candidate from the
    identity at one horizon, over every level of every sector:
    phase-average-limited, it decays like ``1/(horizon * gap)``.
    ``n_samples`` counts the points of the uniform phase grid.
    """

    gamma_horizon: float
    n_samples: int
    offdiag_error: float


def _panels(horizon: float, step: float) -> int:
    """Panels of the uniform phase grid on ``[-horizon, horizon]``, at least 16."""
    return max(16, math.ceil(2.0 * horizon / step))


def _phase_step(freqs) -> float:
    """The phase step ``pi / (8 * fastest frequency)``, the same at every horizon."""
    fastest = max(float(np.abs(freqs).max()), 1e-9)
    return np.pi / (8.0 * fastest)


def _phase_free_candidate(seqs, quadratures) -> np.ndarray:
    """The factorized assembly of ``int |psi><psi| d nu`` before the phase
    average: ``g[p, q] / sqrt(e~[n]! e~[m]!)``, with ``g`` the products of
    per-sector half-integer moments; the other sectors' zeroth moments are 1
    for every weight that passes the moment check, so ``g`` leaves them out."""
    dim = seqs[0].dim
    n = len(seqs)

    # per-sector half-integer moments hm[t] = int rho(u) u^(t/2) du
    half_moments = []
    for nodes, wq in quadratures:
        powers = nodes[:, None] ** (0.5 * np.arange(2 * dim - 1)[None, :])
        half_moments.append(wq @ powers)

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
                g[rows, cols] = half_moments[a][pair_sums]
            else:
                g[rows, cols] = np.outer(half_moments[a][idx], half_moments[b][idx])
    return g * np.outer(inv_sqrt_fact, inv_sqrt_fact)


@dataclass(frozen=True, eq=False)
class ResolutionAssembly:
    """The horizon-independent part of a resolution check, built once per
    run by :func:`resolution_assembly`: the worst relative moment error of
    each sector, to order ``dim - 1``, the assembled candidate before its
    phase average, and its worst deviation from 1 on the diagonal,
    ``diag_error``, where the phase average is exactly 1 at every horizon.
    ``step`` is the phase step of the frequencies ``freqs``.  :meth:`report`
    applies the phase average of one horizon."""

    moment_errors: tuple
    diag_error: float
    freqs: np.ndarray = field(repr=False)
    step: float = field(repr=False)
    phase_free: np.ndarray = field(repr=False)

    def candidate(self, gamma_horizon: float) -> np.ndarray:
        """The identity candidate: the phase-free assembly times the phase
        average over ``[-gamma_horizon, gamma_horizon]``."""
        theta = self.freqs[:, None] - self.freqs[None, :]
        return self.phase_free * cesaro_phase_average(theta, gamma_horizon, self.step)

    def report(self, gamma_horizon: float) -> ResolutionReport:
        """The candidate's deviations from the identity at one horizon."""
        dev = self.candidate(gamma_horizon)
        np.fill_diagonal(dev, 0.0)
        samples = _panels(gamma_horizon, self.step) + 1
        return ResolutionReport(gamma_horizon, samples, float(np.abs(dev).max()))


def resolution_assembly(family: CoherentFamily, weights, n_nodes: int = 40) -> ResolutionAssembly:
    """Check the weights' moments to order ``dim - 1`` and assemble the
    candidate of ``family`` up to its phase average, from one
    ``n_nodes``-point rule; too few nodes show as moment errors.

    The phases are the family's own frequencies.  A delta family built
    without a regulator (``delta = 0``) does not resolve the identity, which
    :func:`cross_phase_average` demonstrates.
    """
    seqs = family.seqs
    # every weight's nodes and weights from one Gauss-Laguerre rule
    rule = laggauss(n_nodes)
    quadratures = [w.quadrature(rule) for w in weights]
    moment_errors = tuple(float(verify_moments(q, s, s.dim - 1).max()) for s, q in zip(seqs, quadratures))
    phase_free = _phase_free_candidate(seqs, quadratures)
    return ResolutionAssembly(
        moment_errors=moment_errors,
        diag_error=float(np.abs(np.diag(phase_free) - 1.0).max()),
        freqs=family.frequencies.ravel(),
        step=_phase_step(family.frequencies),
        phase_free=phase_free,
    )


def cross_phase_average(family: CoherentFamily, gamma_horizon: float, delta: float = 0.0) -> float:
    """The phase average over ``[-gamma_horizon, gamma_horizon]``, on the
    assembly's step, at the frequency difference of the ground-ground cross
    entry ``[0, dim]`` of a two-sector family rebuilt at regulator ``delta``.

    The entry is this factor times the product of the two zeroth weight
    moments.  For the delta family's equal grounds the difference is
    ``-2 delta``: at ``delta = 0`` the factor is exactly 1 at every horizon,
    so the entry survives the phase average at full strength; for
    ``delta > 0`` it decays like ``1/horizon``.
    """
    if family.shape[0] != 2:
        raise RegimeError(f"the cross entry is two-sector, got {family.shape[0]} sectors")
    freqs = replace(family, delta=delta).frequencies.ravel()
    theta = freqs[0] - freqs[family.shape[1]]
    return float(cesaro_phase_average(theta, gamma_horizon, _phase_step(freqs)))
