"""Moment weights and resolution-of-identity checks, in closed form.

The coherent-state families resolve the identity when integrated against
``N(J) rho1(J1) dJ1 rho2(J2) dJ2`` and a phase average over gamma.  The
weights ``rho_j`` must reproduce the shifted factorial products as their
moments; the phase average is the large-horizon Cesaro mean, realized as a
uniform trapezoid sum.  Because the normalization in the measure cancels the
normalization of the state, entry ``(p, q)`` of the assembled candidate is
``g[p, q] / sqrt(e~[p]! e~[q]!)`` times the phase average at the frequency
difference of ``p`` and ``q``.  Here ``g`` is ``hm[n + m]`` within a sector
and ``hm_a[n] hm_b[m]`` across sectors, with the half-integer moments
``hm[t] = int rho(u) u^(t/2) du = omega^(t/2) Gamma(t/2 + 1)`` of the gamma
weight (Gazeau and Klauder, J. Phys. A 32, 123, 1999), exact at every order
and formed in the log domain, so none overflows.  Moment ``k`` is ``hm[2k]``
and the phase average is 1 on the diagonal, so the moment errors and the
diagonal error read one quantity, ``|expm1(log hm[2n] - log e~[n]!)|``.

No candidate matrix is formed: its largest off-diagonal entry comes from a
few vectors.  The phase average is at most 1 in magnitude.  Within a sector
the moment factor of ``(n, n + k)`` grows with ``n``, since the digamma
function is concave, and the phase average depends on ``k`` alone, so each
diagonal peaks at its bottom entry.  Across sectors the factor is
``exp(u_a[n] + u_b[m])``, ``u[n] = log hm[n] - log e~[n]! / 2``, which falls
from ``u[0] = 0`` (Gautschi's inequality), so only a leading corner can beat
the same-sector maximum.

Only the phase average depends on the horizon: :func:`resolution_assembly`
does the rest once per run, and its ``report`` applies one horizon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, VcsLabError
from .spectra import factorials, shift
from .vcs import CoherentFamily

__all__ = [
    "MomentWeight",
    "ResolutionReport",
    "ResolutionAssembly",
    "verify_moments",
    "resolution_assembly",
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

    def log_moments(self, orders) -> np.ndarray:
        """``log int rho(u) u^s du = s log omega + lgamma(s + 1)`` at each real order ``s``."""
        orders = np.asarray(orders, dtype=float)
        return orders * math.log(self.omega) + np.array([math.lgamma(s + 1.0) for s in orders])


def verify_moments(weight: MomentWeight, seq, k_max: int) -> np.ndarray:
    """Relative errors of a weight's moments against the factorial products.

    ``seq`` is a spectral sequence, shifted here.  Returns ``errors[k] =
    |moment_k - e~[k]!| / e~[k]! = |expm1(log moment_k - log e~[k]!)|`` for
    k = 0..k_max, in the log domain, so no order overflows; a ``k_max`` past
    the truncation raises ``DimensionMismatchError``.
    """
    shifted = shift(seq)
    if k_max > shifted.dim - 1:
        raise DimensionMismatchError(f"k_max {k_max} exceeds truncation {shifted.dim - 1}")
    log_products = factorials(shifted).log_products[: k_max + 1]
    return np.abs(np.expm1(weight.log_moments(np.arange(k_max + 1)) - log_products))


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
    if np.any(np.abs(x) >= 0.5 * np.pi):
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


@dataclass(frozen=True, eq=False)
class ResolutionAssembly:
    """The horizon-independent part of a resolution check, built once per
    run by :func:`resolution_assembly`: the worst relative moment error of
    each sector, to order ``dim - 1``, and ``diag_error``, their worst, which
    is the candidate's deviation from 1 on the diagonal at every horizon.
    Per sector it keeps the frequencies ``freqs`` (``N x D``), with their
    phase step ``step``, the log half-moments ``log hm[t]``, ``t < 2D - 1``,
    and the log factorial products.  :meth:`report` applies the phase
    average of one horizon."""

    moment_errors: tuple
    diag_error: float
    freqs: np.ndarray = field(repr=False)
    step: float = field(repr=False)
    log_half_moments: np.ndarray = field(repr=False)
    log_products: np.ndarray = field(repr=False)

    def report(self, gamma_horizon: float) -> ResolutionReport:
        """The candidate's largest off-diagonal deviation from the identity
        at one horizon.  It is exact when each weight's scale is its sector's
        spacing, as for the weights a config builds (module docstring)."""

        def entries(log_factor, theta):
            return np.exp(log_factor) * np.abs(cesaro_phase_average(theta, gamma_horizon, self.step))

        top = self.freqs.shape[1] - 1
        k = np.arange(1, top + 1)
        # the bottom entry (top - k, top) of every diagonal k of each sector
        bottoms = [
            entries(hm[2 * top - k] - 0.5 * (lp[top - k] + lp[top]), f[top - k] - f[top])
            for f, hm, lp in zip(self.freqs, self.log_half_moments, self.log_products)
        ]
        worst = float(np.max(bottoms))
        # across sectors, an entry of row n is at most exp(u_a[n]) and one of
        # column m at most exp(u_b[m]): only rows and columns from there up
        u = self.log_half_moments[:, : top + 1] - 0.5 * self.log_products
        for a, b in itertools.combinations(range(len(u)), 2):
            floor = math.log(worst) if worst > 0 else -math.inf
            rows, cols = u[a] >= floor, u[b] >= floor
            theta = self.freqs[a][rows, None] - self.freqs[b][None, cols]
            corner = entries(u[a][rows, None] + u[b][None, cols], theta)
            worst = float(np.max(corner, initial=worst))
        samples = _panels(gamma_horizon, self.step) + 1
        return ResolutionReport(gamma_horizon, samples, worst)


def resolution_assembly(family: CoherentFamily, weights) -> ResolutionAssembly:
    """Check the weights' moments to order ``dim - 1`` and gather the
    horizon-independent factors of the candidate of ``family``.

    The phases are the family's own frequencies.  A delta family built
    without a regulator (``delta = 0``) does not resolve the identity: its
    ground-ground cross entry, two zeroth moments times the phase average at
    the frequency difference ``-2 delta``, is exactly 1 at every horizon.
    """
    seqs = family.seqs
    moment_errors = tuple(float(verify_moments(w, s, s.dim - 1).max()) for w, s in zip(weights, seqs))
    half_orders = 0.5 * np.arange(2 * family.shape[1] - 1)
    return ResolutionAssembly(
        moment_errors=moment_errors,
        diag_error=float(np.max(moment_errors)),
        freqs=family.frequencies,
        step=_phase_step(family.frequencies),
        log_half_moments=np.array([w.log_moments(half_orders) for w in weights]),
        log_products=np.array([factorials(s).log_products for s in family.shifted]),
    )
