"""Moment weights and resolution-of-identity checks, in closed form.

The coherent-state families resolve the identity when integrated against
``N(J) rho1(J1) dJ1 rho2(J2) dJ2`` and a phase average over gamma.  The
weights ``rho_j`` must reproduce the shifted factorial products as their
moments; the phase average is the Cesaro mean over ``[-horizon, horizon]``,
``sinc(theta*horizon)`` at frequency ``theta``, which tends to the Kronecker
delta of ``theta`` as the horizon grows.  Because the normalization in the
measure cancels the normalization of the state, entry ``(p, q)`` of the
assembled candidate is ``g[p, q] / sqrt(e~[p]! e~[q]!)`` times the phase
average at the frequency difference of ``p`` and ``q``.  Here ``g`` is
``hm[n + m]`` within a sector and ``hm_a[n] hm_b[m]`` across sectors, with
the half-integer moments ``hm[t] = int rho(u) u^(t/2) du = omega^(t/2)
Gamma(t/2 + 1)`` of the gamma weight (Gazeau and Klauder, J. Phys. A 32,
123, 1999), exact at every order and formed in the log domain, so none
overflows.  Moment ``k`` is ``hm[2k]`` and the phase average is 1 on the
diagonal, so diagonal entry ``n`` deviates from 1 by the moment error of
order ``n``, ``|expm1(log hm[2n] - log e~[n]!)|``, for any weight.

No candidate matrix is formed: its largest off-diagonal entry comes from a
few vectors.  The phase average is at most 1 in magnitude.  Within a sector
the moment factor of ``(n, n + k)`` grows with ``n``, since the digamma
function is concave, and the phase average depends on ``k`` alone, so each
diagonal peaks at its bottom entry.  Across sectors the factor is
``exp(u_a[n] + u_b[m])``, ``u[n] = log hm[n] - log e~[n]! / 2``, which falls
from ``u[0] = 0`` (Gautschi's inequality), so only a leading corner can beat
the same-sector maximum.

Only the phase average depends on the horizon: :func:`resolution_assembly`
does the rest once per run, and its ``offdiag_error`` applies one horizon.
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
    "ResolutionAssembly",
    "verify_moments",
    "resolution_assembly",
    "cesaro_phase_average",
]


@dataclass(frozen=True)
class MomentWeight:
    """The exponential weight ``rho(u) = exp(-u/omega)/omega`` on [0, inf).

    Its moments ``omega^k k!`` are the factorial products of the equally
    spaced shifted spectrum ``e~[n] = omega*n``.  The scale must be positive
    and finite: at any other ``omega`` a log moment is not a number.
    """

    omega: float

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise VcsLabError(f"weight scale must be positive and finite, got {self.omega}")

    def log_moments(self, orders) -> np.ndarray:
        """``log int rho(u) u^s du = s log omega + lgamma(s + 1)`` at each real order ``s``."""
        return _log_moment_rows([self], orders)[0]


def _log_moment_rows(weights, orders) -> np.ndarray:
    """:meth:`MomentWeight.log_moments` of each weight, one row each: the
    ``lgamma`` term does not depend on the weight, so it is evaluated once
    per order for all of them."""
    orders = np.asarray(orders, dtype=float)
    lgammas = np.array([math.lgamma(s + 1.0) for s in orders])
    return np.array([orders * math.log(w.omega) + lgammas for w in weights])


def _moment_errors(log_moments, log_products) -> np.ndarray:
    """``|expm1(log moment_k - log e~[k]!)|``: relative moment errors, from logs."""
    return np.abs(np.expm1(log_moments - log_products))


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
    return _moment_errors(weight.log_moments(np.arange(k_max + 1)), factorials(shifted)[: k_max + 1])


def cesaro_phase_average(thetas, horizon: float):
    """Cesaro mean ``(1/2H) int_{-H}^{H} exp(i theta gamma) dgamma`` of each
    frequency ``theta`` at horizon ``H``: ``sin(theta H)/(theta H)``, and 1 at
    ``theta = 0``."""
    return np.sinc(np.asarray(thetas, dtype=float) * horizon / np.pi)


@dataclass(frozen=True, eq=False)
class ResolutionAssembly:
    """The horizon-independent part of a resolution check, built once per
    run by :func:`resolution_assembly`: the worst relative moment error of
    each sector, to order ``dim - 1``; the largest of them is the candidate's
    deviation from 1 on the diagonal at every horizon.  Per sector it keeps
    the frequencies ``freqs`` (``N x D``), the log half-moments ``log hm[t]``,
    ``t < 2D - 1``, and the log factorial products.  :meth:`offdiag_error`
    applies the phase average of one horizon."""

    moment_errors: tuple
    freqs: np.ndarray = field(repr=False)
    log_half_moments: np.ndarray = field(repr=False)
    log_products: np.ndarray = field(repr=False)

    def offdiag_error(self, gamma_horizon: float) -> float:
        """The candidate's largest off-diagonal deviation from the identity
        at one horizon: phase-average-limited, it decays like ``1/(horizon *
        gap)``.  It is exact when each weight's scale is its sector's
        spacing, as for the weights a config builds (module docstring)."""

        def entries(log_factor, theta):
            return np.exp(log_factor) * np.abs(cesaro_phase_average(theta, gamma_horizon))

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
        return worst


def resolution_assembly(family: CoherentFamily, weights) -> ResolutionAssembly:
    """Check the weights' moments to order ``dim - 1`` and gather the
    horizon-independent factors of the candidate of ``family``.

    The phases are the family's own frequencies.  A delta family built
    without a regulator (``delta = 0``) does not resolve the identity: its
    ground-ground cross entry, two zeroth moments times the phase average at
    the frequency difference ``-2 delta``, is exactly 1 at every horizon.
    """
    half_orders = 0.5 * np.arange(2 * family.shape[1] - 1)
    log_half_moments = _log_moment_rows(weights, half_orders)
    log_products = np.array([factorials(s) for s in family.shifted])
    # moment k is half-moment 2k: the floats verify_moments(w, s, dim - 1) computes
    moment_errors = tuple(
        float(_moment_errors(hm[::2], lp).max()) for hm, lp in zip(log_half_moments, log_products)
    )
    return ResolutionAssembly(
        moment_errors=moment_errors,
        freqs=family.frequencies,
        log_half_moments=log_half_moments,
        log_products=log_products,
    )
