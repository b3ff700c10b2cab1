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
:func:`resolution_check` and :func:`delta_zero_failure` do both for one
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import (
    ConfigError,
    NonPositiveDeltaError,
    UnverifiableWeightError,
)
from .spectra import SpectralSequence, factorials, require_disjoint, shift

__all__ = [
    "MomentWeight",
    "QuadratureSpec",
    "ResolutionReport",
    "ResolutionAssembly",
    "CrossEntryReport",
    "CrossEntry",
    "verify_moments",
    "resolution_assembly",
    "resolution_check",
    "cross_entry",
    "delta_zero_failure",
    "cesaro_phase_average",
]


@dataclass(frozen=True)
class MomentWeight:
    """A nonnegative weight on [0, R) whose moments are factorial products.

    Two kinds: the closed-form exponential family ``rho(u) = exp(-u/omega)/omega``
    (matching equally spaced shifted spectra ``e~[n] = omega*n``), and a
    user-tabulated sample table with trapezoid integration.
    """

    kind: str
    omega: float = 1.0
    u: np.ndarray | None = None
    rho: np.ndarray | None = None

    @classmethod
    def gamma_family(cls, omega: float = 1.0) -> "MomentWeight":
        if not omega > 0:
            raise ConfigError(f"weight scale must be positive, got {omega}")
        return cls(kind="gamma", omega=float(omega))

    @classmethod
    def tabulated(cls, u, rho) -> "MomentWeight":
        u = np.asarray(u, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if u.ndim != 1 or u.shape != rho.shape or len(u) < 16:
            raise UnverifiableWeightError("need matching 1-d sample arrays, >= 16 points")
        if not np.all(np.diff(u) > 0):
            raise UnverifiableWeightError("sample abscissas must be strictly increasing")
        if rho.min() < 0:
            raise UnverifiableWeightError(f"weight must be nonnegative, min {rho.min():.3e}")
        u.setflags(write=False)
        rho.setflags(write=False)
        return cls(kind="tabulated", u=u, rho=rho)

    def quadrature(self, rule: tuple):
        """Nodes and weights such that ``sum w_k f(x_k) ~ int rho(u) f(u) du``.

        ``rule`` is the Gauss-Laguerre rule ``laggauss(n_nodes)`` of the
        weight ``exp(-x)``, so one rule serves every weight of a run.  The
        exponential family maps it onto itself (nodes scaled by omega), exact
        for polynomial f up to degree ``2 n_nodes - 1``.  Tabulated weights
        use their own samples with trapezoid weights instead.
        """
        if self.kind == "gamma":
            x, w = rule
            return self.omega * x, w
        du = np.diff(self.u)
        w = np.zeros_like(self.u)
        w[:-1] += 0.5 * du
        w[1:] += 0.5 * du
        return self.u, w * self.rho

    def analytic_moment(self, order: float) -> float | None:
        """Closed-form moment when available (exponential family only)."""
        if self.kind == "gamma":
            return self.omega**order * math.gamma(order + 1.0)
        return None


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature sizes for the resolution check.

    ``n_nodes`` J-nodes per sector; phase average over ``[-gamma_horizon,
    gamma_horizon]`` with uniform step ``gamma_step`` (``None`` picks
    ``pi / (8 * fastest phase frequency)``); moments are trusted up to order
    ``k_check`` (``None`` means the full truncation).
    """

    n_nodes: int = 40
    gamma_horizon: float = 1e4
    gamma_step: float | None = None
    k_check: int | None = None


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


def _tabulated_coverage_ok(weight: MomentWeight, order: int, moment: float) -> bool:
    # the integrand must have decayed: the last panel's contribution is noise
    u, rho = weight.u, weight.rho
    last_panel = 0.5 * (u[-1] - u[-2]) * (
        rho[-1] * u[-1] ** order + rho[-2] * u[-2] ** order
    )
    return moment > 0 and last_panel <= 1e-9 * moment


def verify_moments(weight: MomentWeight, seq, k_max: int, n_nodes: int | None = None):
    """Relative errors of the weight's moments against the factorial products.

    ``seq`` may be a spectral sequence (shifted internally) or an already
    shifted one.  Returns ``errors[k] = |moment_k - e~[k]!| / e~[k]!`` for
    k = 0..k_max, evaluated with the matched quadrature rule.  A factorial
    product or a moment that overflows the float range raises
    ``UnverifiableWeightError``; for a moment, it names the order.
    """
    if n_nodes is None:
        n_nodes = max(40, math.ceil(k_max / 2 + 1))
    return _moment_errors(weight, seq, k_max, weight.quadrature(laggauss(n_nodes)))


def _moment_errors(weight: MomentWeight, seq, k_max: int, quadrature) -> np.ndarray:
    """:func:`verify_moments` with the weight's nodes and weights given."""
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
    if weight.kind == "tabulated":
        for k in range(k_max + 1):
            if not _tabulated_coverage_ok(weight, k, moments[k]):
                raise UnverifiableWeightError(
                    f"tabulated weight has not decayed within its support at order {k}; "
                    "extend the sample range"
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
            f"{np.abs(thetas).max():.3e}; decrease gamma_step"
        )
    small = np.abs(x) < 1e-8
    xcot = np.where(small, 1.0 - x * x / 3.0, x / np.tan(np.where(small, 1.0, x)))
    return np.sinc(thetas * horizon / np.pi) * xcot


@dataclass(frozen=True)
class ResolutionReport:
    """Deviation of the assembled identity candidate from the identity.

    The diagonal error is quadrature-limited (horizon independent); the
    off-diagonal error is phase-average-limited and decays like
    ``1/(horizon * gap)``.  Window errors restrict to levels whose moments
    were checked; full-space values are logged alongside.  ``moment_errors``
    holds each sector's worst relative moment error, for the caller to judge.
    """

    family: str
    gamma_horizon: float
    gamma_step: float
    n_samples: int
    n_nodes: int
    k_check: int
    diag_error: float
    offdiag_error: float
    full_diag_error: float
    full_offdiag_error: float
    hermiticity_defect: float
    cesaro_coefficient: float
    moment_errors: tuple
    matrix: np.ndarray = field(repr=False, default=None)


def _phase_frequencies(family: str, seqs, delta: float) -> np.ndarray:
    if family == "eds":
        signs = [-1.0] * len(seqs)
    elif family == "delta":
        signs = [-1.0, +1.0]
    else:
        raise ConfigError(f"unknown family {family!r}")
    return np.concatenate([sg * (s.values + delta) for sg, s in zip(signs, seqs)])


def _phase_step(freqs, gamma_horizon: float, gamma_step: float | None) -> tuple:
    """``gamma_step`` (default ``pi / (8 * fastest frequency)``) and its panel count."""
    fastest = max(float(np.abs(freqs).max()), 1e-9)
    step = gamma_step if gamma_step is not None else np.pi / (8.0 * fastest)
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

    family: str
    n_nodes: int
    k_check: int
    moment_errors: tuple
    window: np.ndarray = field(repr=False)
    freqs: np.ndarray = field(repr=False)
    phase_free: np.ndarray = field(repr=False)

    def report(
        self, gamma_horizon: float, gamma_step: float | None = None, keep_matrix: bool = False
    ) -> ResolutionReport:
        """Multiply in the phase average over ``[-gamma_horizon, gamma_horizon]``
        and report the candidate's deviations from the identity."""
        theta = self.freqs[:, None] - self.freqs[None, :]
        step, m = _phase_step(self.freqs, gamma_horizon, gamma_step)
        candidate = self.phase_free * cesaro_phase_average(theta, gamma_horizon, step)
        full = candidate - np.eye(candidate.shape[0])
        sub = full[np.ix_(self.window, self.window)]

        def split(dev):
            diag = float(np.abs(np.diag(dev)).max())
            off = dev - np.diag(np.diag(dev))
            return diag, float(np.abs(off).max())

        diag_err, offdiag_err = split(sub)
        full_diag, full_offdiag = split(full)
        return ResolutionReport(
            family=self.family,
            gamma_horizon=gamma_horizon,
            gamma_step=2.0 * gamma_horizon / m,
            n_samples=m + 1,
            n_nodes=self.n_nodes,
            k_check=self.k_check,
            diag_error=diag_err,
            offdiag_error=offdiag_err,
            full_diag_error=full_diag,
            full_offdiag_error=full_offdiag,
            hermiticity_defect=float(np.abs(candidate - candidate.T.conj()).max()),
            cesaro_coefficient=offdiag_err * gamma_horizon,
            moment_errors=self.moment_errors,
            matrix=candidate if keep_matrix else None,
        )


def resolution_assembly(
    family: str, seqs, weights, n_nodes: int = 40, k_check: int | None = None, delta: float = 0.0
) -> ResolutionAssembly:
    """Check the weights' moments to order ``k_check`` and assemble the
    candidate up to its phase average, from one ``n_nodes``-point rule.

    ``family`` is ``"eds"`` (shift family; spectra must be pairwise disjoint,
    delta ignored) or ``"delta"`` (two zero-ground spectra with ``delta > 0``;
    a nonpositive delta raises and should be routed to
    :func:`delta_zero_failure` instead, which demonstrates the breakdown).
    """
    dim = seqs[0].dim
    if family == "eds":
        for a in range(len(seqs)):
            for b in range(a + 1, len(seqs)):
                require_disjoint(seqs[a], seqs[b])
    elif family == "delta":
        if len(seqs) != 2:
            raise ConfigError("the delta family is two-sector")
        if delta <= 0:
            raise NonPositiveDeltaError(
                f"delta = {delta} <= 0 breaks the resolution; "
                "use delta_zero_failure to demonstrate the failing entry"
            )
    else:
        raise ConfigError(f"unknown family {family!r}")

    k_check = _resolved_k_check(n_nodes, k_check, dim)
    quadratures = _run_quadratures(weights, n_nodes)
    moment_errors = tuple(
        float(_moment_errors(w, s, k_check, q).max())
        for w, s, q in zip(weights, seqs, quadratures)
    )
    # the levels whose moments were checked, in every sector
    window = np.tile(np.arange(dim) <= k_check, len(seqs))
    return ResolutionAssembly(
        family=family,
        n_nodes=n_nodes,
        k_check=k_check,
        moment_errors=moment_errors,
        window=window,
        freqs=_phase_frequencies(family, seqs, delta),
        phase_free=_phase_free_candidate(seqs, quadratures),
    )


def resolution_check(
    family: str,
    seqs,
    weights,
    quad: QuadratureSpec = QuadratureSpec(),
    delta: float = 0.0,
    keep_matrix: bool = False,
) -> ResolutionReport:
    """Assemble the identity candidate at one horizon and report its
    deviations: :func:`resolution_assembly`, then its ``report``."""
    assembly = resolution_assembly(family, seqs, weights, quad.n_nodes, quad.k_check, delta)
    return assembly.report(quad.gamma_horizon, quad.gamma_step, keep_matrix)


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
    """The ground-ground cross entry ``[0, dim]`` of the delta-family
    assembly before its phase average, built once per run by
    :func:`cross_entry`: the product ``j_integral`` of the two zeroth weight
    moments.  The rest of the candidate is never formed."""

    seqs: tuple
    j_integral: float

    def report(
        self, gamma_horizon: float, delta: float = 0.0, gamma_step: float | None = None
    ) -> CrossEntryReport:
        """The entry at regulator ``delta``: ``j_integral`` times the phase
        average at ``theta = -2 delta`` on the assembly's step."""
        freqs = _phase_frequencies("delta", self.seqs, delta)
        step, _ = _phase_step(freqs, gamma_horizon, gamma_step)
        dim = self.seqs[0].dim
        cesaro = float(cesaro_phase_average(freqs[0] - freqs[dim], gamma_horizon, step))
        return CrossEntryReport(
            magnitude=abs(self.j_integral * cesaro),
            j_integral=self.j_integral,
            cesaro_factor=cesaro,
            delta=delta,
            gamma_horizon=gamma_horizon,
        )


def cross_entry(seqs, weights, n_nodes: int = 40, k_check: int | None = None) -> CrossEntry:
    """The delta-family cross entry of two zero-ground spectra, from one
    ``n_nodes``-point rule (held to the node floor the full assembly needs)."""
    if len(seqs) != 2:
        raise ConfigError("the delta family is two-sector")
    for j, s in enumerate(seqs):
        if s.ground != 0.0:
            raise ConfigError(f"sector {j} must start at zero, ground {s.ground}")
    _resolved_k_check(n_nodes, k_check, seqs[0].dim)
    zeros = [float(wq.sum()) for _, wq in _run_quadratures(weights, n_nodes)]
    return CrossEntry(tuple(seqs), zeros[0] * zeros[1])


def delta_zero_failure(
    seqs, weights, quad: QuadratureSpec = QuadratureSpec(), delta: float = 0.0
) -> CrossEntryReport:
    """The ground-ground cross entry of the delta-family assembly at the given
    regulator (default zero), with its factorization: :func:`cross_entry`,
    then its ``report`` at one horizon."""
    entry = cross_entry(seqs, weights, quad.n_nodes, quad.k_check)
    return entry.report(quad.gamma_horizon, delta, quad.gamma_step)
