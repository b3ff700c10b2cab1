"""Vector coherent states on the truncated sector space.

Two families are built here.  The *delta family* lives in the zero-ground
regime and needs a strictly positive regulator ``delta``; its two sectors
carry opposite phase signs.  The *shift family* (built on spectra with
positive, pairwise disjoint eigenvalues) needs no regulator, uses shifted
factorial weights, and carries the same phase sign in every sector.  The
residual checks quantify normalization, the action identity, temporal
stability and the annihilation-eigenstate relation on the truncated space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    LengthMismatchError,
    OutOfDiscError,
    RegimeError,
    TailTooLargeError,
)
from .hilbert import WINDOW_BUFFER, BlockOperator, SectorSpace, SusyVector, window_levels
from .spectra import ShiftedSequence, radius_estimate, require_disjoint, shift

__all__ = [
    "VcsParams",
    "CoherentState",
    "series_norm",
    "delta_family_state",
    "eds_family_state",
    "action_identity_residual",
    "temporal_stability_residual",
    "eigenstate_residual",
]

#: eigenstate residuals exclude this many top levels: the ladder's degree plus the buffer
EIGENSTATE_EXCLUDE_TOP = 1 + WINDOW_BUFFER


@dataclass(frozen=True)
class VcsParams:
    """Coherent-state labels: per-sector intensities, common phase, regulator."""

    intensities: tuple
    gamma: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "intensities", tuple(float(j) for j in self.intensities))
        if any(j < 0 for j in self.intensities):
            raise OutOfDiscError(f"intensities must be nonnegative, got {self.intensities}")
        if self.delta < 0:
            raise RegimeError(f"delta must be nonnegative, got {self.delta}")


@dataclass(frozen=True)
class CoherentState:
    """A built coherent state with its normalization bookkeeping.

    ``norm_const`` is the sum of the per-sector coefficient series (partial
    sums to the truncation); ``tail_bound`` bounds the squared coefficient
    mass lost to truncation, so the stored vector has unit norm up to it.
    ``phase_signs`` holds the sign of each sector's phase ``exp(sign i e[n] gamma)``.
    """

    vector: SusyVector
    norm_const: float
    tail_bound: float
    regime: str
    params: VcsParams
    seqs: tuple
    series_values: tuple
    phase_signs: tuple

    @property
    def space(self) -> SectorSpace:
        return self.vector.space


def _series_terms(shifted: ShiftedSequence, j_value: float) -> np.ndarray:
    """Terms J^k / (shifted factorial), computed by stable ratio recursion."""
    if j_value == 0.0:
        out = np.zeros(shifted.dim)
        out[0] = 1.0
        return out
    return np.concatenate(([1.0], np.cumprod(j_value / shifted.values[1:])))


def series_norm(shifted: ShiftedSequence, j_value: float):
    """Partial sum of ``sum_k J^k / e~[k]!`` with an explicit tail bound.

    The tail is bounded geometrically through the last term ratio
    ``r = J / e~[D-1]`` (valid because the shifted values increase); the
    bound is returned, not judged.  Raises ``OutOfDiscError`` when J reaches
    the estimated convergence radius of a bounded-looking sequence, and
    ``TailTooLargeError`` when ``r >= 1``, where no geometric bound exists.
    """
    if j_value < 0:
        raise OutOfDiscError(f"intensity must be nonnegative, got {j_value}")
    terms = _series_terms(shifted, j_value)
    value = float(terms.sum())
    if j_value == 0.0:
        return value, 0.0
    guess = radius_estimate(shifted.as_sequence())
    if guess.flag == "bounded-suspect" and j_value >= guess.limit:
        raise OutOfDiscError(
            f"J={j_value} is outside the estimated convergence disc "
            f"(radius ~ {guess.limit:.6g})"
        )
    ratio = j_value / shifted.values[-1]
    if ratio >= 1.0:
        raise TailTooLargeError(
            f"no geometric tail control: J={j_value} >= top shifted level "
            f"{shifted.values[-1]:.6g}; increase the truncation"
        )
    return value, float(terms[-1] * ratio / (1.0 - ratio))


def _common_dim(seqs) -> int:
    dims = {s.dim for s in seqs}
    if len(dims) != 1:
        raise LengthMismatchError(f"sector truncations differ: {sorted(dims)}")
    return dims.pop()


def _coefficients(seqs, shifted, params, phase_signs, norm_const) -> np.ndarray:
    """Flat coefficient vector of the family member with labels ``params``.

    Phases always use the unshifted eigenvalues (plus the regulator for the
    delta family); amplitudes always use the shifted factorial terms.
    """
    blocks = [
        np.sqrt(_series_terms(sh, j_value))
        * np.exp(sign * 1j * (seq.values + params.delta) * params.gamma)
        for seq, sh, j_value, sign in zip(seqs, shifted, params.intensities, phase_signs)
    ]
    return np.concatenate(blocks) / np.sqrt(norm_const)


def _assemble(seqs, shifted, params, phase_signs, regime):
    """Shared state assembly for the two families: series norms, tail bound
    and coefficients."""
    space = SectorSpace(len(seqs), _common_dim(seqs))
    norms = [series_norm(sh, j) for sh, j in zip(shifted, params.intensities)]
    values, tails = zip(*norms)
    norm_const = float(sum(values))
    return CoherentState(
        vector=SusyVector(space, _coefficients(seqs, shifted, params, phase_signs, norm_const)),
        norm_const=norm_const,
        tail_bound=float(sum(tails)) / norm_const,
        regime=regime,
        params=params,
        seqs=tuple(seqs),
        series_values=tuple(values),
        phase_signs=tuple(phase_signs),
    )


def delta_family_state(seqs, params: VcsParams) -> CoherentState:
    """Coherent state of the delta-regularized two-sector family.

    Requires two spectra with ground level exactly zero and ``delta > 0``.
    Sector coefficients::

        c[n,0] = J1^(n/2) exp(-i (e1[n]+delta) gamma) / sqrt(e1[n]! * N)
        c[n,1] = J2^(n/2) exp(+i (e2[n]+delta) gamma) / sqrt(e2[n]! * N)

    with ``N`` the sum of the two coefficient series.  Note the opposite
    phase signs of the sectors.
    """
    if len(seqs) != 2:
        raise RegimeError(f"the delta family is two-sector, got {len(seqs)}")
    if len(params.intensities) != 2:
        raise RegimeError("need exactly two intensities")
    if params.delta <= 0:
        raise RegimeError(f"the delta family needs delta > 0, got {params.delta}")
    for j, s in enumerate(seqs):
        if s.ground != 0.0:
            raise RegimeError(
                f"sector {j} ground level {s.ground} != 0; "
                "delta-family spectra must start at zero"
            )
    shifted = [shift(s) for s in seqs]
    return _assemble(seqs, shifted, params, (-1.0, +1.0), "delta-family")


def eds_family_state(seqs, params: VcsParams) -> CoherentState:
    """Coherent state of the shift-based family (no regulator).

    For two or more sectors the spectra must have strictly positive ground
    levels and be pairwise disjoint; a single sector reproduces the classic
    one-Hamiltonian coherent state and is exempt from both conditions.
    Every sector carries the same phase sign::

        c[n,j] = Jj^(n/2) exp(-i ej[n] gamma) / sqrt(e~j[n]! * N~)
    """
    if not seqs:
        raise RegimeError("need at least one sector")
    if len(params.intensities) != len(seqs):
        raise RegimeError(
            f"{len(seqs)} sectors but {len(params.intensities)} intensities"
        )
    if len(seqs) > 1:
        for j, s in enumerate(seqs):
            if not s.ground > 0:
                raise RegimeError(
                    f"sector {j} ground level {s.ground} must be positive "
                    "in the multi-sector shift regime"
                )
        for a in range(len(seqs)):
            for b in range(a + 1, len(seqs)):
                require_disjoint(seqs[a], seqs[b])
    shifted = [shift(s) for s in seqs]
    signs = (-1.0,) * len(seqs)
    params = VcsParams(params.intensities, params.gamma, 0.0)
    return _assemble(seqs, shifted, params, signs, "eds-family")


def action_identity_residual(state: CoherentState, hamiltonian: BlockOperator) -> float:
    """|<psi, H psi> - closed form| for the energy expectation identity.

    For the shift family pass the ground-shifted Hamiltonian; the closed form
    is ``sum_j Jj Mj / sum_j Mj`` with the per-sector series values stored in
    the state.
    """
    if hamiltonian.space != state.space:
        raise DimensionMismatchError("state and Hamiltonian live on different spaces")
    lhs = state.vector.inner(hamiltonian.apply(state.vector)).real
    j = np.asarray(state.params.intensities)
    m = np.asarray(state.series_values)
    rhs = float((j * m).sum() / state.norm_const)
    return abs(lhs - rhs)


def temporal_stability_residual(
    state: CoherentState, t: float, evolution: str = "family"
) -> float:
    """Norm distance between the evolved ``state`` and its family member at ``gamma + t``.

    Both sides are coefficient vectors: the evolution multiplies each level by
    one phase, and the state at ``gamma + t`` is assembled from the spectra,
    labels, phase signs and norm constant of ``state``, which were validated
    and computed when ``state`` was built; only the phases depend on gamma.
    ``evolution="family"`` uses each family's own invariance operator: the
    physical ``exp(-i H t)`` (a phase
    ``exp(-i e[n] t)`` per level) for the shift family, the ad-hoc
    split-sign operator for the delta family.  ``evolution="physical"``
    forces ``exp(-i H t)`` in both cases; for the delta family this
    documents that the physical evolution does NOT preserve the family.
    """
    p = state.params
    if state.regime == "delta-family" and evolution == "family":
        # first sector as exp(-i (h1 + delta) t), second as exp(+i (h2 + delta) t)
        h1, h2 = (s.values + p.delta for s in state.seqs)
        phases = np.concatenate((np.exp(-1j * h1 * t), np.exp(+1j * h2 * t)))
    elif evolution in ("family", "physical"):
        phases = np.exp(-1j * np.concatenate([s.values for s in state.seqs]) * t)
    else:
        raise RegimeError(f"unknown evolution {evolution!r}")
    moved = VcsParams(p.intensities, p.gamma + t, p.delta)
    shifted = [shift(s) for s in state.seqs]
    after = _coefficients(state.seqs, shifted, moved, state.phase_signs, state.norm_const)
    return float(np.linalg.norm(phases * state.vector.data - after))


def eigenstate_residual(state: CoherentState, lowering: BlockOperator) -> float:
    """Windowed norm of ``A psi - sqrt(J) psi``.

    The lowering operator must be built at the same gamma as the state for
    this to vanish; a mismatched gamma is allowed input and simply produces a
    large residual.  The top levels are excluded because the truncated ladder
    cannot reproduce the coefficient recursion there.
    """
    if lowering.space != state.space:
        raise DimensionMismatchError("state and operator live on different spaces")
    space = state.space
    keep = window_levels(space, EIGENSTATE_EXCLUDE_TOP)
    psi = state.vector.data.reshape(space.sectors, space.dim)
    lowered = lowering.apply(state.vector).data.reshape(space.sectors, space.dim)
    diff = lowered - np.sqrt(state.params.intensities)[:, None] * psi
    return float(np.linalg.norm(diff[:, :keep]))
