"""Vector coherent states on the truncated sector space.

Two families are built here.  The *delta family* lives in the zero-ground
regime and needs a strictly positive regulator ``delta``; its two sectors
carry opposite phase signs.  The *shift family* (built on spectra with
positive, pairwise disjoint eigenvalues) needs no regulator, uses shifted
factorial weights, and carries the same phase sign in every sector.  The
residual checks quantify normalization, the action identity, temporal
stability and the annihilation-eigenstate relation on the truncated space.

A family (:class:`CoherentFamily`, from :func:`coherent_family`, which
checks each family's conditions on its spectra) holds what does not depend
on the labels: the checked spectra, their shifts and the phase convention,
which nothing else writes: its ``frequencies``, ``evolution_phases`` and
``lowering_weights`` give every phase, the last from the phase-free
``steps`` it forms once.  It builds the states of ``S`` label draws as one
:class:`CoherentStates`, with ``S x N x D`` coefficients, and each
``*_residuals`` function returns one value per state in one array
pass; one state is the case ``S = 1``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    LengthMismatchError,
    NonPositiveDeltaError,
    OutOfDiscError,
    RegimeError,
    SpectraNotDisjointError,
    TailTooLargeError,
)
from .hilbert import (
    WINDOW_BUFFER, BlockOperator, SectorSpace, lowering_steps, lowering_weights, weighted_shift, window_levels
)
from .spectra import ShiftedSequence, eds_check, shift

__all__ = [
    "CoherentFamily",
    "CoherentStates",
    "series_norm",
    "coherent_family",
    "action_identity_residuals",
    "temporal_stability_residuals",
    "eigenstate_residuals",
]

#: eigenstate residuals exclude this many top levels: the ladder's degree plus the buffer
EIGENSTATE_EXCLUDE_TOP = 1 + WINDOW_BUFFER


@dataclass(frozen=True, eq=False)
class CoherentFamily:
    """The label-independent half of a family: checked spectra, their shifts,
    the phase sign of each sector and the regulator (zero for the shift
    family).  Built once by :func:`coherent_family`; the states of any number
    of labels are then built in one array pass by :meth:`states`."""

    seqs: tuple
    shifted: tuple
    phase_signs: tuple
    delta: float = 0.0

    @property
    def shape(self) -> tuple:
        """``(N, D)``: sectors and levels per sector."""
        return len(self.seqs), self.seqs[0].dim

    @property
    def space(self) -> SectorSpace:
        return SectorSpace(*self.shape)

    @functools.cached_property
    def frequencies(self) -> np.ndarray:
        """``N x D``: ``sign_j (e_j[n] + delta)``, from the unshifted eigenvalues.

        Level ``n`` of sector ``j`` carries the phase ``exp(i f gamma)`` in
        the member at ``gamma``, so the family's own evolution by ``t`` is
        the phase ``exp(i f t)`` per level.
        """
        f = np.array([sign * (s.values + self.delta) for sign, s in zip(self.phase_signs, self.seqs)])
        f.setflags(write=False)
        return f

    @functools.cached_property
    def steps(self) -> tuple:
        """``hilbert.lowering_steps(self.shifted)``, the factors of every
        member's lowering operator that no phase enters, formed once."""
        return lowering_steps(self.shifted)

    def lowering_weights(self, gammas) -> np.ndarray:
        """``(S, N, D-1)``: the sector blocks (offset ``-1``) of the lowering
        operator of the member at each phase in ``gammas``, which that member
        is an eigenstate of.  Block ``j`` takes level ``n`` to ``n - 1`` with
        weight ``sqrt(e~[n]) exp(-i sign_j (e~[n] - e~[n-1]) gamma)``."""
        return lowering_weights(self.steps, -np.multiply.outer(gammas, self.phase_signs))

    def evolution_phases(self, t: float, evolution: str = "family") -> np.ndarray:
        """``N x D``: the phase of each level under evolution by ``t``.

        ``evolution="family"`` is the family's own invariance operator, the
        phase ``exp(i f t)`` of :attr:`frequencies`: the physical ``exp(-i H
        t)`` for the shift family, the ad-hoc split-sign operator for the
        delta family.  ``evolution="physical"`` is ``exp(-i H t)`` in both
        cases, ``exp(-i e[n] t)`` per level.
        """
        if evolution == "family":
            return np.exp(1j * self.frequencies * t)
        if evolution == "physical":
            return np.exp(-1j * np.stack([s.values for s in self.seqs]) * t)
        raise RegimeError(f"unknown evolution {evolution!r}")

    def coefficients(self, amplitudes, gammas, norm_const) -> np.ndarray:
        """``(S, N, D)`` coefficients of the members with ``amplitudes``
        ``sqrt(J^n / e~[n]!)`` (``S x N x D``, as :class:`CoherentStates`
        keeps them) at the phases ``gammas``, divided by ``sqrt(norm_const)``.

        Real arithmetic throughout: the cosine and sine of :attr:`frequencies`
        times gamma fill the real and imaginary parts, each multiplied by the
        amplitudes, then by ``1 / sqrt(norm_const)``.  These are the floats of
        ``amplitudes * exp(1j f gamma) / sqrt(norm_const)`` in complex
        arithmetic, which divides by a real number through its reciprocal.
        """
        angles = self.frequencies * gammas[:, None, None]
        scale = (1.0 / np.sqrt(norm_const))[:, None, None]
        out = np.empty(angles.shape, dtype=complex)
        for part, trig in ((out.real, np.cos), (out.imag, np.sin)):
            trig(angles, out=part)
            part *= amplitudes
            part *= scale
        return out

    def states(self, intensities, gammas) -> "CoherentStates":
        """The members with labels ``intensities`` (``S x N``) and ``gammas`` (``S``).

        Raises ``OutOfDiscError`` or ``TailTooLargeError`` (see
        :func:`series_norm`) when any state's series cannot be controlled.
        """
        intensities = np.asarray(intensities, dtype=float)
        gammas = np.asarray(gammas, dtype=float)
        if intensities.shape != (len(gammas), len(self.seqs)):
            raise RegimeError(
                f"{len(gammas)} phases and {len(self.seqs)} sectors, "
                f"but intensities of shape {intensities.shape}"
            )
        terms = np.empty((len(gammas), *self.shape))
        norms = [series_norm(sh, intensities[:, n], out=terms[:, n]) for n, sh in enumerate(self.shifted)]
        values = np.stack([value for value, _ in norms], axis=1)
        norm_const = values.sum(axis=1)
        amplitudes = np.sqrt(terms, out=terms)
        return CoherentStates(
            family=self,
            intensities=intensities,
            gammas=gammas,
            amplitudes=amplitudes,
            coefficients=self.coefficients(amplitudes, gammas, norm_const),
            norm_const=norm_const,
            series_values=values,
            tail_bound=np.sum([tail for _, tail in norms], axis=0) / norm_const,
        )


@dataclass(frozen=True, eq=False)
class CoherentStates:
    """``S`` states of one family, one per row of every array.

    ``coefficients`` is ``S x N x D``, and so are ``amplitudes``, their
    moduli before normalization, ``sqrt(J^n / e~[n]!)``: they depend on the
    intensities alone, so the members at the same intensities and any other
    gamma are built from them.  ``norm_const`` is the sum of the per-sector
    coefficient series ``series_values`` (``S x N``, partial sums to the
    truncation); ``tail_bound`` bounds the squared coefficient mass lost to
    truncation, so each stored state has unit norm up to it.
    """

    family: CoherentFamily
    intensities: np.ndarray
    gammas: np.ndarray
    amplitudes: np.ndarray
    coefficients: np.ndarray
    norm_const: np.ndarray
    series_values: np.ndarray
    tail_bound: np.ndarray


def _series_terms(shifted: ShiftedSequence, j_value, out=None) -> np.ndarray:
    """Terms J^k / (shifted factorial) along a new last axis, computed by
    stable ratio recursion; ``j_value`` may be an array of intensities.
    ``out``, when given, receives them."""
    j = np.asarray(j_value, dtype=float)[..., None]
    if out is None:
        out = np.empty(j.shape[:-1] + (shifted.dim,))
    out[..., 0] = 1.0
    np.cumprod(j / shifted.values[1:], axis=-1, out=out[..., 1:])
    return out


def series_norm(shifted: ShiftedSequence, j_value, out=None):
    """Partial sum of ``sum_k J^k / e~[k]!`` with an explicit tail bound.

    ``j_value`` is one intensity or an array of them; the value and the
    bound have its shape.  ``out``, when given, receives the series terms
    along a new last axis (:meth:`CoherentFamily.states` keeps their square
    roots as the amplitudes).  The tail is bounded geometrically through the
    last term ratio ``r = J / e~[D-1]`` (valid because the shifted values
    increase); the bound is returned, not judged.  Raises ``OutOfDiscError``
    when an intensity is negative or NaN, and ``TailTooLargeError`` when
    ``r >= 1`` (an infinite one included), where no geometric bound exists;
    both before any term is formed.  That guard alone decides convergence
    on the truncated space: the series converges for ``J`` below the radius
    ``lim e~[n]``, which is at least ``e~[D-1]`` since the shifted values
    increase, so every ``J`` it accepts lies inside the disc.
    """
    j = np.asarray(j_value, dtype=float)
    if not np.all(j >= 0):
        raise OutOfDiscError(f"intensity must be nonnegative, got {j[~(j >= 0)].flat[0]}")
    ratio = j / shifted.values[-1]
    if np.any(ratio >= 1.0):
        raise TailTooLargeError(
            f"no geometric tail control: J={j[ratio >= 1.0].flat[0]} >= top shifted level "
            f"{shifted.values[-1]:.6g}; a larger truncation helps only below the radius lim e~[n]"
        )
    terms = _series_terms(shifted, j, out)
    return terms.sum(axis=-1), terms[..., -1] * ratio / (1.0 - ratio)


def coherent_family(
    family: str, seqs, delta: float | None = None, where: str = "seqs", delta_key: str = "delta"
) -> CoherentFamily:
    """The family ``family`` (``"eds"`` or ``"delta"``) on the spectra ``seqs``,
    built once they are checked to suit it.

    The delta-regularized family takes two spectra with ground level exactly
    zero and a regulator ``delta > 0``; with ``delta=None`` the regulator is
    zero and not checked, the case where the family fails to resolve the
    identity (:func:`~vcslab.moments.resolution_assembly`).  Its sectors
    carry opposite phase signs::

        c[n,0] = J1^(n/2) exp(-i (e1[n]+delta) gamma) / sqrt(e1[n]! * N)
        c[n,1] = J2^(n/2) exp(+i (e2[n]+delta) gamma) / sqrt(e2[n]! * N)

    with ``N`` the sum of the two coefficient series.  The shift family
    ignores ``delta``, and every sector carries the same phase sign::

        c[n,j] = Jj^(n/2) exp(-i ej[n] gamma) / sqrt(e~j[n]! * N~)

    It takes one spectrum (the classic one-Hamiltonian coherent state), or
    several with strictly positive ground levels that are pairwise disjoint
    (one O(D log D) scan per pair).  All spectra share one truncation.  Messages name spectrum ``j`` as
    ``{where}[j]`` and the regulator as ``delta_key``, so a config can name
    its own keys.
    """
    if family == "delta":
        if len(seqs) != 2:
            raise RegimeError(f"{where}: the delta family is two-sector, got {len(seqs)}")
        if delta is not None and not delta > 0:
            raise NonPositiveDeltaError(f"{delta_key}: the delta family needs delta > 0, got {delta}")
        for j, s in enumerate(seqs):
            if s.ground != 0.0:
                raise RegimeError(
                    f"{where}[{j}] ground level {s.ground} != 0; "
                    "delta-family spectra must start at zero"
                )
        signs = (-1.0, +1.0)  # opposite phase signs
    elif family == "eds":
        if not seqs:
            raise RegimeError(f"{where}: need at least one sector")
        if len(seqs) > 1:
            for j, s in enumerate(seqs):
                if not s.ground > 0:
                    raise RegimeError(
                        f"{where}[{j}] ground level {s.ground} must be positive "
                        "in the multi-sector shift regime"
                    )
            for a, b in itertools.combinations(range(len(seqs)), 2):
                report = eds_check(seqs[a], seqs[b])
                if not report.disjoint:
                    raise SpectraNotDisjointError(
                        f"{where}[{a}] and {where}[{b}] collide at levels {report.pair} "
                        f"with gap {report.min_gap:.3e} <= {report.tol:.1e}"
                    )
        signs, delta = (-1.0,) * len(seqs), None  # one phase sign
    else:
        raise RegimeError(f"unknown family {family!r}")
    dims = {s.dim for s in seqs}
    if len(dims) != 1:
        raise LengthMismatchError(f"{where}: sector truncations differ: {sorted(dims)}")
    return CoherentFamily(tuple(seqs), tuple(shift(s) for s in seqs), signs, delta or 0.0)


def _real_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re <a_s, b_s>`` for each state ``s`` of two ``S x N x K`` arrays, with no temporaries."""
    return np.einsum("snk,snk->s", a.real, b.real) + np.einsum("snk,snk->s", a.imag, b.imag)


def action_identity_residuals(states: CoherentStates, hamiltonian: BlockOperator) -> np.ndarray:
    """Per state ``|<psi, H psi> - closed form|`` for the energy expectation identity.

    Pass the ground-shifted Hamiltonian (a zero-ground spectrum is its own
    shift, so the delta family's is its physical one); the closed form
    is ``sum_j Jj Mj / sum_j Mj`` with the per-sector series values stored
    with the states.
    """
    if hamiltonian.space != states.family.space:
        raise DimensionMismatchError("states and Hamiltonian live on different spaces")
    c = states.coefficients
    h_c = weighted_shift(hamiltonian.blocks, hamiltonian.offset, c)
    lhs = _real_inner(c, h_c)
    rhs = (states.intensities * states.series_values).sum(axis=1) / states.norm_const
    return np.abs(lhs - rhs)


def temporal_stability_residuals(
    states: CoherentStates, t: float, evolution: str = "family", phases=None
) -> np.ndarray:
    """Per state, the norm distance between the evolved state and its family
    member at ``gamma + t``.

    Both sides are coefficient arrays: the evolution multiplies each level by
    one phase, the same for every state (see
    :meth:`CoherentFamily.evolution_phases` for the two ``evolution``
    operators), and the members at ``gamma + t`` are assembled from the
    family and the amplitudes and norm constants of ``states``, which were
    checked and computed when ``states`` were built; only the phases depend
    on gamma.  For the delta family, ``evolution="physical"`` documents that
    the physical evolution does NOT preserve the family.  ``phases``, when
    given, are ``states.family.evolution_phases(t, evolution)``, formed once
    by a caller that evolves many blocks of states by the same ``t``.
    """
    family = states.family
    if phases is None:
        phases = family.evolution_phases(t, evolution)
    diff = phases * states.coefficients
    diff -= family.coefficients(states.amplitudes, states.gammas + t, states.norm_const)
    return np.sqrt(_real_inner(diff, diff))


def eigenstate_residuals(states: CoherentStates, lowering: np.ndarray) -> np.ndarray:
    """Per state, the windowed norm of ``A psi - sqrt(J) psi``.

    ``lowering`` holds the sector blocks of each state's lowering operator
    ``A`` at offset ``-1`` (as :meth:`CoherentFamily.lowering_weights` returns
    them, ``S x N x (D - 1)``), or of one operator for all states (a leading
    axis of one).  ``A`` must be built at the state's own gamma for
    the residual to vanish; a mismatched gamma is allowed input and simply
    produces a large residual.  The top levels are excluded because the
    truncated ladder cannot reproduce the coefficient recursion there.
    """
    space = states.family.space
    lowering = np.asarray(lowering)
    if lowering.shape[1:] != (space.sectors, space.dim - 1):
        raise DimensionMismatchError("states and operator live on different spaces")
    keep = window_levels(space, EIGENSTATE_EXCLUDE_TOP)
    c = states.coefficients
    diff = weighted_shift(lowering, -1, c)
    diff -= np.sqrt(states.intensities)[:, :, None] * c
    window = diff[:, :, :keep]
    return np.sqrt(_real_inner(window, window))
