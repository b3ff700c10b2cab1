"""Numerical laboratory for vector coherent states and companion Hamiltonians.

The library builds coherent-state families on truncated sector-decomposed
spaces from arbitrary discrete spectra, verifies their defining properties
(normalization, action identity, temporal stability, annihilation-eigenstate
relation, resolution of the identity), and constructs isospectral and
spectrum-mapped companion Hamiltonians via intertwining operators, with
numerical certificates for every claim.
"""

from . import errors
from .spectra import (
    SpectralSequence,
    ShiftedSequence,
    make_sequence,
    linear_sequence,
    quon_sequence,
    shift,
    factorials,
    eds_check,
)
from .hilbert import (
    SectorSpace,
    BlockOperator,
    GridLadder,
    GridSpec,
    lowering_operator,
    lowering_weights,
    quon_ladder,
    grid_ladder,
    shifted_hamiltonian,
)
from .vcs import (
    CoherentFamily,
    CoherentStates,
    series_norm,
    coherent_family,
    action_identity_residuals,
    temporal_stability_residuals,
    eigenstate_residuals,
)
from .moments import (
    MomentWeight,
    verify_moments,
    resolution_assembly,
    cesaro_phase_average,
)
from .intertwine import (
    IntertwiningProblem,
    construct_companion,
    certify,
    example_problem,
    h_tau_residual,
    power_series_equality_probe,
    ladder_problem,
    ladder_closed_forms,
    grid_partner_comparison,
    fit_power_law,
)

__version__ = "0.1.0"
