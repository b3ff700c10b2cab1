"""Experiment runners: dispatch configs to the library, collect check records.

Each runner turns one :class:`~vcslab.config.ExperimentConfig` into its
measured ``(name, value)`` pairs, in report order, plus optional plot-ready
tables (delimited text).  :func:`_records` judges each value as the row of
its kind's ``CHECKS`` table says.  Randomized checks draw from a generator
seeded by the config (overridable from the command line), so reports are
reproducible.
"""

from __future__ import annotations

import datetime
import time

import numpy as np
from numpy.polynomial import Polynomial

from . import __version__
from .config import KINDS, ExperimentConfig, check_labels
from .hilbert import GridSpec, BlockOperator, lowering_operator, lowering_steps, max_abs, shifted_hamiltonian
from .intertwine import (
    IntertwiningProblem,
    certify,
    construct_companion,
    example_from_lowering,
    fit_power_law,
    grid_partner_comparison,
    h_tau_from_lowering,
    ladder_closed_forms,
    ladder_problem,
    power_series_equality_probe,
)
from .moments import MomentWeight, resolution_assembly
from .reporting import CheckRecord, VerificationReport
from .spectra import shift
from .vcs import action_identity_residuals, eigenstate_residuals, temporal_stability_residuals

__all__ = ["run_experiment"]

#: coefficients per block of vcs-verify draws: the arrays of one block stay
#: small heap allocations, and memory does not grow with ``n_samples``
_VCS_BLOCK = 4096


def _worst(values) -> float:
    """Largest value; unlike Python's ``max``, a NaN anywhere makes it NaN."""
    return float(np.max(values))


def _records(config: ExperimentConfig, values) -> list:
    """A :class:`CheckRecord` per measured ``(name, value)``, in that order,
    judged as the kind's ``CHECKS`` row of its base name (the part before
    any ``[...]``) says: a tolerance is a key of the config's tolerances or
    a fixed number, and a ``within`` row's is a pair of those."""

    def resolved(tolerance):
        return config.tolerances[tolerance] if isinstance(tolerance, str) else tolerance

    records = []
    for name, value in values:
        anchor, tolerance, comparator = KINDS[config.kind].CHECKS[name.split("[")[0]]
        tolerance = tuple(map(resolved, tolerance)) if comparator == "within" else resolved(tolerance)
        records.append(CheckRecord(name, anchor, float(value), tolerance, comparator))
    return records


def _run_vcs_verify(config: ExperimentConfig, seed: int):
    params = config.params
    family = config.family
    # a zero-ground spectrum is its own shift: the delta family's physical Hamiltonian
    hamiltonian = shifted_hamiltonian(config.spectra)

    # one draw per row: the intensities of every sector, then gamma
    rng = np.random.default_rng(seed)
    low = [0.0] * len(params.j_max) + [-params.gamma_max]
    high = [*params.j_max, params.gamma_max]
    draws = rng.uniform(low, high, size=(params.n_samples, len(high)))
    intensities, gammas = draws[:, :-1], draws[:, -1]
    labels = check_labels(params, "times")
    # the evolution phases depend on the time alone, and the lowering
    # weights' roots and gaps on no label: formed once for every block
    phases = [family.evolution_phases(t) for t in params.times]
    steps = lowering_steps(family.shifted)

    def block_residuals(block):
        states = family.states(intensities[block], gammas[block])
        out = {
            "tail": states.tail_bound,
            "action": action_identity_residuals(states, hamiltonian),
            "eigenstate": eigenstate_residuals(states, family.lowering_weights(states.gammas, steps)),
        }
        for t, label, p in zip(params.times, labels, phases):
            out[label] = temporal_stability_residuals(states, t, phases=p)
        return out

    per_block = max(1, _VCS_BLOCK // family.space.total_dim)
    blocks = [
        block_residuals(slice(start, start + per_block))
        for start in range(0, params.n_samples, per_block)
    ]
    worst = {key: _worst(np.concatenate([b[key] for b in blocks])) for key in blocks[0]}
    witness = params.witness
    if witness is not None:
        # the witness is a built state too: its tail bound joins the samples'
        witness_state = witness.built_family.states([witness.j], [witness.gamma])
        worst["tail"] = _worst([worst["tail"], *witness_state.tail_bound])
    values = [
        ("truncation-tail-bound", worst["tail"]),
        ("action-identity-residual", worst["action"]),
        ("annihilation-eigenstate-residual", worst["eigenstate"]),
        *((f"temporal-stability-residual[{label}]", worst[label]) for label in labels),
    ]
    if witness is not None:
        mismatched = witness.built_family.lowering_weights([witness.gamma + witness.gamma_offset])
        residual = eigenstate_residuals(witness_state, mismatched)[0]
        values.append(("mismatched-phase-eigenstate-residual", residual))
    return values, {}


def _run_resolution(config: ExperimentConfig, seed: int):
    horizons = sorted(config.params.horizons)
    # the config checked that each spectrum is equally spaced
    weights = [MomentWeight.gamma_family(s.values[1] - s.values[0]) for s in config.spectra]
    assembly = resolution_assembly(config.family, weights)
    offdiag_errors = [assembly.offdiag_error(horizon) for horizon in horizons]
    values = [
        ("moment-verification", _worst(assembly.moment_errors)),
        # 0.0 minus, not unary minus: a zero slope reports as 0.0, not -0.0
        ("offdiagonal-decay-exponent", 0.0 - fit_power_law(horizons, offdiag_errors)),
    ]
    lines = ["# horizon\toffdiag_error"]
    for h, e in zip(horizons, offdiag_errors):
        lines.append(f"{h:.17g}\t{e:.17g}")
    return values, {"residual-vs-horizon.tsv": "\n".join(lines) + "\n"}


def _run_intertwine_example(config: ExperimentConfig, seed: int):
    gammas = config.params.gammas
    seqs = config.spectra

    # every gamma is a member of one problem, its sectors member-major; the
    # problem and the factorization residual read one lowering operator
    b = lowering_operator([shift(s) for s in seqs], gammas)
    problem = example_from_lowering(config.params.example, b)
    companion = construct_companion(problem)
    cert = certify(problem, companion)
    drifts = []
    for op in (problem.h, companion):
        members = op.blocks.reshape(len(gammas), len(seqs), -1)
        drifts.append(max_abs(members[1:] - members[0]) / np.maximum(1.0, max_abs(members[0])))
    return [
        ("hermiticity[alpha]", cert.alpha_residual),
        ("weak-intertwining[beta]", cert.beta_residual),
        ("eigenvalue-transport[gamma]", cert.gamma_residual),
        ("phase-independence", _worst(drifts)),
        ("shifted-hamiltonian-factorization", h_tau_from_lowering(seqs, b)),
    ], {}


def _run_nonisospectral(config: ExperimentConfig, seed: int):
    dim = config.dim
    values = []
    if config.params.case == "boson":
        problem = ladder_problem(dim)
        # every operator here is diagonal: compare the window diagonals
        n_op = problem.h.blocks[0]
        sub = np.s_[: problem.keep]
        maps = (None, Polynomial([0, 0, 1]), np.exp)
        iso, squared, exponential = companions = [construct_companion(problem, f) for f in maps]
        deviations = ladder_closed_forms(problem, iso, 1.0)
        values += zip(("n1-closed-form", "companion-closed-form"), deviations)
        squared_ref = (n_op + 2) * (n_op + 2)
        values.append(("squared-map-closed-form", max_abs((squared.blocks[0] - squared_ref)[sub])))
        exp_ref = np.exp(np.arange(dim, dtype=float) + 2.0)
        rel = (np.abs(exponential.blocks[0] - exp_ref) / np.maximum(1.0, exp_ref))[sub].max()
        values.append(("exponential-map-closed-form", rel))
        certs = [certify(problem, c, f) for c, f in zip(companions, maps)]
        values += [
            ("certificate-beta", _worst([c.beta_residual for c in certs])),
            ("certificate-gamma", _worst([c.gamma_residual for c in certs])),
        ]
    else:
        # one sector per q, the undeformed limit q = 1 last
        q_values = (*config.params.q_values, 1.0)
        problem = ladder_problem(dim, q_values)
        n1, companion = ladder_closed_forms(problem, construct_companion(problem), q_values)
        for label, n1_dev, companion_dev in zip(check_labels(config.params, "q_values"), n1, companion):
            values += [(f"n1-closed-form[{label}]", n1_dev), (f"companion-closed-form[{label}]", companion_dev)]
        values.append(("undeformed-limit-matches-plain-ladder", _worst([n1[-1], companion[-1]])))
    return values, {}


def _run_map_equality_probe(config: ExperimentConfig, seed: int):
    dim = config.dim
    values = []
    for case, label in zip(config.params.cases, check_labels(config.params, "cases")):
        if case == "boson":
            problem = ladder_problem(dim)
            f = Polynomial([0, 0, 1])
        elif case == "quon":
            problem = ladder_problem(dim, config.params.q)
            f = Polynomial([0.5, 1.0, 0.25])
        else:
            h = ladder_problem(dim).h  # a+ a on the plain ladder
            problem = IntertwiningProblem(h=h, x=BlockOperator([1.0 + h.blocks[0]]))
            f = Polynomial([0, 0, 1])
        values.append((f"map-equality-residual[{label}]", power_series_equality_probe(problem, f)))
    return values, {}


def _run_susy_grid(config: ExperimentConfig, seed: int):
    params = config.params
    w = Polynomial(params.w_coeffs)
    reports = [
        grid_partner_comparison(w, GridSpec(*params.domain, n), params.map_coeffs, n_modes=params.n_modes)
        for n in params.sizes
    ]
    dxs = [r.dx for r in reports]
    values = [
        ("commutator-residual-finest", reports[-1].commutator_residual),
        ("commutator-scaling-exponent", fit_power_law(dxs, [r.commutator_residual for r in reports])),
        ("partner-comparison-scaling-exponent", fit_power_law(dxs, [r.comparison_residual for r in reports])),
    ]
    lines = ["# dx\tcommutator_residual\tcomparison_residual"]
    for r in reports:
        lines.append(f"{r.dx:.17g}\t{r.commutator_residual:.17g}\t{r.comparison_residual:.17g}")
    return values, {"residual-vs-dx.tsv": "\n".join(lines) + "\n"}


_RUNNERS = {
    "vcs-verify": _run_vcs_verify,
    "resolution": _run_resolution,
    "intertwine-example": _run_intertwine_example,
    "nonisospectral": _run_nonisospectral,
    "map-equality-probe": _run_map_equality_probe,
    "susy-grid": _run_susy_grid,
}


def run_experiment(
    config: ExperimentConfig, seed: int | None = None, jobs: int = 1
) -> tuple:
    """Execute one experiment; returns (report, tables).

    ``tables`` maps file names to delimited-text contents for plotting.
    ``jobs`` is accepted and ignored, because ``perfbench/run.py`` passes
    ``jobs=1``: every kind runs in one thread.
    """
    effective_seed = config.seed if seed is None else int(seed)
    start = time.perf_counter()
    values, tables = _RUNNERS[config.kind](config, effective_seed)
    report = VerificationReport(
        title=config.title,
        kind=config.kind,
        anchor=config.anchor,
        config=config.echo(),
        seed=effective_seed,
        library_version=__version__,
        checks=_records(config, values),
        wall_time_s=time.perf_counter() - start,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    return report, tables
