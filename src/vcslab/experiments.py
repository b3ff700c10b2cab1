"""Experiment runners: dispatch configs to the library, collect check records.

Each runner turns one :class:`~vcslab.config.ExperimentConfig` into a list of
:class:`~vcslab.reporting.CheckRecord` plus optional plot-ready tables
(delimited text).  Randomized checks draw from a generator seeded by the
config (overridable from the command line), so reports are reproducible.
"""

from __future__ import annotations

import datetime
import time

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .hilbert import (
    GridSpec,
    boson_ladder,
    BlockOperator,
    max_abs,
    quon_ladder,
    shifted_hamiltonian,
)
from .intertwine import (
    ALPHA_TOL,
    BETA_TOL,
    GAMMA_TOL,
    IntertwiningProblem,
    SpectralMap,
    construct_companion,
    example_problem,
    fit_power_law,
    grid_partner_comparison,
    h_tau_residual,
    power_series_equality_probe,
    projection_identity_check,
    quon_closed_forms,
)
from .moments import MomentWeight, cross_entry, resolution_assembly
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


def _bracket(name: str, anchor: str, value: float, low: float, high: float) -> list:
    """A floor check ``value >= low`` and a ``-ceiling`` check ``value <= high``."""
    return [
        CheckRecord(name, anchor, value, low, comparator=">="),
        CheckRecord(f"{name}-ceiling", anchor, value, high),
    ]


def _run_vcs_verify(config: ExperimentConfig, seed: int):
    tol = config.tolerances
    params = config.params
    family = params.built_family
    # a zero-ground spectrum is its own shift: the delta family's physical Hamiltonian
    hamiltonian = shifted_hamiltonian(config.spectra)

    # one draw per row: the intensities of every sector, then gamma
    rng = np.random.default_rng(seed)
    low = [0.0] * len(params.j_max) + [-params.gamma_max]
    high = [*params.j_max, params.gamma_max]
    draws = rng.uniform(low, high, size=(params.n_samples, len(high)))
    intensities, gammas = draws[:, :-1], draws[:, -1]

    def block_residuals(block):
        states = family.states(intensities[block], gammas[block])
        out = {
            "tail": states.tail_bound,
            "action": action_identity_residuals(states, hamiltonian),
            "eigenstate": eigenstate_residuals(states, family.lowering_weights(states.gammas)),
        }
        for t in params.times:
            out[f"stability[t={t:g}]"] = temporal_stability_residuals(states, t)
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
    checks = [
        CheckRecord("truncation-tail-bound", "state-normalization", worst["tail"], tol["tail"]),
        CheckRecord("action-identity-residual", "action-identity", worst["action"], tol["action"]),
        CheckRecord(
            "annihilation-eigenstate-residual",
            "annihilation-eigenstate",
            worst["eigenstate"],
            tol["eigenstate"],
        ),
    ]
    for t in params.times:
        key = f"stability[t={t:g}]"
        checks.append(
            CheckRecord(
                f"temporal-stability-residual[t={t:g}]",
                "temporal-stability",
                worst[key],
                tol["stability"],
            )
        )

    if witness is not None:
        mismatched = witness.built_family.lowering_weights([witness.gamma + witness.gamma_offset])
        checks.append(
            CheckRecord(
                "mismatched-phase-eigenstate-residual",
                "annihilation-eigenstate",
                float(eigenstate_residuals(witness_state, mismatched)[0]),
                tol["witness_min"],
                comparator=">=",
            )
        )
    return checks, {}


def _run_resolution(config: ExperimentConfig, seed: int):
    tol = config.tolerances
    params = config.params
    horizons = sorted(params.horizons)
    family = params.built_family
    # the config checked that each spectrum is equally spaced
    weights = [MomentWeight.gamma_family(s.values[1] - s.values[0]) for s in config.spectra]

    checks, tables = [], {}
    if params.family == "delta" and params.delta == 0.0:
        # regulator-failure demonstration: the ground-ground cross entry
        # survives the phase average and is horizon independent
        entry = cross_entry(family, weights, params.n_nodes, params.k_check)
        mags = {}
        probe_mags = {}
        for horizon in (horizons[0], horizons[-1]):
            mags[horizon] = entry.report(horizon).magnitude
            probe_mags[horizon] = entry.report(horizon, delta=params.delta_probe).magnitude
        checks.append(
            CheckRecord(
                "cross-entry-magnitude",
                "regulator-dichotomy",
                mags[horizons[-1]],
                tol["entry_floor"],
                comparator=">=",
            )
        )
        drift = abs(mags[horizons[-1]] - mags[horizons[0]]) / mags[horizons[0]]
        checks.append(
            CheckRecord("cross-entry-horizon-drift", "regulator-dichotomy", drift, tol["entry_drift"])
        )
        factor = probe_mags[horizons[0]] / probe_mags[horizons[-1]]
        checks += _bracket(
            "regulated-entry-decay-factor",
            "regulator-dichotomy",
            factor,
            tol["decay_factor_low"],
            tol["decay_factor_high"],
        )
        return checks, tables

    assembly = resolution_assembly(family, weights, params.n_nodes, params.k_check)
    reports = [assembly.report(horizon) for horizon in horizons]
    diag_errors = [r.diag_error for r in reports]
    offdiag_errors = [r.offdiag_error for r in reports]
    hermiticity_defects = [r.hermiticity_defect for r in reports]
    checks.append(
        CheckRecord(
            "moment-verification", "moment-weights", _worst(assembly.moment_errors), tol["moment"]
        )
    )
    checks.append(
        CheckRecord(
            "diagonal-residual", "resolution-of-identity", _worst(diag_errors), tol["diagonal"]
        )
    )
    checks.append(
        CheckRecord(
            "assembly-hermiticity",
            "resolution-of-identity",
            _worst(hermiticity_defects),
            tol["hermiticity"],
        )
    )
    if len(horizons) >= 2:
        exponent = -fit_power_law(horizons, offdiag_errors)
        checks += _bracket(
            "offdiagonal-decay-exponent",
            "resolution-of-identity",
            exponent,
            tol["decay_low"],
            tol["decay_high"],
        )
    lines = ["# horizon\tdiag_error\toffdiag_error"]
    for h, d, o in zip(horizons, diag_errors, offdiag_errors):
        lines.append(f"{h:.17g}\t{d:.17g}\t{o:.17g}")
    tables["residual-vs-horizon.tsv"] = "\n".join(lines) + "\n"
    return checks, tables


def _run_intertwine_example(config: ExperimentConfig, seed: int):
    tol = config.tolerances
    gammas = config.params.gammas
    seqs = config.spectra
    shifted = [shift(s) for s in seqs]

    problems = [example_problem(config.params.example, shifted, g) for g in gammas]
    results = [construct_companion(p) for p in problems]
    worst_alpha = _worst([r.certificate.alpha_residual for r in results])
    worst_beta = _worst([r.certificate.beta_residual for r in results])
    worst_gamma = _worst([r.certificate.gamma_residual for r in results])
    checks = [
        CheckRecord("hermiticity[alpha]", "companion-certificate", worst_alpha, tol["alpha"]),
        CheckRecord("weak-intertwining[beta]", "companion-certificate", worst_beta, tol["beta"]),
        CheckRecord("eigenvalue-transport[gamma]", "companion-certificate", worst_gamma, tol["gamma"]),
    ]
    h_scale = np.maximum(1.0, problems[0].h.max_abs())
    c_scale = np.maximum(1.0, results[0].companion.max_abs())
    drifts = [0.0]
    for problem, result in zip(problems[1:], results[1:]):
        drifts.append((problems[0].h - problem.h).max_abs() / h_scale)
        drifts.append((results[0].companion - result.companion).max_abs() / c_scale)
    drift = _worst(drifts)
    checks.append(
        CheckRecord("phase-independence", "companion-certificate", drift, tol["gamma_independence"])
    )
    h_tau_worst = _worst([h_tau_residual(seqs, g) for g in gammas])
    checks.append(
        CheckRecord(
            "shifted-hamiltonian-factorization", "ladder-factorization", h_tau_worst, tol["h_tau"]
        )
    )
    return checks, {}


def _ladder_problem(a: BlockOperator) -> IntertwiningProblem:
    """``h = a+ a`` and ``x = (a+)^2`` for the lowering operator ``a``."""
    ad = a.adjoint()
    return IntertwiningProblem(h=ad @ a, x=ad @ ad, ladder_degree=2)


def _run_nonisospectral(config: ExperimentConfig, seed: int):
    tol = config.tolerances["closed_form"]
    dim = config.dim
    checks = []
    if config.params.case == "boson":
        problem = _ladder_problem(boson_ladder(dim))
        # every operator here is diagonal: compare the window diagonals
        n_op = problem.h.blocks[0]
        sub = np.s_[: problem.keep]
        iso = construct_companion(problem)
        squared = construct_companion(problem, spectral_map=SpectralMap.polynomial([0, 0, 1]))
        exponential = construct_companion(problem, spectral_map=SpectralMap.exponential())
        closed_forms = [
            ("n1-closed-form", "ladder-closed-forms", iso.n1, n_op * n_op + 3 * n_op + 2),
            ("companion-closed-form", "ladder-closed-forms", iso.companion, n_op + 2),
            ("squared-map-closed-form", "spectrum-mapped-companion", squared.companion,
             (n_op + 2) * (n_op + 2)),
        ]
        for name, anchor, op, ref in closed_forms:
            checks.append(CheckRecord(name, anchor, max_abs((op.blocks[0] - ref)[sub]), tol))
        exp_ref = np.exp(np.arange(dim, dtype=float) + 2.0)
        rel = (np.abs(exponential.companion.blocks[0] - exp_ref) / np.maximum(1.0, exp_ref))[sub].max()
        checks.append(
            CheckRecord("exponential-map-closed-form", "spectrum-mapped-companion", float(rel), tol)
        )
        certs = [r.certificate for r in (iso, squared, exponential)]
        for name, values, tolerance in (
            ("alpha", [c.alpha_residual for c in certs], ALPHA_TOL),
            ("beta", [c.beta_residual for c in certs], BETA_TOL),
            ("gamma", [c.gamma_residual for c in certs], GAMMA_TOL),
        ):
            checks.append(
                CheckRecord(f"certificate-{name}", "companion-certificate", _worst(values), tolerance)
            )
    else:
        for q in config.params.q_values:
            report = quon_closed_forms(dim, q)
            checks.append(
                CheckRecord(
                    f"n1-closed-form[q={q:g}]", "ladder-closed-forms", report.n1_deviation, tol
                )
            )
            checks.append(
                CheckRecord(
                    f"companion-closed-form[q={q:g}]",
                    "ladder-closed-forms",
                    report.companion_deviation,
                    tol,
                )
            )
        limit = quon_closed_forms(dim, 1.0)
        checks.append(
            CheckRecord(
                "undeformed-limit-matches-plain-ladder",
                "ladder-closed-forms",
                _worst([limit.n1_deviation, limit.companion_deviation]),
                tol,
            )
        )
    return checks, {}


def _run_map_equality_probe(config: ExperimentConfig, seed: int):
    tol = config.tolerances
    dim = config.dim
    checks = []
    for case in config.params.cases:
        if case == "boson":
            problem = _ladder_problem(boson_ladder(dim))
            f = SpectralMap.polynomial([0, 0, 1])
            expected_deficiency = 2
        elif case == "quon":
            problem = _ladder_problem(quon_ladder(dim, config.params.q))
            f = SpectralMap.polynomial([0.5, 1.0, 0.25])
            expected_deficiency = 2
        else:
            a = boson_ladder(dim)
            n_op = a.adjoint() @ a
            problem = IntertwiningProblem(
                h=n_op, x=BlockOperator([1.0 + n_op.blocks[0]]), ladder_degree=0
            )
            f = SpectralMap.polynomial([0, 0, 1])
            expected_deficiency = 0

        probe = power_series_equality_probe(problem, f)
        checks.append(
            CheckRecord(
                f"map-equality-residual[{case}]",
                "power-series-equality",
                probe.max_residual,
                tol["probe"],
            )
        )
        projection = projection_identity_check(problem, l_max=config.params.l_max)
        checks.append(
            CheckRecord(
                f"projection-identity-residual[{case}]",
                "projection-identity",
                _worst(projection.order_residuals),
                tol["order"],
            )
        )
        checks.append(
            CheckRecord(
                f"projector-commutant-residual[{case}]",
                "projection-identity",
                projection.commutant_residual,
                tol["commutant"],
            )
        )
        deficiency_gap = max(
            abs(d - expected_deficiency) for d in projection.rank_deficiency
        )
        checks.append(
            CheckRecord(
                f"range-deficiency-matches[{case}]",
                "projection-identity",
                float(deficiency_gap),
                0.5,
            )
        )
    return checks, {}


def _run_susy_grid(config: ExperimentConfig, seed: int):
    tol = config.tolerances
    params = config.params
    lo, hi = params.domain
    f = None if params.map_coeffs is None else SpectralMap.polynomial(params.map_coeffs)

    def w(x):
        return np.polynomial.polynomial.polyval(x, params.w_coeffs)

    reports = [
        grid_partner_comparison(w, GridSpec(lo, hi, n), f, params.hbar, params.mass, params.n_modes)
        for n in params.sizes
    ]
    dxs = [r.dx for r in reports]
    checks = [
        CheckRecord(
            "commutator-residual-finest",
            "grid-discretization",
            reports[-1].commutator_residual,
            tol["commutator"],
        )
    ]
    for label, values in (
        ("commutator", [r.commutator_residual for r in reports]),
        ("partner-comparison", [r.comparison_residual for r in reports]),
    ):
        exponent = fit_power_law(dxs, values)
        checks += _bracket(
            f"{label}-scaling-exponent",
            "grid-discretization",
            exponent,
            tol["exponent_low"],
            tol["exponent_high"],
        )
    # n_modes: the probes a size used, fewer than asked when its grid holds
    # too few smooth modes; a fit over sizes with unequal counts mixes probe sets
    lines = ["# dx\tcommutator_residual\tcomparison_residual\tn_modes"]
    for r in reports:
        lines.append(f"{r.dx:.17g}\t{r.commutator_residual:.17g}\t{r.comparison_residual:.17g}\t{r.n_modes}")
    return checks, {"residual-vs-dx.tsv": "\n".join(lines) + "\n"}


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
    checks, tables = _RUNNERS[config.kind](config, effective_seed)
    report = VerificationReport(
        title=config.title,
        kind=config.kind,
        anchor=config.anchor,
        config=config.echo(),
        seed=effective_seed,
        library_version=__version__,
        checks=checks,
        wall_time_s=time.perf_counter() - start,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    return report, tables
