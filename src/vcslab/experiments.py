"""Experiment runners: dispatch configs to the library, collect check records.

Each runner turns one :class:`~vcslab.config.ExperimentConfig` into a list of
:class:`~vcslab.reporting.CheckRecord` plus optional plot-ready tables
(delimited text).  Randomized checks draw from a generator seeded by the
config (overridable from the command line), so reports are reproducible.
"""

from __future__ import annotations

import datetime
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError
from .hilbert import (
    GridSpec,
    boson_ladder,
    BlockOperator,
    delta_lowering_operator,
    lowering_operator,
    max_abs,
    quon_ladder,
    shifted_hamiltonian,
    susy_hamiltonian,
)
from .intertwine import (
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
from .moments import MomentWeight, QuadratureSpec, delta_zero_failure, resolution_check
from .reporting import CheckRecord, VerificationReport
from .spectra import sequence_from_config, shift
from .vcs import (
    VcsParams,
    action_identity_residual,
    delta_family_state,
    eds_family_state,
    eigenstate_residual,
    temporal_stability_residual,
)

__all__ = ["run_experiment"]


def _worst(values) -> float:
    """Largest value; unlike Python's ``max``, a NaN anywhere makes it NaN."""
    return float(np.max(values))


def _sequences(config: ExperimentConfig):
    return [sequence_from_config(s, config.dim) for s in config.spectra]


def _auto_weight(seq) -> MomentWeight:
    """Closed-form weight for an equally spaced shifted spectrum."""
    diffs = np.diff(shift(seq).values)
    if not np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0):
        raise ConfigError(
            "closed-form moment weights exist only for equally spaced shifted "
            "spectra; supply a tabulated weight for anything else"
        )
    return MomentWeight.gamma_family(float(diffs[0]))


def _run_vcs_verify(config: ExperimentConfig, seed: int, jobs: int):
    tol = config.tolerances
    params = config.params
    family = params.get("family", "eds")
    n_samples = int(params.get("n_samples", 100))
    if n_samples < 1:
        raise ConfigError(f"params.n_samples must be >= 1, got {n_samples}")
    gamma_max = float(params.get("gamma_max", 3.0))
    times = [float(t) for t in params.get("times", [0.1, 1.0, 10.0])]
    delta = float(params.get("delta", 0.5))
    seqs = _sequences(config)
    j_max = [float(j) for j in params.get("j_max", [4.0] * len(seqs))]
    if len(j_max) != len(seqs):
        raise ConfigError(f"{len(seqs)} spectra but {len(j_max)} j_max entries")

    if family == "eds":
        hamiltonian = shifted_hamiltonian(seqs)
        shifted = [shift(s) for s in seqs]

        def lowering(gamma):
            return lowering_operator(shifted, gamma)

        def build(p):
            return eds_family_state(seqs, p)

    elif family == "delta":
        hamiltonian = susy_hamiltonian(seqs)

        def lowering(gamma):
            return delta_lowering_operator(seqs, gamma)

        def build(p):
            return delta_family_state(seqs, p)

    else:
        raise ConfigError(f"unknown family {family!r}")

    rng = np.random.default_rng(seed)
    draws = [
        VcsParams(
            tuple(rng.uniform(0.0, jm) for jm in j_max),
            rng.uniform(-gamma_max, gamma_max),
            delta if family == "delta" else 0.0,
        )
        for _ in range(n_samples)
    ]

    def one_sample(p):
        state = build(p)
        residuals = {
            "tail": state.tail_bound,
            "action": action_identity_residual(state, hamiltonian),
            "eigenstate": eigenstate_residual(state, lowering(p.gamma)),
        }
        for t in times:
            residuals[f"stability[t={t:g}]"] = temporal_stability_residual(state, t)
        return residuals

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one_sample, draws))
    else:
        results = [one_sample(p) for p in draws]

    worst = {key: _worst([r[key] for r in results]) for key in results[0]}
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
    for t in times:
        key = f"stability[t={t:g}]"
        checks.append(
            CheckRecord(
                f"temporal-stability-residual[t={t:g}]",
                "temporal-stability",
                worst[key],
                tol["stability"],
            )
        )

    witness = params.get("witness")
    if witness:
        w_dim = int(witness.get("dim", config.dim))
        w_seqs = [sequence_from_config(s, w_dim) for s in witness["spectra"]]
        w_params = VcsParams(
            tuple(float(j) for j in witness.get("j", [1.0] * len(w_seqs))),
            float(witness.get("gamma", 0.4)),
        )
        state = eds_family_state(w_seqs, w_params)
        mismatched = lowering_operator(
            [shift(s) for s in w_seqs],
            w_params.gamma + float(witness.get("gamma_offset", 1.0)),
        )
        checks.append(
            CheckRecord(
                "mismatched-phase-eigenstate-residual",
                "annihilation-eigenstate",
                eigenstate_residual(state, mismatched),
                tol["witness_min"],
                comparator=">=",
            )
        )
    return checks, {}


def _run_resolution(config: ExperimentConfig, seed: int, jobs: int):
    tol = config.tolerances
    params = config.params
    family = params.get("family", "eds")
    delta = float(params.get("delta", 0.0))
    horizons = sorted(float(h) for h in params.get("horizons", [1e2, 1e3, 1e4]))
    n_nodes = int(params.get("n_nodes", 40))
    k_check = params.get("k_check")
    seqs = _sequences(config)
    weights = [_auto_weight(s) for s in seqs]

    checks, tables = [], {}
    if family == "delta" and delta == 0.0:
        # regulator-failure demonstration: the ground-ground cross entry
        # survives the phase average and is horizon independent
        if len(horizons) < 2:
            raise ConfigError("the regulator-failure demo needs at least two horizons")
        mags = {}
        probe = float(params.get("delta_probe", 0.5))
        probe_mags = {}
        for horizon in (horizons[0], horizons[-1]):
            quad = QuadratureSpec(n_nodes=n_nodes, gamma_horizon=horizon, k_check=k_check)
            mags[horizon] = delta_zero_failure(seqs, weights, quad).magnitude
            probe_mags[horizon] = delta_zero_failure(seqs, weights, quad, delta=probe).magnitude
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
        checks.append(
            CheckRecord(
                "regulated-entry-decay-factor",
                "regulator-dichotomy",
                factor,
                tol["decay_factor_low"],
                comparator=">=",
            )
        )
        checks.append(
            CheckRecord(
                "regulated-entry-decay-factor-ceiling",
                "regulator-dichotomy",
                factor,
                tol["decay_factor_high"],
            )
        )
        return checks, tables

    diag_errors, offdiag_errors, moment_errors, hermiticity_defects = [], [], [], []
    for horizon in horizons:
        quad = QuadratureSpec(n_nodes=n_nodes, gamma_horizon=horizon, k_check=k_check)
        report = resolution_check(family, seqs, weights, quad, delta=delta)
        diag_errors.append(report.diag_error)
        offdiag_errors.append(report.offdiag_error)
        moment_errors.extend(report.moment_errors)
        hermiticity_defects.append(report.hermiticity_defect)
    checks.append(
        CheckRecord("moment-verification", "moment-weights", _worst(moment_errors), tol["moment"])
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
        checks.append(
            CheckRecord(
                "offdiagonal-decay-exponent",
                "resolution-of-identity",
                exponent,
                tol["decay_low"],
                comparator=">=",
            )
        )
        checks.append(
            CheckRecord(
                "offdiagonal-decay-exponent-ceiling",
                "resolution-of-identity",
                exponent,
                tol["decay_high"],
            )
        )
    lines = ["# horizon\tdiag_error\toffdiag_error"]
    for h, d, o in zip(horizons, diag_errors, offdiag_errors):
        lines.append(f"{h:.17g}\t{d:.17g}\t{o:.17g}")
    tables["residual-vs-horizon.tsv"] = "\n".join(lines) + "\n"
    return checks, tables


def _run_intertwine_example(config: ExperimentConfig, seed: int, jobs: int):
    tol = config.tolerances
    which = int(config.params.get("example", 1))
    gammas = [float(g) for g in config.params.get("gammas", [0.0, 0.7, 3.1])]
    seqs = _sequences(config)
    shifted = [shift(s) for s in seqs]

    problems = [example_problem(which, shifted, g) for g in gammas]
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


def _run_nonisospectral(config: ExperimentConfig, seed: int, jobs: int):
    tol = config.tolerances["closed_form"]
    case = config.params.get("case", "boson")
    dim = config.dim
    checks = []
    if case == "boson":
        problem = _ladder_problem(boson_ladder(dim))
        # every operator here is diagonal: compare the window diagonals
        n_op = problem.h.blocks[0]
        sub = np.s_[: problem.keep]
        iso = construct_companion(problem)
        squared = construct_companion(problem, spectral_map=SpectralMap.polynomial([0, 0, 1]))
        exp_companion = construct_companion(problem, spectral_map=SpectralMap.exponential()).companion
        closed_forms = [
            ("n1-closed-form", "ladder-closed-forms", iso.n1, n_op * n_op + 3 * n_op + 2),
            ("companion-closed-form", "ladder-closed-forms", iso.companion, n_op + 2),
            ("squared-map-closed-form", "spectrum-mapped-companion", squared.companion,
             (n_op + 2) * (n_op + 2)),
        ]
        for name, anchor, op, ref in closed_forms:
            checks.append(CheckRecord(name, anchor, max_abs((op.blocks[0] - ref)[sub]), tol))
        exp_ref = np.exp(np.arange(dim, dtype=float) + 2.0)
        rel = (np.abs(exp_companion.blocks[0] - exp_ref) / np.maximum(1.0, exp_ref))[sub].max()
        checks.append(
            CheckRecord("exponential-map-closed-form", "spectrum-mapped-companion", float(rel), tol)
        )
        gammas = [iso.certificate.gamma_residual, squared.certificate.gamma_residual]
        checks.append(CheckRecord("certificate-gamma", "companion-certificate", _worst(gammas), 1e-9))
    elif case == "quon":
        q_values = [float(q) for q in config.params.get("q_values", [0.3, 0.5, 0.9])]
        for q in q_values:
            report = quon_closed_forms(dim, q, tol=float("inf"))
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
        limit = quon_closed_forms(dim, 1.0, tol=float("inf"))
        checks.append(
            CheckRecord(
                "undeformed-limit-matches-plain-ladder",
                "ladder-closed-forms",
                _worst([limit.n1_deviation, limit.companion_deviation]),
                tol,
            )
        )
    else:
        raise ConfigError(f"unknown nonisospectral case {case!r}")
    return checks, {}


def _run_map_equality_probe(config: ExperimentConfig, seed: int, jobs: int):
    tol = config.tolerances
    dim = config.dim
    q = float(config.params.get("q", 0.5))
    l_max = int(config.params.get("l_max", 4))
    cases = config.params.get("cases", ["boson", "quon", "invertible"])
    checks = []
    for case in cases:
        if case == "boson":
            problem = _ladder_problem(boson_ladder(dim))
            f = SpectralMap.polynomial([0, 0, 1])
            expected_deficiency = 2
        elif case == "quon":
            problem = _ladder_problem(quon_ladder(dim, q))
            f = SpectralMap.polynomial([0.5, 1.0, 0.25])
            expected_deficiency = 2
        elif case == "invertible":
            a = boson_ladder(dim)
            n_op = a.adjoint() @ a
            problem = IntertwiningProblem(
                h=n_op, x=BlockOperator([1.0 + n_op.blocks[0]]), ladder_degree=0
            )
            f = SpectralMap.polynomial([0, 0, 1])
            expected_deficiency = 0
        else:
            raise ConfigError(f"unknown probe case {case!r}")

        probe = power_series_equality_probe(problem, f, seed=seed)
        checks.append(
            CheckRecord(
                f"map-equality-residual[{case}]",
                "power-series-equality",
                probe.max_residual,
                tol["probe"],
            )
        )
        projection = projection_identity_check(problem, l_max=l_max)
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


def _run_susy_grid(config: ExperimentConfig, seed: int, jobs: int):
    tol = config.tolerances
    params = config.params
    coeffs = [float(c) for c in params.get("w_coeffs", [0.0, 1.0])]
    lo, hi = (float(v) for v in params.get("domain", [-12.0, 12.0]))
    sizes = [int(n) for n in params.get("sizes", [256, 512, 1024])]
    if len(sizes) < 2:
        raise ConfigError("scaling studies need at least two grid sizes")
    n_modes = int(params.get("n_modes", 32))
    map_coeffs = params.get("map_coeffs")
    f = SpectralMap.polynomial(map_coeffs) if map_coeffs else None
    hbar = float(params.get("hbar", 1.0))
    mass = float(params.get("mass", 1.0))

    def w(x):
        return float(np.polynomial.polynomial.polyval(x, coeffs))

    reports = [
        grid_partner_comparison(
            w, GridSpec(lo, hi, n), f=f, hbar=hbar, mass=mass, n_modes=n_modes
        )
        for n in sizes
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
        checks.append(
            CheckRecord(
                f"{label}-scaling-exponent",
                "grid-discretization",
                exponent,
                tol["exponent_low"],
                comparator=">=",
            )
        )
        checks.append(
            CheckRecord(
                f"{label}-scaling-exponent-ceiling",
                "grid-discretization",
                exponent,
                tol["exponent_high"],
            )
        )
    lines = ["# dx\tcommutator_residual\tcomparison_residual"]
    for r in reports:
        lines.append(f"{r.dx:.17g}\t{r.commutator_residual:.17g}\t{r.comparison_residual:.17g}")
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
    """
    effective_seed = config.seed if seed is None else int(seed)
    start = time.perf_counter()
    checks, tables = _RUNNERS[config.kind](config, effective_seed, max(1, int(jobs)))
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
