"""Acceptance suite: every numbered criterion as one test with a verdict line.

Each test exercises its criterion at the stated sizes and tolerances and
registers a pass/fail line printed in the terminal summary.
"""

import math
import time

import numpy as np
from numpy.polynomial import Polynomial
from conftest import record_criterion

from vcslab import hilbert, intertwine, moments, spectra, vcs
from vcslab.hilbert import BlockOperator, max_abs
from vcslab.intertwine import IntertwiningProblem


def test_criterion_1_boson_closed_forms():
    start = time.perf_counter()
    dim, tol = 60, 1e-11
    problem = intertwine.ladder_problem(dim)
    # every operator here is diagonal: compare the window diagonals
    n_op = problem.h.blocks[0]
    sub = np.s_[: problem.keep]

    iso = intertwine.construct_companion(problem)
    n1_dev = max_abs((problem.n1.blocks[0] - (n_op * n_op + 3 * n_op + 2))[sub])
    companion_dev = max_abs((iso.blocks[0] - (n_op + 2))[sub])

    squared = intertwine.construct_companion(problem, Polynomial([0, 0, 1]))
    sq_ref = (n_op + 2) * (n_op + 2)
    sq_dev = max_abs((squared.blocks[0] - sq_ref)[sub])

    exponential = intertwine.construct_companion(problem, np.exp)
    exp_ref = np.exp(np.arange(dim, dtype=float) + 2.0)
    exp_dev = float(
        (
            np.abs(exponential.blocks[0] - exp_ref)[sub]
            / np.maximum(1.0, np.abs(exp_ref)[sub])
        ).max()
    )
    elapsed = time.perf_counter() - start

    worst = float(np.max([n1_dev, companion_dev, sq_dev, exp_dev]))
    ok = worst <= tol and elapsed < 1.0
    record_criterion(1, "plain-ladder closed forms", ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert n1_dev <= tol
    assert companion_dev <= tol
    assert sq_dev <= tol
    assert exp_dev <= tol
    assert elapsed < 1.0


def test_criterion_2_quon_closed_forms():
    dim, tol = 60, 1e-11

    def closed_forms(q):
        problem = intertwine.ladder_problem(dim, q)
        return intertwine.ladder_closed_forms(problem, intertwine.construct_companion(problem), q)

    deviations = []
    for q in (0.3, 0.5, 0.9):
        deviations += closed_forms(q)

    # q = 1 limit: the deformed ladder coincides with the plain one and the
    # closed forms reduce to those of criterion 1
    a_limit = hilbert.quon_ladder(dim, 1.0).matrix
    a_plain = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # the Fock ladder a|n> = sqrt(n)|n-1>
    ladder_gap = max_abs(a_limit - a_plain)
    deviations += [ladder_gap, *closed_forms(1.0)]
    worst = float(np.max(deviations))

    ok = worst <= tol
    record_criterion(2, "deformed-ladder closed forms", ok, f"worst {worst:.2e}")
    assert worst <= tol


def test_criterion_3_example_certificates():
    dim = 80
    gammas = (0.0, 0.7, 3.1)
    seqs = [
        spectra.shift(spectra.linear_sequence(dim, w)) for w in (1.0, math.sqrt(2.0))
    ]
    alpha_res, beta_res, gamma_res, drifts = [], [], [], []
    for which in (1, 2, 3, 4):
        problems = [intertwine.example_problem(which, seqs, g) for g in gammas]
        companions = [intertwine.construct_companion(p) for p in problems]
        certs = [intertwine.certify(p, c) for p, c in zip(problems, companions)]
        alpha_res += [c.alpha_residual for c in certs]
        beta_res += [c.beta_residual for c in certs]
        gamma_res += [c.gamma_residual for c in certs]
        h_scale = np.max([1.0, problems[0].h.max_abs()])
        c_scale = np.max([1.0, companions[0].max_abs()])
        for problem, companion in zip(problems[1:], companions[1:]):
            drifts.append((problems[0].h - problem.h).max_abs() / h_scale)
            drifts.append((companions[0] - companion).max_abs() / c_scale)
    worst_alpha, worst_beta, worst_gamma, drift = (
        float(np.max(v)) for v in (alpha_res, beta_res, gamma_res, drifts)
    )
    ok = worst_alpha <= 1e-10 and worst_beta <= 1e-10 and worst_gamma <= 1e-9 and drift <= 1e-12
    record_criterion(
        3,
        "companion certificates, examples 1-4",
        ok,
        f"alpha {worst_alpha:.1e} beta {worst_beta:.1e} gamma {worst_gamma:.1e} drift {drift:.1e}",
    )
    assert worst_alpha <= 1e-10
    assert worst_beta <= 1e-10
    assert worst_gamma <= 1e-9
    assert drift <= 1e-12


def test_criterion_4_coherent_state_property_suite():
    start = time.perf_counter()
    dim = 60
    seqs = [
        spectra.linear_sequence(dim, 1.0, offset=0.3),
        spectra.linear_sequence(dim, math.sqrt(2.0), offset=0.55),
    ]
    family = vcs.coherent_family("eds", seqs)
    h_tau = hilbert.shifted_hamiltonian(seqs)
    rng = np.random.default_rng(0)
    times = (0.1, 1.0, 10.0)

    draws = [(rng.uniform(0.0, 4.0, size=2), rng.uniform(-3.0, 3.0)) for _ in range(100)]
    states = family.states([j for j, _ in draws], [g for _, g in draws])
    samples = {
        "tail": states.tail_bound,
        "action": vcs.action_identity_residuals(states, h_tau),
        "eigen": vcs.eigenstate_residuals(states, hilbert.lowering_weights(family.shifted, states.gammas)),
        "stability": [vcs.temporal_stability_residuals(states, t) for t in times],
    }
    worst = {key: float(np.max(values)) for key, values in samples.items()}

    # nonlinear-spectrum witness: mismatched phase is NOT an eigenstate
    w_seqs = [
        spectra.quon_sequence(50, 0.5, offset=0.3),
        spectra.quon_sequence(50, 0.7, offset=0.55),
    ]
    w_family = vcs.coherent_family("eds", w_seqs)
    w_state = w_family.states([[1.0, 1.0]], [0.4])
    witness = vcs.eigenstate_residuals(w_state, hilbert.lowering_weights(w_family.shifted, [1.4]))[0]
    elapsed = time.perf_counter() - start

    ok = (
        worst["tail"] <= 1e-10
        and worst["action"] <= 1e-9
        and worst["stability"] <= 1e-9
        and worst["eigen"] <= 1e-9
        and witness >= 1e-2
        and elapsed < 30.0
    )
    record_criterion(
        4,
        "coherent-state property suite",
        ok,
        f"action {worst['action']:.1e} stability {worst['stability']:.1e} "
        f"eigen {worst['eigen']:.1e} witness {witness:.2e}, {elapsed:.1f}s",
    )
    assert worst["tail"] <= 1e-10
    assert worst["action"] <= 1e-9
    assert worst["stability"] <= 1e-9
    assert worst["eigen"] <= 1e-9
    assert witness >= 1e-2
    assert elapsed < 30.0


def test_criterion_5_resolution_of_identity():
    start = time.perf_counter()
    dim = 30
    seqs = [
        spectra.linear_sequence(dim, 1.0, offset=0.3),
        spectra.linear_sequence(dim, math.sqrt(2.0), offset=math.sqrt(2.0) / 2.0),
    ]
    weights = [
        moments.MomentWeight.gamma_family(1.0),
        moments.MomentWeight.gamma_family(math.sqrt(2.0)),
    ]
    horizons = (1e2, 1e3, 1e4)
    assembly = moments.resolution_assembly(vcs.coherent_family("eds", seqs), weights)
    reports = [assembly.report(horizon) for horizon in horizons]
    offdiag_errors = [r.offdiag_error for r in reports]
    exponent = -intertwine.fit_power_law(horizons, offdiag_errors)
    worst_diag = assembly.diag_error
    elapsed = time.perf_counter() - start

    ok = worst_diag <= 1e-7 and 0.8 <= exponent <= 1.2 and elapsed < 300.0
    record_criterion(
        5,
        "resolution of the identity",
        ok,
        f"diag {worst_diag:.1e} decay exponent {exponent:.3f}, {elapsed:.1f}s",
    )
    assert worst_diag <= 1e-7
    assert 0.8 <= exponent <= 1.2
    assert elapsed < 300.0


def test_criterion_6_regulator_dichotomy():
    dim = 16
    seqs = [spectra.linear_sequence(dim), spectra.linear_sequence(dim)]
    weights = [moments.MomentWeight.gamma_family(1.0)] * 2
    horizons = (1e2, 1e4)
    # the worst off-diagonal error of the candidate: at zero regulator the
    # ground-ground cross entry, its two zeroth moments (1) times a phase
    # average at frequency difference 0, stays exactly 1
    errors = {}
    for delta in (None, 0.5):
        assembly = moments.resolution_assembly(vcs.coherent_family("delta", seqs, delta), weights)
        errors[delta] = {horizon: assembly.report(horizon).offdiag_error for horizon in horizons}
    frozen = errors[None]
    factor = errors[0.5][1e2] / errors[0.5][1e4]

    ok = frozen == {1e2: 1.0, 1e4: 1.0} and 50.0 <= factor <= 200.0
    record_criterion(
        6,
        "regulator dichotomy",
        ok,
        f"zero-regulator off-diagonal {frozen[1e2]!r} / {frozen[1e4]!r} decay factor {factor:.1f}",
    )
    assert frozen == {1e2: 1.0, 1e4: 1.0}
    assert 50.0 <= factor <= 200.0


def test_criterion_7_map_equality_probes():
    dim = 60
    a_b = hilbert.quon_ladder(dim, 1.0)
    n_op = a_b.adjoint() @ a_b
    probes = {
        "boson": intertwine.power_series_equality_probe(
            intertwine.ladder_problem(dim), Polynomial([0, 0, 1])
        ),
        "quon": intertwine.power_series_equality_probe(
            intertwine.ladder_problem(dim, 0.5), Polynomial([0.5, 1.0, 0.25])
        ),
        "invertible": intertwine.power_series_equality_probe(
            IntertwiningProblem(h=n_op, x=BlockOperator([1.0 + n_op.blocks[0]])),
            Polynomial([0, 0, 1]),
        ),
    }
    worst_probe = float(np.max(list(probes.values())))
    record_criterion(7, "power-series map equality probes", worst_probe <= 1e-10, f"probe {worst_probe:.1e}")
    assert worst_probe <= 1e-10


def test_criterion_8_grid_discretization_scaling():
    start = time.perf_counter()
    reports = [
        intertwine.grid_partner_comparison(
            lambda x: x, hilbert.GridSpec(-12.0, 12.0, n), n_modes=32
        )
        for n in (256, 512, 1024)
    ]
    dxs = [r.dx for r in reports]
    comm_exp = intertwine.fit_power_law(dxs, [r.commutator_residual for r in reports])
    comp_exp = intertwine.fit_power_law(dxs, [r.comparison_residual for r in reports])
    elapsed = time.perf_counter() - start

    ok = 1.7 <= comm_exp <= 2.3 and 1.7 <= comp_exp <= 2.3 and elapsed < 60.0
    record_criterion(
        8,
        "grid ladder second-order scaling",
        ok,
        f"commutator {comm_exp:.3f} comparison {comp_exp:.3f}, {elapsed:.1f}s",
    )
    assert 1.7 <= comm_exp <= 2.3
    assert 1.7 <= comp_exp <= 2.3
    assert elapsed < 60.0


def test_criterion_9_shifted_hamiltonian_factorization():
    tol = 1e-14
    gammas = (0.0, 0.7, 3.1)
    batteries = [
        [
            spectra.linear_sequence(16, 1.0, offset=0.3),
            spectra.linear_sequence(16, math.sqrt(2.0), offset=0.55),
        ],
        [
            spectra.linear_sequence(20, 1.0, offset=0.3),
            spectra.linear_sequence(20, math.sqrt(2.0), offset=0.55),
        ],
        [
            spectra.quon_sequence(40, 0.5, offset=0.3),
            spectra.quon_sequence(40, 0.9, offset=0.55),
        ],
        [
            spectra.quon_sequence(50, 0.5, offset=0.3),
            spectra.quon_sequence(50, 0.7, offset=0.55),
        ],
    ]
    worst = float(
        np.max([intertwine.h_tau_residual(seqs, g) for seqs in batteries for g in gammas])
    )
    ok = worst <= tol
    record_criterion(9, "ground-shift factorization", ok, f"worst {worst:.2e}")
    assert worst <= tol
