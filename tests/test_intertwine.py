import dataclasses
import math
import time
import tracemalloc
from importlib import resources

import numpy as np
from numpy.polynomial import Polynomial
import pytest
import yaml

from vcslab import config, errors, experiments, hilbert, intertwine, spectra
from vcslab.config import ALPHA_TOL, BETA_TOL, GAMMA_TOL
from vcslab.hilbert import BlockOperator, max_abs
from vcslab.intertwine import IntertwiningProblem


def within_tolerances(cert) -> bool:
    """Each certificate residual against the library tolerance for it; a NaN fails."""
    return (
        cert.alpha_residual <= ALPHA_TOL
        and cert.beta_residual <= BETA_TOL
        and cert.gamma_residual <= GAMMA_TOL
    )


def shifted_pair(dim=40, omegas=(1.0, math.sqrt(2.0))):
    return [spectra.shift(spectra.linear_sequence(dim, w)) for w in omegas]


def boson_problem(dim=60, power=2):
    a = hilbert.quon_ladder(dim, 1.0)
    ad = a.adjoint()
    x = ad
    for _ in range(power - 1):
        x = x @ ad
    return IntertwiningProblem(h=ad @ a, x=x)


def smoothness_rotated(h, evals, vecs):
    """Dense counterpart of the grid comparison's basis fix: eigenvalues whose
    gap is at most ``eps ||h||_inf / CLUSTER_ANGLE`` form one cluster, and each
    cluster is rotated to the eigenbasis of the smoothness form
    ``||E v||^2`` (``(E v)_i = v_i + v_{i+1}``), in ascending order.  Returns
    the rotated vectors and the form on each."""
    n = len(evals)
    e = np.eye(n - 1, n) + np.eye(n - 1, n, 1)
    form = e.T @ e
    tol = np.finfo(float).eps * np.abs(h).sum(axis=1).max() / intertwine.CLUSTER_ANGLE
    edges = [0] + [i + 1 for i in range(n - 1) if evals[i + 1] - evals[i] > tol] + [n]
    vecs = vecs.copy()
    smoothness = np.empty(n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = vecs[:, lo:hi]
        values, rot = np.linalg.eigh(block.T @ form @ block)
        vecs[:, lo:hi] = block @ rot
        smoothness[lo:hi] = values
    return vecs, smoothness


def dense_grid_comparison(w, grid, coeffs=None, n_modes=None):
    """Oracle for ``grid_partner_comparison``: the companion ``N1^+ a f(h) a+``
    and the target ``f(h + 2c W')`` formed as full ``n x n`` matrices, then
    read through the same low-pass-filtered smooth eigenvectors of ``h``,
    taken from a dense ``eigh`` in the smoothness basis of each cluster.
    ``f`` is the polynomial with ``coeffs``; ``None`` uses ``h`` and the
    target as they are.  Returns ``(n_modes, comparison_residual)``."""
    f = None if coeffs is None else (lambda v: np.polynomial.polynomial.polyval(v, coeffs))
    ladder = hilbert.grid_ladder(w, grid)
    a = ladder.matrix
    h = a.T @ a
    evals, vecs = np.linalg.eigh(h)
    rotated, smoothness = smoothness_rotated(h, evals, vecs)
    k_max = grid.points // 4 if n_modes is None else n_modes
    probes = []
    for k in np.flatnonzero(smoothness > 2.0)[:k_max]:
        phi = rotated[:, k]
        for _ in range(2):
            phi = 0.25 * (
                np.concatenate(([phi[0]], phi[:-1])) + 2.0 * phi + np.concatenate((phi[1:], [phi[-1]]))
            )
        probes.append(phi / np.linalg.norm(phi))
    mapped = h if f is None else (vecs * f(evals)) @ vecs.T
    n1_evals, n1_vecs = np.linalg.eigh(a @ a.T)
    live = n1_evals > intertwine.N1_CUTOFF
    n1_inv = (n1_vecs[:, live] / n1_evals[live]) @ n1_vecs[:, live].T
    companion = n1_inv @ (a @ (mapped @ a.T))
    target = h + 2.0 * ladder.c * np.diag(ladder.w_prime)
    if f is not None:
        t_evals, t_vecs = np.linalg.eigh(target)
        target = (t_vecs * f(t_evals)) @ t_vecs.T
    return len(probes), max(np.linalg.norm((companion - target) @ phi) for phi in probes)


def lower_bands(m, width):
    """Lower band storage of the symmetric ``m``: row ``k`` holds entries ``(j + k, j)``."""
    n = len(m)
    out = np.zeros((width + 1, n))
    for k in range(width + 1):
        out[k, : n - k] = np.diag(m, -k)
    return out


def assert_matches_dense(w, grid, coeffs, n_modes):
    """``coeffs=None``: the comparison at its default map, against the oracle unmapped."""
    mapped = {} if coeffs is None else {"coeffs": coeffs}
    report = intertwine.grid_partner_comparison(w, grid, n_modes=n_modes, **mapped)
    modes, residual = dense_grid_comparison(w, grid, coeffs, n_modes=n_modes)
    assert report.n_modes == modes
    assert report.comparison_residual == pytest.approx(residual, rel=1e-9)
    assert report.commutator_residual == pytest.approx(dense_commutator_residual(w, grid), rel=1e-9)


def dense_commutator_residual(w, grid):
    """Oracle for ``grid_ladder``'s diagnostic: ``a a+ - a+ a - 2c W'`` formed in full."""
    ladder = hilbert.grid_ladder(w, grid)
    a, c = ladder.matrix, ladder.c
    defect = a @ a.T - a.T @ a - 2.0 * c * np.diag(ladder.w_prime)
    return max(
        np.abs((defect @ phi)[3:-3]).max() / np.abs(phi).max()
        for phi in hilbert._gaussian_probes(grid).T
    )


def run_edges(shifts, starts) -> list:
    """The edges of the runs of equal shifts, none crossing a group boundary."""
    return sorted(set(starts) | {j for j in range(1, len(shifts)) if shifts[j] != shifts[j - 1]})


def reference_inverse_iteration(band, shifts, x, starts):
    """Oracle for ``_inverse_iteration``, written plainly: in each of two
    sweeps, every run of equal shifts inside a group ``starts[g]:starts[g + 1]``
    is solved as one block against ``B - shift``, factored afresh by
    ``solve_banded``, and each sweep is followed by ``np.linalg.qr`` of every
    group."""
    from scipy.linalg import solve_banded

    p = len(band) - 1
    ab = np.zeros((2 * p + 1, band.shape[1]))
    ab[p:] = band
    for k in range(1, p + 1):
        ab[p - k, k:] = band[k, :-k]
    diagonal = ab[p].copy()
    edges = run_edges(shifts, starts)
    x = x.copy()
    for _ in range(2):
        for lo, hi in zip(edges[:-1], edges[1:]):
            ab[p] = diagonal - shifts[lo]
            x[:, lo:hi] = solve_banded((p, p), ab, x[:, lo:hi], check_finite=False)
        for a, b in zip(starts[:-1], starts[1:]):
            x[:, a:b] = np.linalg.qr(x[:, a:b])[0]
    return x


def recorded_shifts(monkeypatch):
    """List that gains ``(band, shifts, starts)`` for each ``_inverse_iteration``
    call made in the test."""
    calls = []
    iterate = intertwine._inverse_iteration

    def recording(band, shifts, x, starts):
        calls.append((band, np.array(shifts), np.array(starts)))
        return iterate(band, shifts, x, starts)

    monkeypatch.setattr(intertwine, "_inverse_iteration", recording)
    return calls




def null_mode_n1(v):
    """Synthetic N1 with eigenvalue 0 along the unit vector ``v`` and 1 elsewhere."""
    return np.eye(len(v)) - np.outer(v, v)


class TestConstructCompanion:
    def test_example1_is_partner_pair(self):
        # h = B+B, x = B+ gives the companion B B+ with eigenvectors B phi_n
        seqs = shifted_pair()
        gamma = 0.7
        problem = intertwine.example_problem(1, seqs, gamma)
        companion = intertwine.construct_companion(problem)
        b = hilbert.lowering_operator(seqs, gamma)
        assert (companion - b @ b.adjoint()).max_abs(problem.keep) <= 1e-12
        cert = intertwine.certify(problem, companion)
        assert within_tolerances(cert)
        # ground-level images vanish, all higher levels survive
        assert set(cert.skipped_levels) == {(0, 0), (1, 0)}

    def test_example2_n1_diagonal(self):
        seqs = shifted_pair()
        problem = intertwine.example_problem(2, seqs, 1.3)
        cert = intertwine.certify(problem, intertwine.construct_companion(problem))
        keep = problem.keep
        for j, s in enumerate(seqs):
            block = problem.n1.blocks[j]
            expected = s.values[1 : keep + 1] * np.append(s.values[2 : keep + 1], 0)[: keep]
            got = block.real[:keep]
            want = np.array([s.values[n + 1] * s.values[n + 2] for n in range(keep)])
            np.testing.assert_allclose(got, want, rtol=1e-12)
        assert within_tolerances(cert)
        assert set(cert.skipped_levels) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_example3_images_vanish_below_three(self):
        seqs = shifted_pair()
        problem = intertwine.example_problem(3, seqs, 0.4)
        cert = intertwine.certify(problem, intertwine.construct_companion(problem))
        assert set(cert.skipped_levels) == {(j, n) for j in range(2) for n in range(3)}
        assert within_tolerances(cert)

    def test_example4_eigenvalues_and_closed_form(self):
        # h = (B+)^2 B^2 has eigenvalue e~[n] e~[n-1]; companion is B+ B^2 B+
        seqs = shifted_pair(omegas=(1.0, 1.0))
        gamma = 2.2
        problem = intertwine.example_problem(4, seqs, gamma)
        h_diag = problem.h.blocks[0].real
        n = np.arange(seqs[0].dim)
        np.testing.assert_allclose(h_diag, n * np.append(0, n[:-1]), atol=1e-12)
        assert h_diag[3] == pytest.approx(6.0)

        companion = intertwine.construct_companion(problem)
        b = hilbert.lowering_operator(seqs, gamma)
        expected = b.adjoint() @ b @ b @ b.adjoint()
        assert (companion - expected).max_abs(problem.keep) <= 1e-10
        assert within_tolerances(intertwine.certify(problem, companion))

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_gamma_independence(self, which):
        # h and the companion do not depend on gamma (relative to their scale)
        seqs = shifted_pair()
        problems = [intertwine.example_problem(which, seqs, g) for g in (0.0, 0.7, 3.1)]
        companions = [intertwine.construct_companion(p) for p in problems]
        h_scale = max(1.0, problems[0].h.max_abs())
        c_scale = max(1.0, companions[0].max_abs())
        for other_p, other_c in zip(problems[1:], companions[1:]):
            assert (problems[0].h - other_p.h).max_abs() / h_scale <= 1e-12
            assert (companions[0] - other_c).max_abs() / c_scale <= 1e-12

    def test_identity_intertwiner_returns_h(self):
        seqs = shifted_pair(20)
        b = hilbert.lowering_operator(seqs, 0.5)
        h = b.adjoint() @ b
        eye = BlockOperator([np.ones(h.space.dim)] * h.space.sectors)
        problem = IntertwiningProblem(h=h, x=eye)
        companion = intertwine.construct_companion(problem)
        assert (companion - h).max_abs() <= 1e-12
        assert within_tolerances(intertwine.certify(problem, companion))

    def test_unknown_example_rejected(self):
        # a library error (exit 1), not a config error: the config's Literal names the key
        with pytest.raises(errors.VcsLabError, match="^example number must be 1..4, got 5$") as info:
            intertwine.example_problem(5, shifted_pair(), 0.7)
        assert not isinstance(info.value, errors.ConfigError)

    def test_certificates_at_production_size(self):
        seqs = shifted_pair(80)
        for which in (1, 2, 3, 4):
            problem = intertwine.example_problem(which, seqs, 0.7)
            cert = intertwine.certify(problem, intertwine.construct_companion(problem))
            assert cert.alpha_residual <= 1e-10
            assert cert.beta_residual <= 1e-10
            assert cert.gamma_residual <= 1e-9

    def test_iteration_composes(self):
        # feeding the companion back in with the same x certifies again
        seqs = shifted_pair()
        gamma = 0.9
        problem = intertwine.example_problem(1, seqs, gamma)
        first = intertwine.construct_companion(problem)
        second_problem = IntertwiningProblem(h=first, x=problem.x)
        second = intertwine.construct_companion(second_problem)
        assert within_tolerances(intertwine.certify(second_problem, second))

    def test_iterated_companion_judged_by_level(self):
        # example 1's companion has its top level zeroed (a dropped N1 mode),
        # so its diagonal is not sorted; the certificate must still name
        # levels, and gamma must judge the window levels 0..keep-1
        problem = intertwine.example_problem(1, shifted_pair(), 0.7)
        h = intertwine.construct_companion(problem)
        assert h.blocks[0, -1] == 0.0
        second = IntertwiningProblem(h=h, x=problem.x)
        companion = intertwine.construct_companion(second)
        cert = intertwine.certify(second, companion)
        # x+ = B sends e_0 to zero in both sectors
        assert set(cert.skipped_levels) == {(0, 0), (1, 0)}
        assert within_tolerances(cert)
        # H x+ e_{keep-1} sits at level keep-2: a wrong entry there must show
        keep = second.keep
        blocks = companion.blocks.copy()
        blocks[:, keep - 2] += 1.0
        broken = intertwine.certify(second, BlockOperator(blocks))
        assert broken.gamma_residual > GAMMA_TOL

    def test_problems_compare_without_raising(self):
        problem = intertwine.example_problem(1, shifted_pair(), 0.7)
        other = intertwine.example_problem(1, shifted_pair(), 0.7)
        assert problem == problem
        assert (problem == other) is False

    def test_commutant_violation_rejected(self):
        # x x+ = diag(1 + n)^2 does not commute with the shift h; x x+ is
        # diagonal for every weighted shift x, so a non-diagonal h is the only
        # way to break [x x+, h] = 0, and it fails at construction
        dim = 20
        h = hilbert.quon_ladder(dim, 1.0).adjoint()
        x = BlockOperator([1.0 + np.arange(dim, dtype=float)])
        with pytest.raises(errors.HypothesisViolatedError, match="offset 1"):
            IntertwiningProblem(h=h, x=x)

    def test_shifted_h_rejected(self):
        # x = 1 commutes with anything, so only the diagonal requirement on h can fire
        dim = 20
        h = hilbert.quon_ladder(dim, 1.0).adjoint()
        with pytest.raises(errors.HypothesisViolatedError, match="offset 1"):
            IntertwiningProblem(h=h, x=BlockOperator([np.ones(dim)]))
        with pytest.raises(errors.HypothesisViolatedError, match="offset 1"):
            intertwine.apply_map(np.exp, h)

    def test_operators_on_different_spaces_rejected(self):
        h = BlockOperator([np.arange(20, dtype=float)])
        with pytest.raises(errors.DimensionMismatchError):
            IntertwiningProblem(h=h, x=BlockOperator([np.ones(21)]))
        with pytest.raises(errors.DimensionMismatchError):
            IntertwiningProblem(h=h, x=BlockOperator([np.ones(20)] * 2))

    def test_identical_sectors_never_mix(self):
        # two copies of one spectrum make N1 degenerate across the sectors;
        # each sector must still reproduce the single-sector companion
        s = spectra.shift(spectra.linear_sequence(30, 1.0))
        single_problem = intertwine.example_problem(1, [s], 0.7)
        double_problem = intertwine.example_problem(1, [s, s], 0.7)
        single = intertwine.construct_companion(single_problem)
        double = intertwine.construct_companion(double_problem)
        assert len(double.blocks) == 2
        for block in double.blocks:
            assert max_abs(block - single.blocks[0]) <= 1e-12
        assert double_problem.dropped_modes == 2 * single_problem.dropped_modes
        assert double_problem.dropped_modes > 0

    def test_nan_residual_fails_the_certificate(self):
        # exp overflows past e ~ 709; the NaN-filled companion must not
        # certify with gamma_residual == 0
        dim = 40
        h = BlockOperator([np.linspace(0.0, 1000.0, dim)])
        x = BlockOperator([1.0 + np.arange(dim, dtype=float)])
        problem = IntertwiningProblem(h=h, x=x)
        f = np.exp
        with np.errstate(over="ignore", invalid="ignore"):
            cert = intertwine.certify(problem, intertwine.construct_companion(problem, f), f)
        assert not np.isfinite(cert.gamma_residual)
        assert not within_tolerances(cert)

    def test_certificate_against_another_map_fails(self):
        # certify forms f(h) itself: a companion built with one map and judged
        # against another must fail beta and gamma, not pass silently
        problem = boson_problem()
        square, cube = Polynomial([0, 0, 1]), Polynomial([0, 0, 0, 1])
        companion = intertwine.construct_companion(problem, square)
        assert within_tolerances(intertwine.certify(problem, companion, square))
        for wrong in (None, cube):
            cert = intertwine.certify(problem, companion, wrong)
            assert cert.beta_residual > BETA_TOL
            assert cert.gamma_residual > GAMMA_TOL

    def test_singular_n1_inside_window_rejected(self):
        # the problem checks its hypotheses at construction: no companion is needed
        dim = 20
        diag = np.ones(dim)
        diag[3] = 0.0  # null direction well inside the window
        h = BlockOperator([np.arange(dim, dtype=float)])
        x = BlockOperator([diag])
        with pytest.raises(errors.HypothesisViolatedError, match="level 3 of sector 0"):
            IntertwiningProblem(h=h, x=x)

    def test_window_inverse_drops_the_null_modes_above_the_window(self):
        # x = (a+)^2 sends the top two levels out of the space: N1 vanishes there
        problem = boson_problem(40)
        n1, inverse = problem.n1.blocks[0], problem.n1_inverse.blocks[0]
        assert problem.dropped_modes == 2
        np.testing.assert_array_equal(n1[-2:], 0.0)
        np.testing.assert_array_equal(inverse[-2:], 0.0)
        np.testing.assert_array_equal(inverse[:-2], 1.0 / n1[:-2])


COMPANION_BUNDLES = [
    "example1-susy-qm",
    "example2-squared-intertwiner",
    "example3-cubed-intertwiner",
    "example4-ladder-product",
    "boson-example2",
    "quon-closed-forms",
    "map-equality-probes",
]


class TestWeightedShiftCompanions:
    """The companion path on weighted shifts: no eigensolve, vector-sized memory, dim 4096."""

    def problems(self):
        seqs = shifted_pair(40)
        for which in (1, 2, 3, 4):
            yield intertwine.example_problem(which, seqs, 0.7)
        yield boson_problem(40)
        yield intertwine.ladder_problem(40, 0.5)

    def test_no_eigendecomposition(self, eigh_calls):
        for problem in self.problems():
            for f in (None, Polynomial([0, 0, 1])):
                intertwine.certify(problem, intertwine.construct_companion(problem, f), f)
        assert eigh_calls == []

    def test_peak_memory_stays_at_vector_size(self):
        # one dense complex 1024 x 1024 block alone takes 16 MiB
        problem = intertwine.example_problem(3, shifted_pair(1024), 0.7)
        tracemalloc.start()
        try:
            cert = intertwine.certify(problem, intertwine.construct_companion(problem))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert within_tolerances(cert)
        assert peak < 2**20

    @pytest.mark.parametrize("bundle", COMPANION_BUNDLES)
    def test_certificates_built_only_where_a_check_reads_them(self, monkeypatch, bundle):
        # one per gamma for the examples, one per map for the boson case,
        # none for the quon closed forms and the map-equality probes
        calls = []
        certify = intertwine.certify

        def counting(*args, **kwargs):
            calls.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(experiments, "certify", counting)
        monkeypatch.setattr(intertwine, "certify", counting)
        cfg = config.load_bundled(bundle)
        experiments.run_experiment(cfg)
        if bundle.startswith("example"):
            assert len(calls) == len(cfg.params.gammas)
        else:
            expected = {"boson-example2": 3, "quon-closed-forms": 0, "map-equality-probes": 0}
            assert len(calls) == expected[bundle]

    @pytest.mark.parametrize("bundle", COMPANION_BUNDLES)
    def test_bundle_runs_at_the_dim_ceiling(self, bundle):
        assert config.DIM_RANGE[1] == 4096
        # the boson case's own ceiling: its exp(n + 2) leaves the float range above it
        ceiling = config.BOSON_EXP_DIM_MAX if bundle == "boson-example2" else 4096
        raw = yaml.safe_load((resources.files("vcslab") / "configs" / f"{bundle}.yaml").read_text())
        scaled = config.parse_config({**raw, "dim": ceiling})
        assert all(seq.dim == ceiling for seq in scaled.spectra)
        with np.errstate(over="raise", invalid="raise"):
            report, _ = experiments.run_experiment(scaled)
        assert report.config["dim"] == ceiling
        assert [c.name for c in report.checks] == [
            c.name for c in experiments.run_experiment(config.load_bundled(bundle))[0].checks
        ]


class TestHTauFactorization:
    @pytest.mark.parametrize("gamma", [0.0, 0.7, 3.1])
    def test_linear_pair(self, gamma):
        seqs = [
            spectra.linear_sequence(16, 1.0, offset=0.3),
            spectra.linear_sequence(16, math.sqrt(2.0), offset=0.55),
        ]
        assert intertwine.h_tau_residual(seqs, gamma) <= 1e-14

    def test_quon_pair(self):
        seqs = [
            spectra.quon_sequence(40, 0.5, offset=0.3),
            spectra.quon_sequence(40, 0.9, offset=0.55),
        ]
        for gamma in (0.0, 0.7, 3.1):
            assert intertwine.h_tau_residual(seqs, gamma) <= 1e-14

    def test_large_truncation_scales_with_spectrum(self):
        # at larger spectral range the identity holds to a few ulp of the top level
        seqs = [
            spectra.linear_sequence(80, 1.0, offset=0.3),
            spectra.linear_sequence(80, math.sqrt(2.0), offset=0.55),
        ]
        top = max(s.values[-1] - s.values[0] for s in seqs)
        assert intertwine.h_tau_residual(seqs, 0.7) <= 10 * np.finfo(float).eps * top


def boson_bundle_at(dim):
    """``boson-example2`` at ``dim``, also past the dim the config accepts for
    it: the bundle builds no spectra, so ``dataclasses.replace`` can rescale it."""
    return dataclasses.replace(config.load_bundled("boson-example2"), dim=dim)


class TestNonIsospectral:
    def test_boson_closed_forms(self):
        dim = 60
        problem = boson_problem(dim)
        n_op = problem.h.blocks[0]
        sub = np.s_[: problem.keep]

        iso = intertwine.construct_companion(problem)
        np.testing.assert_allclose(
            problem.n1.blocks[0][sub], (n_op * n_op + 3 * n_op + 2)[sub], atol=1e-11
        )
        np.testing.assert_allclose(iso.blocks[0][sub], (n_op + 2)[sub], atol=1e-11)

        f = Polynomial([0, 0, 1])
        squared = intertwine.construct_companion(problem, f)
        ref = (n_op + 2) * (n_op + 2)
        np.testing.assert_allclose(squared.blocks[0][sub], ref[sub], atol=1e-11)
        assert within_tolerances(intertwine.certify(problem, squared, f))

    def test_boson_exponential_map(self):
        dim = 60
        problem = boson_problem(dim)
        companion = intertwine.construct_companion(problem, np.exp)
        n = np.arange(dim, dtype=float)
        ref = np.exp(n + 2.0)
        sub = np.s_[: problem.keep]
        diff = np.abs(companion.blocks[0] - ref)[sub]
        scale = np.maximum(1.0, np.abs(ref)[sub])
        assert (diff / scale).max() <= 1e-11

    @pytest.mark.parametrize("dim, passed", [(60, True), (720, False)])
    def test_exponential_certificate_is_reported(self, dim, passed):
        # exp(n + 2) overflows from about n = 708 on, which leaves the
        # exponential companion's certificate NaN at dim 720; the config
        # rejects that dim, so the run skips its check to show the report fails
        with np.errstate(over="ignore", invalid="ignore"):
            report, _ = experiments.run_experiment(boson_bundle_at(dim))
        (gamma,) = [c for c in report.checks if c.name == "certificate-gamma"]
        assert gamma.passed is passed
        assert np.isnan(gamma.value) is not passed

    def test_certificate_beta_is_reported(self):
        # at dim 700 a window entry of the exp companion is inf: its beta is
        # NaN while its gamma still reads at rounding level.  No alpha is
        # reported: each companion is a real diagonal, equal to its adjoint
        with np.errstate(over="ignore", invalid="ignore"):
            report, _ = experiments.run_experiment(boson_bundle_at(700))
        checks = {c.name: c for c in report.checks}
        assert "certificate-alpha" not in checks
        for name, tolerance in (("beta", BETA_TOL), ("gamma", GAMMA_TOL)):
            assert checks[f"certificate-{name}"].tolerance == tolerance
        assert np.isnan(checks["certificate-beta"].value)
        assert not checks["certificate-beta"].passed
        assert checks["certificate-gamma"].passed
        assert checks["certificate-gamma"].value <= 1e-15
        assert not report.overall_pass

    def test_identity_map_matches_plain_construction(self):
        problem = boson_problem(40)
        iso = intertwine.construct_companion(problem)
        mapped = intertwine.construct_companion(problem, Polynomial([0, 1]))
        assert (iso - mapped).max_abs(problem.keep) <= 1e-10

    @pytest.mark.parametrize("dim", [60, 240, 697, 4096])
    def test_maps_evaluate_each_entry_bit_for_bit(self, dim):
        # a Polynomial on its default domain maps its argument by 0 + 1 * t,
        # so it evaluates polyval on the entries themselves, bit for bit
        for q in (1.0, 0.5):
            problem = intertwine.ladder_problem(dim, q)
            entries = problem.h.blocks.real
            for coeffs in ([0, 0, 1], [0.5, 1.0, 0.25]):
                mapped = intertwine.apply_map(Polynomial(coeffs), problem.h)
                assert mapped.blocks.tobytes() == np.polynomial.polynomial.polyval(entries, coeffs).tobytes()


def closed_forms(dim, q):
    """``(n1_deviation, companion_deviation)`` of ``ladder_problem(dim, q)``."""
    problem = intertwine.ladder_problem(dim, q)
    return intertwine.ladder_closed_forms(problem, intertwine.construct_companion(problem), q)


class TestQuonClosedForms:
    def test_reference_values_at_half(self):
        # q = 0.5: N1 entry 0.125*[n]^2 + 1.0*[n] + 1.5, companion entry 1.5 + 0.25*[n]
        q = 0.5
        n1_deviation, companion_deviation = closed_forms(30, q)
        assert n1_deviation <= 1e-11
        assert companion_deviation <= 1e-11
        qn = spectra.quon_numbers(30, q)
        a = hilbert.quon_ladder(30, q).matrix
        n1 = a @ a @ a.conj().T @ a.conj().T
        np.testing.assert_allclose(
            np.diag(n1).real[:20], 0.125 * qn[:20] ** 2 + 1.0 * qn[:20] + 1.5, rtol=1e-12
        )
        # companion closed form at n = 2: (1+q) + q^2 [2] = 1.875
        assert (1 + q) + q**2 * qn[2] == pytest.approx(1.875)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0])
    def test_closed_forms_across_deformations(self, q):
        n1_deviation, companion_deviation = closed_forms(60, q)
        assert n1_deviation <= 1e-11
        assert companion_deviation <= 1e-11

    def test_boson_limit_matches(self):
        # q = 1 reduces to N1 = N^2+3N+2 and companion N+2
        dim = 40
        a1 = hilbert.quon_ladder(dim, 1.0).matrix
        n_op = (a1.conj().T @ a1).real
        n1_deviation, _ = closed_forms(dim, 1.0)
        assert n1_deviation <= 1e-11
        closed = n_op @ n_op + 3 * n_op + 2 * np.eye(dim)
        x = np.linalg.matrix_power(a1.conj().T, 2)
        np.testing.assert_allclose((x.conj().T @ x)[:30, :30], closed[:30, :30], atol=1e-11)


class TestEqualityProbe:
    def test_boson_square_map(self):
        problem = boson_problem(60)
        residual = intertwine.power_series_equality_probe(problem, Polynomial([0, 0, 1]))
        assert residual <= 1e-10

    def test_quon_polynomial_map(self):
        dim, q = 60, 0.5
        a = hilbert.quon_ladder(dim, q)
        ad = a.adjoint()
        problem = IntertwiningProblem(h=ad @ a, x=ad @ ad)
        f = Polynomial([0.5, 1.0, 0.25])
        assert intertwine.power_series_equality_probe(problem, f) <= 1e-10
        # companion of f(h) equals f(q^2 N + (1+q))
        mapped = intertwine.construct_companion(problem, f)
        n_op = (ad @ a).blocks[0]
        ref = intertwine.apply_map(f, BlockOperator([q**2 * n_op + (1 + q)]))
        assert (mapped - ref).max_abs(problem.keep) <= 1e-10

    def test_residual_is_the_window_operator_norm(self):
        # the dense oracle: spectral norm of the windowed difference of the
        # companions, formed as full matrices
        problem = boson_problem(60)
        f = Polynomial([0, 0, 1])
        residual = intertwine.power_series_equality_probe(problem, f)
        iso = intertwine.construct_companion(problem).matrix
        mapped = intertwine.construct_companion(problem, f).matrix
        window = np.s_[: problem.keep, : problem.keep]
        expected = np.linalg.norm((iso @ iso - mapped)[window], 2)
        assert expected > 0.0
        assert residual == pytest.approx(expected, rel=1e-12)

    def test_trivial_intertwiner_zero_residual(self):
        dim = 30
        h = BlockOperator([np.arange(dim, dtype=float)])
        eye = BlockOperator([np.ones(dim)])
        problem = IntertwiningProblem(h=h, x=eye)
        assert intertwine.power_series_equality_probe(problem, Polynomial([1, 2])) <= 1e-12


class TestRangeProjector:
    """On the window, ``x N1^-1 x+`` is 1 on the range of ``x`` and 0 on the
    ``x.offset`` lowest levels a raising ``x`` misses; being diagonal, it
    commutes with the diagonal ``h`` exactly."""

    def check(self, problem, missing):
        proj = problem.x @ problem.n1_inverse @ problem.x.adjoint()
        assert proj.offset == 0
        window = proj.blocks.real[:, : problem.keep]
        expected = np.ones_like(window)
        expected[:, :missing] = 0.0
        np.testing.assert_allclose(window, expected, rtol=0.0, atol=1e-15)
        assert (proj @ problem.h - problem.h @ proj).max_abs(problem.keep) == 0.0

    def test_boson_squared_raising(self):
        self.check(boson_problem(60), 2)

    def test_invertible_intertwiner(self):
        a = hilbert.quon_ladder(40, 1.0)
        n_op = a.adjoint() @ a
        self.check(IntertwiningProblem(h=n_op, x=BlockOperator([1.0 + n_op.blocks[0]])), 0)

    def test_two_sector_deficiency(self):
        problem = intertwine.example_problem(2, shifted_pair(40), 0.0)
        assert problem.x.space.sectors == 2
        self.check(problem, 2)


class TestGridPartner:
    def test_linear_superpotential_closed_form(self):
        grid = hilbert.GridSpec(-12.0, 12.0, 512)
        report = intertwine.grid_partner_comparison(lambda x: x, grid, n_modes=32)
        # companion approximates a+a + sqrt(2): residual at the dx^2 scale
        assert report.comparison_residual <= 0.2
        assert report.comparison_residual > 1e-6
        assert report.n_modes == 32

    def test_second_order_scaling_linear(self):
        reports = [
            intertwine.grid_partner_comparison(
                lambda x: x, hilbert.GridSpec(-12.0, 12.0, n), n_modes=32
            )
            for n in (256, 512, 1024)
        ]
        dxs = [r.dx for r in reports]
        comm = intertwine.fit_power_law(dxs, [r.commutator_residual for r in reports])
        comp = intertwine.fit_power_law(dxs, [r.comparison_residual for r in reports])
        assert 1.7 <= comm <= 2.3
        assert 1.7 <= comp <= 2.3

    def test_anharmonic_superpotential(self):
        reports = [
            intertwine.grid_partner_comparison(
                lambda x: x + 0.1 * x**3, hilbert.GridSpec(-9.0, 9.0, n), n_modes=24
            )
            for n in (256, 512)
        ]
        ratio = reports[0].comparison_residual / reports[1].comparison_residual
        assert 2.8 < ratio < 5.5

    def test_quadratic_map_scaling(self):
        reports = [
            intertwine.grid_partner_comparison(
                lambda x: x, hilbert.GridSpec(-12.0, 12.0, n), coeffs=(0, 0, 1), n_modes=24
            )
            for n in (256, 512)
        ]
        ratio = reports[0].comparison_residual / reports[1].comparison_residual
        assert 2.8 < ratio < 5.5

    def test_h_is_decomposed_once(self, eigh_calls):
        # band bisection and inverse iteration give the eigenpairs of h; the
        # one eigh is the batched one over the 2 x 2 smoothness forms of its
        # degenerate pairs, and a polynomial map is applied by Horner's rule
        # and adds none
        grid = hilbert.GridSpec(-12.0, 12.0, 512)
        for coeffs in ((0.0, 1.0), (0, 0, 1)):
            eigh_calls.clear()
            intertwine.grid_partner_comparison(lambda x: x, grid, coeffs, n_modes=16)
            assert len(eigh_calls) == 1
            assert eigh_calls[0][-2:] == (2, 2)

    @pytest.mark.parametrize("points", [256, 1024])
    @pytest.mark.parametrize(
        "w, lo", [(lambda x: x, 12.0), (lambda x: x + 0.1 * x**3, 9.0)], ids=["linear", "anharmonic"]
    )
    def test_inverse_iteration_matches_the_solve_banded_oracle(self, monkeypatch, w, lo, points):
        # bit for bit: one LU factor per run of equal shifts reused by both
        # sweeps, each run solved as one block, and LAPACK's QR called
        # directly, do the arithmetic of a fresh solve_banded per run and
        # sweep.  A gbtrs or QR that worked on a copy would leave the starts
        # in place and fail here
        band = hilbert.grid_ladder(w, hilbert.GridSpec(-lo, lo, points)).gram_bands()
        calls = recorded_shifts(monkeypatch)
        evals, vecs, starts = intertwine._lowest_eigenpairs(band, 80)
        ((_, shifts, seen_starts),) = calls
        assert np.diff(starts).max() == 2
        np.testing.assert_array_equal(seen_starts, starts)
        # every pair that shares a shift shares its lower eigenvalue
        for a, b in zip(starts[:-1], starts[1:]):
            assert (shifts[a:b] == evals[a]).all() or (shifts[a:b] == evals[a:b]).all()
        assert len(run_edges(shifts, starts)) - 1 < len(evals)
        start = np.random.default_rng(0).standard_normal((points, len(evals)))
        want = reference_inverse_iteration(band, shifts, start, starts)
        np.testing.assert_array_equal(intertwine._inverse_iteration(band, shifts, start, starts), want)
        np.testing.assert_array_equal(vecs, want)

    @pytest.mark.parametrize("points", [256, 1024])
    @pytest.mark.parametrize(
        "w, lo", [(lambda x: x, 12.0), (lambda x: x + 0.1 * x**3, 9.0)], ids=["linear", "anharmonic"]
    )
    def test_clusters_span_the_dense_eigenspaces(self, w, lo, points):
        # bisection to LAPACK's tolerance and a shared shift per pair lose
        # nothing: each cluster spans the eigenspace of the same eigenvalues
        # from a dense eigh, to the accuracy eps ||h|| / gap that fixes it
        ladder = hilbert.grid_ladder(w, hilbert.GridSpec(-lo, lo, points))
        evals, vecs, starts = intertwine._lowest_eigenpairs(ladder.gram_bands(), 80)
        a = ladder.matrix
        dense_evals, dense_vecs = np.linalg.eigh(a.T @ a)
        np.testing.assert_allclose(evals, dense_evals[: len(evals)], rtol=0, atol=1e-10)
        for first, end in zip(starts[:-1], starts[1:]):
            q = dense_vecs[:, first:end]
            block = vecs[:, first:end]
            sines = np.linalg.svd(block - q @ (q.T @ block), compute_uv=False)
            assert sines.max() <= 1e-12

    def test_a_wide_cluster_keeps_one_shift_per_eigenvalue(self, monkeypatch):
        # two uncoupled copies of a tridiagonal t, the second shifted by
        # spread: every eigenvalue of t becomes a pair of that spread, about
        # 0.1 from the next pair.  Pairs 1e-7 wide exceed sqrt(eps) = 1.5e-8
        # times the gap and keep their own shifts; pairs 1e-11 wide share
        # the lower one
        m = 24
        t = np.zeros((3, m))
        t[0] = 0.1 * np.arange(m)
        t[1, :-1] = 1e-3
        for spread, shared in ((1e-7, False), (1e-11, True)):
            band = np.hstack((t, t))
            band[0, m:] += spread
            calls = recorded_shifts(monkeypatch)
            evals, vecs, starts = intertwine._lowest_eigenpairs(band, 2 * m)
            ((_, shifts, _),) = calls
            assert np.diff(starts).tolist() == [2] * m
            np.testing.assert_allclose(evals[1::2] - evals[::2], spread, rtol=1e-3)
            np.testing.assert_array_equal(shifts, np.repeat(evals[::2], 2) if shared else evals)
            dense = np.diag(band[0]) + np.diag(band[1, :-1], -1) + np.diag(band[1, :-1], 1)
            dense_vecs = np.linalg.eigh(dense)[1]
            for first in starts[:-1]:
                q = dense_vecs[:, first : first + 2]
                block = vecs[:, first : first + 2]
                assert np.linalg.svd(block - q @ (q.T @ block), compute_uv=False).max() <= 1e-12

    def test_shift_rule_compares_the_spread_with_sqrt_eps_times_the_distance(self):
        root = math.sqrt(np.finfo(float).eps)
        for ratio, shared in ((0.5, True), (2.0, False)):
            spread = ratio * root
            # the middle cluster's nearest outside eigenvalue lies 1 above it,
            # the outer two are single eigenvalues
            evals = np.array([-3.0, 0.0, spread, 1.0 + spread])
            shifts = intertwine._cluster_shifts(evals, np.array([0, 1, 3, 4]))
            want = [-3.0, 0.0, 0.0 if shared else spread, 1.0 + spread]
            np.testing.assert_array_equal(shifts, want)

    @pytest.mark.parametrize("lo", [12.0, 3.0], ids=["linear", "linear-narrow"])
    def test_null_mode_iteration_matches_the_solve_banded_oracle(self, lo):
        # the N1 call: every shift is -N1_CUTOFF, so one factor serves all
        # columns; two random columns join the null start so that it is shared
        grid = hilbert.GridSpec(-lo, lo, 256)
        ladder = hilbert.grid_ladder(lambda x: x, grid)
        band = ladder.gram_bands(adjoint=True)
        a = ladder.matrix
        evals, vecs = np.linalg.eigh(a.T @ a)
        null = (-1.0) ** np.arange(256)[:, None] * vecs[:, evals <= intertwine.N1_CUTOFF]
        start = np.column_stack((null, np.random.default_rng(3).standard_normal((256, 2))))
        shifts = np.full(start.shape[1], -intertwine.N1_CUTOFF)
        want = reference_inverse_iteration(band, shifts, start, [0, start.shape[1]])
        got = intertwine._inverse_iteration(band, shifts, start, [0, start.shape[1]])
        np.testing.assert_array_equal(got, want)

    def test_each_shift_is_factored_once(self, monkeypatch):
        from scipy.linalg import lapack

        factored, solved = [], []
        dgbtrf, dgbtrs = lapack.dgbtrf, lapack.dgbtrs

        def counting_factors(*args, **kwargs):
            factored.append(args)
            return dgbtrf(*args, **kwargs)

        def counting_solves(*args, **kwargs):
            solved.append(args)
            return dgbtrs(*args, **kwargs)

        monkeypatch.setattr(lapack, "dgbtrf", counting_factors)
        monkeypatch.setattr(lapack, "dgbtrs", counting_solves)
        calls = recorded_shifts(monkeypatch)
        intertwine.grid_partner_comparison(lambda x: x, hilbert.GridSpec(-12.0, 12.0, 512), n_modes=32)
        # h: 39 pairs, each sharing its lower eigenvalue, and the null mode
        # alone; N1: its null modes, whose shifts are all equal.  One factor
        # per run, and one block solve per run in each of the two sweeps
        runs = sum(len(run_edges(shifts, starts)) - 1 for _, shifts, starts in calls)
        assert runs == 41
        assert len(factored) == runs
        assert len(solved) == 2 * runs

    def test_singular_shift_raises(self):
        # the second shift hits a diagonal entry: the solve must refuse, not
        # return a vector of infinities
        band = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            intertwine._inverse_iteration(band, [0.5, 2.0], np.ones((4, 2)), [0, 1, 2])

    def test_table_reports_the_probes_each_size_used(self):
        # 128 points hold too few smooth modes for 32 probes: the table shows it
        raw = yaml.safe_load((resources.files("vcslab") / "configs" / "susy-grid-linear.yaml").read_text())
        scaled = config.parse_config({**raw, "params": {**raw["params"], "sizes": [128, 256], "n_modes": 32}})
        _, tables = experiments.run_experiment(scaled)
        header, *rows = tables["residual-vs-dx.tsv"].splitlines()
        assert header.split("\t")[-1] == "n_modes"
        assert [int(row.split("\t")[-1]) for row in rows] == [17, 32]

    @pytest.mark.parametrize("points", [128, 256])
    @pytest.mark.parametrize(
        "w, lo",
        [(lambda x: x, 12.0), (lambda x: x + 0.1 * x**3, 9.0), (lambda x: x, 3.0)],
        ids=["linear", "anharmonic", "linear-narrow"],
    )
    def test_range_inverse_matches_n1_pseudo_inverse(self, monkeypatch, w, lo, points):
        # oracle: N1 = a a+ formed densely and decomposed on its own, and the
        # companion N1^+ a f(h) a+ formed literally.  f has a constant term
        # and one probe carries the checkerboard, so the projection P off the
        # null modes of N1 moves the image by O(1).  On the narrow domain the
        # null mode reaches the one-sided boundary rows, where N1 and S h S
        # differ, so the inverse iteration has to correct it (by ~1e-8)
        grid = hilbert.GridSpec(-lo, lo, points)
        ladder = hilbert.grid_ladder(w, grid)
        a = ladder.matrix
        h, n1 = a.T @ a, a @ a.T
        n1_evals, n1_vecs = np.linalg.eigh(n1)
        live = n1_evals > intertwine.N1_CUTOFF
        n1_pinv = (n1_vecs[:, live] / n1_evals[live]) @ n1_vecs[:, live].T
        seen = []
        monkeypatch.setattr(intertwine, "_check_null_modes", lambda null, grid: seen.append(null))

        gaussians = [np.exp(-0.5 * (grid.x / s) ** 2) * grid.x**k for s, k in ((2.0, 0), (1.5, 1), (3.0, 2))]
        r = np.column_stack(gaussians + [(-1.0) ** np.arange(points) * gaussians[0]])
        evals, vecs = np.linalg.eigh(h)
        null = intertwine._n1_null_modes(
            ladder.gram_bands(adjoint=True), vecs[:, evals <= intertwine.N1_CUTOFF], grid
        )
        coeffs = (0.5, -1.0, 0.25)
        got = intertwine._companion_image(lambda v: n1 @ v, null, coeffs, r)
        want = n1_pinv @ (a @ ((0.5 * np.eye(points) - h + 0.25 * h @ h) @ (a.T @ r)))
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

        (checked,) = seen
        assert checked is null
        oracle_null = n1_vecs[:, ~live]
        assert null.shape == oracle_null.shape
        overlap = np.linalg.svd(null.T @ oracle_null, compute_uv=False)
        assert overlap.min() >= 1 - 1e-10

    def test_no_map_matches_identity_map(self):
        grid = hilbert.GridSpec(-12.0, 12.0, 128)
        plain = intertwine.grid_partner_comparison(lambda x: x, grid, n_modes=16)
        mapped = intertwine.grid_partner_comparison(lambda x: x, grid, coeffs=[0, 1], n_modes=16)
        assert plain.n_modes == mapped.n_modes
        assert plain.comparison_residual == pytest.approx(mapped.comparison_residual, rel=1e-9)

    @pytest.mark.parametrize(
        "w, lo, coeffs, n_modes",
        [
            (lambda x: x, 12.0, None, 32),
            (lambda x: x, 12.0, (0, 0, 1), 32),
            (lambda x: x, 12.0, (0.5, -1.0, 0.25), 32),
            (lambda x: x + 0.1 * x**3, 9.0, None, 24),
        ],
        ids=["linear", "linear-squared", "linear-constant-odd", "anharmonic"],
    )
    def test_matches_dense_formation(self, w, lo, coeffs, n_modes):
        assert_matches_dense(w, hilbert.GridSpec(-lo, lo, 128), coeffs, n_modes)

    @pytest.mark.parametrize(
        "w, lo, coeffs, n_modes, points",
        [
            (lambda x: x, 12.0, None, 32, 512),
            (lambda x: x, 12.0, (0, 0, 1), 32, 512),
            (lambda x: x, 12.0, (0.5, -1.0, 0.25), 32, 512),
            (lambda x: x + 0.1 * x**3, 9.0, None, 24, 512),
            (lambda x: x, 12.0, None, 32, 1024),
        ],
        ids=["linear-512", "linear-squared-512", "linear-constant-odd-512", "anharmonic-512", "linear-1024"],
    )
    def test_matches_dense_formation_at_shipped_sizes(self, w, lo, coeffs, n_modes, points):
        assert_matches_dense(w, hilbert.GridSpec(-lo, lo, points), coeffs, n_modes)

    @pytest.mark.parametrize(
        "w, lo, coeffs, n_modes",
        [
            (lambda x: x, 12.0, (0.0, 1.0), 32),
            (lambda x: x, 12.0, (0.5, -1.0, 0.25), 32),
            (lambda x: x + 0.1 * x**3, 9.0, (0.0, 1.0), 24),
        ],
        ids=["linear", "linear-constant-odd", "anharmonic"],
    )
    @pytest.mark.parametrize("points", [256, 1024])
    def test_values_do_not_depend_on_the_basis_inside_pairs(self, monkeypatch, w, lo, coeffs, n_modes, points):
        # a degenerate pair has no preferred eigenbasis, so each LAPACK build
        # may return another one: seeded random rotations inside every pair
        # must leave every reported value where it was
        grid = hilbert.GridSpec(-lo, lo, points)
        before = intertwine.grid_partner_comparison(w, grid, coeffs, n_modes=n_modes)
        lowest = intertwine._lowest_eigenpairs
        rng = np.random.default_rng(11)
        rotated = []

        def rotating(band, count):
            evals, vecs, starts = lowest(band, count)
            vecs = vecs.copy()
            for first in starts[:-1][np.diff(starts) == 2]:
                t = rng.uniform(0.0, 2.0 * np.pi)
                turn = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
                vecs[:, first : first + 2] = vecs[:, first : first + 2] @ turn
                rotated.append(first)
            return evals, vecs, starts

        monkeypatch.setattr(intertwine, "_lowest_eigenpairs", rotating)
        after = intertwine.grid_partner_comparison(w, grid, coeffs, n_modes=n_modes)
        assert len(rotated) >= n_modes
        assert after.n_modes == before.n_modes
        assert after.commutator_residual == before.commutator_residual
        assert after.comparison_residual == pytest.approx(before.comparison_residual, rel=1e-12, abs=0)

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0), (0, 0, 1)], ids=["plain", "squared"])
    def test_peak_memory_stays_within_six_grid_matrices(self, coeffs):
        # O(n k): the eigenvector block is n x (2k + 16), and one n x n array
        # (32 MiB at n = 2048) would break the bound many times over
        small = hilbert.GridSpec(-12.0, 12.0, 64)
        intertwine.grid_partner_comparison(lambda x: x, small, n_modes=4)  # imports scipy untraced
        grid = hilbert.GridSpec(-12.0, 12.0, 2048)
        k = 32
        tracemalloc.start()
        try:
            intertwine.grid_partner_comparison(lambda x: x, grid, coeffs, n_modes=k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * grid.points * (2 * k + 16) * 8

    def test_linear_bundle_runs_at_the_grid_ceiling(self):
        # no n x n array: a dense eigh alone took 18 s and 687 MiB at these sizes
        assert config.GRID_RANGE[1] == 4096
        raw = yaml.safe_load((resources.files("vcslab") / "configs" / "susy-grid-linear.yaml").read_text())
        scaled = config.parse_config({**raw, "params": {**raw["params"], "sizes": [2048, 4096]}})
        start = time.perf_counter()
        report, _ = experiments.run_experiment(scaled)
        assert time.perf_counter() - start < 5.0
        assert report.overall_pass
        assert report.config["params"]["sizes"] == [2048, 4096]

    def test_smooth_interior_null_mode_violates_hypothesis(self):
        grid = hilbert.GridSpec(-1.0, 1.0, 64)
        bump = np.exp(-0.5 * (grid.x / 0.2) ** 2)
        with pytest.raises(errors.HypothesisViolatedError):
            intertwine._check_null_modes((bump / np.linalg.norm(bump))[:, None], grid)

    def test_null_mode_at_the_right_edge_alone_is_dropped(self):
        # the edge mass sums both ends: a mode at the right edge counts as
        # much as one at the left
        grid = hilbert.GridSpec(-1.0, 1.0, 256)
        v = np.exp(-np.arange(256)[::-1] / 2.0)
        intertwine._check_null_modes((v / np.linalg.norm(v))[:, None], grid)

    def test_smooth_bump_inside_the_edge_band_is_dropped(self):
        # at 256 points the edge band is 256 // 32 = 8 points wide, not the
        # floor of 4: a smooth bump 5 to 7 points from the right edge lies in it
        grid = hilbert.GridSpec(-1.0, 1.0, 256)
        v = np.zeros(256)
        v[248:251] = [1.0, 2.0, 1.0]
        intertwine._check_null_modes((v / np.linalg.norm(v))[:, None], grid)

    @pytest.mark.parametrize("mode", ["checkerboard", "edge"])
    def test_artifact_null_modes_are_projected_out(self, mode):
        grid = hilbert.GridSpec(-1.0, 1.0, 64)
        i = np.arange(64)
        # the edge mode is smooth, so only its mass in the outer band drops it
        v = (-1.0) ** i if mode == "checkerboard" else np.exp(-i / 2.0)
        v = v / np.linalg.norm(v)
        # a = N1 S with S = (-1)^i, so that N1 = a a+ = null_mode_n1(v) and
        # h = a+ a = S N1 S, the checkerboard relation of central differences
        n1 = null_mode_n1(v)
        a = n1 * (-1.0) ** i
        rhs = np.random.default_rng(5).normal(size=(64, 3))
        evals, vecs = np.linalg.eigh(a.T @ a)
        null = intertwine._n1_null_modes(lower_bands(n1, 63), vecs[:, evals <= intertwine.N1_CUTOFF], grid)
        # f(N1) = 1 + N1 = 2 - v v+, and P = I - v v+
        applied = intertwine._companion_image(lambda u: n1 @ u, null, (1.0, 1.0), rhs)
        assert np.abs(v @ applied).max() <= 1e-12
        np.testing.assert_allclose(applied, 2.0 * (rhs - np.outer(v, v @ rhs)), atol=1e-12)

    def test_nonpositive_derivative_rejected(self):
        grid = hilbert.GridSpec(-5.0, 5.0, 128)
        with pytest.raises(errors.NonPositiveDerivativeError):
            intertwine.grid_partner_comparison(lambda x: -x, grid)


class TestFitPowerLaw:
    def test_recovers_exponent(self):
        x = np.array([0.1, 0.05, 0.025])
        assert intertwine.fit_power_law(x, 3.0 * x**2) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        # a run-time failure (exit 1), not a config error: no key is at fault
        with pytest.raises(errors.VcsLabError, match="positive data") as info:
            intertwine.fit_power_law([1.0, 2.0], [0.0, 1.0])
        assert not isinstance(info.value, errors.ConfigError)
