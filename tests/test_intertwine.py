import dataclasses
import math
import time
import tracemalloc
import warnings
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


def dense_grid_comparison(w, grid, coeffs, n_modes):
    """Oracle for ``grid_partner_comparison``, formed in full from the
    formulas, with no dead bond: the staggered ``a`` from the
    ``n`` nodes to the ``n - 1`` bonds, ``h = a+ a``, ``N1 = a a+``, the
    companion ``N1^-1 a f(h) a+`` formed literally, and ``f(T)`` with
    ``T = b+ b + 2c W'``, ``b`` from the bonds to the ``n - 2`` inner nodes;
    ``f`` is the polynomial with ``coeffs``, by matrix powers.  The probes are
    the ``n_modes`` lowest eigenvectors of a dense ``eigh`` of ``N1``, and the
    commutator ``N1 - T`` is read on the Gaussian probes over the bonds
    ``3:-3``.  Returns ``(commutator_residual, comparison_residual)``."""
    n, dx, c = grid.points, grid.dx, 1.0 / np.sqrt(2.0)
    bonds = 0.5 * (grid.x[:-1] + grid.x[1:])
    wb = w(bonds)
    a, b = np.zeros((n - 1, n)), np.zeros((n - 2, n - 1))
    i, j = np.arange(n - 1), np.arange(n - 2)
    a[i, i], a[i, i + 1] = -c / dx + wb / 2, c / dx + wb / 2
    b[j, j], b[j, j + 1] = -c / dx + wb[:-1] / 2, c / dx + wb[1:] / 2
    h, n1 = a.T @ a, a @ a.T
    target = b.T @ b + np.diag(2.0 * c * np.gradient(wb, dx))

    def f(m):
        return sum(coeff * np.linalg.matrix_power(m, k) for k, coeff in enumerate(coeffs))

    companion = np.linalg.solve(n1, a @ f(h) @ a.T)
    phi = np.linalg.eigh(n1)[1][:, :n_modes]
    comparison = np.linalg.norm((companion - f(target)) @ phi, axis=0).max()
    probes = hilbert._gaussian_probes(grid, bonds)
    defect = (n1 - target) @ probes.T
    commutator = (np.abs(defect[3:-3]).max(axis=0) / np.abs(probes).max(axis=1)).max()
    return commutator, comparison


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

    def test_n1_entry_at_the_cutoff_counts_as_singular(self):
        # |6e-6 + 8e-6 i|^2 rounds to exactly N1_CUTOFF = 1e-10, which no real
        # weight squares to: the cutoff is inclusive inside the window and above it
        dim = 20
        assert np.multiply(np.conj(6e-6 + 8e-6j), 6e-6 + 8e-6j).real == intertwine.N1_CUTOFF
        h = BlockOperator([np.arange(dim, dtype=float)])
        for level in (3, dim - 1):
            diag = np.ones(dim, dtype=complex)
            diag[level] = 6e-6 + 8e-6j
            if level == 3:
                with pytest.raises(errors.HypothesisViolatedError, match="1.000e-10 <= 1.0e-10 at level 3"):
                    IntertwiningProblem(h=h, x=BlockOperator([diag]))
            else:
                problem = IntertwiningProblem(h=h, x=BlockOperator([diag]))
                assert problem.dropped_modes == 1
                assert problem.n1_inverse.blocks[0, level] == 0.0

    def test_lowering_intertwiner_rejected_on_its_window(self):
        # a lowering x annihilates the ground level, so N1 = x+ x is singular
        # there; the window still excludes the |offset| = 1 level x moves by
        # plus the buffer: 8 - 3 = 5 levels
        h = BlockOperator([np.arange(8, dtype=float)])
        x = hilbert.quon_ladder(8, 1.0)
        with pytest.raises(errors.HypothesisViolatedError, match="at level 0 of sector 0, inside the 5-level window"):
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

    @staticmethod
    def certify_calls(monkeypatch, cfg) -> int:
        calls = []
        certify = intertwine.certify

        def counting(*args, **kwargs):
            calls.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(experiments, "certify", counting)
        monkeypatch.setattr(intertwine, "certify", counting)
        experiments.run_experiment(cfg)
        return len(calls)

    @pytest.mark.parametrize("bundle", COMPANION_BUNDLES)
    def test_certificates_built_only_where_a_check_reads_them(self, monkeypatch, bundle):
        # one per example run, all its gammas batched into one problem, one
        # per map for the boson case, none for the quon closed forms and the
        # map-equality probes
        expected = {"boson-example2": 3, "quon-closed-forms": 0, "map-equality-probes": 0}
        assert self.certify_calls(monkeypatch, config.load_bundled(bundle)) == expected.get(bundle, 1)

    @pytest.mark.parametrize("bundle", COMPANION_BUNDLES[:4])
    def test_one_certificate_however_many_gammas(self, monkeypatch, bundle):
        cfg = config.load_bundled(bundle)
        cfg = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, gammas=(0.0, 0.3, 0.7, 1.9, 3.1)))
        assert self.certify_calls(monkeypatch, cfg) == 1

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


class TestNoRepeatedWork:
    """A companion run forms each operator once: one lowering operator per
    example run, one ``x+`` per problem."""

    @pytest.mark.parametrize("bundle", COMPANION_BUNDLES[:4])
    def test_an_example_run_weighs_one_lowering_operator(self, monkeypatch, bundle):
        calls = []
        lowering_weights = hilbert.lowering_weights

        def counting(*args, **kwargs):
            calls.append(args)
            return lowering_weights(*args, **kwargs)

        monkeypatch.setattr(hilbert, "lowering_weights", counting)
        experiments.run_experiment(config.load_bundled(bundle))
        assert len(calls) == 1

    @pytest.mark.parametrize("dim", [80, 240])
    @pytest.mark.parametrize("bundle", COMPANION_BUNDLES[:4])
    def test_factorization_check_is_h_tau_residual(self, bundle, dim):
        # the run reads the example problem's lowering operator; the entry
        # point builds its own, and the value is the same float
        raw = yaml.safe_load((resources.files("vcslab") / "configs" / f"{bundle}.yaml").read_text())
        cfg = config.parse_config({**raw, "dim": dim})
        report, _ = experiments.run_experiment(cfg)
        value = {c.name: c.value for c in report.checks}["shifted-hamiltonian-factorization"]
        assert value == intertwine.h_tau_residual(cfg.spectra, cfg.params.gammas)

    PROBLEMS = [
        *(lambda which=which: intertwine.example_problem(which, shifted_pair(), (0.0, 0.7)) for which in (1, 2, 3, 4)),
        lambda: intertwine.ladder_problem(40),
        lambda: intertwine.ladder_problem(40, (0.5, 1.0)),
    ]

    @pytest.mark.parametrize("f", [None, Polynomial([0.5, 1.0, 0.25])])
    @pytest.mark.parametrize("build", PROBLEMS, ids=["example1", "example2", "example3", "example4", "boson", "quon"])
    def test_one_adjoint_of_x_per_problem(self, monkeypatch, build, f):
        adjoined = []
        adjoint = BlockOperator.adjoint

        def counting(op):
            adjoined.append(op)
            return adjoint(op)

        monkeypatch.setattr(BlockOperator, "adjoint", counting)
        problem = build()
        intertwine.certify(problem, intertwine.construct_companion(problem, f), f)
        assert sum(1 for op in adjoined if op is problem.x) == 1
        assert problem.x_adjoint.offset == -problem.x.offset
        assert problem.x_adjoint.blocks.tobytes() == problem.x.blocks.conj().tobytes()


class TestBatchedMembers:
    """A run's members as sectors of one problem, member-major: each member's
    blocks are bit for bit those of its own problem."""

    GAMMAS = (0.0, 0.7, 3.1)
    QS = (0.3, 0.5, 0.9, 1.0)

    @staticmethod
    def members(op, count):
        return op.blocks.reshape(count, -1, op.blocks.shape[-1])

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_gamma_members_match_their_own_problems(self, which):
        seqs = shifted_pair()
        batched = intertwine.example_problem(which, seqs, self.GAMMAS)
        companion = intertwine.construct_companion(batched)
        assert batched.h.space.sectors == len(self.GAMMAS) * len(seqs)
        for s, gamma in enumerate(self.GAMMAS):
            own = intertwine.example_problem(which, seqs, gamma)
            own_companion = intertwine.construct_companion(own)
            for op, own_op in ((batched.h, own.h), (batched.n1, own.n1), (companion, own_companion)):
                assert self.members(op, len(self.GAMMAS))[s].tobytes() == own_op.blocks.tobytes()

    def test_deformation_members_match_their_own_problems(self):
        batched = intertwine.ladder_problem(40, self.QS)
        companion = intertwine.construct_companion(batched)
        n1_devs, companion_devs = intertwine.ladder_closed_forms(batched, companion, self.QS)
        for s, q in enumerate(self.QS):
            own = intertwine.ladder_problem(40, q)
            own_companion = intertwine.construct_companion(own)
            for op, own_op in ((batched.h, own.h), (batched.n1, own.n1), (companion, own_companion)):
                assert self.members(op, len(self.QS))[s].tobytes() == own_op.blocks.tobytes()
            own_devs = intertwine.ladder_closed_forms(own, own_companion, q)
            assert (n1_devs[s], companion_devs[s]) == own_devs

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_batched_certificate_is_the_worst_member(self, which):
        seqs = shifted_pair()
        batched = intertwine.example_problem(which, seqs, self.GAMMAS)
        cert = intertwine.certify(batched, intertwine.construct_companion(batched))
        own = []
        for gamma in self.GAMMAS:
            problem = intertwine.example_problem(which, seqs, gamma)
            own.append(intertwine.certify(problem, intertwine.construct_companion(problem)))
        assert cert.gamma_residual == max(c.gamma_residual for c in own)
        # alpha and beta divide by scales that are maxima over all members
        for name in ("alpha_residual", "beta_residual"):
            worst = max(getattr(c, name) for c in own)
            assert abs(getattr(cert, name) - worst) <= 4 * np.finfo(float).eps * worst

    def test_h_tau_residual_is_the_worst_member(self):
        seqs = [spectra.linear_sequence(80, 1.0, offset=0.3), spectra.quon_sequence(80, 0.9, offset=0.55)]
        worst = max(intertwine.h_tau_residual(seqs, g) for g in self.GAMMAS)
        assert intertwine.h_tau_residual(seqs, self.GAMMAS) == worst > 0.0


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


#: kappa = hbar / sqrt(mass) of hbar = 0.7 and mass = 2.5: the grid ladder of
#: those units is the library's on the domain divided by kappa, W(kappa y)
HEAVY = 0.7 / np.sqrt(2.5)


@pytest.fixture
def tridiagonal_calls(monkeypatch):
    """List that gains ``(len(d), len(e), kwargs)`` per ``eigh_tridiagonal``
    call made in the test."""
    import scipy.linalg

    calls = []
    solve = scipy.linalg.eigh_tridiagonal

    def counting(d, e, **kwargs):
        calls.append((len(d), len(e), kwargs))
        return solve(d, e, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    return calls


def full_accuracy_comparison(monkeypatch, *args, **kwargs):
    """``grid_partner_comparison`` with every eigenvalue bisected at scipy's
    default tolerance, the reference of the loose one."""
    import scipy.linalg

    solve = scipy.linalg.eigh_tridiagonal
    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "eigh_tridiagonal", lambda d, e, tol=None, **kw: solve(d, e, **kw))
        return intertwine.grid_partner_comparison(*args, **kwargs)


class TestGridPartner:
    def test_linear_superpotential_closed_form(self):
        grid = hilbert.GridSpec(-12.0, 12.0, 512)
        report = intertwine.grid_partner_comparison(lambda x: x, grid, n_modes=32)
        # companion approximates a+a + sqrt(2): residual at the dx^2 scale
        assert report.comparison_residual <= 0.2
        assert report.comparison_residual > 1e-6

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

    @pytest.mark.parametrize("n_modes", [16, config.SusyGridParams.n_modes], ids=["asked", "default"])
    def test_n1_is_decomposed_once_by_the_tridiagonal_solver(self, eigh_calls, tridiagonal_calls, n_modes):
        # N1 is tridiagonal: its lowest n_modes eigenpairs (asked, or the
        # config's default), and one more whose gap is read, come from one
        # eigh_tridiagonal call on the leading n - 1 block at the loose
        # tolerance and no dense eigh, and a polynomial map is applied by
        # Horner's rule and adds none
        grid = hilbert.GridSpec(-12.0, 12.0, 512)
        for coeffs in ((0.0, 1.0), (0, 0, 1)):
            tridiagonal_calls.clear()
            intertwine.grid_partner_comparison(lambda x: x, grid, coeffs, n_modes=n_modes)
            assert tridiagonal_calls == [
                (511, 510, {"tol": intertwine.PROBE_TOL, "select": "i", "select_range": (0, n_modes)})
            ]
        assert eigh_calls == []

    def test_a_a_dagger_is_formed_once(self, monkeypatch):
        # two gram products per size, b+ b for the target and a a+, which
        # the commutator diagnostic and the comparison share, and no other:
        # each multiplies the two terms of one band by the two of its adjoint
        calls = []
        matmul = hilbert.BlockOperator.__matmul__

        def counting(self, other):
            calls.append((self.offset, other.offset))
            return matmul(self, other)

        monkeypatch.setattr(hilbert.BlockOperator, "__matmul__", counting)
        intertwine.grid_partner_comparison(lambda x: x, hilbert.GridSpec(-12.0, 12.0, 256), (0, 0, 1), n_modes=32)
        assert calls == [(0, 0), (0, -1), (1, 0), (1, -1), (0, 0), (0, 1), (-1, 0), (-1, 1)]

    @pytest.mark.parametrize(
        "w, lo, n_modes",
        [(lambda x: x, 12.0, 32), (lambda x: x + 0.1 * x**3, 9.0, 24)],
        ids=["linear", "anharmonic"],
    )
    def test_shipped_superpotentials_take_one_loose_solve_at_the_grid_ceiling(
        self, monkeypatch, tridiagonal_calls, w, lo, n_modes
    ):
        # the smallest gap among the probes' eigenvalues, 5.5e-6 and 2.7e-6
        # of the norm bound at n = 4096, clears 1e4 PROBE_TOL: the shifts of
        # inverse iteration are close enough.  At this size the residual
        # reads the vectors only to about eps / gap: two full-accuracy
        # solves (the default bisection and one to relative accuracy, or
        # stemr) already differ by up to 9e-11 relative, the loose one from
        # the default by 7e-11
        grid = hilbert.GridSpec(-lo, lo, config.GRID_RANGE[1])
        loose = intertwine.grid_partner_comparison(w, grid, n_modes=n_modes)
        assert [call[2].get("tol") for call in tridiagonal_calls] == [intertwine.PROBE_TOL]
        full = full_accuracy_comparison(monkeypatch, w, grid, n_modes=n_modes)
        assert loose.comparison_residual == pytest.approx(full.comparison_residual, rel=2e-10, abs=0.0)

    def test_a_small_gap_repeats_the_solve_at_full_accuracy(self, monkeypatch, tridiagonal_calls):
        # W = 1e-3 x at n = 4096: the lowest eigenvalues of N1 lie 1.1e-7 of
        # the norm bound apart, below 1e4 PROBE_TOL, and the loose shifts
        # would drift the vectors; the second solve is scipy's default
        grid = hilbert.GridSpec(-12.0, 12.0, config.GRID_RANGE[1])
        report = intertwine.grid_partner_comparison(lambda x: 1e-3 * x, grid, n_modes=32)
        assert [call[2].get("tol") for call in tridiagonal_calls] == [intertwine.PROBE_TOL, None]
        full = full_accuracy_comparison(monkeypatch, lambda x: 1e-3 * x, grid, n_modes=32)
        assert report.comparison_residual == pytest.approx(full.comparison_residual, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
    def test_a_gap_of_at_least_the_threshold_keeps_the_loose_solve(self, monkeypatch, tridiagonal_calls, below):
        # the solver's eigenvalues replaced by two that lie exactly 1e4
        # PROBE_TOL apart, or one float less: the first solve is kept, the
        # second is repeated
        import scipy.linalg

        counting = scipy.linalg.eigh_tridiagonal
        gap = 1e4 * intertwine.PROBE_TOL
        gap = np.nextafter(gap, 0.0) if below else gap
        monkeypatch.setattr(
            scipy.linalg, "eigh_tridiagonal", lambda d, e, **kw: (np.array([0.0, gap]), counting(d, e, **kw)[1])
        )
        intertwine.grid_partner_comparison(lambda x: x, hilbert.GridSpec(-12.0, 12.0, 64), n_modes=8)
        assert len(tridiagonal_calls) == 1 + below

    def test_no_map_matches_identity_map(self):
        grid = hilbert.GridSpec(-12.0, 12.0, 128)
        plain = intertwine.grid_partner_comparison(lambda x: x, grid, n_modes=16)
        mapped = intertwine.grid_partner_comparison(lambda x: x, grid, coeffs=[0, 1], n_modes=16)
        assert plain.comparison_residual == pytest.approx(mapped.comparison_residual, rel=1e-9)

    # at an odd point count the domain's centre is a node, so no probe
    # reaches its peak on the bonds and the probe norms are read
    @pytest.mark.parametrize("points", [129, 256, 512])
    @pytest.mark.parametrize(
        "w, lo, coeffs, n_modes",
        [
            (lambda x: x, 12.0, (0.0, 1.0), 32),
            (lambda x: x, 12.0, (0, 0, 1), 32),
            (lambda x: x, 12.0, (0.5, -1.0, 0.25), 32),
            (lambda x: x + 0.1 * x**3, 9.0, (0.0, 1.0), 24),
            # the anharmonic case at hbar = 0.7 and mass = 2.5: x = HEAVY y
            (lambda y: HEAVY * y + 0.1 * (HEAVY * y) ** 3, 9.0 / HEAVY, (0, 0, 1), 24),
        ],
        ids=["linear", "linear-squared", "linear-constant-odd", "anharmonic", "anharmonic-squared-heavy"],
    )
    def test_matches_dense_formation(self, w, lo, coeffs, n_modes, points):
        grid = hilbert.GridSpec(-lo, lo, points)
        report = intertwine.grid_partner_comparison(w, grid, coeffs, n_modes=n_modes)
        commutator, comparison = dense_grid_comparison(w, grid, coeffs, n_modes)
        assert report.commutator_residual == pytest.approx(commutator, rel=1e-9)
        assert report.comparison_residual == pytest.approx(comparison, rel=1e-9)

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0), (0, 0, 1)], ids=["plain", "squared"])
    def test_peak_memory_stays_at_a_few_probe_blocks(self, coeffs):
        # O(n k): the probes are k x n, and one n x n array (32 MiB at
        # n = 2048) would break the bound many times over
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
        assert peak <= 8 * grid.points * k * 8

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

    @pytest.mark.parametrize("side", [0.99, 1.01], ids=["inside", "beyond"])
    @pytest.mark.parametrize("coeffs", [(0, 0, 1), (0, 0, -1)], ids=["squared", "negated"])
    def test_map_beyond_the_float_range_rejected(self, side, coeffs):
        # the ladder's bound (4 s)^2 on N1 and T, squared by the map, against
        # float max / (2 sqrt(n)): at 0.99 of the largest entry s admitted the
        # residuals are finite, at 1.01 the run stops before any product.  The
        # bound reads |coeffs|, so a negative leading coefficient counts too.
        # The linear grid on [-12, 12] is rescaled by kappa, c / dx with it
        largest = (np.finfo(float).max / (2.0 * np.sqrt(64))) ** 0.25 / 4.0
        kappa = side * largest * hilbert.GridSpec(-12.0, 12.0, 64).dx * np.sqrt(2.0)
        grid = hilbert.GridSpec(-12.0 / kappa, 12.0 / kappa, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if side > 1:
                with pytest.raises(errors.GridOverflowError, match="can leave the float range"):
                    intertwine.grid_partner_comparison(lambda y: kappa * y, grid, coeffs, n_modes=8)
            else:
                report = intertwine.grid_partner_comparison(lambda y: kappa * y, grid, coeffs, n_modes=8)
                assert np.isfinite([report.commutator_residual, report.comparison_residual]).all()

    def test_residuals_above_the_square_root_of_float_max_stay_finite(self):
        # on [-12, 12] rescaled by 1e100 (hbar = 1e100) the entries of N1 phi
        # reach about 1e201: a sum of their squares would overflow, the norm
        # of the row scaled by its largest entry does not
        grid = hilbert.GridSpec(-12e-100, 12e-100, 256)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = intertwine.grid_partner_comparison(lambda y: 1e100 * y, grid, n_modes=32)
        assert 1e154 < report.comparison_residual < np.inf

    @pytest.mark.parametrize("n_modes", [0, 64])
    def test_probe_count_outside_the_bonds_rejected(self, n_modes):
        # N1 has n - 1 = 63 modes on the bonds of a 64-point grid
        grid = hilbert.GridSpec(-12.0, 12.0, 64)
        with pytest.raises(errors.ProbeCountError, match=rf"n_modes {n_modes} outside 1\.\.63, .* n - 1 bonds"):
            intertwine.grid_partner_comparison(lambda x: x, grid, n_modes=n_modes)

    def test_every_mode_of_n1_can_be_a_probe(self):
        grid = hilbert.GridSpec(-12.0, 12.0, 64)
        report = intertwine.grid_partner_comparison(lambda x: x, grid, n_modes=63)
        assert np.isfinite([report.commutator_residual, report.comparison_residual]).all()

    def test_one_probe_is_enough(self):
        grid = hilbert.GridSpec(-12.0, 12.0, 64)
        report = intertwine.grid_partner_comparison(lambda x: x, grid, n_modes=1)
        assert np.isfinite([report.commutator_residual, report.comparison_residual]).all()

    def test_nonpositive_derivative_rejected(self):
        grid = hilbert.GridSpec(-5.0, 5.0, 128)
        with pytest.raises(errors.NonPositiveDerivativeError):
            intertwine.grid_partner_comparison(lambda x: -x, grid, n_modes=32)


class TestRowNorms:
    def test_matches_hypot(self):
        rows = np.random.default_rng(5).standard_normal((200, 32)) * np.logspace(-150, 150, 200)[:, None]
        np.testing.assert_allclose(intertwine._row_norms(rows), np.hypot.reduce(rows, axis=1), rtol=1e-15, atol=0.0)

    def test_zero_row_is_zero_and_nan_stays(self):
        rows = np.zeros((3, 8))
        rows[1, 2] = np.nan
        rows[2, 5] = -3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = intertwine._row_norms(rows)
        assert norms[0] == 0.0
        assert np.isnan(norms[1])
        assert norms[2] == 3.0

    def test_no_overflow_above_the_square_root_of_float_max(self):
        rows = np.full((2, 16), 1e200)
        rows[1] *= -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = intertwine._row_norms(rows)
        np.testing.assert_allclose(norms, 4e200, rtol=1e-15)


class TestFitPowerLaw:
    def test_recovers_exponent(self):
        x = np.array([0.1, 0.05, 0.025])
        assert intertwine.fit_power_law(x, 3.0 * x**2) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        # a run-time failure (exit 1), not a config error: no key is at fault
        with pytest.raises(errors.VcsLabError, match="positive data") as info:
            intertwine.fit_power_law([1.0, 2.0], [0.0, 1.0])
        assert not isinstance(info.value, errors.ConfigError)

    def test_rejects_nonpositive_abscissae(self):
        with pytest.raises(errors.VcsLabError, match="positive data"):
            intertwine.fit_power_law([0.0, 1.0], [1.0, 2.0])
