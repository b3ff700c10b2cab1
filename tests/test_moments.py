import math
import warnings
from importlib import resources

import numpy as np
import pytest
import yaml
from numpy.polynomial.laguerre import laggauss

from vcslab import config, errors, experiments, moments, spectra, vcs
from vcslab.experiments import run_experiment


def eds_pair(dim=16):
    # e1[n] = n + 0.3, e2[n] = sqrt(2) (n + 0.5): positive grounds, disjoint
    return [
        spectra.linear_sequence(dim, 1.0, offset=0.3),
        spectra.linear_sequence(dim, math.sqrt(2.0), offset=math.sqrt(2.0) / 2),
    ]


def eds_weights():
    return [
        moments.MomentWeight.gamma_family(1.0),
        moments.MomentWeight.gamma_family(math.sqrt(2.0)),
    ]


def gauss_laguerre(weight, n_nodes=40):
    """The weight's nodes and weights on an ``n_nodes``-point Gauss-Laguerre rule."""
    return weight.quadrature(laggauss(n_nodes))


class TestVerifyMoments:
    def test_unit_scale_exactness(self):
        # int_0^inf u^k e^-u du = k!, reproduced to quadrature exactness
        weight = moments.MomentWeight.gamma_family(1.0)
        errs = moments.verify_moments(gauss_laguerre(weight), spectra.linear_sequence(30), k_max=20)
        assert errs.max() <= 1e-12

    def test_scaled_moments(self):
        # weight scale 2 against e~[n] = 2n: moments 2^k k!
        weight = moments.MomentWeight.gamma_family(2.0)
        seq = spectra.linear_sequence(16, 2.0)
        errs = moments.verify_moments(gauss_laguerre(weight), seq, k_max=12)
        assert errs.max() <= 1e-12
        nodes, weights = gauss_laguerre(weight)
        for k in range(5):
            assert weights @ nodes**k == pytest.approx(2.0**k * math.factorial(k))

    def test_zeroth_moment_is_one(self):
        weight = moments.MomentWeight.gamma_family(3.7)
        errs = moments.verify_moments(gauss_laguerre(weight), spectra.linear_sequence(8, 3.7), k_max=0)
        assert errs[0] <= 1e-14

    def test_mismatched_weight_detected(self):
        weight = moments.MomentWeight.gamma_family(2.0)
        seq = spectra.linear_sequence(12, 1.0)
        errs = moments.verify_moments(gauss_laguerre(weight), seq, k_max=6)
        assert errs.max() > 0.5

    def test_negative_weight_rejected(self):
        # a scale omega <= 0 makes exp(-u/omega)/omega negative or undefined;
        # a library error (exit 1), not a config error: no key is at fault
        for omega in (-2.0, 0.0):
            with pytest.raises(errors.VcsLabError, match="weight scale must be positive") as info:
                moments.MomentWeight.gamma_family(omega)
            assert not isinstance(info.value, errors.ConfigError)

    def test_order_past_the_truncation_rejected(self):
        # orders 0..dim-1 have factorial products; dim has none
        quadrature = gauss_laguerre(moments.MomentWeight.gamma_family(1.0))
        seq = spectra.linear_sequence(8)
        assert len(moments.verify_moments(quadrature, seq, 7)) == 8
        with pytest.raises(errors.DimensionMismatchError, match="^k_max 8 exceeds truncation 7$"):
            moments.verify_moments(quadrature, seq, 8)

    def test_overflowing_moment_names_its_order(self):
        # the factorial products are finite at dim 160, but nodes ** k is not from k = 125
        weight = moments.MomentWeight.gamma_family(1.0)
        seq = spectra.linear_sequence(160, 1.0, offset=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(errors.UnverifiableWeightError, match="order 125 .82 nodes.*float range"):
                moments.verify_moments(gauss_laguerre(weight, 82), seq, 159)

    @pytest.mark.parametrize("n_nodes, broken", [(187, 12), (400, 400)])
    def test_nonfinite_weights_name_the_node_count(self, n_nodes, broken):
        # laggauss overflows on its weights from 187 nodes on; before this
        # check the NaN moment of order 0 was blamed on the moments
        weight = moments.MomentWeight.gamma_family(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            quadrature = gauss_laguerre(weight, n_nodes)
        seq = spectra.linear_sequence(30, 1.0, offset=0.3)
        message = f"^{broken} of the {n_nodes} quadrature weights are not finite"
        with pytest.raises(errors.UnverifiableWeightError, match=message):
            moments.verify_moments(quadrature, seq, 29)


def direct_phase_average(thetas, horizon, step):
    """Literal trapezoid Cesaro mean on the grid ``cesaro_phase_average`` realizes."""
    m = max(16, math.ceil(2.0 * horizon / step))
    s = 2.0 * horizon / m
    grid = -horizon + s * np.arange(m + 1)
    res = np.empty(thetas.shape)
    for i, th in enumerate(thetas):
        samples = np.exp(1j * th * grid)
        total = samples.sum() - 0.5 * (samples[0] + samples[-1])
        res[i] = (s * total / (2.0 * horizon)).real
    return res


class TestCesaroAverage:
    def test_zero_frequency(self):
        out = moments.cesaro_phase_average(np.array([0.0]), 100.0, 0.01)
        assert out[0] == pytest.approx(1.0)

    def test_matches_direct_summation(self):
        thetas = np.array([0.0, 0.13, 0.9, -2.4])
        closed = moments.cesaro_phase_average(thetas, 5.0, 0.05)
        direct = direct_phase_average(thetas, 5.0, 0.05)
        np.testing.assert_allclose(closed, direct, atol=1e-12)

    def test_single_mode_oracle(self):
        # the large-horizon average of exp(i theta gamma) is sin(tG)/(tG)
        theta, horizon = 0.8, 2000.0
        out = moments.cesaro_phase_average(np.array([theta]), horizon, 1e-3)
        expected = math.sin(theta * horizon) / (theta * horizon)
        assert out[0] == pytest.approx(expected, abs=1e-6)

    def test_step_must_resolve_phases(self):
        with pytest.raises(errors.VcsLabError, match="does not resolve the fastest frequency") as info:
            moments.cesaro_phase_average(np.array([50.0]), 10.0, 1.0)
        assert not isinstance(info.value, errors.ConfigError)
        # 16 panels on [-8, 8] make the step exactly 1: x = theta / 2 reaches pi / 2
        with pytest.raises(errors.VcsLabError, match="does not resolve"):
            moments.cesaro_phase_average(np.array([np.pi]), 8.0, 1.0)
        assert np.isfinite(moments.cesaro_phase_average(np.array([np.nextafter(np.pi, 0.0)]), 8.0, 1.0)).all()


def built(family, seqs, delta=0.0):
    """The family ``"eds"`` or ``"delta"`` (at regulator ``delta``) on ``seqs``."""
    return vcs.coherent_family(family, seqs, delta)


def assembled(family, seqs, weights, n_nodes=40, delta=0.0):
    """The run-level assembly of the family on ``seqs``."""
    return moments.resolution_assembly(built(family, seqs, delta), weights, n_nodes)


class TestResolutionCheck:
    def test_eds_family_small(self):
        assembly = assembled("eds", eds_pair(), eds_weights())
        report = assembly.report(1e4)
        assert assembly.diag_error <= 1e-8
        assert report.offdiag_error <= 1e-2
        # the phase-free part is symmetric and the phase average even in theta
        candidate = assembly.candidate(1e4)
        np.testing.assert_array_equal(candidate, candidate.T)

    def test_offdiag_shrinks_with_horizon(self):
        assembly = moments.resolution_assembly(vcs.coherent_family("eds", eds_pair()), eds_weights(), 40)
        reports = [assembly.report(horizon) for horizon in (1e2, 1e3, 1e4)]
        errs = [r.offdiag_error for r in reports]
        assert errs[0] > errs[1] > errs[2]
        # full-window residual trends down toward the quadrature floor
        assert errs[2] <= errs[0] / 30
        # the phase average is exactly 1 on the diagonal, so the diagonal
        # error the assembly reads once holds at every horizon, bit for bit
        for horizon in (1e2, 1e3, 1e4):
            diagonal = np.diag(assembly.candidate(horizon))
            np.testing.assert_array_equal(diagonal, np.diag(assembly.phase_free))

    def test_delta_family(self):
        seqs = [spectra.linear_sequence(16), spectra.linear_sequence(16)]
        weights = [moments.MomentWeight.gamma_family(1.0)] * 2
        assembly = assembled("delta", seqs, weights, delta=0.5)
        assert assembly.diag_error <= 1e-8
        assert assembly.report(1e4).offdiag_error <= 1e-2

    # the assembly takes a built family: its builder rejects spectra and
    # regulators that cannot resolve the identity

    def test_delta_family_rejects_nonpositive_delta(self):
        seqs = [spectra.linear_sequence(16), spectra.linear_sequence(16)]
        with pytest.raises(errors.NonPositiveDeltaError, match="needs delta > 0, got 0.0"):
            vcs.coherent_family("delta", seqs, 0.0)

    def test_delta_family_requires_zero_ground(self):
        # also the zero-regulator family, the one the cross entry reads
        seqs = [spectra.linear_sequence(16, offset=0.5), spectra.linear_sequence(16, offset=0.7)]
        with pytest.raises(errors.RegimeError, match=r"seqs\[0\] ground level 0.5"):
            vcs.coherent_family("delta", seqs, 0.5)
        with pytest.raises(errors.RegimeError, match=r"seqs\[0\] ground level 0.5"):
            vcs.coherent_family("delta", seqs)

    def test_eds_family_requires_disjoint_spectra(self):
        seqs = [
            spectra.linear_sequence(12, offset=0.3),
            spectra.linear_sequence(12, offset=0.3),
        ]
        with pytest.raises(errors.SpectraNotDisjointError, match=r"seqs\[0\] and seqs\[1\] collide"):
            vcs.coherent_family("eds", seqs)

    def test_bad_weight_rejected(self):
        # the wrong scales show in the reported moment errors, for the
        # caller's moment-verification check to reject
        seqs = eds_pair()
        weights = [moments.MomentWeight.gamma_family(2.0)] * 2  # wrong scales
        assert min(assembled("eds", seqs, weights).moment_errors) > 1e-8

    def test_too_few_nodes_fail_moment_verification(self):
        # the config rejects n_nodes below ceil(dim / 2) at parse time; a
        # direct call is judged by the moment check: at dim 16, 4, 6 and 7
        # nodes miss the high moments, and 8 (the config's floor) and 9 are exact
        tol = config.ResolutionParams.TOLERANCES["moment"]
        for n_nodes in (4, 6, 7):
            assert min(assembled("eds", eds_pair(), eds_weights(), n_nodes).moment_errors) > tol
        for n_nodes in (8, 9):
            assert max(assembled("eds", eds_pair(), eds_weights(), n_nodes).moment_errors) <= tol


class TestLiteralAssemblyOracle:
    """Brute-force duplicate of the resolution assembly from actual states.

    Writes every coherent state on the (J1, J2, gamma) product grid from the
    closed form, sums the weighted projectors literally, and compares against
    the factorized candidate of ``ResolutionAssembly.candidate`` (same nodes,
    same trapezoid grid).  Level ``n`` of sector ``j`` is
    ``sqrt(Jj^n / e~j[n]!) exp(i sign_j (ej[n] + delta) gamma) / sqrt(N)``,
    with the phase signs -1 and +1 in the delta family and -1 in every
    sector of the shift family; the measure's ``N`` cancels the state's.
    """

    def literal_identity(self, family, seqs, weights, n_nodes, horizon, panels, delta):
        s = 2.0 * horizon / panels
        gammas = -horizon + s * np.arange(panels + 1)
        g_weights = np.full(panels + 1, s / (2.0 * horizon))
        g_weights[0] *= 0.5
        g_weights[-1] *= 0.5
        rule = laggauss(n_nodes)
        nodes1, w1 = weights[0].quadrature(rule)
        nodes2, w2 = weights[1].quadrature(rule)

        # one unnormalized state per (J1, J2, gamma) grid point
        j1, j2, gamma = (a.ravel() for a in np.meshgrid(nodes1, nodes2, gammas, indexing="ij"))
        wj1, wj2, wg = (a.ravel() for a in np.meshgrid(w1, w2, g_weights, indexing="ij"))
        signs = (-1.0, 1.0) if family == "delta" else (-1.0, -1.0)
        blocks = []
        for j, seq, sign in zip((j1, j2), seqs, signs):
            fact = np.cumprod(np.concatenate(([1.0], spectra.shift(seq).values[1:])))
            amplitude = np.sqrt(j[:, None] ** np.arange(seq.dim) / fact)
            blocks.append(amplitude * np.exp(1j * sign * (seq.values + delta) * gamma[:, None]))
        u = np.concatenate(blocks, axis=1)
        return np.einsum("s,sp,sq->pq", wj1 * wj2 * wg, u, u.conj())

    @pytest.mark.parametrize("family,delta", [("eds", 0.0), ("delta", 0.7)])
    def test_factorized_assembly_matches_literal(self, family, delta):
        dim, n_nodes, horizon = 9, 6, 5.0
        if family == "eds":
            seqs = eds_pair(dim)
            wts = eds_weights()
        else:
            seqs = [spectra.linear_sequence(dim), spectra.linear_sequence(dim)]
            wts = [moments.MomentWeight.gamma_family(1.0)] * 2
        assembly = moments.resolution_assembly(built(family, seqs, delta), wts, n_nodes)
        panels = assembly.report(horizon).n_samples - 1
        literal = self.literal_identity(family, seqs, wts, n_nodes, horizon, panels, delta)
        np.testing.assert_allclose(assembly.candidate(horizon), literal, atol=5e-12)


class TestDeltaZeroFailure:
    """The phase average of the delta family's ground-ground cross entry."""

    def family(self, dim=16, delta=None):
        seqs = [spectra.linear_sequence(dim), spectra.linear_sequence(dim)]
        return vcs.coherent_family("delta", seqs, delta)

    def demo(self, **params):
        """The shipped demo bundle as a mapping, with ``params`` overridden."""
        raw = yaml.safe_load((resources.files("vcslab") / "configs" / "delta-zero-failure.yaml").read_text())
        raw["params"].update(params)
        return raw

    def test_zero_regulator_average_is_one(self):
        family = self.family()
        assert [moments.cross_phase_average(family, h) for h in (1e2, 1e4)] == [1.0, 1.0]

    def test_positive_delta_restores_decay(self):
        family = self.family()
        mags = [abs(moments.cross_phase_average(family, h, 0.5)) for h in (1e2, 1e4)]
        # envelope of the phase average decays like 1/horizon
        assert 50 < mags[0] / mags[1] < 200

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_entry_without_the_overflowing_assembly(self, delta):
        # at dim 160 with 82 nodes the half moments of the full assembly
        # overflow; the entry is its zeroth moments times the phase average
        seqs = self.family(160).seqs
        rule = laggauss(82)
        weights = [moments.MomentWeight.gamma_family(1.0)] * 2
        with np.errstate(all="ignore"):
            phase_free = moments._phase_free_candidate(seqs, [w.quadrature(rule) for w in weights])
        assert np.isinf(phase_free).any()
        # the delta family's frequencies: -(e1[n] + delta), then +(e2[n] + delta)
        freqs = np.concatenate([-(seqs[0].values + delta), seqs[1].values + delta])
        average = moments.cesaro_phase_average(freqs[0] - freqs[160], 1e4, moments._phase_step(freqs))
        with np.errstate(over="raise", invalid="raise"):
            assert moments.cross_phase_average(self.family(160), 1e4, delta) == average
        assert phase_free[0, 160] == pytest.approx(1.0, rel=1e-15)

    def test_entry_needs_two_sectors(self):
        family = vcs.coherent_family("eds", [spectra.linear_sequence(16)])
        with pytest.raises(errors.RegimeError, match="two-sector, got 1"):
            moments.cross_phase_average(family, 1e2)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_average_is_the_assemblys_at_the_cross_entry(self, delta):
        # the assembly of the family at regulator delta applies this factor
        # to its ground-ground cross entry
        family = self.family(delta=delta or None)
        weights = [moments.MomentWeight.gamma_family(1.0)] * 2
        assembly = moments.resolution_assembly(family, weights, 40)
        for horizon in (1e2, 1e3):
            average = moments.cross_phase_average(family, horizon, delta)
            assert assembly.candidate(horizon)[0, 16] == assembly.phase_free[0, 16] * average

    def test_decay_factor_is_a_ratio_of_magnitudes(self):
        # at delta 0.5 the averages at horizons 1e2 and 1e3 have opposite
        # signs, and the factor divides the first horizon's by the last's
        cfg = config.parse_config(self.demo(horizons=[1000.0, 100.0]))
        averages = [moments.cross_phase_average(cfg.family, h, 0.5) for h in (100.0, 1000.0)]
        assert averages[0] * averages[1] < 0
        report, _ = run_experiment(cfg)
        assert report.checks[0].value == abs(averages[0]) / abs(averages[1])

    @pytest.mark.parametrize("dim", [640, 4096])
    def test_demo_is_finite_at_large_dims(self, dim):
        # the shipped n_nodes (40): the demo builds no rule, so the config
        # asks for no node floor, and laggauss's NaN weights from 187 nodes
        # on cannot reach it
        raw = {**self.demo(), "dim": dim}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report, _ = run_experiment(config.parse_config(raw))
        assert [c.name for c in report.checks] == ["regulated-entry-decay-factor"]
        assert all(math.isfinite(c.value) and c.passed for c in report.checks)


@pytest.mark.parametrize("bundle", ["resolution-eds", "resolution-delta", "delta-zero-failure"])
def test_one_quadrature_rule_per_run(bundle, monkeypatch):
    calls = []
    real = moments.laggauss

    def counting(n_nodes):
        calls.append(n_nodes)
        return real(n_nodes)

    monkeypatch.setattr(moments, "laggauss", counting)
    cfg = config.load_bundled(bundle)
    p, seqs = cfg.params, cfg.spectra
    # the zero-regulator demo reads no quadrature at all
    rules = [] if bundle == "delta-zero-failure" else [p.n_nodes]
    report, tables = run_experiment(cfg)
    assert calls == rules
    again, _ = run_experiment(cfg)
    assert calls == rules * 2  # no rule outlives its run
    values = {c.name: c.value for c in report.checks}
    assert values == {c.name: c.value for c in again.checks}

    # the same bits as building everything again at every horizon
    horizons = sorted(p.horizons)
    if not rules:
        probes = [abs(moments.cross_phase_average(cfg.family, h, experiments.DELTA_PROBE)) for h in horizons]
        assert values["regulated-entry-decay-factor"] == probes[0] / probes[-1]
        return
    weights = [moments.MomentWeight.gamma_family(s.values[1] - s.values[0]) for s in seqs]
    assemblies = [moments.resolution_assembly(cfg.family, weights, p.n_nodes) for _ in horizons]
    per_horizon = [a.report(h) for a, h in zip(assemblies, horizons)]
    assert values["moment-verification"] == max(max(a.moment_errors) for a in assemblies)
    assert values["diagonal-residual"] == max(a.diag_error for a in assemblies)
    rows = [
        f"{r.gamma_horizon:.17g}\t{a.diag_error:.17g}\t{r.offdiag_error:.17g}"
        for a, r in zip(assemblies, per_horizon)
    ]
    assert tables["residual-vs-horizon.tsv"].splitlines()[1:] == rows
