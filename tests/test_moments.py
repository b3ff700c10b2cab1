import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

from vcslab import config, errors, moments, spectra, vcs
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
        # a scale omega <= 0 makes exp(-u/omega)/omega negative or undefined
        for omega in (-2.0, 0.0):
            with pytest.raises(errors.ConfigError):
                moments.MomentWeight.gamma_family(omega)

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
        with pytest.raises(errors.ConfigError):
            moments.cesaro_phase_average(np.array([50.0]), 10.0, 1.0)


def built(family, seqs, delta=0.0):
    """The family ``"eds"`` or ``"delta"`` (at regulator ``delta``) on ``seqs``."""
    return vcs.eds_family(seqs) if family == "eds" else vcs.delta_family(seqs, delta)


def assembled(family, seqs, weights, n_nodes=40, delta=0.0):
    """The run-level assembly of the family on ``seqs``."""
    return moments.resolution_assembly(built(family, seqs, delta), weights, n_nodes)


class TestResolutionCheck:
    def test_eds_family_small(self):
        assembly = assembled("eds", eds_pair(), eds_weights())
        report = assembly.report(1e4)
        assert assembly.diag_error <= 1e-8
        assert report.offdiag_error <= 1e-2
        assert report.hermiticity_defect <= 1e-12
        assert report.k_check == 15

    def test_offdiag_shrinks_with_horizon(self):
        assembly = moments.resolution_assembly(vcs.eds_family(eds_pair()), eds_weights(), 40)
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
            vcs.delta_family(seqs, 0.0)

    def test_delta_family_requires_zero_ground(self):
        # also the zero-regulator family, the one the cross entry reads
        seqs = [spectra.linear_sequence(16, offset=0.5), spectra.linear_sequence(16, offset=0.7)]
        with pytest.raises(errors.RegimeError, match=r"seqs\[0\] ground level 0.5"):
            vcs.delta_family(seqs, 0.5)
        with pytest.raises(errors.RegimeError, match=r"seqs\[0\] ground level 0.5"):
            vcs.coherent_family("delta", seqs)

    def test_eds_family_requires_disjoint_spectra(self):
        seqs = [
            spectra.linear_sequence(12, offset=0.3),
            spectra.linear_sequence(12, offset=0.3),
        ]
        with pytest.raises(errors.SpectraNotDisjointError, match=r"seqs\[0\] and seqs\[1\] collide"):
            vcs.eds_family(seqs)

    def test_bad_weight_rejected(self):
        # the wrong scales show in the reported moment errors, for the
        # caller's moment-verification check to reject
        seqs = eds_pair()
        weights = [moments.MomentWeight.gamma_family(2.0)] * 2  # wrong scales
        report = assembled("eds", seqs, weights).report(1e4)
        assert min(report.moment_errors) > 1e-8

    def test_too_few_nodes_fail_moment_verification(self):
        # the config rejects n_nodes below k_check / 2 + 1 at parse time; a
        # direct call is judged by the moment check: at k_check 15, 4 and 6
        # nodes miss the high moments, and 9 (the config's floor) is exact
        tol = config.ResolutionParams.TOLERANCES["moment"]
        for n_nodes in (4, 6):
            assert min(assembled("eds", eds_pair(), eds_weights(), n_nodes).moment_errors) > tol
        assert max(assembled("eds", eds_pair(), eds_weights(), 9).moment_errors) <= tol


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
        dim, n_nodes, horizon = 20, 6, 5.0
        if family == "eds":
            seqs = eds_pair(dim)
            wts = eds_weights()
        else:
            seqs = [spectra.linear_sequence(dim), spectra.linear_sequence(dim)]
            wts = [moments.MomentWeight.gamma_family(1.0)] * 2
        assembly = moments.resolution_assembly(built(family, seqs, delta), wts, n_nodes, k_check=8)
        panels = assembly.report(horizon).n_samples - 1
        literal = self.literal_identity(family, seqs, wts, n_nodes, horizon, panels, delta)
        np.testing.assert_allclose(assembly.candidate(horizon), literal, atol=5e-12)


class TestDeltaZeroFailure:
    def seqs_and_weights(self, dim=16):
        seqs = [spectra.linear_sequence(dim), spectra.linear_sequence(dim)]
        weights = [moments.MomentWeight.gamma_family(1.0)] * 2
        return seqs, weights

    def entry(self, dim=16, n_nodes=40):
        """The cross entry of the delta family at zero regulator."""
        seqs, weights = self.seqs_and_weights(dim)
        return moments.cross_entry(vcs.coherent_family("delta", seqs), weights, n_nodes)

    def test_cross_entry_is_order_one_and_horizon_stable(self):
        entry = self.entry()
        mags = [entry.report(horizon).magnitude for horizon in (1e2, 1e4)]
        assert mags[0] == pytest.approx(1.0, abs=1e-10)
        assert abs(mags[1] - mags[0]) / mags[0] < 0.05

    def test_positive_delta_restores_decay(self):
        entry = self.entry()
        mags = [entry.report(horizon, delta=0.5).magnitude for horizon in (1e2, 1e4)]
        # envelope of the phase average decays like 1/horizon
        assert 50 < mags[0] / mags[1] < 200

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_entry_without_the_overflowing_assembly(self, delta):
        # at dim 160 with 82 nodes the half moments of the full assembly
        # overflow; the entry itself needs only the zeroth moments
        seqs, weights = self.seqs_and_weights(160)
        rule = laggauss(82)
        with np.errstate(all="ignore"):
            phase_free = moments._phase_free_candidate(seqs, [w.quadrature(rule) for w in weights])
        assert np.isinf(phase_free).any()
        # the delta family's frequencies: -(e1[n] + delta), then +(e2[n] + delta)
        freqs = np.concatenate([-(seqs[0].values + delta), seqs[1].values + delta])
        step, _ = moments._phase_step(freqs, 1e4)
        entry = phase_free[0, 160] * moments.cesaro_phase_average(freqs[0] - freqs[160], 1e4, step)
        with np.errstate(over="raise", invalid="raise"):
            report = self.entry(160, 82).report(1e4, delta)
        assert report.magnitude == pytest.approx(abs(entry), rel=1e-15)

    def test_entry_needs_two_sectors(self):
        family = vcs.eds_family([spectra.linear_sequence(16)])
        with pytest.raises(errors.RegimeError, match="two-sector, got 1"):
            moments.cross_entry(family, [moments.MomentWeight.gamma_family(1.0)])

    def test_entry_factorizes(self):
        entry = self.entry()
        for delta in (0.0, 0.5):
            report = entry.report(1e3, delta)
            assert report.magnitude == pytest.approx(
                abs(report.j_integral * report.cesaro_factor), rel=1e-12
            )


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
    report, tables = run_experiment(cfg)
    assert calls == [p.n_nodes]
    again, _ = run_experiment(cfg)
    assert calls == [p.n_nodes] * 2  # no rule outlives its run
    values = {c.name: c.value for c in report.checks}
    assert values == {c.name: c.value for c in again.checks}

    # the same bits as building everything again at every horizon
    weights = [moments.MomentWeight.gamma_family(s.values[1] - s.values[0]) for s in seqs]
    horizons = sorted(p.horizons)

    if bundle == "delta-zero-failure":
        ends = (horizons[0], horizons[-1])

        def entry(horizon, delta=0.0):
            return moments.cross_entry(cfg.family, weights, p.n_nodes).report(horizon, delta)

        first, last = (entry(h) for h in ends)
        probes = [entry(h, p.delta_probe) for h in ends]
        drift = abs(last.magnitude - first.magnitude) / first.magnitude
        assert values["cross-entry-magnitude"] == last.magnitude
        assert values["cross-entry-horizon-drift"] == drift
        assert values["regulated-entry-decay-factor"] == probes[0].magnitude / probes[1].magnitude
        return
    assemblies = [moments.resolution_assembly(cfg.family, weights, p.n_nodes, p.k_check) for _ in horizons]
    per_horizon = [a.report(h) for a, h in zip(assemblies, horizons)]
    assert values["moment-verification"] == max(max(r.moment_errors) for r in per_horizon)
    assert values["diagonal-residual"] == max(a.diag_error for a in assemblies)
    assert values["assembly-hermiticity"] == max(r.hermiticity_defect for r in per_horizon)
    rows = [
        f"{r.gamma_horizon:.17g}\t{a.diag_error:.17g}\t{r.offdiag_error:.17g}"
        for a, r in zip(assemblies, per_horizon)
    ]
    assert tables["residual-vs-horizon.tsv"].splitlines()[1:] == rows
