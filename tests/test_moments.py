import math
import time
import warnings
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


class TestVerifyMoments:
    def test_unit_scale_exactness(self):
        # int_0^inf u^k e^-u du = k!, to rounding of the log domain
        weight = moments.MomentWeight.gamma_family(1.0)
        errs = moments.verify_moments(weight, spectra.linear_sequence(30), k_max=20)
        assert errs.max() <= 1e-12

    def test_scaled_moments(self):
        # weight scale 2 against e~[n] = 2n: moments 2^k k!
        weight = moments.MomentWeight.gamma_family(2.0)
        seq = spectra.linear_sequence(16, 2.0)
        errs = moments.verify_moments(weight, seq, k_max=12)
        assert errs.max() <= 1e-12
        logs = weight.log_moments(np.arange(5))
        for k in range(5):
            assert math.exp(logs[k]) == pytest.approx(2.0**k * math.factorial(k), rel=1e-14)

    def test_half_integer_moments(self):
        # int_0^inf u^(1/2) e^-u/omega du / omega = omega^(1/2) sqrt(pi) / 2, and
        # u^(3/2) gives three halves of that times omega
        weight = moments.MomentWeight.gamma_family(3.0)
        half, three_halves = np.exp(weight.log_moments([0.5, 1.5]))
        assert half == pytest.approx(math.sqrt(3.0 * math.pi) / 2.0, rel=1e-15)
        assert three_halves == pytest.approx(1.5 * 3.0 * half, rel=1e-15)

    def test_zeroth_moment_is_one(self):
        weight = moments.MomentWeight.gamma_family(3.7)
        errs = moments.verify_moments(weight, spectra.linear_sequence(8, 3.7), k_max=0)
        assert errs[0] == 0.0

    def test_mismatched_weight_detected(self):
        weight = moments.MomentWeight.gamma_family(2.0)
        seq = spectra.linear_sequence(12, 1.0)
        errs = moments.verify_moments(weight, seq, k_max=6)
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
        weight = moments.MomentWeight.gamma_family(1.0)
        seq = spectra.linear_sequence(8)
        assert len(moments.verify_moments(weight, seq, 7)) == 8
        with pytest.raises(errors.DimensionMismatchError, match="^k_max 8 exceeds truncation 7$"):
            moments.verify_moments(weight, seq, 8)

    def test_no_order_overflows_at_the_ceiling(self):
        # omega^k k! leaves the float range from k = 171 at omega 1, and near
        # k = 60 at omega 20: the log domain verifies every order to dim 4096
        # within the shipped tolerance, without a warning
        tol = config.ResolutionParams.TOLERANCES["moment"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for omega in (1.0, 20.0):
                weight = moments.MomentWeight.gamma_family(omega)
                errs = moments.verify_moments(weight, spectra.linear_sequence(4096, omega, 0.3), 4095)
                assert np.isfinite(errs).all() and errs.max() <= tol


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


def assembled(family, seqs, weights, delta=0.0):
    """The run-level assembly of the family on ``seqs``."""
    return moments.resolution_assembly(built(family, seqs, delta), weights)


def dense_candidate(family, weights, horizon):
    """Every entry of the identity candidate from the closed forms:
    ``g[p, q] / sqrt(e~[p]! e~[q]!)`` times the phase average, where ``g`` is
    the half-moment ``hm[t] = omega^(t/2) Gamma(t/2 + 1)`` of order ``n + m``
    within a sector, and ``hm_a[n] hm_b[m]`` across sectors."""
    n_sectors, dim = family.shape
    level = np.tile(np.arange(dim), n_sectors)
    sector = np.repeat(np.arange(n_sectors), dim)
    lgammas = np.array([math.lgamma(0.5 * t + 1.0) for t in range(2 * dim - 1)])
    log_omega = np.log([w.omega for w in weights])[sector]

    def log_hm(t, log_w):
        return 0.5 * t * log_w + lgammas[t]

    same = sector[:, None] == sector[None, :]
    single = log_hm(level, log_omega)
    log_g = np.where(same, log_hm(level[:, None] + level[None, :], log_omega[:, None]), single[:, None] + single)
    log_fact = np.concatenate([np.cumsum(np.log(np.r_[1.0, s.values[1:]])) for s in family.shifted])
    freqs = family.frequencies.ravel()
    average = moments.cesaro_phase_average(freqs[:, None] - freqs, horizon, moments._phase_step(freqs))
    return np.exp(log_g - 0.5 * (log_fact[:, None] + log_fact)) * average


def dense_offdiag_error(family, weights, horizon) -> float:
    candidate = dense_candidate(family, weights, horizon)
    np.fill_diagonal(candidate, 0.0)
    return float(np.abs(candidate).max())


class TestResolutionCheck:
    def test_eds_family_small(self):
        assembly = assembled("eds", eds_pair(), eds_weights())
        report = assembly.report(1e4)
        assert assembly.diag_error <= 1e-8
        assert report.offdiag_error <= 1e-2
        assert report.offdiag_error == dense_offdiag_error(built("eds", eds_pair()), eds_weights(), 1e4)

    def test_offdiag_shrinks_with_horizon(self):
        assembly = moments.resolution_assembly(vcs.coherent_family("eds", eds_pair()), eds_weights())
        reports = [assembly.report(horizon) for horizon in (1e2, 1e3, 1e4)]
        errs = [r.offdiag_error for r in reports]
        assert errs[0] > errs[1] > errs[2]
        # the error decays like 1/horizon, with no floor of its own
        assert errs[2] <= errs[0] / 30
        # the phase average is exactly 1 on the diagonal, so the one diagonal
        # error of the assembly is the candidate's at every horizon
        for horizon in (1e2, 1e3, 1e4):
            diagonal = np.diag(dense_candidate(built("eds", eds_pair()), eds_weights(), horizon))
            assert np.abs(diagonal - 1.0).max() == pytest.approx(assembly.diag_error, abs=1e-15)

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


    def test_underflowing_same_sector_maxima_leave_every_cross_entry_read(self):
        # a weight scale of 1e-300 puts the moment factor of every bottom
        # entry below the float range: the same-sector maximum is 0, which
        # prunes no cross-sector entry, and the result is still the largest
        family, weights = built("eds", eds_pair()), [moments.MomentWeight.gamma_family(1e-300)] * 2
        assembly = moments.resolution_assembly(family, weights)
        for horizon in (1e2, 1e4):
            offdiag = assembly.report(horizon).offdiag_error
            assert 0.0 < offdiag == dense_offdiag_error(family, weights, horizon)

    def test_smallest_truncation_reads_its_one_offdiagonal_entry(self):
        # at dim 2 the entry (0, 1) is the bottom of the first diagonal and
        # the whole of the last
        family = built("eds", [spectra.linear_sequence(2, 1.5, 0.2)])
        weights = [moments.MomentWeight.gamma_family(1.5)]
        offdiag = moments.resolution_assembly(family, weights).report(1e2).offdiag_error
        assert offdiag == dense_offdiag_error(family, weights, 1e2) > 0.0

    def test_sample_count_is_the_phase_grid_of_the_average(self):
        # n_samples points on [-horizon, horizon] make the trapezoid sum whose
        # closed form the assembly applies
        assembly = assembled("eds", eds_pair(9), eds_weights())
        horizon = 5.0
        points = assembly.report(horizon).n_samples
        grid = np.linspace(-horizon, horizon, points)
        samples = np.exp(1j * 0.9 * grid)
        literal = ((samples.sum() - 0.5 * (samples[0] + samples[-1])) / (points - 1)).real
        assert moments.cesaro_phase_average(0.9, horizon, assembly.step) == pytest.approx(literal, abs=1e-12)


@st.composite
def resolution_configs(draw, family):
    """A parsed resolution config of ``family``: dim 8-120, spacings in
    [0.05, 20], each spectrum linear or listed with gap noise inside the
    config's 1e-12 spacing check."""
    dim = draw(st.integers(8, 120))
    entries = []
    for _ in range(2 if family == "delta" else draw(st.integers(1, 3))):
        omega = draw(st.floats(0.05, 20.0))
        offset = 0.0 if family == "delta" else draw(st.floats(0.0, 5.0))
        if draw(st.booleans()):
            entries.append({"form": "linear", "omega": omega, "offset": offset})
            continue
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        gaps = omega * (1.0 + draw(st.floats(0.0, 4e-13)) * rng.uniform(-1.0, 1.0, dim - 1))
        entries.append({"form": "values", "values": (offset + np.r_[0.0, np.cumsum(gaps)]).tolist()})
    params = {"family": family, "horizons": [draw(st.floats(1.0, 1e4)), 2e4]}
    if family == "delta":
        params["delta"] = draw(st.floats(0.05, 5.0))
    try:
        return config.parse_config({"kind": "resolution", "dim": dim, "spectra": entries, "params": params})
    except errors.ConfigError:
        assume(False)


class TestDenseOracle:
    """The pruned maximum of ``ResolutionAssembly.report`` against every
    entry of the candidate, on the weights a run builds."""

    @pytest.mark.parametrize("family", ["eds", "delta"])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_pruned_maximum_matches_the_dense_candidate(self, family, data):
        cfg = data.draw(resolution_configs(family))
        weights = [moments.MomentWeight.gamma_family(s.values[1] - s.values[0]) for s in cfg.spectra]
        assembly = moments.resolution_assembly(cfg.family, weights)
        for horizon in cfg.params.horizons:
            dense = dense_offdiag_error(cfg.family, weights, horizon)
            assert assembly.report(horizon).offdiag_error == pytest.approx(dense, rel=1e-12, abs=0.0)


class TestDeltaZeroFailure:
    """The delta family's ground-ground cross entry, and the unregulated
    family through the ordinary resolution check."""

    def family(self, dim=16, delta=None):
        seqs = [spectra.linear_sequence(dim), spectra.linear_sequence(dim)]
        return vcs.coherent_family("delta", seqs, delta)

    def weights(self):
        return [moments.MomentWeight.gamma_family(1.0)] * 2

    def bundle(self, **params):
        """The shipped zero-regulator bundle as a mapping, with ``params`` overridden."""
        raw = yaml.safe_load((resources.files("vcslab") / "configs" / "delta-zero-failure.yaml").read_text())
        raw["params"].update(params)
        return raw

    def test_zero_regulator_average_is_one(self):
        # the entry [0, dim] is its two zeroth moments, 1, times the phase
        # average at the frequency difference -2 delta = 0: exactly 1
        family = self.family()
        assert [dense_candidate(family, self.weights(), h)[0, 16] for h in (1e2, 1e4)] == [1.0, 1.0]

    def test_positive_delta_restores_decay(self):
        family = self.family(delta=0.5)
        mags = [abs(dense_candidate(family, self.weights(), h)[0, 16]) for h in (1e2, 1e4)]
        # envelope of the phase average decays like 1/horizon
        assert 50 < mags[0] / mags[1] < 200

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_cross_entry_at_dim_160_is_its_phase_average(self, delta):
        # the entry is its two zeroth moments, exactly 1, times the phase
        # average, and no factor of the candidate overflows at this size
        family = self.family(160, delta or None)
        # the delta family's frequencies: -(e1[n] + delta), then +(e2[n] + delta)
        freqs = np.concatenate([-(family.seqs[0].values + delta), family.seqs[1].values + delta])
        average = moments.cesaro_phase_average(freqs[0] - freqs[160], 1e4, moments._phase_step(freqs))
        with np.errstate(over="raise", invalid="raise"):
            assert dense_candidate(family, self.weights(), 1e4)[0, 160] == average

    def test_entry_needs_two_sectors(self):
        # the cross entry joins the delta family's two sectors, at any regulator
        with pytest.raises(errors.RegimeError, match="two-sector, got 1"):
            vcs.coherent_family("delta", [spectra.linear_sequence(16)])
        one = self.bundle()
        one["spectra"] = one["spectra"][:1]
        with pytest.raises(errors.ConfigError, match="spectra: the delta family is two-sector, got 1"):
            config.parse_config(one)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_average_is_the_assemblys_at_the_cross_entry(self, delta):
        # the assembly of the family at regulator delta applies the phase
        # average at -2 delta to its ground-ground cross entry, whose moment
        # factor is 1; at zero regulator that is 1 too, and no entry is larger
        family, weights = self.family(delta=delta or None), self.weights()
        assembly = moments.resolution_assembly(family, weights)
        for horizon in (1e2, 1e3):
            average = moments.cesaro_phase_average(-2.0 * delta, horizon, assembly.step)
            assert dense_candidate(family, weights, horizon)[0, 16] == average
            offdiag = assembly.report(horizon).offdiag_error
            assert offdiag == 1.0 if delta == 0.0 else abs(average) <= offdiag < 1.0

    def test_decay_factor_is_a_ratio_of_magnitudes(self):
        # at delta 0.5 the cross entry's averages at horizons 1e2 and 1e3 have
        # opposite signs; the run's exponent reads the off-diagonal
        # magnitudes, its horizons in order: 10 to its power is their ratio
        cfg = config.parse_config(self.bundle(delta=0.5, horizons=[1000.0, 100.0]))
        assembly = moments.resolution_assembly(cfg.family, self.weights())
        averages = [moments.cesaro_phase_average(-1.0, h, assembly.step) for h in (100.0, 1000.0)]
        assert averages[0] * averages[1] < 0
        first, last = (assembly.report(h).offdiag_error for h in (100.0, 1000.0))
        report, _ = run_experiment(cfg)
        exponent = {c.name: c.value for c in report.checks}["offdiagonal-decay-exponent"]
        assert 10.0**exponent == pytest.approx(first / last, rel=1e-12)

    @pytest.mark.parametrize("dim", [640, 4096])
    def test_zero_regulator_is_exact_at_large_dims(self, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report, tables = run_experiment(config.parse_config({**self.bundle(), "dim": dim}))
        # the off-diagonal error is exactly 1 at every horizon, so the exponent is exactly 0
        rows = [line.split("\t") for line in tables["residual-vs-horizon.tsv"].splitlines()[1:]]
        assert [float(row[2]) for row in rows] == [1.0, 1.0]
        values = {c.name: c.value for c in report.checks}
        assert values["offdiagonal-decay-exponent"] == 0.0
        assert report.overall_pass


@pytest.mark.parametrize("bundle", ["resolution-eds", "resolution-delta", "delta-zero-failure"])
def test_one_assembly_per_run(bundle, monkeypatch):
    calls = []
    real = experiments.resolution_assembly

    def counting(family, weights):
        calls.append(family)
        return real(family, weights)

    monkeypatch.setattr(experiments, "resolution_assembly", counting)
    cfg = config.load_bundled(bundle)
    p, seqs = cfg.params, cfg.spectra
    report, tables = run_experiment(cfg)
    assert len(calls) == 1
    again, _ = run_experiment(cfg)
    assert len(calls) == 2
    values = {c.name: c.value for c in report.checks}
    assert values == {c.name: c.value for c in again.checks}

    # the same bits as building everything again at every horizon
    horizons = sorted(p.horizons)
    weights = [moments.MomentWeight.gamma_family(s.values[1] - s.values[0]) for s in seqs]
    assemblies = [moments.resolution_assembly(cfg.family, weights) for _ in horizons]
    per_horizon = [a.report(h) for a, h in zip(assemblies, horizons)]
    assert values["moment-verification"] == max(max(a.moment_errors) for a in assemblies)
    assert values["diagonal-residual"] == max(a.diag_error for a in assemblies)
    rows = [
        f"{r.gamma_horizon:.17g}\t{a.diag_error:.17g}\t{r.offdiag_error:.17g}"
        for a, r in zip(assemblies, per_horizon)
    ]
    assert tables["residual-vs-horizon.tsv"].splitlines()[1:] == rows


@pytest.mark.parametrize("bundle", ["resolution-eds", "resolution-delta"])
def test_shipped_verdicts_hold_at_the_ceiling(bundle):
    # the bundle at dim 4096 with its tolerances as shipped: every check
    # keeps its shipped verdict, well within a second
    raw = yaml.safe_load((resources.files("vcslab") / "configs" / f"{bundle}.yaml").read_text())
    shipped, _ = run_experiment(config.parse_config(raw))
    cfg = config.parse_config({**raw, "dim": config.DIM_RANGE[1]})
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report, _ = run_experiment(cfg)
    assert time.perf_counter() - start < 1.0
    assert [(c.name, c.passed) for c in report.checks] == [(c.name, c.passed) for c in shipped.checks]
    assert all(c.passed for c in report.checks)
