import math
import re
import tracemalloc

import numpy as np
import pytest

from vcslab import config, errors, hilbert, spectra, vcs
from vcslab.experiments import run_experiment


def eds_linear_pair(dim=60):
    return [
        spectra.linear_sequence(dim, 1.0, offset=0.3),
        spectra.linear_sequence(dim, math.sqrt(2.0), offset=0.55),
    ]


def eds_quon_pair(dim=50):
    # nonlinear spectra with positive, pairwise disjoint eigenvalues;
    # bounded quon values saturate in float64 near n ~ 53 at q = 0.5
    return [
        spectra.quon_sequence(dim, 0.5, offset=0.3),
        spectra.quon_sequence(dim, 0.7, offset=0.55),
    ]


def geometric_limit(shifted):
    """The geometric extrapolation ``e~[D-1] + d r / (1 - r)`` of a bounded
    spectrum's limit, with ``d`` the last increment and ``r`` the ratio of
    the last two: at least ``e~[D-1]`` whenever ``0 < r < 1``."""
    d = np.diff(shifted.values)
    r = d[-1] / d[-2]
    return shifted.values[-1] + d[-1] * r / (1.0 - r)


def zero_ground_pair(dim=60):
    return [spectra.linear_sequence(dim), spectra.linear_sequence(dim, 1.0)]


def one_state(family, seqs, intensities, gamma, delta=0.5):
    """The one-row states of ``family`` (``"eds"`` or ``"delta"``) at the given labels."""
    return vcs.coherent_family(family, seqs, delta).states([intensities], [gamma])


def sample_states(family, dim):
    """A state of either family at J = (1, 2), gamma = 0.7 (and delta = 0.5 for the delta family)."""
    seqs = eds_linear_pair(dim) if family == "eds" else zero_ground_pair(dim)
    return one_state(family, seqs, (1.0, 2.0), 0.7)


def vector(states):
    """The flat sector-major coefficient vector of a one-row ``states``."""
    return states.coefficients[0].ravel()


def dense_stability_residual(states, t, family_name, evolution):
    """``||U psi - psi(gamma + t)||`` with ``U`` formed as a dense diagonal matrix:
    ``diag(exp(-i e t))``, or the delta family's split-sign form
    ``diag(exp(-i (e1 + delta) t), exp(+i (e2 + delta) t))``, and the member at
    ``gamma + t`` rebuilt through the family's builder."""
    family = states.family
    values = [s.values for s in family.seqs]
    after = family.states(states.intensities, states.gammas + t)
    if family_name == "delta" and evolution == "family":
        phases = [np.exp(-1j * (values[0] + family.delta) * t), np.exp(+1j * (values[1] + family.delta) * t)]
    else:
        phases = [np.exp(-1j * v * t) for v in values]
    u = np.diag(np.concatenate(phases))
    return float(np.linalg.norm(u @ vector(states) - vector(after)))


class TestSeriesNorm:
    def test_exponential_series(self):
        shifted = spectra.shift(spectra.linear_sequence(40))
        value, tail = vcs.series_norm(shifted, 1.0)
        assert value == pytest.approx(math.e, rel=1e-14)
        assert tail < 1e-12

    def test_zero_intensity(self):
        shifted = spectra.shift(spectra.linear_sequence(10))
        value, tail = vcs.series_norm(shifted, 0.0)
        assert value == 1.0
        assert tail == 0.0

    def test_scaled_exponential(self):
        omega, j = 2.0, 3.0
        shifted = spectra.shift(spectra.linear_sequence(60, omega))
        value, _ = vcs.series_norm(shifted, j)
        assert value == pytest.approx(math.exp(j / omega), rel=1e-13)

    def test_bounded_spectrum_past_its_radius(self):
        shifted = spectra.shift(spectra.quon_sequence(50, 0.5))  # radius 2
        with pytest.raises(errors.TailTooLargeError):
            vcs.series_norm(shifted, 2.5)

    def test_tail_too_large_near_disc_edge(self):
        # the bound is returned for the caller to judge; only J at or above
        # the top shifted level, where no geometric bound exists, raises
        shifted = spectra.shift(spectra.quon_sequence(50, 0.5))
        _, tail = vcs.series_norm(shifted, 1.9)
        assert tail > 1e-10
        with pytest.raises(errors.TailTooLargeError, match="no geometric tail control"):
            vcs.series_norm(spectra.shift(spectra.linear_sequence(10)), 9.0)

    def test_negative_intensity(self):
        shifted = spectra.shift(spectra.linear_sequence(10))
        with pytest.raises(errors.OutOfDiscError):
            vcs.series_norm(shifted, -0.1)

    def test_intensity_at_the_geometric_limit_has_no_tail_control(self):
        # the geometric extrapolation of a bounded spectrum's limit lies at or
        # above the top shifted level, so the tail guard rejects it
        shifted = spectra.shift(spectra.quon_sequence(50, 0.5))
        limit = geometric_limit(shifted)
        assert limit > shifted.values[-1]
        with pytest.raises(errors.TailTooLargeError, match="no geometric tail control"):
            vcs.series_norm(shifted, limit)

    def test_messages_name_the_first_offender(self):
        # the first offender is not the first entry: a 0, no offender, comes
        # before the negative one, and the first one past the top shifted
        # level sits exactly at the geometric limit
        shifted = spectra.shift(spectra.quon_sequence(50, 0.5))
        with pytest.raises(errors.OutOfDiscError, match=r"nonnegative, got -0\.25$"):
            vcs.series_norm(shifted, np.array([0.5, 0.0, -0.25, -3.0]))
        limit = geometric_limit(shifted)
        with pytest.raises(errors.TailTooLargeError, match=rf"^no geometric tail control: J={re.escape(str(limit))} >="):
            vcs.series_norm(shifted, np.array([0.5, limit, limit + 1.0]))


class TestDeltaFamilyState:
    def test_zero_intensity_closed_form(self):
        gamma, delta = 1.3, 0.7
        states = one_state("delta", zero_ground_pair(12), (0.0, 0.0), gamma, delta)
        assert states.norm_const[0] == pytest.approx(2.0)
        c = states.coefficients[0]
        expected_b = np.exp(-1j * delta * gamma) / math.sqrt(2.0)
        expected_f = np.exp(+1j * delta * gamma) / math.sqrt(2.0)
        assert c[0, 0] == pytest.approx(expected_b, abs=1e-15)
        assert c[1, 0] == pytest.approx(expected_f, abs=1e-15)
        assert np.abs(c[0, 1:]).max() == 0

    def test_unit_norm(self):
        states = one_state("delta", zero_ground_pair(), (1.5, 2.5), 0.8, 0.3)
        assert np.linalg.norm(vector(states)) == pytest.approx(1.0, abs=1e-13)
        assert states.tail_bound[0] < 1e-10

    def test_norm_constant_closed_form(self):
        states = one_state("delta", zero_ground_pair(), (1.0, 4.0), 0.0, 0.1)
        assert states.norm_const[0] == pytest.approx(math.e + math.exp(4.0), rel=1e-12)

    def test_requires_positive_delta(self):
        with pytest.raises(errors.RegimeError):
            vcs.coherent_family("delta", zero_ground_pair(12), 0.0)

    def test_requires_zero_ground(self):
        with pytest.raises(errors.RegimeError):
            vcs.coherent_family("delta", eds_linear_pair(12), 0.5)


class TestEdsFamilyState:
    def test_zero_intensity_closed_form(self):
        gamma = 2.1
        seqs = eds_linear_pair(12)
        states = one_state("eds", seqs, (0.0, 0.0), gamma)
        for j, s in enumerate(seqs):
            expected = np.exp(-1j * s.ground * gamma) / math.sqrt(2.0)
            assert states.coefficients[0, j, 0] == pytest.approx(expected, abs=1e-15)

    def test_real_positive_at_zero_gamma(self):
        seqs = eds_linear_pair(40)
        states = one_state("eds", seqs, (1.2, 0.8), 0.0)
        coeffs = vector(states)
        assert np.abs(coeffs.imag).max() == 0
        assert coeffs.real.min() > 0
        # sector weight J^(n/2)/sqrt(e~[n]! N~)
        fact = np.exp(spectra.factorials(spectra.shift(seqs[0])).log_products)
        expected = 1.2 ** (np.arange(40) / 2.0) / np.sqrt(fact * states.norm_const[0])
        np.testing.assert_allclose(states.coefficients[0, 0].real, expected, rtol=1e-13)

    def test_unit_norm_random_params(self):
        rng = np.random.default_rng(3)
        draws = [(rng.uniform(0, 4, size=2), rng.uniform(-5, 5)) for _ in range(10)]
        states = vcs.coherent_family("eds", eds_linear_pair()).states([j for j, _ in draws], [g for _, g in draws])
        norms = np.linalg.norm(states.coefficients, axis=(1, 2))
        assert np.all(np.abs(norms - 1.0) <= states.tail_bound + 1e-13)

    def test_single_sector_state(self):
        # one sector: the classic single-Hamiltonian coherent state
        states = one_state("eds", [spectra.linear_sequence(50)], (1.0,), 0.5)
        assert states.norm_const[0] == pytest.approx(math.e, rel=1e-13)
        assert np.linalg.norm(vector(states)) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_colliding_spectra(self):
        seqs = [
            spectra.linear_sequence(12, offset=0.3),
            spectra.linear_sequence(12, offset=0.3),
        ]
        with pytest.raises(errors.SpectraNotDisjointError):
            vcs.coherent_family("eds", seqs)

    def test_rejects_zero_ground_multi_sector(self):
        with pytest.raises(errors.RegimeError):
            vcs.coherent_family("eds", zero_ground_pair(12))


class TestActionIdentity:
    def test_zero_intensities(self):
        seqs = eds_linear_pair(12)
        states = one_state("eds", seqs, (0.0, 0.0), 0.9)
        h_tau = hilbert.shifted_hamiltonian(seqs)
        assert vcs.action_identity_residuals(states, h_tau)[0] <= 1e-15

    def test_equal_intensities_linear(self):
        # both sectors e~[n] = n: closed form reduces to <H_tau> = J
        seqs = [
            spectra.linear_sequence(60, offset=0.3),
            spectra.linear_sequence(60, offset=0.7),
        ]
        j = 1.7
        states = one_state("eds", seqs, (j, j), 1.1)
        h_tau = hilbert.shifted_hamiltonian(seqs)
        c = vector(states)
        lhs = np.vdot(c, h_tau.matrix @ c).real
        assert lhs == pytest.approx(j, rel=1e-12)
        assert vcs.action_identity_residuals(states, h_tau)[0] <= 1e-12

    def test_random_in_disc(self):
        rng = np.random.default_rng(11)
        seqs = eds_linear_pair()
        h_tau = hilbert.shifted_hamiltonian(seqs)
        draws = [(rng.uniform(0, 4, size=2), rng.uniform(-3, 3)) for _ in range(20)]
        states = vcs.coherent_family("eds", seqs).states([j for j, _ in draws], [g for _, g in draws])
        resid = vcs.action_identity_residuals(states, h_tau)
        assert np.all(resid <= np.maximum(10 * states.tail_bound, 5e-13))

    def test_delta_family_variant(self):
        # the physical Hamiltonian, whose zero-ground spectra are their own shifts
        seqs = zero_ground_pair()
        states = one_state("delta", seqs, (2.0, 1.0), 0.6, 0.4)
        h = hilbert.BlockOperator([s.values for s in seqs])
        assert vcs.action_identity_residuals(states, h)[0] <= 5e-13

    def test_dimension_mismatch(self):
        states = one_state("eds", eds_linear_pair(20), (1.0, 1.0), 0.0)
        other = hilbert.shifted_hamiltonian(eds_linear_pair(21))
        with pytest.raises(errors.DimensionMismatchError):
            vcs.action_identity_residuals(states, other)


class TestTemporalStability:
    def test_zero_time(self):
        states = one_state("eds", eds_linear_pair(20), (1.0, 2.0), 0.7)
        assert vcs.temporal_stability_residuals(states, 0.0)[0] == 0

    def test_eds_family_physical_evolution(self):
        states = one_state("eds", eds_linear_pair(), (1.5, 2.0), 0.4)
        for t in (0.1, 1.0, 10.0, 2 * math.pi):
            assert vcs.temporal_stability_residuals(states, t)[0] <= 1e-10

    def test_delta_family_own_evolution(self):
        states = one_state("delta", zero_ground_pair(), (1.0, 2.0), 0.7, 0.5)
        for t in (0.1, 1.0, 10.0):
            assert vcs.temporal_stability_residuals(states, t)[0] <= 1e-10

    def test_delta_family_fails_under_physical_evolution(self):
        # exp(-iHt) does not map the delta family to shifted gamma
        states = one_state("delta", zero_ground_pair(), (1.0, 1.0), 0.7, 0.5)
        resid = vcs.temporal_stability_residuals(states, 1.0, evolution="physical")[0]
        assert resid > 1e-2

    @pytest.mark.parametrize("family", ["eds", "delta"])
    @pytest.mark.parametrize("evolution", ["family", "physical"])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_matches_dense_propagator(self, family, evolution, t):
        states = sample_states(family, 40)
        expected = dense_stability_residual(states, t, family, evolution)
        assert abs(vcs.temporal_stability_residuals(states, t, evolution)[0] - expected) <= 1e-13

    @pytest.mark.parametrize("family", ["eds", "delta"])
    def test_peak_memory_stays_at_vector_size(self, family):
        # the dense per-sector propagators alone would take 2 * 2000^2 * 16 bytes = 122 MiB
        states = sample_states(family, 2000)
        tracemalloc.start()
        try:
            vcs.temporal_stability_residuals(states, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_spectra_are_not_scanned_again(self, monkeypatch):
        scans = []
        eds_check = vcs.eds_check

        def counting(*args, **kwargs):
            scans.append(args)
            return eds_check(*args, **kwargs)

        monkeypatch.setattr(vcs, "eds_check", counting)
        states = one_state("eds", eds_linear_pair(20), (1.0, 2.0), 0.7)
        assert len(scans) == 1
        for evolution in ("family", "physical"):
            vcs.temporal_stability_residuals(states, 1.0, evolution)
        assert len(scans) == 1

    def test_norms_are_not_recomputed(self, monkeypatch):
        # only the phases depend on gamma: the states' own norm constants serve
        calls = []
        series_norm = vcs.series_norm

        def counting(*args, **kwargs):
            calls.append(args)
            return series_norm(*args, **kwargs)

        monkeypatch.setattr(vcs, "series_norm", counting)
        built = [sample_states("eds", 20), sample_states("delta", 20)]
        assert len(calls) == 4  # one per sector of each family
        for states in built:
            for evolution in ("family", "physical"):
                vcs.temporal_stability_residuals(states, 1.0, evolution)
        assert len(calls) == 4

    def test_unknown_evolution(self):
        states = sample_states("eds", 20)
        with pytest.raises(errors.RegimeError):
            vcs.temporal_stability_residuals(states, 1.0, evolution="backwards")

    def test_evolves_by_phases_without_eigendecomposition(self, eigh_calls):
        eds = sample_states("eds", 20)
        delta = sample_states("delta", 20)
        vcs.temporal_stability_residuals(eds, 1.0)
        vcs.temporal_stability_residuals(delta, 1.0)
        vcs.temporal_stability_residuals(delta, 1.0, evolution="physical")
        assert eigh_calls == []


class TestEigenstateRelation:
    def test_zero_intensities(self):
        family = vcs.coherent_family("eds", eds_linear_pair(12))
        states = family.states([[0.0, 0.0]], [0.9])
        lowering = hilbert.lowering_weights(family.shifted, [0.9])
        assert vcs.eigenstate_residuals(states, lowering)[0] <= 1e-15

    def test_matched_gamma(self):
        rng = np.random.default_rng(5)
        family = vcs.coherent_family("eds", eds_linear_pair())
        draws = [(rng.uniform(0, 4, size=2), rng.uniform(-3, 3)) for _ in range(10)]
        states = family.states([j for j, _ in draws], [g for _, g in draws])
        lowering = hilbert.lowering_weights(family.shifted, states.gammas)
        resid = vcs.eigenstate_residuals(states, lowering)
        assert np.all(resid <= np.maximum(10 * states.tail_bound, 5e-13))

    def test_matched_gamma_delta_family(self):
        seqs = zero_ground_pair()
        gamma = 1.9
        states = one_state("delta", seqs, (1.3, 0.6), gamma, 0.8)
        lowering = states.family.lowering_weights([gamma])
        assert vcs.eigenstate_residuals(states, lowering)[0] <= 5e-13

    def test_single_sector_reduces_to_plain_coherent_state(self):
        # one sector: the classic construction, eigenstate of its own ladder
        family = vcs.coherent_family("eds", [spectra.linear_sequence(50)])
        states = family.states([[1.5]], [0.8])
        lowering = hilbert.lowering_weights(family.shifted, [0.8])
        assert vcs.eigenstate_residuals(states, lowering)[0] <= 5e-13

    def test_mismatched_gamma_nonlinear_witness(self):
        family = vcs.coherent_family("eds", eds_quon_pair())
        gamma = 0.4
        states = family.states([[1.0, 1.0]], [gamma])
        matched = vcs.eigenstate_residuals(states, hilbert.lowering_weights(family.shifted, [gamma]))
        mismatched = vcs.eigenstate_residuals(
            states, hilbert.lowering_weights(family.shifted, [gamma + 1.0])
        )
        assert matched[0] <= 5e-13
        assert mismatched[0] > 1e-2


class TestContinuity:
    def test_lipschitz_ratio_bounded(self):
        family = vcs.coherent_family("eds", eds_linear_pair())
        base = np.array([1.0, 2.0, 0.7])  # J1, J2, gamma
        direction = np.array([0.3, -0.2, 0.5])
        steps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        labels = np.vstack([base, base + steps[:, None] * direction])
        states = family.states(labels[:, :2], labels[:, 2])
        dist = np.linalg.norm(states.coefficients[1:] - states.coefficients[0], axis=(1, 2))
        ratios = dist / steps
        assert ratios.max() / ratios.min() < 1.5  # state distance is ~linear in h


@pytest.mark.parametrize("bundle,pairs", [("vcs-eds-properties", 2), ("resolution-eds", 1)])
def test_each_spectrum_pair_is_scanned_once_per_run(bundle, pairs, monkeypatch):
    # the config builds each family, the witness's included, while it checks
    # the regime; the runner reads the built families and scans nothing
    scans = []
    eds_check = vcs.eds_check

    def counting(*args, **kwargs):
        scans.append(args)
        return eds_check(*args, **kwargs)

    monkeypatch.setattr(vcs, "eds_check", counting)
    cfg = config.load_bundled(bundle)
    assert len(scans) == pairs
    run_experiment(cfg)
    assert len(scans) == pairs


def literal_draws(params, seed):
    """The runner's seeded draws, one at a time: each sector's intensity, then gamma."""
    rng = np.random.default_rng(seed)
    return [
        (
            [rng.uniform(0.0, jm) for jm in params.j_max],
            rng.uniform(-params.gamma_max, params.gamma_max),
        )
        for _ in range(params.n_samples)
    ]


def literal_sample(family, seqs, j, gamma, delta, times):
    """One draw's residuals, written out densely from the definitions: the
    coefficients from their closed form, ``H`` and the lowering operator as
    dense matrices, the propagator as a dense diagonal matrix.  The delta
    family's two sectors carry the phase signs -1 and +1, the shift family's
    every sector -1: its lowering operator twists level ``n`` of sector ``j``
    by ``exp(-i sign_j (e~[n] - e~[n-1]) gamma)``."""
    shifted = [spectra.shift(s) for s in seqs]
    signs = (-1.0, 1.0) if family == "delta" else (-1.0,) * len(seqs)
    dim = seqs[0].dim

    def coefficients(g):
        blocks, series, tails = [], [], []
        for seq, sh, jn, sign in zip(seqs, shifted, j, signs):
            terms = np.array([jn**k / np.prod(sh.values[1 : k + 1]) for k in range(seq.dim)])
            ratio = jn / sh.values[-1]
            series.append(terms.sum())
            tails.append(terms[-1] * ratio / (1.0 - ratio))
            blocks.append(np.sqrt(terms) * np.exp(sign * 1j * (seq.values + delta) * g))
        norm = sum(series)
        return np.concatenate(blocks) / np.sqrt(norm), series, sum(tails) / norm

    c, series, tail = coefficients(gamma)
    if family == "delta":
        h = np.diag(np.concatenate([s.values for s in seqs]))
        energies = [s.values + delta for s in seqs]
    else:
        h = np.diag(np.concatenate([s.values for s in shifted]))
        energies = [s.values for s in seqs]
    lowering = np.zeros((len(seqs) * dim,) * 2, dtype=complex)
    for sector, (sh, sign) in enumerate(zip(shifted, signs)):
        twist = np.exp(-1j * sign * np.diff(sh.values) * gamma)
        block = slice(sector * dim, (sector + 1) * dim)
        lowering[block, block] = np.diag(np.sqrt(sh.values[1:]) * twist, 1)
    keep = np.tile(np.arange(dim) < dim - vcs.EIGENSTATE_EXCLUDE_TOP, len(seqs))
    out = {
        "tail": tail,
        "action": abs((c.conj() @ h @ c).real - np.dot(j, series) / sum(series)),
        "eigenstate": np.linalg.norm((lowering @ c - np.repeat(np.sqrt(j), dim) * c)[keep]),
    }
    for t in times:
        u = np.diag(np.concatenate([np.exp(sign * 1j * e * t) for sign, e in zip(signs, energies)]))
        out[f"stability[t={t:g}]"] = np.linalg.norm(u @ c - coefficients(gamma + t)[0])
    return out


@pytest.mark.parametrize("bundle", ["vcs-eds-properties", "vcs-delta-properties"])
def test_batched_residuals_match_the_literal_per_draw_oracle(bundle):
    cfg = config.load_bundled(bundle)
    p, seqs = cfg.params, cfg.spectra
    delta = p.delta if p.family == "delta" else 0.0
    draws = literal_draws(p, cfg.seed)
    oracle = [literal_sample(p.family, seqs, j, g, delta, p.times) for j, g in draws]
    expected = {key: np.array([o[key] for o in oracle]) for key in oracle[0]}

    intensities = np.array([j for j, _ in draws])
    gammas = np.array([g for _, g in draws])
    family = cfg.family
    states = family.states(intensities, gammas)
    batched = {
        "tail": states.tail_bound,
        "action": vcs.action_identity_residuals(states, hilbert.shifted_hamiltonian(seqs)),
        "eigenstate": vcs.eigenstate_residuals(states, family.lowering_weights(gammas)),
    }
    for t in p.times:
        batched[f"stability[t={t:g}]"] = vcs.temporal_stability_residuals(states, t)
    for key, values in expected.items():
        assert batched[key].shape == (p.n_samples,)
        np.testing.assert_allclose(batched[key], values, rtol=0, atol=1e-14, err_msg=key)

    # the report carries each key's worst draw: the maximum, never the minimum
    report, _ = run_experiment(cfg)
    reported = {c.name: c.value for c in report.checks}
    names = {
        "tail": "truncation-tail-bound",
        "action": "action-identity-residual",
        "eigenstate": "annihilation-eigenstate-residual",
        **{f"stability[t={t:g}]": f"temporal-stability-residual[t={t:g}]" for t in p.times},
    }
    for key, name in names.items():
        values = batched[key]
        assert values.min() < values.max(), key
        worst = values.max()
        if key == "tail" and p.witness is not None:
            # the witness state's tail bound joins the draws'
            witness = vcs.coherent_family("eds", p.witness.spectra).states([p.witness.j], [p.witness.gamma])
            assert witness.tail_bound[0] != worst
            worst = max(worst, witness.tail_bound[0])
        assert reported[name] == worst, key
