import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcslab import errors, hilbert, spectra, vcs


def rescaled(w, xmin, xmax, hbar, mass=1.0):
    """The ladder ``c d/dx + W`` with ``c = hbar / sqrt(2 mass)`` on
    ``[xmin, xmax]``, in the library's units ``c = 1/sqrt(2)``: with
    ``x = kappa y``, ``kappa = hbar / sqrt(mass)``, it is ``W(kappa y)`` on the
    domain divided by ``kappa``.  Returns that superpotential and domain."""
    kappa = hbar / np.sqrt(mass)
    return (lambda y: w(kappa * y)), xmin / kappa, xmax / kappa


def two_linear_shifted(dim, omegas=(1.0, math.sqrt(2.0)), offsets=(0.3, 0.55)):
    return [
        spectra.shift(spectra.linear_sequence(dim, w, offset=c))
        for w, c in zip(omegas, offsets)
    ]


def staggered_oracle(w, grid, c=1.0 / np.sqrt(2.0)):
    """Oracle for the grid ladder, written out entry by entry from the
    formulas on ``n`` levels, the last row of ``a`` (the dead bond) zero:
    ``(a f)_i = c (f_{i+1} - f_i) / dx + W(xb_i) (f_i + f_{i+1}) / 2`` and
    ``(b g)_j = c (g_{j+1} - g_j) / dx + (W_j g_j + W_{j+1} g_{j+1}) / 2``,
    ``W_j = W(xb_j)``.  Returns ``a`` and ``T = b+ b + 2c W'``."""
    n, dx = grid.points, grid.dx
    wb = w(0.5 * (grid.x[:-1] + grid.x[1:]))
    a, b = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n - 1):
        a[i, i], a[i, i + 1] = -c / dx + wb[i] / 2, c / dx + wb[i] / 2
    for j in range(n - 2):
        b[j, j], b[j, j + 1] = -c / dx + wb[j] / 2, c / dx + wb[j + 1] / 2
    return a, b.T @ b + np.diag(np.append(2.0 * c * np.gradient(wb, dx), 0.0))


class TestLoweringOperator:
    def test_harmonic_closed_form(self):
        # linear spectra: block j must equal sqrt(w_j) e^{i w_j gamma} a_j
        dim, gamma = 8, 0.9
        omegas = (1.0, math.sqrt(2.0))
        seqs = [spectra.shift(spectra.linear_sequence(dim, w)) for w in omegas]
        b = hilbert.lowering_operator(seqs, gamma)
        a = hilbert.quon_ladder(dim, 1.0)
        assert b.offset == a.offset == -1
        for j, w in enumerate(omegas):
            expected = math.sqrt(w) * np.exp(1j * w * gamma) * a.blocks[0]
            np.testing.assert_allclose(b.blocks[j], expected, atol=1e-14)
        # the dense export is zero off the diagonal blocks
        assert hilbert.max_abs(b.matrix[:dim, dim:]) == 0
        assert hilbert.max_abs(b.matrix[dim:, :dim]) == 0

    def test_zero_gamma_real(self):
        seqs = two_linear_shifted(6)
        b = hilbert.lowering_operator(seqs, 0.0)
        assert hilbert.max_abs(b.matrix.imag) == 0
        for j, s in enumerate(seqs):
            np.testing.assert_allclose(b.blocks[j], np.sqrt(s.values[1:]), atol=1e-15)

    def test_annihilates_ground_states(self):
        seqs = two_linear_shifted(6)
        for gamma in (0.0, 0.7, 3.1):
            b = hilbert.lowering_operator(seqs, gamma)
            for j in range(2):
                # the column of sector j's ground level
                assert not b.matrix[:, j * 6].any()

    def test_adag_a_is_diagonal_with_shifted_values(self):
        seqs = two_linear_shifted(7)
        b = hilbert.lowering_operator(seqs, 0.4)
        prod = (b.adjoint() @ b).matrix
        expected = np.concatenate([s.values for s in seqs])
        np.testing.assert_allclose(np.diag(prod), expected, atol=1e-13)
        np.testing.assert_allclose(prod - np.diag(np.diag(prod)), 0, atol=1e-15)

    def test_a_adag_is_shifted_up_except_top(self):
        seqs = two_linear_shifted(7)
        b = hilbert.lowering_operator(seqs, 0.4)
        prod = (b @ b.adjoint()).matrix
        for j, s in enumerate(seqs):
            block = prod[j * 7 : (j + 1) * 7, j * 7 : (j + 1) * 7]
            np.testing.assert_allclose(np.diag(block)[:-1], s.values[1:], atol=1e-13)
            assert block[-1, -1] == 0  # truncation artifact at the top level

    def test_length_mismatch(self):
        s1 = spectra.shift(spectra.linear_sequence(6))
        s2 = spectra.shift(spectra.linear_sequence(7))
        with pytest.raises(errors.LengthMismatchError):
            hilbert.lowering_operator([s1, s2], 0.0)

    def test_three_sector_structure(self):
        # the construction is not tied to two sectors
        seqs = [spectra.shift(spectra.linear_sequence(5, w)) for w in (1.0, 1.5, 2.0)]
        b = hilbert.lowering_operator(seqs, 0.3)
        assert b.space.sectors == 3
        prod = (b.adjoint() @ b).matrix
        np.testing.assert_allclose(
            np.diag(prod), np.concatenate([s.values for s in seqs]), atol=1e-13
        )

    @given(gamma=st.floats(min_value=-5, max_value=5), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_pairing(self, gamma, seed):
        # <B u, v> == <u, B+ v> for random vectors
        seqs = two_linear_shifted(6)
        b = hilbert.lowering_operator(seqs, gamma)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        v = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        bd = b.adjoint()
        lhs = np.vdot(hilbert.weighted_shift(b.blocks, b.offset, u), v)
        rhs = np.vdot(u, hilbert.weighted_shift(bd.blocks, bd.offset, v))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("gammas", [[0.0, 0.7, 3.1], [[0.4, -0.4], [-1.2, 1.2]]])
    def test_steps_formed_once_give_the_same_bits(self, gammas):
        # the roots and gaps once, then only the phase factor per call
        seqs = two_linear_shifted(50)
        steps = hilbert.lowering_steps(seqs)
        values = np.array([s.values for s in seqs])
        g = np.asarray(gammas, dtype=float)
        g = g[:, :, None] if g.ndim == 2 else g[:, None, None]
        literal = np.sqrt(values[:, 1:]) * np.exp(1j * np.diff(values, axis=1) * g)
        assert hilbert.lowering_weights(steps, gammas).tobytes() == literal.tobytes()


class TestDeltaVariant:
    """The delta family's lowering operator, ``CoherentFamily.lowering_weights``
    of a delta family, against the same-sign :func:`hilbert.lowering_operator`."""

    def quon_pair(self, dim=8):
        return [spectra.quon_sequence(dim, 0.5), spectra.quon_sequence(dim, 0.7)]

    def lowering(self, seqs, gamma):
        weights = vcs.coherent_family("delta", seqs, 0.5).lowering_weights([gamma])
        return hilbert.BlockOperator(weights[0], -1)

    def test_zero_gamma_matches_plain_lowering(self):
        seqs = self.quon_pair()
        shifted = [spectra.shift(s) for s in seqs]
        a = self.lowering(seqs, 0.0)
        b = hilbert.lowering_operator(shifted, 0.0)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_annihilates_both_grounds(self):
        a = self.lowering(self.quon_pair(), 2.2)
        for j in range(2):
            # the column of sector j's ground level
            assert not a.matrix[:, j * 8].any()

    def test_second_sector_conjugate_of_same_sign_family(self):
        # nonlinear spectra, gamma != 0: block 2 of the split-phase operator
        # is the complex conjugate of the same-sign family's block 2
        seqs = self.quon_pair()
        gamma = 1.1
        a = self.lowering(seqs, gamma)
        b = hilbert.lowering_operator([spectra.shift(s) for s in seqs], gamma)
        np.testing.assert_allclose(a.blocks[1], b.blocks[1].conj(), atol=1e-15)
        np.testing.assert_allclose(a.blocks[0], b.blocks[0], atol=1e-15)
        assert hilbert.max_abs(a.blocks[1] - b.blocks[1]) > 0.1

    def test_requires_zero_ground(self):
        seqs = [spectra.linear_sequence(6, offset=0.3), spectra.linear_sequence(6)]
        with pytest.raises(errors.RegimeError, match=r"seqs\[0\] ground level 0.3 != 0"):
            vcs.coherent_family("delta", seqs, 0.5)


class TestBosonLadder:
    def test_small_entries(self):
        a = hilbert.quon_ladder(3, 1.0).matrix
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(math.sqrt(2.0))
        assert hilbert.max_abs(np.tril(a)) == 0

    def test_number_operator(self):
        dim = 9
        a = hilbert.quon_ladder(dim, 1.0).matrix
        np.testing.assert_allclose(np.diag(a.conj().T @ a), np.arange(dim), atol=1e-14)

    def test_commutator_truncation_artifact(self):
        dim = 7
        a = hilbert.quon_ladder(dim, 1.0)
        commutator = a @ a.adjoint() - a.adjoint() @ a
        assert commutator.offset == 0
        defect = commutator.blocks[0] - 1.0
        assert hilbert.max_abs(defect[:-1]) <= 1e-13
        assert defect[-1] == pytest.approx(-dim)


class TestQuonLadder:
    def test_boson_limit(self):
        a_q = hilbert.quon_ladder(10, 1.0).matrix
        np.testing.assert_array_equal(a_q, np.diag(np.sqrt(np.arange(1.0, 10)), 1))

    @pytest.mark.parametrize("dim", [8, 697, 4096])
    def test_boson_limit_is_the_fock_ladder_byte_for_byte(self, dim):
        # [n]_1 is built by adding 1.0 n times, so it is exactly n
        fock = np.sqrt(np.arange(1.0, dim))
        a = hilbert.quon_ladder(dim, 1.0)
        assert a.offset == -1
        assert a.blocks.dtype == fock.dtype
        assert a.blocks[0].tobytes() == fock.tobytes()

    def test_deformed_entry(self):
        # [2]_0.5 = 1 + 0.5 * [1] = 1.5
        a = hilbert.quon_ladder(5, 0.5).matrix
        assert a[1, 2] == pytest.approx(math.sqrt(1.5))

    def test_qmutation_relation(self):
        dim, q = 12, 0.5
        ladder = hilbert.quon_ladder(dim, q)
        a = ladder.matrix
        defect = a @ a.conj().T - q * (a.conj().T @ a) - np.eye(dim)
        assert hilbert.max_abs(defect[: dim - 1, : dim - 1]) <= 1e-14

    def test_bad_deformation(self):
        # one check, in quon_numbers, serves the ladder and the spectrum
        for q in (0.0, -0.2, 1.5):
            for build in (hilbert.quon_ladder, spectra.quon_sequence, spectra.quon_numbers):
                with pytest.raises(errors.BadDeformationError, match=r"q must lie in \(0, 1\]"):
                    build(6, q)


#: W = SLOPE x on [0, 1] at 64 points with c / dx = SLOPE / 2: the diagonal
#: W / 2 - c / dx of the grid ladder stays within SLOPE / 2 of zero, while its
#: upper entry W / 2 + c / dx reaches SLOPE, beyond sqrt(float max) / 4
SLOPE = 0.3 * np.sqrt(np.finfo(float).max)


def band_matrix(band):
    """Dense export of a band: the sum of its terms' dense exports."""
    return sum(term.matrix for term in band)


class TestGridLadder:
    def test_harmonic_superpotential_diagnostic(self):
        grid = hilbert.GridSpec(-10.0, 10.0, 512)
        ladder = hilbert.grid_ladder(lambda x: x, grid)
        assert ladder.commutator_residual <= 1e-3

    def test_decreasing_superpotential_rejected(self):
        grid = hilbert.GridSpec(-10.0, 10.0, 128)
        with pytest.raises(errors.NonPositiveDerivativeError):
            hilbert.grid_ladder(lambda x: -x, grid)

    def test_second_order_convergence(self):
        # halving dx reduces the commutator diagnostic about 4x
        res = []
        for n in (256, 512):
            grid = hilbert.GridSpec(-10.0, 10.0, n)
            ladder = hilbert.grid_ladder(lambda x: x + 0.05 * x**3, grid)
            res.append(ladder.commutator_residual)
        ratio = res[0] / res[1]
        assert 3.0 < ratio < 5.5

    def test_min_points(self):
        with pytest.raises(errors.NonPositiveDerivativeError):
            hilbert.GridSpec(-1.0, 1.0, 32)

    @pytest.mark.parametrize("w", [lambda x: 0.0 * x], ids=["flat-superpotential"])
    def test_boundary_values_rejected(self, w):
        # W' = 0 sits on the boundary of the rule
        with pytest.raises(errors.NonPositiveDerivativeError):
            hilbert.grid_ladder(w, hilbert.GridSpec(-1.0, 1.0, 64))

    def test_probes_are_centred_on_the_domain(self):
        # on [0, 8] the even probe peaks at 4, and the odd one changes sign there
        grid = hilbert.GridSpec(0.0, 8.0, 65)
        even, odd, _ = hilbert._gaussian_probes(grid, grid.x)
        assert grid.x[np.argmax(even)] == 4.0
        assert odd[32] == 0.0 and odd[31] < 0.0 < odd[33]

    @pytest.mark.parametrize(
        "xmin, xmax",
        [(0.0, 5e-324), (-1e308, 1e308), (1.0, 1.0), (1.0, 0.0), (np.nan, 1.0)],
        ids=["underflow", "overflow", "empty", "reversed", "nan"],
    )
    def test_step_must_be_positive_and_finite(self, xmin, xmax):
        # a domain that does not increase, or a NaN end, gives such a step too
        with pytest.raises(errors.NonPositiveDerivativeError, match="grid step"):
            hilbert.GridSpec(xmin, xmax, 64)

    @pytest.mark.parametrize(
        "w, hbar, lo, hi",
        [
            (lambda x: x, 1e154, -10.0, 10.0),
            (lambda x: x, 1.0, -1e-153, 1e-153),
            (lambda x: 1e154 * x, 1.0, -10.0, 10.0),
            (lambda x: SLOPE * x, 0.5 * SLOPE / 63 * np.sqrt(2.0), 0.0, 1.0),
            (lambda x: 1e-160 * x, 1e-160, -10.0, 10.0),
        ],
        ids=["hbar", "narrow-domain", "superpotential", "upper-entry-only", "underflow"],
    )
    def test_entries_beyond_the_gram_range_rejected(self, w, hbar, lo, hi):
        # each puts an entry of a above sqrt(float max) / 4, where a a+ and
        # the target could overflow, before anything is squared; the last
        # keeps every entry below sqrt(float tiny) / 4, where their products
        # underflow and N1 carries no digits.  An hbar other than 1 is its
        # rescaled grid: c / dx grows as the domain shrinks
        w, lo, hi = rescaled(w, lo, hi, hbar)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(errors.GridOverflowError, match="out of the float range"):
                hilbert.grid_ladder(w, hilbert.GridSpec(lo, hi, 64))

    def test_entries_just_inside_the_gram_range_are_kept(self):
        # the largest entry of a is c / dx + |W| / 2, where W = x is
        # negligible; at 0.99 of the bound sqrt(float max) / 4 the products,
        # the target and the diagnostic stay finite
        bound = np.sqrt(np.finfo(float).max) / 4.0
        hbar = 0.99 * bound * hilbert.GridSpec(-10.0, 10.0, 64).dx * np.sqrt(2.0)
        w, lo, hi = rescaled(lambda x: x, -10.0, 10.0, hbar)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ladder = hilbert.grid_ladder(w, hilbert.GridSpec(lo, hi, 64))
            for band in (hilbert.gram_product(ladder.terms), ladder.n1, ladder.target):
                assert np.isfinite(np.abs(band_matrix(band)).sum(axis=1).max())
        assert np.isfinite(ladder.commutator_residual)
        assert ladder.norm_bound == pytest.approx((4 * 0.99 * bound) ** 2, rel=1e-12)

    @pytest.mark.parametrize(
        "w, lo, points, hbar, mass",
        [
            (lambda x: x, 12.0, 128, 1.0, 1.0),
            (lambda x: x + 0.1 * x**3, 9.0, 96, 0.7, 2.5),
            (lambda x: 50.0 * x, 12.0, 64, 1.0, 1.0),
            (lambda x: np.sinh(x), 6.0, 64, 0.01, 1.0),
        ],
        ids=["linear", "anharmonic-heavy", "steep-superpotential", "steep-small-hbar"],
    )
    def test_norm_bound_covers_every_row_sum_of_n1_and_the_target(self, w, lo, points, hbar, mass):
        # the overflow guards of the ladder and of the grid comparison read
        # norm_bound in place of N1 and T: it must bound every row sum (and
        # so every entry) of both, whether c / dx or |W| / 2 is the largest
        # entry of a, and stay within 16x of the largest, so the guards
        # refuse no input far from the float range
        w, xmin, xmax = rescaled(w, -lo, lo, hbar, mass)
        ladder = hilbert.grid_ladder(w, hilbert.GridSpec(xmin, xmax, points))
        for band in (ladder.n1, ladder.target):
            row_sum = np.abs(band_matrix(band)).sum(axis=1).max()
            assert ladder.norm_bound / 16.0 < row_sum <= ladder.norm_bound

    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 2.5)])
    def test_entries_follow_the_staggered_formula(self, hbar, mass):
        def w(x):
            return x + 0.1 * x**3

        scaled_w, lo, hi = rescaled(w, -9.0, 9.0, hbar, mass)
        grid = hilbert.GridSpec(lo, hi, 96)
        ladder = hilbert.grid_ladder(scaled_w, grid)
        a, target = staggered_oracle(scaled_w, grid)
        np.testing.assert_array_equal(band_matrix(ladder.terms), a)
        # b+ b sums its products in another order than BLAS
        scale = 16 * np.finfo(float).eps * np.abs(a).max() ** 2
        np.testing.assert_allclose(band_matrix(ladder.target), target, rtol=0, atol=scale)
        # the rescaled grid carries the ladder of c = hbar / sqrt(2 mass) on
        # [-9, 9], to the rounding of the rescaling
        unscaled_a, unscaled_target = staggered_oracle(w, hilbert.GridSpec(-9.0, 9.0, 96), hbar / np.sqrt(2.0 * mass))
        np.testing.assert_allclose(a, unscaled_a, rtol=0, atol=16 * np.finfo(float).eps * np.abs(a).max())
        np.testing.assert_allclose(target, unscaled_target, rtol=0, atol=scale)

    def test_bands_match_dense_products(self):
        # the sums run in another order than BLAS: each entry of up to two
        # terms may differ by a few ulps of the largest term it sums
        grid = hilbert.GridSpec(-9.0, 9.0, 96)
        ladder = hilbert.grid_ladder(lambda x: x + 0.1 * x**3, grid)
        a = band_matrix(ladder.terms)
        v = np.random.default_rng(3).normal(size=(96, 4))
        term = np.abs(a).max() * np.abs(v).max()
        h, n1 = (hilbert.gram_product(ladder.terms, first) for first in (True, False))
        adjoint = tuple(t.adjoint() for t in ladder.terms)
        for got, dense, scale in (
            (hilbert.band_apply(ladder.terms, v.T).T, a @ v, term),
            (hilbert.band_apply(adjoint, v.T).T, a.T @ v, term),
            (band_matrix(h), a.T @ a, np.abs(a).max() ** 2),
            (band_matrix(n1), a @ a.T, np.abs(a).max() ** 2),
        ):
            np.testing.assert_allclose(got, dense, rtol=0, atol=16 * np.finfo(float).eps * scale)

    def test_products_are_tridiagonal_with_a_dead_bond(self):
        # one term per offset -1..1, each a single-sector weighted shift; the
        # last row and column of N1 and of the target, the dead bond, are
        # zero; the ladder carries N1 as gram_product forms it
        grid = hilbert.GridSpec(-9.0, 9.0, 96)
        ladder = hilbert.grid_ladder(lambda x: x + 0.1 * x**3, grid)
        h, n1 = (hilbert.gram_product(ladder.terms, first) for first in (True, False))
        assert [(t.offset, t.blocks.tolist()) for t in ladder.n1] == [(t.offset, t.blocks.tolist()) for t in n1]
        for band in (h, n1, ladder.target):
            assert [t.offset for t in band] == [-1, 0, 1]
            assert all(t.space == hilbert.SectorSpace(1, 96) for t in band)
        for band in (n1, ladder.target):
            m = band_matrix(band)
            assert not m[-1].any() and not m[:, -1].any()
            assert (np.diag(m)[:-1] > 0).all()

    @pytest.mark.parametrize("points", [128, 256, 512])
    @pytest.mark.parametrize(
        "w, lo, lowest",
        [(lambda x: x, 12.0, np.sqrt(2.0)), (lambda x: x + 0.1 * x**3, 9.0, 1.5420)],
        ids=["linear", "anharmonic"],
    )
    def test_susy_partners_are_isospectral(self, w, lo, lowest, points):
        # h = a+ a keeps the exact zero mode of a, at rounding level, and
        # N1 = a a+ on the n - 1 bonds has the rest of its spectrum: no
        # doubler and no null mode.  N1's lowest eigenvalue, h's second,
        # nears 2c = sqrt(2) for W = x and 1.5420 for the anharmonic W
        ladder = hilbert.grid_ladder(w, hilbert.GridSpec(-lo, lo, points))
        a = band_matrix(ladder.terms)
        h = np.linalg.eigvalsh(a.T @ a)
        n1 = np.linalg.eigvalsh((a @ a.T)[:-1, :-1])
        assert abs(h[0]) <= 1e-12 * np.abs(h).max()
        np.testing.assert_allclose(n1, h[1:], rtol=1e-9, atol=0)
        assert n1[0] == pytest.approx(lowest, rel=0.02)

    @pytest.mark.parametrize("points", [128, 256])
    @pytest.mark.parametrize(
        "w, lo, k", [(lambda x: x, 12.0, 32), (lambda x: x + 0.1 * x**3, 9.0, 24)], ids=["linear", "anharmonic"]
    )
    def test_low_modes_hold_no_edge_state(self, w, lo, k, points):
        # the k lowest modes of N1, the grid comparison's probes, vanish on
        # the three outermost bonds at either end, also where |W| exceeds
        # 2c / dx there (81.9 against 10 and 20 for the anharmonic W)
        ladder = hilbert.grid_ladder(w, hilbert.GridSpec(-lo, lo, points))
        a = band_matrix(ladder.terms)
        modes = np.linalg.eigh((a @ a.T)[:-1, :-1])[1][:, :k]
        assert np.abs(modes[[0, 1, 2, -3, -2, -1]]).max() <= 1e-12


class TestBlockOperator:
    def test_unequal_blocks_rejected(self):
        with pytest.raises(errors.LengthMismatchError):
            hilbert.BlockOperator([np.ones(3), np.ones(4)])
        with pytest.raises(errors.LengthMismatchError):
            hilbert.BlockOperator([np.ones((3, 4))])
        # ragged rows, however nested, name the rows and not numpy's shape error
        for ragged in ([[1.0, 2.0], [3.0]], [np.ones(3), np.ones((1, 3))]):
            with pytest.raises(errors.LengthMismatchError, match="sector blocks differ in shape"):
                hilbert.BlockOperator(ragged)

    def test_smallest_space_and_window(self):
        # two levels and one sector are the least a space holds; a window may keep one level
        space = hilbert.SectorSpace(1, 2)
        assert space.total_dim == 2
        assert hilbert.window_levels(hilbert.SectorSpace(1, 5), 4) == 1
        with pytest.raises(errors.DimensionMismatchError, match="excludes all 5 levels"):
            hilbert.window_levels(hilbert.SectorSpace(1, 5), 5)

    def test_product_leaving_the_space_names_its_offset(self):
        a = hilbert.quon_ladder(4, 1.0)
        with pytest.raises(errors.DimensionMismatchError, match="offset -4 leaves all 4 levels"):
            a @ a @ a @ a

    def test_one_level_block_rejected(self):
        with pytest.raises(errors.DimensionMismatchError):
            hilbert.BlockOperator([[1.0], [2.0]])

    def test_space_is_a_frozen_field(self):
        op = hilbert.BlockOperator([np.ones(4), np.ones(4)], -2)
        assert op.space == hilbert.SectorSpace(2, 6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.space = hilbert.SectorSpace(2, 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.offset = 0

    def test_equality_is_identity(self):
        # entries are arrays, so == answers by identity instead of raising
        op = hilbert.quon_ladder(5, 1.0)
        assert (hilbert.quon_ladder(5, 1.0) == hilbert.quon_ladder(5, 1.0)) is False
        assert op == op

    def test_real_inputs_stay_real(self):
        seqs = [spectra.linear_sequence(6, 1.0, offset=0.3), spectra.linear_sequence(6, 1.5)]
        a = hilbert.quon_ladder(6, 1.0)
        aq = hilbert.quon_ladder(6, 0.5)
        h = hilbert.BlockOperator([s.values for s in seqs])
        h_tau = hilbert.shifted_hamiltonian(seqs)
        ops = [a, aq, h, h_tau, a.adjoint() @ a, aq @ aq.adjoint(), h - h_tau]
        for op in ops:
            assert all(b.dtype == np.float64 for b in op.blocks)
        # so are a weighted shift of real data, the grid ladder, its
        # products, their action and the dense export
        assert hilbert.weighted_shift(a.blocks, a.offset, np.ones((3, 6))).dtype == np.float64
        grid = hilbert.GridSpec(-5.0, 5.0, 64)
        ladder = hilbert.grid_ladder(lambda x: x, grid)
        for band in (ladder.terms, ladder.target, ladder.n1, hilbert.gram_product(ladder.terms)):
            assert all(t.blocks.dtype == np.float64 for t in band)
            assert hilbert.band_apply(band, np.ones((2, 64))).dtype == np.float64
        assert band_matrix(ladder.terms).dtype == np.float64

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_phase_twisted_lowering_is_complex(self, gamma):
        b = hilbert.lowering_operator(two_linear_shifted(5), gamma)
        assert all(np.iscomplexobj(block) for block in b.blocks)
        assert all(np.iscomplexobj(block) for block in (b.adjoint() @ b).blocks)

    def test_caller_arrays_are_copied(self):
        m = np.arange(3.0)
        op = hilbert.BlockOperator([m])
        m[0] = 100.0
        assert op.blocks[0][0] == 0.0
        assert not np.shares_memory(op.blocks[0], m)
        # a 2-d array is a valid blocks argument as it stands; the
        # constructor still copies it, and freezes only its copy
        rows = np.arange(8.0).reshape(2, 4)
        op = hilbert.BlockOperator(rows, -1)
        rows[0, 0] = 100.0
        assert op.blocks[0, 0] == 0.0
        assert not np.shares_memory(op.blocks, rows)
        assert rows.flags.writeable and not op.blocks.flags.writeable

    def test_results_take_their_operands_space(self):
        rng = np.random.default_rng(5)
        a, b = random_shift(rng, 6, 1, complex), random_shift(rng, 6, 1, float)
        c = random_shift(rng, 6, -2, float)
        for op, left, offset in ((a @ c, a, -1), (a + b, a, 1), (b - a, b, 1), (a.adjoint(), a, -1), (c.adjoint(), c, 2)):
            assert op.space is left.space
            assert op.offset == offset
            assert op.space == hilbert.SectorSpace(len(op.blocks), op.blocks.shape[1] + abs(op.offset))

    def test_computed_blocks_are_frozen(self):
        rng = np.random.default_rng(3)
        a = hilbert.BlockOperator([rng.normal(size=3), rng.normal(size=3)], 1)
        b = hilbert.BlockOperator([rng.normal(size=3) + 1j, np.ones(3, dtype=complex)], 1)
        for op, dense in (
            (a @ b, a.matrix @ b.matrix),
            (a + b, a.matrix + b.matrix),
            (a - b, a.matrix - b.matrix),
            (a.adjoint(), a.matrix.T),
            (b.adjoint(), b.matrix.conj().T),
        ):
            np.testing.assert_array_equal(op.matrix, dense)
            for block in op.blocks:
                assert not block.flags.writeable
                assert not any(np.shares_memory(block, x) for x in (a.blocks, b.blocks))
                with pytest.raises(ValueError):
                    block[0] = 1.0


def random_shift(rng, dim, offset, dtype):
    """Two-sector weighted shift at ``offset`` with random weights of ``dtype``."""
    n = dim - abs(offset)
    blocks = [rng.standard_normal(n) for _ in range(2)]
    if dtype is complex:
        blocks = [b + 1j * rng.standard_normal(n) for b in blocks]
    return hilbert.BlockOperator(blocks, offset)


def dense_oracle(op):
    """The dense export built entry by entry: level n of sector j goes to n + offset."""
    d, k = op.space.dim, op.offset
    m = np.zeros((op.space.total_dim,) * 2, dtype=op.blocks[0].dtype)
    for j, b in enumerate(op.blocks):
        for i, n in enumerate(range(max(0, -k), d - max(0, k))):
            m[j * d + n + k, j * d + n] = b[i]
    return m


def padded_product(a, b):
    """``a @ b`` computed on both operands padded to ``N x D`` weights, over
    every middle level, then cut to the product's source levels."""
    d, ka, kb = a.space.dim, a.offset, b.offset
    x, y = a.weights(), b.weights()
    mid_lo, mid_hi = max(0, -kb), d - max(0, kb)
    out = np.zeros(x.shape, dtype=np.result_type(x, y))
    with np.errstate(invalid="ignore"):  # padding zeros times inf
        out[:, mid_lo:mid_hi] = x[:, mid_lo + kb : mid_hi + kb] * y[:, mid_lo:mid_hi]
    return out[:, max(0, -(ka + kb)) : d - max(0, ka + kb)]


def poisoned(op):
    """``op`` with inf and nan on its first, middle and last weights."""
    blocks = op.blocks.copy()
    blocks[0, 0], blocks[1, -1] = np.inf, np.nan
    blocks[0, blocks.shape[1] // 2] = -np.inf
    return hilbert.BlockOperator(blocks, op.offset)


OFFSETS = range(-3, 4)


@pytest.mark.parametrize("dim", [4, 9, 64])
@pytest.mark.parametrize(
    "dtypes", [(float, float), (float, complex), (complex, complex)], ids=["real", "mixed", "complex"]
)
class TestWeightedShiftOracle:
    """Every operation of the weighted-shift storage against its dense export."""

    def pairs(self, dim, dtypes):
        rng = np.random.default_rng(dim)
        for a in OFFSETS:
            for b in OFFSETS:
                yield random_shift(rng, dim, a, dtypes[0]), random_shift(rng, dim, b, dtypes[1])

    def test_construction(self, dim, dtypes):
        rng = np.random.default_rng(1)
        for k in OFFSETS:
            op = random_shift(rng, dim, k, dtypes[1])
            assert op.space == hilbert.SectorSpace(2, dim)
            np.testing.assert_array_equal(op.matrix, dense_oracle(op))

    def test_product(self, dim, dtypes):
        for a, b in self.pairs(dim, dtypes):
            if abs(a.offset + b.offset) >= dim:
                with pytest.raises(errors.DimensionMismatchError):
                    a @ b
                continue
            product = a @ b
            assert product.offset == a.offset + b.offset
            np.testing.assert_allclose(product.matrix, a.matrix @ b.matrix, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(product.matrix, dense_oracle(product))

    def test_product_matches_padded_product_bit_for_bit(self, dim, dtypes):
        kept = dropped = 0
        for a, b in self.pairs(dim, dtypes):
            if abs(a.offset + b.offset) >= dim:
                continue
            for x, y in ((a, b), (poisoned(a), b), (a, poisoned(b)), (poisoned(a), poisoned(b))):
                with np.errstate(invalid="ignore"):
                    product = (x @ y).blocks
                expected = padded_product(x, y)
                assert product.dtype == expected.dtype
                assert product.tobytes() == expected.tobytes()
                if (x is a) != (y is b):
                    # one operand poisoned: each of its weights reaches one product entry or none
                    reached = np.count_nonzero(~np.isfinite(product))
                    kept += reached > 0
                    dropped += reached < np.count_nonzero(~np.isfinite((x if y is b else y).blocks))
        # non-finite weights land both on levels the product keeps and on levels it drops
        assert kept and dropped

    def test_sum_and_difference(self, dim, dtypes):
        for a, b in self.pairs(dim, dtypes):
            if a.offset != b.offset:
                with pytest.raises(errors.DimensionMismatchError):
                    a + b
                with pytest.raises(errors.DimensionMismatchError):
                    a - b
                continue
            np.testing.assert_array_equal((a + b).matrix, a.matrix + b.matrix)
            np.testing.assert_array_equal((a - b).matrix, a.matrix - b.matrix)

    def test_adjoint(self, dim, dtypes):
        rng = np.random.default_rng(2)
        for k in OFFSETS:
            op = random_shift(rng, dim, k, dtypes[1])
            assert op.adjoint().offset == -k
            np.testing.assert_array_equal(op.adjoint().matrix, op.matrix.conj().T)

    def test_apply(self, dim, dtypes):
        rng = np.random.default_rng(3)
        for k in OFFSETS:
            op = random_shift(rng, dim, k, dtypes[1])
            data = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
            applied = hilbert.weighted_shift(op.blocks, op.offset, data.reshape(2, dim))
            np.testing.assert_allclose(applied.ravel(), op.matrix @ data, rtol=0, atol=1e-14)

    def test_max_abs(self, dim, dtypes):
        rng = np.random.default_rng(4)
        for k in OFFSETS:
            op = random_shift(rng, dim, k, dtypes[1])
            dense = op.matrix
            assert op.max_abs() == np.abs(dense).max()
            for keep in (1, abs(k), dim - 3, dim):
                window = [
                    np.abs(dense[j * dim : j * dim + keep, j * dim : j * dim + keep]).max(initial=0.0)
                    for j in range(2)
                ]
                assert op.max_abs(keep) == max(window)
