import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcslab import errors, hilbert, intertwine, spectra


def brute_force_min_gap(v1, v2):
    """Independent exhaustive pair scan (oracle for eds_check)."""
    best = math.inf
    pair = (0, 0)
    for n, a in enumerate(v1):
        for m, b in enumerate(v2):
            if abs(a - b) < best:
                best = abs(a - b)
                pair = (n, m)
    return best, pair


def dense_min_gap(v1, v2):
    """The full ``D x D`` gap matrix scan: its first minimum in row-major order."""
    gaps = np.abs(v1[:, None] - v2[None, :])
    n, m = np.unravel_index(np.argmin(gaps), gaps.shape)
    return float(gaps[n, m]), (int(n), int(m))


# integer lattices scaled by a common step: many exact collisions and equal gaps
lattices = st.lists(st.integers(0, 60), min_size=2, max_size=30, unique=True).map(sorted)
steps = st.sampled_from([1.0, 0.5, 0.1, 1.0 / 3.0, 1e-9])


class TestMakeSequence:
    def test_linear(self):
        s = spectra.make_sequence([0, 1, 2, 3])
        np.testing.assert_array_equal(s.values, [0, 1, 2, 3])

    def test_quon_values_match_closed_form(self):
        # recurrence [n+1] = 1 + q [n] against (1 - q^n) / (1 - q)
        q = 0.5
        got = spectra.quon_numbers(12, q)
        expected = (1.0 - q ** np.arange(12)) / (1.0 - q)
        np.testing.assert_allclose(got, expected, rtol=1e-14)
        s = spectra.quon_sequence(12, q)
        np.testing.assert_allclose(s.values, expected, rtol=1e-14)

    def test_non_monotone_rejected(self):
        for values in ([1, 0, 2], [0, 1, 1, 2]):
            with pytest.raises(errors.NonMonotoneError):
                spectra.make_sequence(values)

    def test_negative_ground_rejected(self):
        with pytest.raises(errors.NegativeGroundError):
            spectra.make_sequence([-0.5, 1, 2])

    def test_too_short_rejected(self):
        with pytest.raises(errors.NonMonotoneError):
            spectra.make_sequence([1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(errors.NonMonotoneError):
            spectra.make_sequence([0.0, np.inf])


class TestQuonNumbers:
    QS = (0.3, 0.5, 0.9, 1.0)

    @staticmethod
    def reference(dim, q):
        """The recurrence ``[n+1] = 1 + q [n]`` element by element on a numpy array."""
        out = np.empty(dim, dtype=float)
        out[0] = 0.0
        for n in range(1, dim):
            out[n] = 1.0 + q * out[n - 1]
        return out

    @pytest.mark.parametrize("q", QS)
    def test_bit_for_bit_the_recurrence(self, q):
        # a prefix of the recurrence is the recurrence at a smaller dim
        ref = self.reference(4096, q)
        for dim in (1, 2, 3, 17, 60, 240, 697, 4095, 4096):
            for qk in (q, np.float64(q)):
                got = spectra.quon_numbers(dim, qk)
                assert got.dtype == np.float64 and got.shape == (dim,)
                assert got.tobytes() == ref[:dim].tobytes()

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dims_below_one_rejected(self, dim):
        # rejected before any array is formed, by the one check in quon_numbers
        for build in (spectra.quon_numbers, spectra.quon_sequence, hilbert.quon_ladder, intertwine.ladder_problem):
            with pytest.raises(errors.DimensionMismatchError, match=f"need dim >= 1, got {dim}"):
                build(dim, 0.5)


class TestShift:
    def test_basic_subtraction(self):
        s = spectra.shift(spectra.make_sequence([2, 3, 5]))
        np.testing.assert_array_equal(s.values, [0, 1, 3])
        assert s.shift == 2

    def test_zero_ground_is_identity(self):
        s = spectra.shift(spectra.make_sequence([0, 1, 2]))
        np.testing.assert_array_equal(s.values, [0, 1, 2])

    def test_constant_offset_removed(self):
        omega, c = 0.7, 1.3
        seq = spectra.linear_sequence(9, omega, offset=c)
        shifted = spectra.shift(seq)
        np.testing.assert_allclose(shifted.values, omega * np.arange(9), atol=1e-12)

    @given(
        ground=st.floats(min_value=0.0, max_value=50.0),
        step=st.floats(min_value=0.01, max_value=5.0),
        n=st.integers(min_value=3, max_value=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_idempotent(self, ground, step, n):
        seq = spectra.make_sequence(ground + step * np.arange(n))
        once = spectra.shift(seq)
        twice = spectra.shift(spectra.make_sequence(once.values))
        assert twice.shift == 0.0
        np.testing.assert_array_equal(once.values, twice.values)


class TestFactorials:
    def test_ordinary_factorial(self):
        log_products = spectra.factorials(spectra.shift(spectra.linear_sequence(6)))
        assert math.exp(log_products[4]) == pytest.approx(24.0, rel=1e-15)
        assert log_products[0] == 0.0

    def test_scaled_factorial(self):
        # e~[n] = 2n: product at n=3 is 2*4*6 = 48
        log_products = spectra.factorials(spectra.shift(spectra.linear_sequence(5, omega=2.0)))
        assert math.exp(log_products[3]) == pytest.approx(48.0, rel=1e-14)

    def test_trivial_truncation(self):
        # length-2 minimum: products = [1, e~[1]]
        log_products = spectra.factorials(spectra.shift(spectra.make_sequence([0.0, 3.0])))
        np.testing.assert_array_equal(log_products, [0.0, math.log(3.0)])
        assert not log_products.flags.writeable

    def test_log_domain_matches_scaled_closed_form(self):
        # log(omega^n n!) to 1e-12 relative for n <= 30
        omega = 2.0
        log_products = spectra.factorials(spectra.shift(spectra.linear_sequence(31, omega)))
        for n in range(31):
            expected = n * math.log(omega) + math.lgamma(n + 1)
            assert log_products[n] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_overflow_goes_to_log_domain(self):
        seq = spectra.linear_sequence(400, omega=10.0)
        log_products = spectra.factorials(spectra.shift(seq))
        # 10^399 399! is far beyond the float range; its log is not
        assert log_products[399] == pytest.approx(399 * math.log(10.0) + math.lgamma(400), rel=1e-13)

    @given(
        step=st.floats(min_value=0.05, max_value=3.0),
        n=st.integers(min_value=2, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_products_positive(self, step, n):
        seq = spectra.make_sequence(step * np.arange(n) + 0.4)
        log_products = spectra.factorials(spectra.shift(seq))
        # positive products: every log is finite
        assert np.all(np.isfinite(log_products))


class TestEdsCheck:
    def test_offset_lattices(self):
        s1 = spectra.linear_sequence(20, offset=0.3)
        s2 = spectra.linear_sequence(20, offset=0.7)
        report = spectra.eds_check(s1, s2)
        assert report.disjoint
        assert report.min_gap == pytest.approx(0.4, abs=1e-12)
        oracle_gap, oracle_pair = brute_force_min_gap(s1.values, s2.values)
        assert report.min_gap == pytest.approx(oracle_gap)
        assert report.pair == oracle_pair

    def test_identical_spectra_collide(self):
        s = spectra.make_sequence([0, 1, 2])
        report = spectra.eds_check(s, s)
        assert not report.disjoint
        assert report.pair == (0, 0)
        assert report.min_gap == 0.0

    def test_gap_at_the_tolerance_collides(self):
        # disjoint means every cross gap exceeds the tolerance
        report = spectra.eds_check(spectra.make_sequence([0.0, 1.0]), spectra.make_sequence([1e-9, 2.0]))
        assert report.min_gap == spectra.EDS_TOLERANCE
        assert not report.disjoint

    def test_incommensurate_lattices(self):
        # n vs sqrt(2) n stays disjoint at any finite truncation (n >= 1)
        s1 = spectra.make_sequence(np.arange(1.0, 40.0))
        s2 = spectra.make_sequence(math.sqrt(2.0) * np.arange(1.0, 40.0))
        report = spectra.eds_check(s1, s2)
        oracle_gap, _ = brute_force_min_gap(s1.values, s2.values)
        assert report.disjoint
        assert report.min_gap == pytest.approx(oracle_gap)

    @given(
        off1=st.floats(min_value=0.0, max_value=3.0),
        off2=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, off1, off2):
        s1 = spectra.linear_sequence(12, offset=off1)
        s2 = spectra.linear_sequence(12, 1.3, offset=off2)
        r12 = spectra.eds_check(s1, s2)
        r21 = spectra.eds_check(s2, s1)
        assert r12.disjoint == r21.disjoint
        assert r12.min_gap == pytest.approx(r21.min_gap)
        assert r12.pair == (r21.pair[1], r21.pair[0])


    @given(a=lattices, b=lattices, step=steps, shift=st.sampled_from([0.0, 0.25, 1e6]))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_gap_matrix_on_lattices(self, a, b, step, shift):
        s1 = spectra.make_sequence(np.array(a) * step + shift)
        s2 = spectra.make_sequence(np.array(b) * step + shift)
        for x, y in ((s1, s2), (s2, s1), (s1, s1)):
            report = spectra.eds_check(x, y)
            assert (report.min_gap, report.pair) == dense_min_gap(x.values, y.values)

    @given(
        a=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=30, unique=True).map(sorted),
        b=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=30, unique=True).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_gap_matrix_on_floats(self, a, b):
        s1, s2 = spectra.make_sequence(a), spectra.make_sequence(b)
        report = spectra.eds_check(s1, s2)
        assert (report.min_gap, report.pair) == dense_min_gap(s1.values, s2.values)

    def test_equal_gaps_pick_the_first_pair(self):
        # every gap is 0.5: the first pair in row-major order wins
        s1 = spectra.make_sequence([1.0, 2.0, 3.0])
        s2 = spectra.make_sequence([0.5, 1.5, 2.5, 3.5])
        report = spectra.eds_check(s1, s2)
        assert (report.min_gap, report.pair) == (0.5, (0, 0))

    def test_peak_memory_stays_at_vector_size(self):
        # the 4096 x 4096 gap matrix alone would take 128 MiB
        s1 = spectra.linear_sequence(4096, 1.0, offset=0.3)
        s2 = spectra.linear_sequence(4096, math.sqrt(2.0), offset=0.55)
        tracemalloc.start()
        try:
            report = spectra.eds_check(s1, s2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.disjoint
        assert peak < 2**20
