"""Fixed-point primitive tests: worked examples plus exhaustive properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chanq.fixedpoint import (
    QFormat,
    dequantize,
    fl_from_max,
    mac_product,
    quantize,
    rounding_shift,
    saturate_accumulator,
)


class TestQuantize:
    def test_half_at_q1_6(self):
        q = QFormat(8, 6, True)
        assert quantize(0.5, q) == 32
        assert dequantize(32, q) == 0.5

    def test_saturation_positive(self):
        q = QFormat(8, 5, True)
        assert quantize(10.0, q) == 127
        assert dequantize(127, q) == pytest.approx(3.96875)

    def test_unsigned_floor(self):
        q = QFormat(8, 7, False)
        assert quantize(-0.3, q) == 0

    def test_half_even_rounding(self):
        q = QFormat(8, 1, True)
        # 0.25 scales to 0.5 -> ties to even (0); 0.75 scales to 1.5 -> 2
        assert quantize(0.25, q) == 0
        assert quantize(0.75, q) == 2


class TestDequantize:
    def test_examples(self):
        assert dequantize(32, QFormat(8, 6, True)) == 0.5
        assert dequantize(-128, QFormat(8, 7, True)) == -1.0
        assert dequantize(255, QFormat(8, 8, False)) == pytest.approx(0.99609375)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dequantize(200, QFormat(8, 0, True))
        with pytest.raises(ValueError):
            dequantize(-1, QFormat(8, 0, False))


class TestFlFromMax:
    def test_examples(self):
        assert fl_from_max(5.3, 8, True) == 4
        assert fl_from_max(0.5, 8, True) == 7
        assert fl_from_max(0.0, 8, True) == 31

    def test_boundary_exact(self):
        # max_abs exactly at the representable edge keeps that fl
        assert fl_from_max(127.0 / 16.0, 8, True) == 4
        assert fl_from_max(127.0 / 16.0 + 1e-9, 8, True) == 3

    def test_unsigned_gains_one_bit(self):
        for max_abs in (0.5, 1.7, 5.3, 100.0):
            assert fl_from_max(max_abs, 8, False) >= fl_from_max(max_abs, 8, True)

    def test_range_always_covers(self):
        rng = np.random.default_rng(0)
        for max_abs in 2.0 ** rng.uniform(-28, 28, 200):
            for signed in (True, False):
                fl = fl_from_max(max_abs, 8, signed)
                q = QFormat(8, fl, signed)
                if fl > -31:  # coverage can only fail at the lower clamp
                    assert max_abs <= q.max_value
                if fl < 31:  # maximality: one step finer would not cover
                    assert max_abs > q.max_code * 2.0 ** -(fl + 1)


class TestRoundingShift:
    def test_examples(self):
        out = QFormat(8, 0, True)
        assert rounding_shift(300, 3, out) == 38
        assert rounding_shift(100000, 1, out) == 127
        assert rounding_shift(5, -2, out) == 20

    def test_half_even_ties(self):
        out = QFormat(8, 0, True)
        assert rounding_shift(4, 3, out) == 0  # 0.5 -> even 0
        assert rounding_shift(12, 3, out) == 2  # 1.5 -> even 2
        assert rounding_shift(-4, 3, out) == 0
        assert rounding_shift(-12, 3, out) == -2

    def test_matches_float_division(self):
        rng = np.random.default_rng(1)
        acc = rng.integers(-(2**30), 2**30, 3000)
        for shift in (1, 3, 7, 12):
            got = rounding_shift(acc, shift)
            want = np.array([round(int(a) / 2**shift) for a in acc])  # python round is half-even
            np.testing.assert_array_equal(got, want)

    def test_per_lane_shifts(self):
        acc = np.array([300, 300, 5])
        got = rounding_shift(acc, np.array([3, 1, -2]))
        np.testing.assert_array_equal(got, [38, 150, 20])


INT64 = st.integers(-(2**63), 2**63 - 1)
SHIFTS = st.integers(-93, 93)  # output shifts of fls in [-31, 31]


def _oracle_shift(acc: int, shift: int) -> int:
    """Python big-int reference: half-even right shift, saturating left shift."""
    if shift >= 0:
        q, r = divmod(acc, 2**shift)
        if 2 * r > 2**shift or (2 * r == 2**shift and q % 2 == 1):
            q += 1
        return q
    return min(max(acc << -shift, -(2**63)), 2**63 - 1)


class TestRoundingShiftEdges:
    def test_left_shift_saturates(self):
        assert rounding_shift(2**31 - 1, -40) == 2**63 - 1
        assert rounding_shift(-(2**31), -40) == -(2**63)
        assert rounding_shift(1, -63) == 2**63 - 1
        assert rounding_shift(-1, -63) == -(2**63)
        assert rounding_shift(0, -93) == 0

    def test_large_right_shifts_round_to_zero(self):
        assert rounding_shift(5, 64) == 0
        assert rounding_shift(-5, 70) == 0
        assert rounding_shift(-(2**63), 64) == 0  # -1/2 ties to even 0
        assert rounding_shift(2**63 - 1, 93) == 0

    def test_shift_63(self):
        assert rounding_shift(-(2**63), 63) == -1
        assert rounding_shift(2**63 - 1, 63) == 1
        assert rounding_shift(2**62, 63) == 0  # tie at 1/2 -> even 0
        assert rounding_shift(-(2**62), 63) == 0
        assert rounding_shift(2**62 + 1, 63) == 1

    @given(INT64, SHIFTS)
    def test_matches_big_int_oracle(self, acc, shift):
        assert int(rounding_shift(acc, shift)) == _oracle_shift(acc, shift)

    @given(st.lists(st.tuples(INT64, SHIFTS), min_size=1, max_size=40))
    def test_broadcast_lanes_match_oracle(self, lanes):
        acc = np.array([a for a, _ in lanes], dtype=np.int64)
        shift = np.array([s for _, s in lanes], dtype=np.int64)
        got = rounding_shift(acc[:, None], shift[:, None] + np.array([0, 1]))
        for k, (a, s) in enumerate(lanes):
            assert [int(v) for v in got[k]] == [_oracle_shift(a, s), _oracle_shift(a, s + 1)]


class TestMacProduct:
    def test_examples(self):
        prod, fl = mac_product(32, 6, 16, 5)
        assert prod == 512 and fl == 11
        assert 512 * 2.0**-11 == 0.25
        prod, _ = mac_product(-128, 0, -128, 0)
        assert prod == 16384
        prod, _ = mac_product(0, 4, 99, 4)
        assert prod == 0

    def test_saturate_counts(self):
        acc, clipped = saturate_accumulator(np.array([2**40, -5, 3]))
        assert clipped == 1
        assert acc[0] == 2**31 - 1 and acc[1] == -5


class TestExhaustiveProperties:
    """Round trip, monotonicity, and half-step bound over all codes and fls."""

    @pytest.mark.parametrize("signed", [True, False])
    def test_round_trip_all_codes(self, signed):
        for fl in range(-8, 16):
            q = QFormat(8, fl, signed)
            codes = np.arange(q.min_code, q.max_code + 1)
            back = quantize(dequantize(codes, q), q)
            np.testing.assert_array_equal(back, codes)

    @pytest.mark.parametrize("signed", [True, False])
    def test_monotonicity(self, signed):
        rng = np.random.default_rng(2)
        for fl in range(-8, 16):
            q = QFormat(8, fl, signed)
            v = np.sort(rng.uniform(-2.0 * abs(q.max_value), 2.0 * abs(q.max_value), 512))
            codes = quantize(v, q)
            assert np.all(np.diff(codes) >= 0)

    @pytest.mark.parametrize("signed", [True, False])
    def test_half_step_error_bound(self, signed):
        rng = np.random.default_rng(3)
        for fl in range(-8, 16):
            q = QFormat(8, fl, signed)
            lo = q.min_value if signed else 0.0
            v = rng.uniform(lo, q.max_value, 512)
            err = np.abs(dequantize(quantize(v, q), q) - v)
            assert err.max() <= 2.0 ** (-fl - 1) + 1e-300

    def test_shift_dequantize_consistency(self):
        # rounding_shift then dequantize at fl-s equals dequantize at fl
        # within one rounding step of the coarser format
        rng = np.random.default_rng(4)
        acc = rng.integers(-(2**20), 2**20, 1000)
        for fl, s in ((10, 3), (6, 1), (12, 5)):
            shifted = rounding_shift(acc, s)
            a = shifted * 2.0 ** -(fl - s)
            b = acc * 2.0**-fl
            assert np.max(np.abs(a - b)) <= 2.0 ** (-(fl - s) - 1)
