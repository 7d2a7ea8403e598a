"""Fixed-point primitive tests: worked examples plus exhaustive properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chanq.fixedpoint import (
    FL_MAX,
    FL_MIN,
    QFormat,
    dequantize,
    fl_from_max,
    quantize,
    rounding_shift,
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

    def test_scalar_gives_int_array_gives_int64(self):
        assert type(fl_from_max(5.3, 8, True)) is int
        got = fl_from_max(np.array([1.0, 1.0, 0.0]), 8, np.array([True, False, True]))
        assert got.dtype == np.int64 and got.tolist() == [6, 7, FL_MAX]

    def test_non_finite_or_negative_rejected(self):
        for bad in (np.nan, np.inf, -np.inf, -1.0, [1.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                fl_from_max(bad, 8, True)

    def test_subnormal_gets_finest_fl(self):
        assert fl_from_max(5e-324, 8, True) == FL_MAX
        assert fl_from_max(np.array([5e-324, 2.0**-1030]), 24, False).tolist() == [FL_MAX] * 2


def _loop_fl_from_max(max_abs: float, bit_width: int, signed: bool) -> int:
    """The iterative MAX rule the closed form replaced, kept as its oracle:
    a log2 guess, then exact fix-up steps in both directions."""
    if max_abs == 0:
        return FL_MAX
    max_code = 2 ** (bit_width - 1) - 1 if signed else 2**bit_width - 1
    fl = int(np.floor(np.log2(max_code / max_abs)))
    fl = min(max(fl, FL_MIN), FL_MAX)
    while fl > FL_MIN and max_abs > max_code * 2.0**-fl:
        fl -= 1
    while fl < FL_MAX and max_abs <= max_code * 2.0 ** -(fl + 1):
        fl += 1
    return fl


BIT_WIDTHS = st.integers(2, 24)


@st.composite
def _extent(draw, bit_width: int, signed: bool) -> float:
    """Zero, any normal magnitude, or an exact range edge of the format at
    some fl (past the clip range too), or one ulp either side of that edge."""
    max_code = 2 ** (bit_width - 1) - 1 if signed else 2**bit_width - 1
    edge = max_code * 2.0 ** -draw(st.integers(FL_MIN - 4, FL_MAX + 4))
    near = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), 0.0]
    return float(draw(st.sampled_from(near) | st.floats(1e-300, 1e300)))


@st.composite
def _lanes(draw):
    bit_width = draw(BIT_WIDTHS)
    signed = draw(st.lists(st.booleans(), min_size=1, max_size=24))
    return bit_width, signed, [draw(_extent(bit_width, s)) for s in signed]


@st.composite
def _one_extent(draw):
    bit_width, signed = draw(BIT_WIDTHS), draw(st.booleans())
    return bit_width, signed, draw(_extent(bit_width, signed))


class TestFlFromMaxOracle:
    @given(_one_extent())
    def test_scalar_matches_loop(self, case):
        bit_width, signed, max_abs = case
        assert fl_from_max(max_abs, bit_width, signed) == _loop_fl_from_max(max_abs, bit_width, signed)

    @given(_lanes())
    def test_array_with_per_channel_sign_matches_loop(self, case):
        bit_width, signed, max_abs = case
        got = fl_from_max(np.array(max_abs), bit_width, np.array(signed))
        want = [_loop_fl_from_max(m, bit_width, s) for m, s in zip(max_abs, signed)]
        assert got.tolist() == want


class TestRoundingShift:
    def test_examples(self):
        assert rounding_shift(300, 3) == 38
        assert rounding_shift(100000, 1) == 50000
        assert rounding_shift(5, -2) == 20

    def test_half_even_ties(self):
        assert rounding_shift(4, 3) == 0  # 0.5 -> even 0
        assert rounding_shift(12, 3) == 2  # 1.5 -> even 2
        assert rounding_shift(-4, 3) == 0
        assert rounding_shift(-12, 3) == -2

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
            lo = q.min_code * q.step
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
