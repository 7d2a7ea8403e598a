"""Bit-exact Qn.m fixed-point primitives.

A value is represented by an integer code ``c`` in a :class:`QFormat`
``(bit_width, frac_len, signed)`` and decodes to ``c * 2**(-frac_len)``.
All narrowing operations saturate (no wraparound) and all rounding is
round-half-to-even, so every function here is deterministic and matches
a hardware datapath with those conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FL_MIN = -31
FL_MAX = 31

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class QFormat:
    """Fixed-point number format: integer codes scaled by 2**(-frac_len).

    ``frac_len`` may be negative (coarse power-of-two scaling) or exceed
    ``bit_width - 1`` (sub-unit ranges); both are valid shift amounts.
    """

    bit_width: int
    frac_len: int
    signed: bool = True

    def __post_init__(self):
        if self.bit_width < 2:
            raise ValueError(f"bit_width must be >= 2, got {self.bit_width}")
        if not FL_MIN <= self.frac_len <= FL_MAX:
            raise ValueError(f"frac_len {self.frac_len} outside [{FL_MIN}, {FL_MAX}]")

    @property
    def min_code(self) -> int:
        return -(2 ** (self.bit_width - 1)) if self.signed else 0

    @property
    def max_code(self) -> int:
        return 2 ** (self.bit_width - 1) - 1 if self.signed else 2**self.bit_width - 1

    @property
    def step(self) -> float:
        return 2.0**-self.frac_len

    @property
    def max_value(self) -> float:
        return self.max_code * self.step

    @property
    def min_value(self) -> float:
        return self.min_code * self.step


def quantize(values, q: QFormat) -> np.ndarray:
    """Encode real values as integer codes: round-half-even, then saturate."""
    scaled = np.asarray(values, dtype=np.float64) * (2.0**q.frac_len)
    codes = np.rint(scaled)
    codes = np.clip(codes, q.min_code, q.max_code)
    return codes.astype(np.int64)


def dequantize(codes, q: QFormat) -> np.ndarray:
    """Decode integer codes back to reals: code * 2**(-frac_len)."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < q.min_code or codes.max() > q.max_code):
        raise ValueError(
            f"code outside representable range [{q.min_code}, {q.max_code}] "
            f"of {q.bit_width}-bit {'signed' if q.signed else 'unsigned'} format"
        )
    return codes.astype(np.float64) * (2.0**-q.frac_len)


def fl_from_max(max_abs: float, bit_width: int, signed: bool) -> int:
    """Largest fractional length whose range still covers ``max_abs``.

    Reserves enough integer bits to include at least the max value; an
    all-zero extent (max_abs == 0) gets the finest representable fl.
    """
    if max_abs < 0:
        raise ValueError("max_abs must be >= 0")
    if max_abs == 0:
        return FL_MAX
    max_code = 2 ** (bit_width - 1) - 1 if signed else 2**bit_width - 1
    # Initial guess from logs, then exact fix-up: max_code * 2.0**-fl and the
    # comparison are both exact in float64 for fl in [-31, 31].
    fl = int(np.floor(np.log2(max_code / max_abs)))
    fl = min(max(fl, FL_MIN), FL_MAX)
    while fl > FL_MIN and max_abs > max_code * 2.0**-fl:
        fl -= 1
    while fl < FL_MAX and max_abs <= max_code * 2.0 ** -(fl + 1):
        fl += 1
    return fl


def fl_from_max_array(max_abs, bit_width: int, signed) -> np.ndarray:
    """Vectorized :func:`fl_from_max` over per-channel maxima.

    ``signed`` may be a scalar or a per-channel boolean array.
    """
    max_abs = np.atleast_1d(np.asarray(max_abs, dtype=np.float64))
    signed = np.broadcast_to(np.asarray(signed, dtype=bool), max_abs.shape)
    return np.array(
        [fl_from_max(m, bit_width, s) for m, s in zip(max_abs, signed)],
        dtype=np.int64,
    )


def _shift_right_half_even(acc: np.ndarray, shift: np.ndarray) -> np.ndarray:
    # Arithmetic right shift by 0..63 with round-half-to-even; exact for int64.
    q = acc >> shift
    r = acc - (q << shift)  # in [0, 2**shift); q << 63 is at most -2**63
    half = np.int64(1) << np.maximum(shift - 1, 0)  # at shift 0, r = 0 < half
    return q + ((r > half) | ((r == half) & ((q & 1) == 1)))


def _shift_left_saturating(acc: np.ndarray, shift: np.ndarray) -> np.ndarray:
    # Left shift by 0..63, saturated to the int64 range where it would wrap.
    res = acc << shift
    wrapped = (res >> shift) != acc
    return np.where(wrapped, np.where(acc < 0, INT64_MIN, INT64_MAX), res)


def rounding_shift(acc, shift, out: QFormat | None = None) -> np.ndarray:
    """Rescale accumulator codes by 2**(-shift) with half-even rounding.

    Elementwise over ``acc`` and ``shift`` broadcast together. Negative
    shifts multiply and saturate to the int64 range; right shifts of 64 or
    more give 0. If ``out`` is given the result is saturated to its code
    range.
    """
    acc = np.asarray(acc, dtype=np.int64)
    shift = np.asarray(shift, dtype=np.int64)
    res = _shift_right_half_even(acc, np.clip(shift, 0, 63))
    if shift.max(initial=0) >= 64:  # |acc| <= 2**63, so |acc| / 2**64 <= 1/2 rounds to 0
        res = np.where(shift >= 64, 0, res)
    if shift.min(initial=0) < 0:  # shifts of -64 and less wrap for every acc but 0 and -1
        res = np.where(shift < 0, _shift_left_saturating(acc, np.clip(-shift, 0, 63)), res)
    if out is not None:
        res = np.clip(res, out.min_code, out.max_code)
    return res[()]


def mac_product(a_code, a_fl: int, w_code, w_fl: int) -> tuple[np.ndarray, int]:
    """Exact integer product of operand codes; product fl is the sum of fls."""
    prod = np.asarray(a_code, dtype=np.int64) * np.asarray(w_code, dtype=np.int64)
    return prod, a_fl + w_fl


def saturate_accumulator(acc) -> tuple[np.ndarray, int]:
    """Clamp accumulator sums to the 32-bit range, counting clipped lanes."""
    acc = np.asarray(acc, dtype=np.int64)
    clipped = int(np.count_nonzero((acc < INT32_MIN) | (acc > INT32_MAX)))
    return np.clip(acc, INT32_MIN, INT32_MAX), clipped
