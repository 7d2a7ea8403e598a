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


def fl_from_max(max_abs, bit_width: int, signed):
    """Largest fractional length whose range still covers ``max_abs``.

    Reserves enough integer bits to include at least the max value, i.e.
    the largest fl with ``max_abs <= max_code * 2**-fl``, clipped to
    [FL_MIN, FL_MAX]. With ``max_abs = m_a * 2**e_a`` and ``max_code =
    m_c * 2**e_c`` (mantissas in [1/2, 1)) that fl is exactly
    ``e_c - e_a - (m_a > m_c)``. An all-zero extent (max_abs == 0) gets the
    finest representable fl. Works elementwise over arrays (``signed`` may
    be per channel); a scalar extent gives an int. NaN, infinite and
    negative extents raise ValueError.
    """
    max_abs = np.asarray(max_abs, dtype=np.float64)
    bad = max_abs[~(max_abs >= 0) | np.isinf(max_abs)]  # NaN fails >= 0
    if bad.size:
        raise ValueError(f"max_abs must be finite and >= 0, got {bad[0]}")
    max_code = np.where(signed, 2.0 ** (bit_width - 1) - 1, 2.0**bit_width - 1)
    m_abs, e_abs = np.frexp(max_abs)
    m_code, e_code = np.frexp(max_code)
    fl = np.clip(e_code - e_abs - (m_abs > m_code), FL_MIN, FL_MAX)
    fl = np.where(max_abs == 0, FL_MAX, fl).astype(np.int64)
    return int(fl) if fl.ndim == 0 else fl


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


def rounding_shift(acc, shift) -> np.ndarray:
    """Rescale accumulator codes by 2**(-shift) with half-even rounding.

    Elementwise over ``acc`` and ``shift`` broadcast together. Negative
    shifts multiply and saturate to the int64 range; right shifts of 64 or
    more give 0.
    """
    acc = np.asarray(acc, dtype=np.int64)
    shift = np.asarray(shift, dtype=np.int64)
    res = _shift_right_half_even(acc, np.clip(shift, 0, 63))
    if shift.max(initial=0) >= 64:  # |acc| <= 2**63, so |acc| / 2**64 <= 1/2 rounds to 0
        res = np.where(shift >= 64, 0, res)
    if shift.min(initial=0) < 0:  # shifts of -64 and less wrap for every acc but 0 and -1
        res = np.where(shift < 0, _shift_left_saturating(acc, np.clip(-shift, 0, 63)), res)
    return res[()]
