"""Fixed-point basics: codes, saturation, rounding shifts.

A Qn.m value is an integer code scaled by 2**-fl. This script walks the
primitive operations the whole toolkit is built on.
"""

import numpy as np

from chanq import QFormat, dequantize, fl_from_max, quantize, rounding_shift

print("== Encoding reals as 8-bit codes ==")
q = QFormat(bit_width=8, frac_len=6, signed=True)
for v in (0.5, -1.0, 1.9843, 3.0):
    c = quantize(v, q)
    print(f"  {v:+8.4f} -> code {int(c):+4d} -> {dequantize(c, q):+.6f}"
          f"{'   (saturated)' if abs(v) > q.max_value else ''}")

print("\n== Picking a fractional length from a max value ==")
for max_abs in (0.5, 5.3, 100.0):
    fl = fl_from_max(max_abs, 8, True)
    q = QFormat(8, fl, True)
    print(f"  max_abs {max_abs:6.1f} -> fl {fl:2d} (range +-{q.max_value:.3f})")

print("\n== Rounding shifts (half-to-even) ==")
out = QFormat(8, 0, True)
for acc, s in ((300, 3), (4, 3), (12, 3), (100000, 1)):
    code = np.clip(rounding_shift(acc, s), out.min_code, out.max_code)  # narrow to 8 bits
    print(f"  {acc} >> {s} = {int(code)}"
          f"   (exact {acc / 2**s})")

print("\nA 0.5 tie rounds to the even neighbor: 4>>3 -> 0, 12>>3 -> 2.")
print("Narrowing always saturates: 100000>>1 clips to 127 in 8 bits.")

print("\n== Quantization error is at most half a step inside the range ==")
rng = np.random.default_rng(0)
q = QFormat(8, 5, True)
v = rng.uniform(-3.9, 3.9, 100000)
err = np.abs(dequantize(quantize(v, q), q) - v)
print(f"  fl=5: step {q.step}, max |error| {err.max():.6f} <= {q.step / 2}")
