"""SQNR-optimal fractional lengths: granular vs overload error.

For a fixed number of levels there is an optimum step balancing the
error inside the range against the clipping error beyond it. This
script sweeps the fractional length for a unit-variance Laplace source
and compares the analytic noise integral against Monte-Carlo.
"""

import numpy as np

from chanq import QFormat, optimal_fl, sqnr_noise
from chanq.flsolver import empirical_quant_mse
from chanq.pdfs import fit_pdf, sample
from chanq.profiling import stats_from_samples

rng = np.random.default_rng(0)
model = fit_pdf(0.0, 1.0, "laplace")
samples = sample(model, 10**6, rng)

print("fl | analytic noise | Monte-Carlo (1e6) | representable range")
for fl in range(0, 9):
    q = QFormat(8, fl, True)
    a = sqnr_noise(model, q)
    mc = empirical_quant_mse(samples, q)
    print(f"{fl:2d} |  {a:12.3e} |     {mc:12.3e} |  +-{q.max_value:9.3f}")

stats = stats_from_samples(samples)
print("\nargmin of the analytic curve:", optimal_fl(stats, "laplace", 8, True)[0])
print("(coarse fls waste resolution; fine fls clip the tails)")

print("\n== The same tradeoff under a heavy-tailed model ==")
for family in ("gaussian", "laplace", "super_cauchy"):
    fl = int(optimal_fl(stats, family, 8, True)[0])
    print(f"  fitted {family:13s} -> optimal fl {fl} "
          f"(range +-{QFormat(8, fl, True).max_value:.2f})")
print("heavier assumed tails reserve more integer bits for the same sigma")
