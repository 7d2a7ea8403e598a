"""Probability density families used to pick fractional lengths.

Families: laplace, gaussian, and a heavy-tailed quartic-decay density
(``super_cauchy``) cut to +/- 15 scales and renormalized, plus a uniform
family kept for tests. Each family is a table entry: the variance and the
half-width of the support of its unit-scale member, the quartic ones in
closed form from :func:`_quartic_tails`. Fitting matches location to the
mean and scale to the variance, so the scale is sigma over the square root
of the family's unit variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, inf, pi, sqrt

import numpy as np

FAMILIES = ("laplace", "gaussian", "super_cauchy", "uniform")


@dataclass(frozen=True)
class PdfModel:
    family: str
    location: float
    scale: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def _quartic_unit(u: np.ndarray) -> np.ndarray:
    # Unnormalized unit-scale heavy-tailed density; integrates to 1 over R.
    return sqrt(2.0) / (pi * (1.0 + u**4))


def _quartic_tails(t):
    # Integrals of 1/(1+u^4), u/(1+u^4) and u^2/(1+u^4) over [t, inf), t >= 0,
    # from the partial fractions of 1/(1+u^4) over u^2 +- sqrt(2)u + 1. Pi
    # minus their two atans is one atan2 and their log ratio a log1p, so every
    # term keeps its relative accuracy as t grows.
    r2 = sqrt(2.0)
    log_part = np.log1p(2.0 * r2 * t / (t * t - r2 * t + 1.0))
    atan_part = 2.0 * np.arctan2(r2 * t, t * t - 1.0)
    return ((atan_part - log_part) / (4.0 * r2), 0.5 * np.arctan2(1.0, t * t),
            (atan_part + log_part) / (4.0 * r2))


HALF_SUPPORT = {"laplace": inf, "gaussian": inf, "super_cauchy": 15.0, "uniform": 1.0}
# The quartic tails beyond the cut, and the mass left inside it.
_SC_CUT = _quartic_tails(HALF_SUPPORT["super_cauchy"])
_SC_MASS = float(1.0 - 2.0 * sqrt(2.0) / pi * _SC_CUT[0])
UNIT_VARIANCE = {
    "laplace": 2.0,
    "gaussian": 1.0,
    "super_cauchy": float((pi / sqrt(2.0) - 2.0 * _SC_CUT[2]) / (pi / sqrt(2.0) - 2.0 * _SC_CUT[0])),
    "uniform": 1.0 / 3.0,
}


def tail_excess(family: str, t) -> np.ndarray:
    """E[(U - t)+] for t >= 0, where U is the family's unit-scale variable
    (vectorized).

    Closed form for every family; it is the only property of the density
    that the quantization-noise functional of :mod:`chanq.flsolver` needs.
    """
    t = np.asarray(t, dtype=np.float64)
    if family == "laplace":
        return 0.5 * np.exp(-t)
    if family == "gaussian":
        upper = 0.5 * np.asarray(np.frompyfunc(erfc, 1, 1)(t / sqrt(2.0)), dtype=np.float64)
        return np.exp(-0.5 * t * t) / sqrt(2.0 * pi) - t * upper
    if family == "uniform":
        return 0.25 * (1.0 - np.minimum(t, 1.0)) ** 2
    t = np.minimum(t, HALF_SUPPORT["super_cauchy"])
    (i0, i1, _), (j0, j1, _) = _quartic_tails(t), _SC_CUT
    return sqrt(2.0) / (pi * _SC_MASS) * ((i1 - j1) - t * (i0 - j0))


def fit_scale(sigma, family: str) -> np.ndarray:
    """Scale whose model variance is sigma**2, elementwise over ``sigma``."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    sigma = np.asarray(sigma, dtype=np.float64)
    if not (sigma > 0).all():
        raise ValueError("sigma must be positive to fit a density")
    return sigma / sqrt(UNIT_VARIANCE[family])


def fit_pdf(mean: float, sigma: float, family: str) -> PdfModel:
    """Fit a model of the given family to a channel's mean and sigma."""
    return PdfModel(family, float(mean), float(fit_scale(sigma, family)))


_SC_INVCDF_CACHE: dict[float, tuple[np.ndarray, np.ndarray]] = {}


def sample(model: PdfModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from the model."""
    if model.family == "laplace":
        return rng.laplace(model.location, model.scale, n)
    if model.family == "gaussian":
        return rng.normal(model.location, model.scale, n)
    if model.family == "uniform":
        return rng.uniform(model.location - model.scale, model.location + model.scale, n)
    t = HALF_SUPPORT["super_cauchy"]
    if t not in _SC_INVCDF_CACHE:
        u = np.linspace(-t, t, 2**17 + 1)
        pdf = _quartic_unit(u)
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(u))])
        cdf /= cdf[-1]
        _SC_INVCDF_CACHE[t] = (cdf, u)
    cdf, u = _SC_INVCDF_CACHE[t]
    draws = np.interp(rng.random(n), cdf, u)
    return model.location + model.scale * draws
