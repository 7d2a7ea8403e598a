"""Probability density models used to pick fractional lengths.

Families: laplace, gaussian, and a heavy-tailed quartic-decay density
(``super_cauchy``) truncated to a finite scale-normalized window, plus a
uniform family kept for tests. Fitting matches location to the mean and
scale to the variance; every family's variance is scale**2 times a
constant (for the truncated family, a closed-form one), so the scale is
sigma over that constant's square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, pi, sqrt

import numpy as np

FAMILIES = ("laplace", "gaussian", "super_cauchy", "uniform")

# Half-width of the heavy-tailed family's support, in units of its scale.
DEFAULT_TRUNCATION = 15.0


@dataclass(frozen=True)
class PdfModel:
    family: str
    location: float
    scale: float
    truncation: float | None = None  # super_cauchy only, scale-normalized

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def half_support(self) -> float:
        """Half-width of the support in scale units; inf for laplace and gaussian."""
        if self.family == "super_cauchy":
            return self.truncation if self.truncation is not None else DEFAULT_TRUNCATION
        if self.family == "uniform":
            return 1.0
        return np.inf


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


def quartic_norm_const(truncation: float = DEFAULT_TRUNCATION) -> float:
    """Mass of the unit quartic-tail density inside +/- truncation."""
    return float(1.0 - 2.0 * sqrt(2.0) / pi * _quartic_tails(truncation)[0])


def quartic_unit_variance(truncation: float = DEFAULT_TRUNCATION) -> float:
    """Variance of the truncated, renormalized unit quartic-tail density."""
    i0, _, i2 = _quartic_tails(truncation)
    return float((pi / sqrt(2.0) - 2.0 * i2) / (pi / sqrt(2.0) - 2.0 * i0))


def density(model: PdfModel, x) -> np.ndarray:
    """Evaluate the model density at x (vectorized)."""
    x = np.asarray(x, dtype=np.float64)
    u = (x - model.location) / model.scale
    if model.family == "laplace":
        return np.exp(-np.abs(u)) / (2.0 * model.scale)
    if model.family == "gaussian":
        return np.exp(-0.5 * u**2) / (model.scale * sqrt(2.0 * pi))
    if model.family == "uniform":
        return np.where(np.abs(u) <= 1.0, 0.5 / model.scale, 0.0)
    t = model.half_support
    return np.where(np.abs(u) < t, _quartic_unit(u) / (model.scale * quartic_norm_const(t)), 0.0)


def model_variance(model: PdfModel) -> float:
    """Variance of the model; in closed form for every family."""
    if model.family == "laplace":
        return 2.0 * model.scale**2
    if model.family == "gaussian":
        return model.scale**2
    if model.family == "uniform":
        return model.scale**2 / 3.0
    return model.scale**2 * quartic_unit_variance(model.half_support)


def tail_excess(model: PdfModel, t) -> np.ndarray:
    """E[(U - t)+] for t >= 0, where U = (X - location) / scale (vectorized).

    Closed form for every family; it is the only property of the density
    that the quantization-noise functional of :mod:`chanq.flsolver` needs.
    """
    t = np.asarray(t, dtype=np.float64)
    if model.family == "laplace":
        return 0.5 * np.exp(-t)
    if model.family == "gaussian":
        upper = 0.5 * np.asarray(np.frompyfunc(erfc, 1, 1)(t / sqrt(2.0)), dtype=np.float64)
        return np.exp(-0.5 * t * t) / sqrt(2.0 * pi) - t * upper
    if model.family == "uniform":
        return 0.25 * (1.0 - np.minimum(t, 1.0)) ** 2
    trunc = model.half_support
    t = np.minimum(t, trunc)
    (i0, i1, _), (j0, j1, _) = _quartic_tails(t), _quartic_tails(trunc)
    return sqrt(2.0) / (pi * quartic_norm_const(trunc)) * ((i1 - j1) - t * (i0 - j0))


def normalization(model: PdfModel, panels: int = 400_000) -> float:
    """Total mass by composite midpoint quadrature (validation aid)."""
    half = model.half_support if np.isfinite(model.half_support) else 40.0
    lo = model.location - half * model.scale
    hi = model.location + half * model.scale
    xs = lo + (np.arange(panels) + 0.5) * (hi - lo) / panels
    return float(density(model, xs).sum() * (hi - lo) / panels)


def fit_pdf(mean: float, sigma: float, family: str,
            truncation: float = DEFAULT_TRUNCATION) -> PdfModel:
    """Fit a model of the given family to a channel's mean and sigma.

    The scale is the one whose model variance equals sigma**2; for the
    truncated family that is sigma / sqrt(quartic_unit_variance(truncation)).
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive to fit a density")
    if family == "laplace":
        return PdfModel("laplace", float(mean), float(sigma) / sqrt(2.0))
    if family == "gaussian":
        return PdfModel("gaussian", float(mean), float(sigma))
    if family == "uniform":
        return PdfModel("uniform", float(mean), float(sigma) * sqrt(3.0))
    if family != "super_cauchy":
        raise ValueError(f"unknown family {family!r}")
    scale = float(sigma) / sqrt(quartic_unit_variance(truncation))
    return PdfModel("super_cauchy", float(mean), scale, truncation)


_SC_INVCDF_CACHE: dict[float, tuple[np.ndarray, np.ndarray]] = {}


def sample(model: PdfModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from the model."""
    if model.family == "laplace":
        return rng.laplace(model.location, model.scale, n)
    if model.family == "gaussian":
        return rng.normal(model.location, model.scale, n)
    if model.family == "uniform":
        return rng.uniform(model.location - model.scale, model.location + model.scale, n)
    t = model.half_support
    if t not in _SC_INVCDF_CACHE:
        u = np.linspace(-t, t, 2**17 + 1)
        pdf = _quartic_unit(u)
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(u))])
        cdf /= cdf[-1]
        _SC_INVCDF_CACHE[t] = (cdf, u)
    cdf, u = _SC_INVCDF_CACHE[t]
    draws = np.interp(rng.random(n), cdf, u)
    return model.location + model.scale * draws
