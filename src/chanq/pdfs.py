"""Probability density families used to pick fractional lengths.

Families: laplace, gaussian, and a heavy-tailed quartic-decay density
(``super_cauchy``) cut to +/- 15 scales and renormalized. Each family is a
table entry: the variance and the half-width of the support of its
unit-scale member, the quartic ones in closed form from
:func:`_quartic_tails`. Fitting matches location to the
mean and scale to the variance, so the scale is sigma over the square root
of the family's unit variance. The quantization-noise functional reads the
gaussian and the quartic through their tail moments and their density's
derivatives, both in closed form or as convergent series; it takes the
Laplace noise whole, in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, erfc, factorial, inf, pi, sqrt

import numpy as np

FAMILIES = ("laplace", "gaussian", "super_cauchy")


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


HALF_SUPPORT = {"laplace": inf, "gaussian": inf, "super_cauchy": 15.0}
# The quartic tails beyond the cut, and the mass left inside it.
_SC_CUT = _quartic_tails(HALF_SUPPORT["super_cauchy"])
_SC_MASS = float(1.0 - 2.0 * sqrt(2.0) / pi * _SC_CUT[0])
UNIT_VARIANCE = {
    "laplace": 2.0,
    "gaussian": 1.0,
    "super_cauchy": float((pi / sqrt(2.0) - 2.0 * _SC_CUT[2]) / (pi / sqrt(2.0) - 2.0 * _SC_CUT[0])),
}


def _quartic_taylor(t, count: int) -> list:
    # Taylor coefficients a_j, j < count, of q(t + v) = 1 / (1 + (t + v)^4)
    # in v, from (1 + (t + v)^4) sum_j a_j v^j = 1
    d = [1.0 + t**4, 4.0 * t**3, 6.0 * t * t, 4.0 * t, 1.0]
    a = []
    for j in range(count):
        a.append(1.0 / d[0] if j == 0 else
                 -sum(d[i] * a[j - i] for i in range(1, min(j, 4) + 1)) / d[0])
    return a


def _series_tables(terms: int = 40):
    # Power series of the quartic tails int_t^H (u - t)^k q(u) du, q(u) =
    # 1/(1 + u^4), as coefficients of increasing powers, one row per k = 0, 1, 2.
    #   far: int_t^inf (u - t)^k q(u) du = t^(k-3) sum_n (-1)^n k! (4n+2-k)! / (4n+3)! x^n
    #     in x = t^-4 (substitute u = t / y), 1e-18 by 16 terms at t >= 2, less
    #     the part past the cut, a polynomial in the gap L = H - t;
    #   near: int_0^L (L - v)^k q(H - v) dv, from the Taylor coefficients b_j
    #     of q(H - v): sum_j b_j k! j! / (k + j + 1)! L^(k+j+1), 1e-17 by 40
    #     terms at L <= 4 (the poles of q lie 14.3 from H).
    cut = HALF_SUPPORT["super_cauchy"]
    b = [(-1) ** j * a for j, a in enumerate(_quartic_taylor(cut, terms))]
    far = np.array([[(-1) ** n * factorial(k) * factorial(4 * n + 2 - k) / factorial(4 * n + 3)
                     for n in range(16)] for k in range(3)])
    near = np.array([[0.0] * (k + 1) + [b[j] * factorial(k) * factorial(j) / factorial(k + j + 1)
                                        for j in range(terms)] + [0.0] * (2 - k) for k in range(3)])
    # past the cut: int_H^inf (u - t)^k q = sum_i C(k, i) L^(k-i) int_H^inf (u - H)^i q
    beyond = _quartic_far(np.array([cut]), far)[:, 0]
    far_cut = np.array([[comb(k, k - j) * beyond[k - j] if j <= k else 0.0 for j in range(3)]
                        for k in range(3)])
    return far, far_cut, near


def _series(coef, x):
    # sum_j coef[k, j] x^j for 1-D x, as [k, len(x)]; einsum, not BLAS, so
    # that each element's sum is the same whatever the length of x
    return np.einsum("nj,kj->kn", np.vander(x, coef.shape[1], increasing=True), coef)


def _quartic_far(t, coef):
    return t ** np.array([[-3.0], [-2.0], [-1.0]]) * _series(coef, t**-4.0)


_SC_FAR, _SC_FAR_CUT, _SC_NEAR = _series_tables()


def tail_moments(family: str, t) -> np.ndarray:
    """E[(U - t)+^k] for t >= 0 and k = 0 (the tail mass P(U > t)), 1 and 2,
    along a new first axis, where U is the family's unit-scale variable
    (vectorized over t).

    Closed forms for the gaussian and the quartic; these and the density's
    derivatives (:func:`density_derivatives`) are all the quantization-noise
    functional of :mod:`chanq.flsolver` reads of a density. It takes the
    Laplace noise whole (``flsolver._laplace_noise``), so that family has no
    form here and is refused. The quartic tail is summed as a power series
    where its closed form would cancel: in 1 / t from 2 scales out, and in
    the distance to the cut within 4 scales of it.
    """
    t = np.asarray(t, dtype=np.float64)
    if family == "gaussian":
        upper = 0.5 * np.asarray(np.frompyfunc(erfc, 1, 1)(t / sqrt(2.0)), dtype=np.float64)
        phi = np.exp(-0.5 * t * t) / sqrt(2.0 * pi)
        return np.stack([upper, phi - t * upper, (1.0 + t * t) * upper - t * phi])
    if family != "super_cauchy":
        raise ValueError(f"no tail moments for family {family!r}")
    cut = HALF_SUPPORT["super_cauchy"]
    t = np.minimum(t, cut)
    gap = cut - t
    out = np.empty((3,) + t.shape)
    near = gap <= 4.0
    far = ~near & (t >= 2.0)
    core = ~near & ~far
    if near.any():
        out[:, near] = _series(_SC_NEAR, gap[near])
    if far.any():
        out[:, far] = _quartic_far(t[far], _SC_FAR) - _series(_SC_FAR_CUT, gap[far])
    if core.any():
        tc = t[core]
        i0, i1, i2 = (i - j for i, j in zip(_quartic_tails(tc), _SC_CUT))  # integrals over [t, H]
        out[:, core] = i0, i1 - tc * i0, i2 - 2.0 * tc * i1 + tc * tc * i0
    return sqrt(2.0) / (pi * _SC_MASS) * out


def density_derivatives(family: str, t, count: int) -> np.ndarray:
    """p, p', ..., p^(count-1) of the family's unit-scale density at t >= 0,
    inside its support, along a new first axis (vectorized over t); at the
    end of a finite support they are the limits from inside. Gaussian and
    quartic only, as :func:`tail_moments`."""
    t = np.asarray(t, dtype=np.float64)
    if family == "gaussian":
        # p^(k) = (-1)^k He_k(t) phi(t), with He_{k+1} = t He_k - k He_{k-1}
        he = [np.ones(t.shape), t]
        for j in range(1, count - 1):
            he.append(t * he[j] - j * he[j - 1])
        k = np.arange(count).reshape((count,) + (1,) * t.ndim)
        return (-1.0) ** k * np.array(he[:count]) * np.exp(-0.5 * t * t) / sqrt(2.0 * pi)
    if family != "super_cauchy":
        raise ValueError(f"no density derivatives for family {family!r}")
    return np.array([sqrt(2.0) / (pi * _SC_MASS) * factorial(j) * a
                     for j, a in enumerate(_quartic_taylor(t, count))])


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
