"""Density model tests: normalization, variance matching, sampling."""

from math import factorial

import numpy as np
import pytest
from scipy import integrate

from chanq import pdfs


def density(model: pdfs.PdfModel, x) -> np.ndarray:
    """Evaluate the model density at x (vectorized)."""
    x = np.asarray(x, dtype=np.float64)
    u = (x - model.location) / model.scale
    if model.family == "laplace":
        return np.exp(-np.abs(u)) / (2.0 * model.scale)
    if model.family == "gaussian":
        return np.exp(-0.5 * u**2) / (model.scale * np.sqrt(2.0 * np.pi))
    t = pdfs.HALF_SUPPORT["super_cauchy"]
    return np.where(np.abs(u) < t, pdfs._quartic_unit(u) / (model.scale * pdfs._SC_MASS), 0.0)


def tail_moments(family: str, t) -> np.ndarray:
    """pdfs.tail_moments, and for a Laplace density, which the solver takes
    whole (flsolver._laplace_noise), the oracle's E[(U - t)+^k] = k! exp(-t) / 2."""
    if family == "laplace":
        return np.multiply.outer([0.5, 0.5, 1.0], np.exp(-np.asarray(t, dtype=np.float64)))
    return pdfs.tail_moments(family, t)


def density_derivatives(family: str, t, count: int) -> np.ndarray:
    """pdfs.density_derivatives, and for a Laplace density p^(k) = (-1)^k exp(-t) / 2."""
    if family == "laplace":
        t = np.asarray(t, dtype=np.float64)
        k = np.arange(count).reshape((count,) + (1,) * t.ndim)
        return (-1.0) ** k * 0.5 * np.exp(-t)
    return pdfs.density_derivatives(family, t, count)


def normalization(model: pdfs.PdfModel, panels: int = 400_000) -> float:
    """Total mass by composite midpoint quadrature."""
    half = min(pdfs.HALF_SUPPORT[model.family], 40.0)
    lo = model.location - half * model.scale
    hi = model.location + half * model.scale
    xs = lo + (np.arange(panels) + 0.5) * (hi - lo) / panels
    return float(density(model, xs).sum() * (hi - lo) / panels)


class TestQuarticTailDensity:
    def test_untruncated_integrates_to_one(self):
        # closed form: integral of dx/(1+x^4) over R is pi/sqrt(2),
        # so the sqrt(2)/pi prefactor normalizes exactly
        val, _ = integrate.quad(lambda u: 1.0 / (1.0 + u**4), -np.inf, np.inf)
        assert val == pytest.approx(np.pi / np.sqrt(2.0), rel=1e-10)
        total, _ = integrate.quad(lambda u: np.sqrt(2) / (np.pi * (1 + u**4)), -np.inf, np.inf)
        assert total == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("t", [1.0, 5.0, 15.0, 30.0])
    def test_closed_forms_match_quadrature(self, t):
        # the tails beyond t give the mass and the variance inside +/- t
        quartic = lambda u: np.sqrt(2.0) / (np.pi * (1.0 + u**4))  # noqa: E731
        mass, _ = integrate.quad(quartic, -t, t)
        second, _ = integrate.quad(lambda u: u**2 * quartic(u), -t, t)
        i0, _, i2 = pdfs._quartic_tails(t)
        whole = np.pi / np.sqrt(2.0)  # the integral of 1/(1+u^4) over R, and of u^2/(1+u^4)
        assert 1.0 - 2.0 * i0 / whole == pytest.approx(mass, rel=1e-15)
        assert (whole - 2.0 * i2) / (whole - 2.0 * i0) == pytest.approx(second / mass, rel=1e-15)
        if t == pdfs.HALF_SUPPORT["super_cauchy"]:
            assert pdfs._SC_MASS == pytest.approx(mass, rel=1e-15)
            assert pdfs.UNIT_VARIANCE["super_cauchy"] == pytest.approx(second / mass, rel=1e-15)

    def test_truncation_mass_close_to_one(self):
        # renormalization constant differs from 1 by < 1e-3 at half-width 15
        assert abs(pdfs._SC_MASS - 1.0) < 1e-3

    def test_truncated_renormalized_integrates_to_one(self):
        m = pdfs.PdfModel("super_cauchy", 0.3, 1.7)
        assert normalization(m) == pytest.approx(1.0, abs=1e-6)

    def test_density_zero_outside_window(self):
        m = pdfs.PdfModel("super_cauchy", 0.0, 1.0)
        assert density(m, np.array([15.5, -20.0])).tolist() == [0.0, 0.0]


class TestNormalization:
    @pytest.mark.parametrize("family,scale", [("laplace", 0.7), ("gaussian", 2.0),
                                              ("super_cauchy", 0.4)])
    def test_each_family_normalized(self, family, scale):
        m = pdfs.fit_pdf(0.0, 1.0, family) if family == "super_cauchy" else \
            pdfs.PdfModel(family, -1.0, scale)
        assert normalization(m) == pytest.approx(1.0, abs=1e-6)


class TestTailMoments:
    @pytest.mark.parametrize("family", ["laplace", "gaussian", "super_cauchy"])
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7071, 1.0, 1.999, 2.5, 9.0, 10.999, 11.0, 14.9,
                                   16.0])
    def test_match_quadrature(self, family, t):
        # E[(U - t)+^k], k = 0, 1, 2, of the unit model against its defining
        # integral; t straddles the quartic's series switches at 2 and 11
        unit = pdfs.PdfModel(family, 0.0, 1.0)
        top = min(pdfs.HALF_SUPPORT[family], 60.0)
        got = tail_moments(family, t)
        for k in range(3):
            want = 0.0
            if t < top:
                want, _ = integrate.quad(lambda u: (u - t) ** k * density(unit, u), t, top,
                                         epsabs=0.0, epsrel=1e-13, limit=200)
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-15), k

    def test_quartic_near_the_cut(self):
        # within 4 scales of the cut the moments are power series in the gap
        # L = 15 - t; as L -> 0 they fall as p(15) L^(k+1) / (k+1)! ... exactly
        unit = pdfs.PdfModel("super_cauchy", 0.0, 1.0)
        peak = float(density(unit, 15.0 - 1e-12))
        for gap in (1e-3, 1e-6):
            got = pdfs.tail_moments("super_cauchy", 15.0 - gap)
            for k in range(3):
                assert got[k] == pytest.approx(peak * gap ** (k + 1) / factorial(k + 1), rel=1e-2)

    def test_vectorized_over_shape(self):
        t = np.array([[0.5, 3.0], [12.0, 20.0]])
        got = pdfs.tail_moments("super_cauchy", t)
        assert got.shape == (3, 2, 2)
        assert got[:, 1, 1].tolist() == [0.0, 0.0, 0.0]
        assert got[:, 0, 1].tolist() == pdfs.tail_moments("super_cauchy", 3.0).tolist()


class TestDensityDerivatives:
    @pytest.mark.parametrize("family", ["laplace", "gaussian", "super_cauchy"])
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7071, 2.0, 9.0, 14.9])
    def test_match_mpmath(self, family, t):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        unit = pdfs.PdfModel(family, 0.0, 1.0)
        scale = float(density(unit, 0.0))  # p(0), to scale the unit shapes below
        shape = {"laplace": lambda u: mpmath.exp(-u) / 2,
                 "gaussian": lambda u: mpmath.exp(-u * u / 2) / mpmath.sqrt(2 * mpmath.pi),
                 "super_cauchy": lambda u: scale / (1 + u**4)}[family]
        got = density_derivatives(family, t, 12)
        assert got.shape == (12,)
        for k in range(12):
            want = float(mpmath.diff(shape, mpmath.mpf(t), k))
            # the quartic's partial fractions leave ~1e-16 k! where p^(k) vanishes
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-15 * factorial(k)), k

    def test_order_is_the_first_axis(self):
        got = pdfs.density_derivatives("super_cauchy", np.array([[0.0, 1.0, 2.0]]), 4)
        assert got.shape == (4, 1, 3)
        assert got[1, 0, 0] == pytest.approx(0.0, abs=1e-15)  # an even density's p'(0)
        assert got[:, 0, 2].tolist() == pdfs.density_derivatives("super_cauchy", 2.0, 4).tolist()


@pytest.mark.parametrize("family", ["laplace", "cauchy"])
def test_a_family_without_a_form_is_refused_by_name(family):
    # pdfs has forms for the gaussian and the quartic only (the Laplace ones
    # are this file's oracle); another family must not fall through to the quartic's
    with pytest.raises(ValueError, match=f"no tail moments for family '{family}'"):
        pdfs.tail_moments(family, 1.0)
    with pytest.raises(ValueError, match=f"no density derivatives for family '{family}'"):
        pdfs.density_derivatives(family, 1.0, 3)


class TestFitting:
    def test_laplace_scale(self):
        m = pdfs.fit_pdf(0.0, np.sqrt(2.0), "laplace")
        assert m.scale == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_scale(self):
        m = pdfs.fit_pdf(2.0, 1.5, "gaussian")
        assert m.scale == 1.5 and m.location == 2.0

    def test_quartic_scale_regression_constant(self):
        # unit-variance scale found by the bisection the closed form replaced
        m = pdfs.fit_pdf(0.0, 1.0, "super_cauchy")
        assert m.scale == pytest.approx(1.0313868895, rel=1e-7)

    def test_quartic_variance_matches_target(self):
        # exact by construction: scale**2 * unit variance == sigma**2
        for sigma in (0.1, 1.0, 7.5):
            m = pdfs.fit_pdf(0.0, sigma, "super_cauchy")
            assert m.scale**2 * pdfs.UNIT_VARIANCE["super_cauchy"] == pytest.approx(sigma**2, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            pdfs.fit_pdf(0.0, 0.0, "laplace")


class TestSampling:
    @pytest.mark.parametrize("family", ["laplace", "gaussian", "super_cauchy"])
    def test_sample_moments(self, family):
        rng = np.random.default_rng(0)
        m = pdfs.fit_pdf(0.5, 2.0, family)
        x = pdfs.sample(m, 200_000, rng)
        assert x.mean() == pytest.approx(0.5, abs=0.05)
        assert x.std() == pytest.approx(2.0, rel=0.05)

    def test_quartic_samples_within_window(self):
        rng = np.random.default_rng(1)
        m = pdfs.PdfModel("super_cauchy", 0.0, 1.0)
        x = pdfs.sample(m, 50_000, rng)
        assert np.abs(x).max() <= 15.0
        # heavy tails: noticeably more mass beyond 4 sigma-units than a gaussian
        assert np.mean(np.abs(x) > 4.0) > 1e-3
