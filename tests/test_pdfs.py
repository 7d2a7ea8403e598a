"""Density model tests: normalization, variance matching, sampling."""

import numpy as np
import pytest
from scipy import integrate

from chanq import pdfs


def normalization(model: pdfs.PdfModel, panels: int = 400_000) -> float:
    """Total mass by composite midpoint quadrature."""
    half = model.half_support if np.isfinite(model.half_support) else 40.0
    lo = model.location - half * model.scale
    hi = model.location + half * model.scale
    xs = lo + (np.arange(panels) + 0.5) * (hi - lo) / panels
    return float(pdfs.density(model, xs).sum() * (hi - lo) / panels)


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
        density = lambda u: np.sqrt(2.0) / (np.pi * (1.0 + u**4))  # noqa: E731
        mass, _ = integrate.quad(density, -t, t)
        second, _ = integrate.quad(lambda u: u**2 * density(u), -t, t)
        assert pdfs.quartic_norm_const(t) == pytest.approx(mass, rel=1e-15)
        assert pdfs.quartic_unit_variance(t) == pytest.approx(second / mass, rel=1e-15)

    def test_truncation_mass_close_to_one(self):
        # renormalization constant differs from 1 by < 1e-3 at half-width 15
        assert abs(pdfs.quartic_norm_const(15.0) - 1.0) < 1e-3

    def test_truncated_renormalized_integrates_to_one(self):
        m = pdfs.PdfModel("super_cauchy", 0.3, 1.7, 15.0)
        assert normalization(m) == pytest.approx(1.0, abs=1e-6)

    def test_density_zero_outside_window(self):
        m = pdfs.PdfModel("super_cauchy", 0.0, 1.0, 15.0)
        assert pdfs.density(m, np.array([15.5, -20.0])).tolist() == [0.0, 0.0]


class TestNormalization:
    @pytest.mark.parametrize("family,scale", [("laplace", 0.7), ("gaussian", 2.0),
                                              ("uniform", 1.3), ("super_cauchy", 0.4)])
    def test_each_family_normalized(self, family, scale):
        m = pdfs.fit_pdf(0.0, 1.0, family) if family == "super_cauchy" else \
            pdfs.PdfModel(family, -1.0, scale, 15.0 if family == "super_cauchy" else None)
        assert normalization(m) == pytest.approx(1.0, abs=1e-6)


class TestTailExcess:
    @pytest.mark.parametrize("family", ["laplace", "gaussian", "uniform", "super_cauchy"])
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7071, 1.0, 2.5, 9.0, 14.9, 16.0])
    def test_matches_quadrature(self, family, t):
        # E[(U - t)+] of the unit model against its defining integral; far
        # out, where the closed forms cancel, to 1e-15 absolute (T(0) >= 1/4)
        unit = pdfs.PdfModel(family, 0.0, 1.0, 15.0 if family == "super_cauchy" else None)
        top = min(unit.half_support, 60.0)
        want = 0.0
        if t < top:
            want, _ = integrate.quad(lambda u: (u - t) * pdfs.density(unit, u), t, top,
                                     epsabs=0.0, epsrel=1e-13, limit=200)
        assert pdfs.tail_excess(unit, t) == pytest.approx(want, rel=1e-12, abs=1e-15)


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
            assert pdfs.model_variance(m) == pytest.approx(sigma**2, rel=1e-12)

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
        m = pdfs.PdfModel("super_cauchy", 0.0, 1.0, 15.0)
        x = pdfs.sample(m, 50_000, rng)
        assert np.abs(x).max() <= 15.0
        # heavy tails: noticeably more mass beyond 4 sigma-units than a gaussian
        assert np.mean(np.abs(x) > 4.0) > 1e-3
