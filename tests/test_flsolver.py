"""Solver tests: noise integral oracles, optimal fl, labeling, kNN."""

import dataclasses
import json
import time
import tracemalloc
from collections import Counter
from importlib import resources
from math import factorial, inf

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chanq import flsolver, pdfs
from chanq.fixedpoint import FL_MAX, QFormat, code_range, fl_from_max
from chanq.flsolver import (
    build_labeled_corpus,
    classify_pdf,
    empirical_quant_mse,
    label_channel,
    optimal_fl,
    sqnr_noise,
    train_knn,
)
from chanq.profiling import ChannelStats, stats_from_samples

from test_pdfs import density


def dense_noise(model, q, panels=200_000):
    """Independent direct evaluation of the same composite-midpoint integral."""
    span = 30.0 * model.scale  # past every finite support
    lo, hi = model.location - span, model.location + span
    h = (hi - lo) / panels
    xs = lo + (np.arange(panels) + 0.5) * h
    w = density(model, xs) * h
    scale = 2.0**q.frac_len
    codes = np.clip(np.rint(xs * scale), q.min_code, q.max_code)
    err = xs - codes / scale
    return float(np.dot(err * err, w))


def mp_noise(model, q):
    """The noise by mpmath quadrature, cell by cell, in u = (x - mu) / s.

    The interior cells share one integral over the offset t from their code,
    int_{-d}^{d} t^2 sum_k p(c_k + t) dt, whose integrand is a sum of
    positive terms; it is split where a code's cell meets the mode or a jump
    of the density. The two end cells run to infinity. Good to about 1e-14.
    """
    import mpmath

    unit = pdfs.PdfModel(model.family, 0.0, 1.0)
    half = pdfs.HALF_SUPPORT[model.family]
    mu, s = model.location, model.scale
    d = 0.5 * q.step / s
    codes = (np.arange(q.min_code, q.max_code + 1) * q.step - mu) / s
    inner = codes[1:-1]
    # the mode and the density's jumps, where the quadrature must split
    marks = [0.0] + ([-half, half] if np.isfinite(half) else [])
    cuts = {-d, d} | {float(k - inner[np.argmin(np.abs(inner - k))]) for k in marks}
    cuts = sorted(t for t in cuts if -d <= t <= d)
    granular = mpmath.quad(lambda t: t * t * float(np.sum(density(unit, inner + float(t)))),
                           cuts)

    def end_cell(c, lo, hi):
        lo, hi = max(lo, -half), min(hi, half)
        if lo >= hi:
            return 0.0
        pts = sorted({lo, hi} | {k for k in marks if lo < k < hi})
        return mpmath.quad(lambda u: (u - c) ** 2 * float(density(unit, float(u))), pts)

    ends = end_cell(codes[0], -mpmath.inf, codes[0] + d) + end_cell(codes[-1], codes[-1] - d,
                                                                      mpmath.inf)
    return s * s * float(granular + ends)


def edge_noise(family, mu, s, bit_width, signed, fls):
    """The former solver: Var U + c^2 - 2 h sum_e T(|e|) with one
    tail_moments term per cell edge (see flsolver._noise_curve), edges past
    40 scales from the mean dropped, every fl of each row of ``fls`` summed.
    Its subtraction leaves about 1e-15 (Var U + c^2) / noise of rounding."""
    fls = np.asarray(fls, dtype=np.int64)
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64)[:, None], fls.shape)
    s = np.broadcast_to(np.asarray(s, dtype=np.float64)[:, None], fls.shape)
    min_code, max_code = code_range(bit_width, signed)
    scale, step = np.ldexp(1.0, fls), np.ldexp(1.0, -fls)
    half = min(pdfs.HALF_SUPPORT[family], 40.0)
    first = np.clip(np.ceil((mu - half * s) * scale - 0.5), min_code, max_code)
    last = np.clip(np.floor((mu + half * s) * scale - 0.5), min_code - 1, max_code - 1)
    count = np.maximum(last - first + 1, 0).astype(np.int64).ravel()
    c = (np.clip(np.rint(mu * scale), min_code, max_code) * step - mu) / s
    starts = np.cumsum(count) - count
    k = np.arange(count.sum()) - np.repeat(starts - first.ravel().astype(np.int64), count)
    u = ((k + 0.5) * np.repeat(step.ravel(), count)
         - np.repeat(mu.ravel(), count)) / np.repeat(s.ravel(), count)
    sums = np.zeros(count.size)
    sums[count > 0] = np.add.reduceat(pdfs.tail_moments(family, np.abs(u))[1],
                                      starts[count > 0])
    base = pdfs.UNIT_VARIANCE[family] + c * c
    return s * s * (base - 2.0 * step / s * sums.reshape(fls.shape)), s * s * base


class TestSqnrNoise:
    def test_overload_dominated_limit(self):
        # fl = 31 leaves a vanishing range: nearly everything saturates
        for family in ("laplace", "gaussian", "super_cauchy"):
            m = pdfs.fit_pdf(0.0, 1.0, family)
            noise = sqnr_noise(m, QFormat(8, 31, True))
            ex2 = m.scale**2 * pdfs.UNIT_VARIANCE[family]
            assert noise >= 0.5 * ex2

    def test_matches_direct_evaluation(self):
        # the 200,000-panel grid of dense_noise is itself off by 4.8e-6 on
        # the second trial (a gaussian at fl 6), so the evaluation is mpmath's
        rng = np.random.default_rng(0)
        for trial in range(12):
            family = ("laplace", "gaussian", "super_cauchy")[trial % 3]
            sigma = 2.0 ** rng.uniform(-3, 3)
            m = pdfs.fit_pdf(rng.normal(0, sigma), sigma, family)
            q = QFormat(8, int(rng.integers(-6, 14)), bool(rng.integers(0, 2)))
            a = sqnr_noise(m, q)
            b = mp_noise(m, q)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-300)

    def test_doubled_resolution_agreement(self):
        m = pdfs.fit_pdf(0.0, 1.0, "laplace")
        for fl in (2, 5, 8):
            q = QFormat(8, fl, True)
            a = sqnr_noise(m, q)
            b = dense_noise(m, q, panels=400_000)
            assert a == pytest.approx(b, rel=1e-4)

    def test_laplace_sweep_unimodal_and_matches_monte_carlo(self):
        rng = np.random.default_rng(1)
        m = pdfs.fit_pdf(0.0, 1.0, "laplace")
        samples = rng.laplace(0.0, m.scale, 10**6)
        noises = []
        for fl in range(0, 11):
            q = QFormat(8, fl, True)
            analytic = sqnr_noise(m, q)
            mc = empirical_quant_mse(samples, q)
            # at overload-dominated fls the MC estimator itself carries a
            # few-percent standard error; widen 2% to 4 standard errors there
            from chanq.fixedpoint import dequantize, quantize
            sq = (samples - dequantize(quantize(samples, q), q)) ** 2
            se_rel = sq.std() / np.sqrt(len(sq)) / mc
            assert analytic == pytest.approx(mc, rel=max(0.02, 4.0 * se_rel))
            noises.append(analytic)
        # unimodal: decreasing then increasing
        kmin = int(np.argmin(noises))
        assert all(noises[i] > noises[i + 1] for i in range(kmin))
        assert all(noises[i] < noises[i + 1] for i in range(kmin, len(noises) - 1))


def _gamma_low(delta):
    """int_0^delta w^k exp(-w) dw for k = 0, 1, 2 (delta may be inf), as
    k! exp(-delta) sum_{n > k} delta^n / n! below 1, where the closed forms
    k! - exp(-delta) (...) would cancel."""
    d = np.minimum(delta, 1.0)
    series = [np.zeros_like(d) for _ in range(3)]
    term = np.ones_like(d)
    for n in range(1, 25):
        term = term * d / n
        for k in range(3):
            if n > k:
                series[k] = series[k] + term
    series = [factorial(k) * np.exp(-d) * series[k] for k in range(3)]
    e, big = np.exp(-delta), np.where(np.isinf(delta), 0.0, delta)  # e = 0 where delta = inf
    direct = [1.0 - e, 1.0 - e * (1.0 + big), 2.0 - e * (big * big + 2.0 * big + 2.0)]
    return [np.where(delta <= 1.0, series[k], direct[k]) for k in range(3)]


def laplace_noise(mu, b, q):
    """Exact noise of a Laplace(mu, b) input under the saturating uniform
    quantizer (the clipped-quantizer analysis of ACIQ, Banner et al.,
    arXiv 1810.05723): per code cell, the closed-form integral of
    (x - v)^2 p(x) on each side of mu; the end cells reach to infinity.

    In t = |x - mu| / b a piece [t0, t0 + delta] of a cell is
    b^2 / 2 exp(-t0) int_0^delta (w + e)^2 exp(-w) dw, e the distance from
    the piece's start to the code in scales; the incomplete gammas do not
    cancel (:func:`_gamma_low`), so each piece keeps its relative accuracy
    and the positive pieces sum to about 1e-15."""
    step = 2.0**-q.frac_len
    k = np.arange(q.min_code, q.max_code + 1)
    lo = np.where(k == q.min_code, -inf, (k - 0.5) * step)
    hi = np.where(k == q.max_code, inf, (k + 0.5) * step)
    v = k * step
    pieces = []
    for t0, t1, offset in (((lo - mu) / b, (hi - mu) / b, (mu - v) / b),    # x above mu
                           ((mu - hi) / b, (mu - lo) / b, (v - mu) / b)):   # x below mu
        t0, t1 = np.maximum(t0, 0.0), np.maximum(t1, 0.0)
        delta = np.where(t1 > t0, t1 - t0, 0.0)
        g0, g1, g2 = _gamma_low(delta)
        e = t0 + offset
        pieces.append(0.5 * b * b * np.exp(-t0) * (e * e * g0 + 2.0 * e * g1 + g2))
    return float(np.sum(pieces))


class TestLaplaceClosedForm:
    @pytest.mark.parametrize("sigma", [1.0, 0.01])
    @pytest.mark.parametrize("mean_in_sigmas", [0.0, 0.3, -2.0])
    @pytest.mark.parametrize("signed", [True, False])
    def test_grid_matches_closed_form(self, sigma, mean_in_sigmas, signed):
        m = pdfs.fit_pdf(mean_in_sigmas * sigma, sigma, "laplace")
        fl0 = int(np.round(-np.log2(sigma)))
        # from overload-dominated through the optimum to granular-dominated
        for fl in range(fl0 - 3, fl0 + 12, 2):
            q = QFormat(8, fl, signed)
            exact = laplace_noise(m.location, m.scale, q)
            assert sqnr_noise(m, q) == pytest.approx(exact, rel=1e-12)


class _PerChannelGrid:
    """Reference solver: a fresh composite-midpoint grid in x for every
    channel, its weights regrouped by the cell each midpoint lands in. The
    closed form must pick the same fls."""

    def __init__(self, model, panels=200_000):
        span = 30.0 * model.scale  # past every finite support
        lo, hi = model.location - span, model.location + span
        h = (hi - lo) / panels
        self.xs = lo + (np.arange(panels) + 0.5) * h
        w = density(model, self.xs) * h
        self.s0 = np.concatenate([[0.0], np.cumsum(w)])
        self.s1 = np.concatenate([[0.0], np.cumsum(w * self.xs)])
        self.s2 = np.concatenate([[0.0], np.cumsum(w * self.xs**2)])

    def noise(self, q):
        xs = self.xs
        step = 2.0**-q.frac_len
        scale = 2.0**q.frac_len
        k_lo = int(np.clip(np.rint(xs[0] * scale), q.min_code, q.max_code))
        k_hi = int(np.clip(np.rint(xs[-1] * scale), q.min_code, q.max_code))
        edges = (np.arange(k_lo, k_hi) + 0.5) * step
        idx = np.searchsorted(xs, edges, side="left")
        bounds = np.concatenate([[0], idx, [len(xs)]])
        lo, hi = bounds[:-1], bounds[1:]
        v = np.arange(k_lo, k_hi + 1) * step
        m0 = self.s0[hi] - self.s0[lo]
        m1 = self.s1[hi] - self.s1[lo]
        m2 = self.s2[hi] - self.s2[lo]
        return float(np.sum(m2 - 2.0 * v * m1 + v * v * m0))

    def optimal_fl(self, bit_width, signed):
        span = max(abs(float(self.xs[0])), abs(float(self.xs[-1])))
        best_fl, best_noise = None, np.inf
        for fl in range(fl_from_max(2.0 * span, bit_width, signed), FL_MAX + 1):
            noise = self.noise(QFormat(bit_width, fl, signed))
            if noise < best_noise:
                best_fl, best_noise = fl, noise
        return best_fl


ALL_FAMILIES = ("laplace", "super_cauchy", "gaussian")


def oracle_sweep_cases(seed, n):
    """Seeded channels: sigma over 2^+-12, |mean| / sigma up to 100 (a
    fifth at mean 0), three families, both signednesses, 4-16 bits."""
    rng = np.random.default_rng(seed)
    base = stats_from_samples(np.array([0.0, 1.0]))
    for i in range(n):
        sigma = 2.0 ** rng.uniform(-12.0, 12.0)
        ratio = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 2.0)
        mean = 0.0 if rng.random() < 0.2 else sigma * ratio
        stats = dataclasses.replace(base, mean=np.array([mean]), m2=np.array([sigma * sigma]))
        yield (stats, ("laplace", "super_cauchy", "gaussian")[i % 3],
               int(rng.integers(4, 17)), bool(rng.integers(0, 2)))


class TestPerChannelGridOracle:
    def test_fls_match_per_channel_grid(self):
        flips = []
        for stats, family, bit_width, signed in oracle_sweep_cases(seed=12, n=200):
            got = int(optimal_fl(stats, family, bit_width, signed)[0])
            model = pdfs.fit_pdf(float(stats.mean[0]), float(stats.sigma[0]), family)
            want = _PerChannelGrid(model).optimal_fl(bit_width, signed)
            if got != want:
                # a flip is allowed only between fls whose exact noises tie
                a, b = (sqnr_noise(model, QFormat(bit_width, fl, signed)) for fl in (got, want))
                assert abs(a - b) <= 1e-12 * max(a, b), (family, bit_width, signed, got, want)
                flips.append((family, bit_width, signed, got, want))
        # one all-saturating channel (mean -13 sigma, unsigned): every fl from
        # -6 to -2 leaves it at code 0, and the grid's roundoff picked -2
        assert flips == [("laplace", 8, False, -6, -2)]


class TestEdgeSumOracle:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_noise_around_the_optimum(self, family):
        # against the per-edge sum within 1e-12 plus that sum's own rounding
        # (about 1e-15 (Var U + c^2) / noise), and a Laplace density also
        # against the exact per-cell integral within 1e-12
        for stats, _, bit_width, signed in oracle_sweep_cases(seed=12, n=120):
            mu, sigma = float(stats.mean[0]), float(stats.sigma[0])
            model = pdfs.fit_pdf(mu, sigma, family)
            fl = int(optimal_fl(stats, family, bit_width, signed)[0])
            fls = np.arange(fl - 1, fl + 2)
            want, scale = edge_noise(family, [mu], [model.scale], bit_width, signed, [fls])
            for f, w, v in zip(fls, want[0], scale[0]):
                q = QFormat(bit_width, int(f), signed)
                got = sqnr_noise(model, q)
                assert got == pytest.approx(w, rel=1e-12 + 1e-15 * v / w), (bit_width, signed, f)
                if family == "laplace":
                    exact = laplace_noise(mu, model.scale, q)
                    assert got == pytest.approx(exact, rel=1e-12), (bit_width, signed, f)


class TestMpmathOracle:
    @pytest.mark.parametrize("family", ["laplace", "gaussian", "super_cauchy"])
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("bit_width,rel", [(8, 1e-10), (16, 1e-9)])
    def test_noise_around_the_optimum(self, family, signed, bit_width, rel):
        # the closed forms subtract no variance, so 16 bits holds as tight
        # as 8 (mp_noise itself is good to about 1e-14)
        stats = dataclasses.replace(stats_from_samples(np.array([0.0, 1.0])),
                                    mean=np.array([0.3]), m2=np.array([1.0]))
        model = pdfs.fit_pdf(0.3, 1.0, family)
        fl = int(optimal_fl(stats, family, bit_width, signed)[0])
        for f in (fl - 1, fl, fl + 1):
            q = QFormat(bit_width, f, signed)
            assert sqnr_noise(model, q) == pytest.approx(mp_noise(model, q), rel=rel)

    def test_a_quartic_range_past_its_cut_takes_the_cut_terms(self, monkeypatch):
        # codes out to +-32 scales span the quartic's cut at 15: its terms
        # move the noise by about 3e-9 relative, and with them it is mpmath's
        model = pdfs.PdfModel("super_cauchy", 0.3, 1.0)
        q = QFormat(8, 2, True)
        want = mp_noise(model, q)
        assert sqnr_noise(model, q) == pytest.approx(want, rel=1e-12)
        monkeypatch.setattr(flsolver, "_CUT_WEIGHTS", 0.0 * flsolver._CUT_WEIGHTS)
        assert sqnr_noise(model, q) != pytest.approx(want, rel=1e-10)


class TestOptimalFl:
    def test_matches_monte_carlo_brute_force(self):
        rng = np.random.default_rng(2)
        stats = stats_from_samples(rng.laplace(0, 1 / np.sqrt(2), 10**6))
        fl = int(optimal_fl(stats, "laplace", 8, True)[0])
        samples = rng.laplace(0, 1 / np.sqrt(2), 10**6)
        mses = [empirical_quant_mse(samples, QFormat(8, f, True)) for f in range(0, 11)]
        assert abs(fl - int(np.argmin(mses))) <= 1

    def test_power_of_two_scale_equivariance(self):
        rng = np.random.default_rng(3)
        base = rng.laplace(0, 1 / np.sqrt(2), 50_000)
        fl1 = optimal_fl(stats_from_samples(base), "laplace", 8, True)
        fl16 = optimal_fl(stats_from_samples(16.0 * base), "laplace", 8, True)
        assert fl16.tolist() == [fl1[0] - 4]

    def test_degenerate_channel(self):
        stats = stats_from_samples(np.zeros(500))
        assert optimal_fl(stats, "laplace", 8, True).tolist() == [31]
        # constant nonzero channel falls back to the MAX rule
        stats = stats_from_samples(np.full(500, 5.0))
        assert optimal_fl(stats, "laplace", 8, True).tolist() == [4]

    def test_tie_break_prefers_smaller_fl(self):
        # strictly-better fls always win; equal-noise ties keep the first
        # (smaller) candidate by the strict < comparison in the scan
        rng = np.random.default_rng(4)
        stats = stats_from_samples(rng.normal(0, 1, 50_000))
        fl_a = optimal_fl(stats, "gaussian", 8, True)
        fl_b = optimal_fl(stats, "gaussian", 8, True)
        assert fl_a.tolist() == fl_b.tolist()  # deterministic


def per_channel_optimal_fl(stats, family, bit_width, signed, channel):
    """The former one-channel solver, with each fl scored on its own by
    sqnr_noise: no pruning, no other rows, no repeated scan starts."""
    sigma = float(stats.sigma[channel])
    if sigma <= 0:
        return fl_from_max(float(stats.max_abs[channel]), bit_width, signed)
    model = pdfs.fit_pdf(float(stats.mean[channel]), sigma, family)
    span = abs(model.location) + flsolver.SCAN_HALF_WIDTH * model.scale
    fls = np.arange(fl_from_max(2.0 * span, bit_width, signed), FL_MAX + 1)
    noise = np.array([sqnr_noise(model, QFormat(bit_width, int(fl), signed)) for fl in fls])
    best = noise.min()
    return int(fls[np.argmax(noise <= best + 1e-12 * abs(best))])


def random_record(rng, channels):
    """Channels with sigma over 2^+-12 and |mean| / sigma up to 100; about
    one in four is degenerate (sigma 0), half of those all zero."""
    sigma = 2.0 ** rng.uniform(-12.0, 12.0, channels)
    mean = sigma * rng.choice([-1.0, 1.0], channels) * 10.0 ** rng.uniform(-3.0, 2.0, channels)
    max_abs = np.abs(mean) + sigma * rng.uniform(1.0, 30.0, channels)
    dead = rng.random(channels) < 0.25
    mean[dead & (rng.random(channels) < 0.5)] = 0.0
    sigma[dead] = 0.0
    max_abs[dead] = np.abs(mean[dead])
    zeros = {f.name: np.zeros(channels) for f in dataclasses.fields(ChannelStats)}
    return ChannelStats(**{**zeros, "mean": mean, "m2": sigma * sigma, "max_abs": max_abs})


class TestRecordSolver:
    """optimal_fl solves a whole record at once; every channel must get the
    fl the per-channel oracle gives it."""

    def test_matches_per_channel_oracle(self):
        rng = np.random.default_rng(31)
        for case in range(40):
            bit_width, signed = int(rng.integers(4, 17)), bool(rng.integers(0, 2))
            stats = random_record(rng, int(rng.integers(1, 9)))
            channels = stats.n_channels
            family = (ALL_FAMILIES[case // 3 % len(ALL_FAMILIES)] if case % 3 == 0
                      else list(rng.choice(ALL_FAMILIES, channels)))
            names = np.broadcast_to(np.asarray(family), channels)
            got = optimal_fl(stats, family, bit_width, signed)
            want = [per_channel_optimal_fl(stats, names[c], bit_width, signed, c)
                    for c in range(channels)]
            assert got.dtype == np.int64 and got.shape == (channels,)
            assert got.tolist() == want, (case, bit_width, signed, list(names))

    def test_one_pass_per_family(self):
        # each family's live channels are scored in one pass, whatever their
        # count: the record's 27 live channels in one family, then 12 and 15
        # in two
        stats = random_record(np.random.default_rng(32), 40)
        assert np.count_nonzero(stats.sigma > 0) == 27
        for family in ("laplace", ["super_cauchy", "laplace"] * 20):
            names = np.broadcast_to(np.asarray(family), 40)
            want = [per_channel_optimal_fl(stats, names[c], 8, True, c) for c in range(40)]
            assert optimal_fl(stats, family, 8, True).tolist() == want

    def test_memory_does_not_grow_with_the_bit_width(self):
        # a 16-bit solve holds arrays of (channel, fl) entries only; scoring
        # every cell edge took 17 MB here
        stats = random_record(np.random.default_rng(39), 64)
        stats = dataclasses.replace(stats, m2=np.where(stats.m2 > 0, stats.m2, 1.0))
        optimal_fl(stats, "laplace", 16, True)
        tracemalloc.start()
        try:
            optimal_fl(stats, "laplace", 16, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_degenerate_channels_keep_the_max_rule(self):
        stats = random_record(np.random.default_rng(33), 6)
        stats = dataclasses.replace(stats, m2=np.array([0.0, 1.0, 0.0, 4.0, 0.0, 0.0]),
                                    max_abs=np.array([0.0, 3.0, 5.0, 3.0, 0.1, 2.0**-40]),
                                    mean=np.array([0.0, 0.5, -5.0, 1.0, 0.1, 2.0**-40]))
        fls = optimal_fl(stats, "super_cauchy", 8, False)
        dead = [0, 2, 4, 5]
        assert fls[dead].tolist() == fl_from_max(stats.max_abs[dead], 8, False).tolist()
        assert fls[0] == FL_MAX and fls[5] == FL_MAX  # 2**-40 needs a finer fl than 31

    def test_nan_sigma_is_rejected(self):
        stats = dataclasses.replace(random_record(np.random.default_rng(34), 3),
                                    m2=np.array([1.0, np.nan, 0.0]))
        with pytest.raises(ValueError, match="sigma must be positive"):
            optimal_fl(stats, "laplace", 8, True)

    @pytest.mark.parametrize("family", ["super_cauchy", "gaussian"])
    def test_leading_term_bounds_the_noise(self, family):
        # the bound by which _noise_curve skips entries that cannot tie: the
        # noise lies within _SLACKS[family] h^3 of its leading term, and
        # comes within a tenth of it (the largest gap reads 0.25 to 0.40)
        rng = np.random.default_rng(40)
        worst = 0.0
        for _ in range(200):
            q = QFormat(int(rng.integers(2, 17)), int(rng.integers(-4, 12)),
                        bool(rng.integers(0, 2)))
            mu = float(rng.normal(0.0, 3.0))
            lo, hi = np.array([q.min_code * q.step - mu]), np.array([q.max_code * q.step - mu])
            lead = float(flsolver._leading(family, lo, hi, np.array([q.step]))[0])
            gap = abs(sqnr_noise(pdfs.PdfModel(family, mu, 1.0), q) - lead)
            bound = flsolver._SLACKS[family] * q.step**3
            assert gap <= bound + 1e-14 * lead, (q, mu)
            worst = max(worst, gap / bound)
        assert worst > 0.1

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("bit_width, signed", [(4, False), (8, True), (16, False)])
    def test_noise_rows_equal_sqnr_noise(self, family, bit_width, signed):
        # rows of one pass are independent: each equals the one-model,
        # one-fl evaluation bit for bit, and only fls that cannot tie the
        # row's best are left unevaluated (scored inf)
        rng = np.random.default_rng(35)
        sigma = 2.0 ** rng.uniform(-12.0, 12.0, 5)
        mean = sigma * rng.choice([-1.0, 0.0, 1.0], 5) * 10.0 ** rng.uniform(-3.0, 2.0, 5)
        models = [pdfs.fit_pdf(m, s, family) for m, s in zip(mean, sigma)]
        start = fl_from_max(2.0 * (np.abs(mean) + 30.0 * sigma), bit_width, signed)[:, None]
        cand = np.maximum(np.arange(start.min(), FL_MAX + 1), start)
        noise = flsolver._noise_curve(family, mean, [m.scale for m in models], bit_width, signed,
                                      cand)
        assert noise.shape == cand.shape
        for row, model, fls in zip(noise, models, cand):
            want = np.array([sqnr_noise(model, QFormat(bit_width, int(fl), signed)) for fl in fls])
            kept = np.isfinite(row)
            assert row[kept].tolist() == want[kept].tolist()
            assert np.all(want[~kept] > row.min() * (1 + 1e-12))


def classify_one(feature, model):
    """The former one-channel kNN vote: stable order, ties -> laplace."""
    f = (np.asarray(feature, dtype=np.float64) - model.feat_mean) / model.feat_scale
    nearest = np.argsort(np.sum((model.points - f) ** 2, axis=1), kind="stable")[: model.k]
    votes = Counter(model.labels[i] for i in nearest)
    winners = sorted(lbl for lbl, c in votes.items() if c == max(votes.values()))
    return "laplace" if "laplace" in winners else winners[0]


class TestClassifyRecord:
    def test_default_classifier_matches_per_row_vote(self):
        knn = flsolver.default_classifier(8)
        rng = np.random.default_rng(36)
        feats = np.vstack([np.asarray(knn.points[:40]) * knn.feat_scale + knn.feat_mean,
                           knn.feat_mean + knn.feat_scale * rng.normal(size=(40, 5))])
        assert classify_pdf(feats, knn) == [classify_one(f, knn) for f in feats]

    def test_ties_match_per_row_vote(self):
        # duplicated points and three labels, one sorting before laplace:
        # many neighbourhoods split evenly
        rng = np.random.default_rng(37)
        points = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        labels = list(rng.choice(["gaussian", "laplace", "super_cauchy"], 60))
        knn = train_knn(points, labels, k=6)
        probes = rng.integers(0, 3, size=(50, 2)).astype(np.float64)
        got = classify_pdf(probes, knn)
        assert got == [classify_one(f, knn) for f in probes]
        assert {"gaussian", "laplace"} <= set(got)

    @given(st.data())
    def test_nearest_is_the_stable_argsorts_first_k(self, data):
        # few distinct distances force ties at the k-th; NaN rows (degenerate
        # channels) and rows of fewer than k numbers keep the argsort order
        shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 30)))
        k = data.draw(st.integers(1, shape[1]))
        d2 = data.draw(arrays(np.float64, shape,
                              elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, inf, np.nan])))
        d2[data.draw(st.lists(st.integers(0, shape[0] - 1)))] = np.nan
        expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert flsolver._nearest(d2, k).tolist() == expected.tolist()

    def test_degenerate_rows_get_a_label(self):
        # NaN features (sigma == 0) are labeled without error; optimal_fl ignores the label
        knn = flsolver.default_classifier(8)
        got = classify_pdf(np.array([[np.nan] * 5, knn.feat_mean]), knn)
        assert len(got) == 2 and got[1] == classify_one(knn.feat_mean, knn)


class TestLabelChannel:
    def test_laplace_samples_labeled_laplace(self):
        # unit variance convention: b = 1/sqrt(2)
        rng = np.random.default_rng(5)
        wins = sum(
            label_channel(rng.laplace(0, 1 / np.sqrt(2), 10**5), 8) == "laplace"
            for _ in range(100)
        )
        assert wins >= 95

    def test_quartic_samples_labeled_super_cauchy(self):
        rng = np.random.default_rng(6)
        m = pdfs.fit_pdf(0.0, 1.0, "super_cauchy")
        wins = sum(
            label_channel(pdfs.sample(m, 10**5, rng), 8) == "super_cauchy"
            for _ in range(100)
        )
        assert wins >= 95

    def test_two_point_samples_deterministic(self):
        x = np.tile([-1.0, 1.0], 100)
        assert label_channel(x, 8) == label_channel(x.copy(), 8)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            label_channel(np.ones(10), 8)


class TestShippedCorpus:
    @staticmethod
    def shipped(bit_width):
        path = resources.files("chanq").joinpath(f"data/knn_default_{bit_width}.json")
        return json.loads(path.read_text())

    def test_8bit_corpus_rebuilds(self):
        doc = self.shipped(8)
        feats, labels, _ = build_labeled_corpus(len(doc["labels"]), seed=doc["seed"],
                                                samples_per_channel=doc["samples_per_channel"],
                                                bit_width=8)
        assert labels == doc["labels"]
        np.testing.assert_allclose(feats, doc["features"], rtol=1e-9)

    def test_16bit_corpus_rebuilds(self):
        # every row: a 16-bit label is four fitted solves, and the whole
        # corpus took about 1.5 s on 2 vCPUs
        doc = self.shipped(16)
        assert (doc["bit_width"], doc["k"], len(doc["labels"])) == (16, 12, 400)
        start = time.perf_counter()
        feats, labels, _ = build_labeled_corpus(len(doc["labels"]), seed=doc["seed"],
                                                samples_per_channel=doc["samples_per_channel"],
                                                bit_width=16)
        assert time.perf_counter() - start < 60.0
        assert labels == doc["labels"]
        np.testing.assert_allclose(feats, doc["features"], rtol=1e-9)

    def test_default_classifier_builds_only_unshipped_widths(self, monkeypatch):
        built = []

        def fake_corpus(n, seed, bit_width):
            built.append(bit_width)
            return np.random.default_rng(0).normal(size=(n, 5)), ["laplace"] * n, None

        monkeypatch.setattr(flsolver, "build_labeled_corpus", fake_corpus)
        monkeypatch.setattr(flsolver, "_DEFAULT_KNN", {})
        for bit_width in (8, 16):
            assert len(flsolver.default_classifier(bit_width).labels) == len(
                self.shipped(bit_width)["labels"])
        assert built == []
        assert len(flsolver.default_classifier(12).labels) == 400
        assert built == [12]


class TestKnn:
    def test_single_class_always_wins(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(20, 5))
        model = train_knn(feats, ["laplace"] * 20)
        assert classify_pdf(rng.normal(size=(3, 5)), model) == ["laplace"] * 3

    def test_unanimous_neighborhood(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0, 0.1, size=(12, 5))
        b = rng.normal(10, 0.1, size=(12, 5))
        model = train_knn(np.vstack([a, b]), ["laplace"] * 12 + ["super_cauchy"] * 12)
        assert classify_pdf(np.stack([a[0], b[0], a[1]]), model) == [
            "laplace", "super_cauchy", "laplace"]

    def test_tie_goes_to_laplace(self):
        # symmetric 6/6 split in every neighborhood
        feats = np.zeros((24, 2))
        labels = (["laplace"] * 12 + ["super_cauchy"] * 12)
        model = train_knn(feats, labels)
        assert classify_pdf(np.zeros((1, 2)), model) == ["laplace"]

    def test_too_small_training_set(self):
        with pytest.raises(ValueError):
            train_knn(np.zeros((5, 3)), ["laplace"] * 5)
