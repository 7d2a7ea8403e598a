"""Solver tests: noise integral oracles, optimal fl, labeling, kNN."""

import dataclasses
import json
from collections import Counter
from importlib import resources
from math import exp, inf

import numpy as np
import pytest

from chanq import flsolver, pdfs
from chanq.fixedpoint import FL_MAX, QFormat, fl_from_max
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


class TestSqnrNoise:
    def test_uniform_classic_result(self):
        # step fully covering the range, no overload: noise = step^2 / 12
        m = pdfs.PdfModel("uniform", 0.0, 1.0)
        noise = sqnr_noise(m, QFormat(8, 6, True))
        assert noise == pytest.approx((2.0**-6) ** 2 / 12.0, rel=0.01)

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
            family = ("laplace", "gaussian", "super_cauchy", "uniform")[trial % 4]
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


def laplace_noise(mu, b, q):
    """Exact noise of a Laplace(mu, b) input under the saturating uniform
    quantizer (the clipped-quantizer analysis of ACIQ, Banner et al.,
    arXiv 1810.05723): per code cell, the closed-form integral of
    (x - v)^2 p(x) on each side of mu; the end cells reach to infinity."""
    step = 2.0**-q.frac_len

    def one_side(t0, t1, d):
        # integral over t in [t0, t1] of (t + d)^2 exp(-t / b) / (2 b)
        def antiderivative(t):
            if t == inf:
                return 0.0
            return -0.5 * exp(-t / b) * ((t + d) ** 2 + 2.0 * b * (t + d) + 2.0 * b * b)
        return antiderivative(t1) - antiderivative(t0)

    total = 0.0
    for k in range(q.min_code, q.max_code + 1):
        lo = -inf if k == q.min_code else (k - 0.5) * step
        hi = inf if k == q.max_code else (k + 0.5) * step
        v = k * step
        total += one_side(max(lo - mu, 0.0), max(hi - mu, 0.0), mu - v)  # x above mu
        total += one_side(max(mu - hi, 0.0), max(mu - lo, 0.0), v - mu)  # x below mu
    return total


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
            assert sqnr_noise(m, q) == pytest.approx(exact, rel=1e-6)


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


class TestMpmathOracle:
    @pytest.mark.parametrize("family", ["laplace", "gaussian", "super_cauchy", "uniform"])
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("bit_width,rel", [(8, 1e-10), (16, 1e-6)])
    def test_noise_around_the_optimum(self, family, signed, bit_width, rel):
        # at 16 bits the noise is ~1e-8 of the variance it is subtracted
        # from, which costs about that much relative accuracy
        stats = dataclasses.replace(stats_from_samples(np.array([0.0, 1.0])),
                                    mean=np.array([0.3]), m2=np.array([1.0]))
        model = pdfs.fit_pdf(0.3, 1.0, family)
        fl = int(optimal_fl(stats, family, bit_width, signed)[0])
        for f in (fl - 1, fl, fl + 1):
            q = QFormat(bit_width, f, signed)
            assert sqnr_noise(model, q) == pytest.approx(mp_noise(model, q), rel=rel)


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


ALL_FAMILIES = ("laplace", "super_cauchy", "gaussian", "uniform")


class TestRecordSolver:
    """optimal_fl solves a whole record at once; every channel must get the
    fl the per-channel oracle gives it."""

    def test_matches_per_channel_oracle(self):
        rng = np.random.default_rng(31)
        for case in range(40):
            bit_width, signed = int(rng.integers(4, 17)), bool(rng.integers(0, 2))
            stats = random_record(rng, int(rng.integers(1, 9)))
            channels = stats.n_channels
            family = (ALL_FAMILIES[case % 4] if case % 3 == 0
                      else list(rng.choice(ALL_FAMILIES, channels)))
            names = np.broadcast_to(np.asarray(family), channels)
            got = optimal_fl(stats, family, bit_width, signed)
            want = [per_channel_optimal_fl(stats, names[c], bit_width, signed, c)
                    for c in range(channels)]
            assert got.dtype == np.int64 and got.shape == (channels,)
            assert got.tolist() == want, (case, bit_width, signed, list(names))

    def test_passes_of_rows(self):
        # at 8 bits a pass takes 2**17 // (63 * 2**8) = 8 rows: the record's 27
        # live channels take four passes in one family, and two each (12 and
        # 15 rows) in two
        stats = random_record(np.random.default_rng(32), 40)
        assert np.count_nonzero(stats.sigma > 0) == 27
        for family in ("laplace", ["super_cauchy", "laplace"] * 20):
            names = np.broadcast_to(np.asarray(family), 40)
            want = [per_channel_optimal_fl(stats, names[c], 8, True, c) for c in range(40)]
            assert optimal_fl(stats, family, 8, True).tolist() == want

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

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("bit_width, signed", [(4, False), (8, True), (16, False)])
    def test_noise_rows_equal_sqnr_noise(self, family, bit_width, signed):
        # rows of one pass are independent: each equals the one-model,
        # one-fl evaluation bit for bit, and only fls more than twice the
        # row's best are pruned (scored inf)
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
            assert np.all(want[~kept] > 2.0 * row.min() * (1 - 1e-9))


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

    def test_16bit_corpus_prefix_rebuilds(self):
        # the corpus draws channels one after another, so a short build
        # reproduces the shipped corpus's first rows
        doc = self.shipped(16)
        assert (doc["bit_width"], doc["k"], len(doc["labels"])) == (16, 12, 400)
        feats, labels, _ = build_labeled_corpus(16, seed=doc["seed"],
                                                samples_per_channel=doc["samples_per_channel"],
                                                bit_width=16)
        assert labels == doc["labels"][:16]
        np.testing.assert_allclose(feats, doc["features"][:16], rtol=1e-9)


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
