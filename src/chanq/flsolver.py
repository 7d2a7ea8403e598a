"""Fractional-length rules that answer for all channels of a stats record at once.

The MAX rule reserves integer bits for the observed extreme value; the
moment-based rules fit a density to each channel's mean/sigma, as arrays of
locations and scales (:func:`pdfs.fit_scale`), and pick the integer
fractional length minimizing expected squared quantization error. That
error is scored in O(1) per (channel, fl), whatever the bit width, as
granular plus overload terms, as in ACIQ (Banner et al., arXiv 1810.05723)
and Widrow and Kollar (Quantization Noise, 2008): exactly, as geometric
series, for the Laplace density; for the others by the Euler-Maclaurin
expansion of the sum over cell edges, with a per-edge sum left only for
coarse steps the expansion does not reach. The channels of a family are
scored in one pass. A kNN over standardized absolute moments votes each
channel's best-fit family, from one distance matrix per record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import comb, factorial, inf, pi

import numpy as np

from . import pdfs
from .fixedpoint import FL_MAX, QFormat, code_range, dequantize, fl_from_max, quantize
from .profiling import ChannelStats, standardized_moments, stats_from_samples

SCAN_HALF_WIDTH = 30.0  # the scan starts at the finest fl covering 2 (|mean| + this many scales)
TAIL_HALF_WIDTH = 40.0  # a gaussian's density and tail moments underflow to 0 this many scales out
# The largest step, in scales, at which a family's noise is taken in closed
# form (:func:`_euler_maclaurin`); coarser steps sum their edges. The form
# leaves out exp(-2 (pi / h)^2) of the gaussian's grid sum; the quartic's
# poles, which bound its series at exp(-4.44 / h), are summed as residues.
STEP_LIMIT = {"gaussian": 0.5, "super_cauchy": 1.0}
_ORDERS = 24  # Euler-Maclaurin terms up to h^_ORDERS
_PEAKS = {family: float(pdfs.density_derivatives(family, 0.0, 1)[0]) for family in STEP_LIMIT}
# 2 p(0) zeta(3) / pi^3: how far, in h^3, the noise can lie from its leading term
_SLACKS = {family: 2.0 * peak * 1.2020569031595942 / pi**3 for family, peak in _PEAKS.items()}


# The Bernoulli numbers B_0 .. B_24 as (numerator, denominator); B_r = 0 for odd r > 1
_BERNOULLI_NUMBERS = [(1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1),
                      (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6), (0, 1),
                      (-3617, 510), (0, 1), (43867, 798), (0, 1), (-174611, 330), (0, 1),
                      (854513, 138), (0, 1), (-236364091, 2730)]


def _bernoulli_matrix(n: int) -> np.ndarray:
    # row r: the coefficients of the Bernoulli polynomial B_r(x) on 1, x, ..., x^n,
    # C(r, j) B_(r-j), each rounded once from its exact integer ratio
    return np.array([[comb(r, j) * _BERNOULLI_NUMBERS[r - j][0] / _BERNOULLI_NUMBERS[r - j][1]
                      if j <= r else 0.0 for j in range(n + 1)] for r in range(n + 1)])


_BERNOULLI = _bernoulli_matrix(_ORDERS)
_END_ORDERS = np.arange(4, _ORDERS + 1, 2)
_CUT_ORDERS = np.arange(3, _ORDERS + 1)
# -2 B_r(1/2) / r!: the weight of the odd derivative p^(r-3) at an end code
_END_WEIGHTS = np.array([-2.0 * (_BERNOULLI[r] * 0.5 ** np.arange(_ORDERS + 1)).sum()
                         / factorial(r) for r in _END_ORDERS])
# -2 p^(r-3)(H) / r!: the weight of B_r at the phase of the quartic's cut H
_CUT_WEIGHTS = (-2.0 * pdfs.density_derivatives("super_cauchy", pdfs.HALF_SUPPORT["super_cauchy"],
                                                _ORDERS - 2)
                / np.array([factorial(r) for r in _CUT_ORDERS]))
# 2 / (2j+1)!, 1 / (2j-1)! and 2 / (2j)!: the weights of a^(2j+1), x a^(2j+1) and x^j a^(2j+1)
_GRID_TERMS = [(2.0 / factorial(2 * j + 1), 1.0 / factorial(2 * j - 1), 2.0 / factorial(2 * j))
               for j in range(2, 12)]


def _laplace_noise(lo, hi, c, h):
    """Noise / scale^2 of a unit Laplace density, in closed form: the edges on
    each side of the mean are arithmetic, T(t) = exp(-t) / 2 (see
    :func:`_noise_curve`), so each side's sum is one geometric series. With
    half step a = h / 2 and k = a / sinh(a): a mean within the range gives
    2 + c^2 - 2 k cosh(c) + k (exp(-hi) + exp(lo)); one at distance d >= 0
    from its nearest end code, the other end at f, 2 + d^2 - k (exp(-d) - exp(-f)).
    The first term is the granular noise of an unbounded grid, ~h^2 / 12; it
    is summed as a series of positive terms for a <= 1, where it cancels."""
    a = 0.5 * h
    k = 2.0 * a * np.exp(-a) / -np.expm1(-2.0 * a)
    near = np.where(lo >= 0, lo, -hi)
    far = np.where(lo >= 0, hi, -lo)
    outside = 2.0 + near * near - k * (np.exp(-np.maximum(near, 0.0)) - np.exp(-far))
    # (2 + c^2) sinh(a) - 2 a cosh(c) = sum_{j >= 1} a^(2j+1) w_j, with w_1 = 1/3 and
    # w_j = 2 / (2j+1)! + x / (2j-1)! - 2 x^j / (2j)! > 0, x = (c / a)^2 <= 1
    small = np.minimum(a, 1.0)
    x = np.minimum((c / a) ** 2, 1.0)
    power, xj = small**3, x
    series = power / 3.0
    for odd, even, cosh in _GRID_TERMS:
        power, xj = power * small * small, xj * x
        series = series + power * (odd + x * even - xj * cosh)
    inner = np.clip(c, -a, a)  # |c| <= a wherever the mean is within the range
    direct = 2.0 + c * c - 2.0 * a * (np.exp(inner - a) + np.exp(-inner - a)) / -np.expm1(-2.0 * a)
    grid = np.where(a <= 1.0, series / np.sinh(small), direct)
    inside = grid + k * (np.exp(-np.maximum(hi, 0.0)) + np.exp(np.minimum(lo, 0.0)))
    return np.where((lo < 0) & (hi > 0), inside, outside)


def _series(start, terms_of, count: int):
    """Sums of an asymptotic series per row: ``start`` [n] plus its terms
    in order, ``terms_of(rows, k)`` giving the first k [len(rows), k]. A row
    stops once two terms in a row each move its sum by under 2^-53 (one
    alone may be small where a derivative crosses zero), and fails if it
    has not by ``count`` terms. Returns the sums and the failed rows."""
    rows = np.arange(start.size)
    terms = terms_of(rows, count)
    partial = np.cumsum(np.concatenate([start[:, None], terms], axis=1), axis=1)[:, 1:]
    small = np.abs(terms) <= 2.0**-53 * np.abs(partial)
    done = small[:, 1:] & small[:, :-1]
    stopped = done.any(axis=1)
    return partial[rows, np.where(stopped, np.argmax(done, axis=1) + 1, count - 1)], ~stopped


def _leading(family: str, lo, hi, h):
    """Noise / scale^2 of an ideal grid: granular h^2 / 12 times the mass
    between the end codes lo and hi (in scales from the mean), plus the
    overloads Q(hi) + Q(-lo), where Q(x) = E[(U - x)+^2]."""
    var = pdfs.UNIT_VARIANCE[family]
    ends = np.stack([hi, -lo])  # E[(U - x)+^k] at x = hi and, by symmetry, E[(lo - U)+^k]
    mass, _, square = pdfs.tail_moments(family, np.abs(ends))
    below = ends < 0
    mass[below] = 1.0 - mass[below]
    square[below] = var + ends[below] ** 2 - square[below]
    return h * h / 12.0 * (1.0 - mass.sum(axis=0)) + square.sum(axis=0)


def _euler_maclaurin(family: str, lo, hi, h, c, lead):
    """Noise / scale^2 in closed form, and the entries whose expansion did
    not converge (1-D arrays).

    The per-edge sum of :func:`_noise_curve`, expanded in h by Euler and
    Maclaurin, is the leading noise ``lead`` (:func:`_leading`) plus
    - Bernoulli-weighted odd derivatives of the density at the end codes,
      h^r B_r(1/2) / r! p^(r-3) for even r >= 4;
    - for the quartic, at its cut H, all the density's derivatives there,
      h^r p^(r-3)(H) / r! times B_r at the cut's phase on the grid of edges,
      and the share of its poles (:func:`_pole_terms`).
    The kink at the mean adds only to the h^2 / 12 term, as the densities
    are even and smooth there. A series that does not converge by h^_ORDERS
    (:func:`_series`) leaves its entry to the per-edge sum.
    """
    extent = min(pdfs.HALF_SUPPORT[family], TAIL_HALF_WIDTH)
    ends = np.stack([hi, -lo])
    # p^(r-3)(hi) - p^(r-3)(lo) for odd r - 3, with derivatives from inside the
    # range and zero off the support: sign(x) p^(k)(|x|) at x = hi and -lo
    sign = np.where((ends > -extent) & (ends <= extent), np.where(ends < 0, -1.0, 1.0), 0.0)
    at = np.minimum(np.abs(ends), extent)

    def end_terms(rows, k):
        odd = pdfs.density_derivatives(family, at[:, rows], 2 * k)[1::2]
        return (_END_WEIGHTS[:k] * h[rows, None] ** _END_ORDERS[:k]
                * (sign[:, rows] * odd).sum(axis=1).T)

    noise, failed = _series(lead, end_terms, _END_ORDERS.size)
    if family != "super_cauchy":
        return noise, failed
    cut = pdfs.HALF_SUPPORT[family]
    spans = [(lo < x) & (x < hi) for x in (cut, -cut)]
    pick = np.flatnonzero(spans[0] | spans[1])

    def cut_terms(rows, k):
        rows = pick[rows]
        bernoulli = []
        for x, spanned in zip((cut, -cut), spans):
            # the cut's offset from the edge below it, in steps
            phase = (x - lo[rows]) / h[rows] - 0.5
            powers = np.vander(phase - np.floor(phase), _ORDERS + 1, increasing=True)
            bernoulli.append(np.einsum("nj,rj->nr", powers, _BERNOULLI[_CUT_ORDERS[:k]])
                             * spanned[rows, None])
        return (_CUT_WEIGHTS[:k] * h[rows, None] ** _CUT_ORDERS[:k]
                * ((-1.0) ** _CUT_ORDERS[:k] * bernoulli[0] + bernoulli[1]))

    noise[pick], cut_failed = _series(noise[pick], cut_terms, _CUT_ORDERS.size)
    failed[pick] |= cut_failed
    return noise + _pole_terms(lo, hi, h, c), failed


def _pole_terms(lo, hi, h, c):
    """The quartic's poles' share of the granular noise. With y the offset
    from a code in steps, y^2 = 1/12 + sum_m (-1)^m cos(2 pi m y) / (pi m)^2;
    past the expansion at the range's ends, the integral of cos(w (u - c))
    p(u) over it takes 2 pi i times the residue of exp(i w z) p(z) at each
    pole z = exp(i pi / 4), exp(3 i pi / 4) whose real part it spans:
    pi p(0) / 2 exp(-a) cos(a - pi / 4 -+ w c), a = w / sqrt(2). The m-th
    term is below 1e-17 of the noise once h < m / 9."""
    out = np.zeros(h.shape)
    pick = np.flatnonzero(h > 1.0 / 9.0)
    m = np.arange(1, 9)
    w = 2.0 * pi * m / h[pick, None]
    a = w * 0.5**0.5
    root = 0.5**0.5
    spans = [((lo[pick] < x) & (x < hi[pick]))[:, None] for x in (root, -root)]
    terms = (-1.0) ** m / (pi * m) ** 2 * np.exp(-a) * (
        np.where(spans[0], np.cos(a - pi / 4 - w * c[pick, None]), 0.0)
        + np.where(spans[1], np.cos(a - pi / 4 + w * c[pick, None]), 0.0))
    out[pick] = (h[pick] ** 2 * pi * _PEAKS["super_cauchy"] / 2.0
                 * np.where(h[pick, None] > m / 9.0, terms, 0.0).sum(axis=1))
    return out


def _edge_sums(family: str, mu, s, first, count, step) -> np.ndarray:
    """Sum of T(|e|) over ``count`` edges from index ``first`` per entry
    (1-D arrays), in passes of at most 2**17 edges (1 MB an array)."""
    ends = np.cumsum(count)
    sums = np.zeros(count.size)
    lo = 0
    while lo < count.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + 2**17, side="right")))
        n, part = count[lo:hi], slice(lo, hi)
        starts = np.cumsum(n) - n
        k = np.arange(n.sum()) - np.repeat(starts - first[part], n)
        u = ((k + 0.5) * np.repeat(step[part], n) - np.repeat(mu[part], n)) / np.repeat(s[part], n)
        if n.any():
            sums[part][n > 0] = np.add.reduceat(pdfs.tail_moments(family, np.abs(u))[1],
                                                starts[n > 0])
        lo = hi
    return sums


def _noise_curve(family: str, mu, s, bit_width: int, signed: bool, fls) -> np.ndarray:
    """Expected squared quantization error, at each fl of its row of ``fls``
    [rows, L], of the ``family`` density with each row's location ``mu`` and
    scale ``s`` [rows].

    In u = (x - location) / scale, with code step h and c the distance from
    the mean to the code it rounds (and saturates) to, the cell integrals of
    (u - code)^2 p(u) sum, by parts, to one term per edge e between codes:

        noise / scale^2 = Var U + c^2 - 2 h sum_e T(|e|),  T(t) = E[(U - t)+].

    No entry is scored that way, term by term, unless its step is coarse:
    - Laplace: the sum in closed form (:func:`_laplace_noise`).
    - Otherwise the leading noise (:func:`_leading`) bounds each entry; one
      that cannot tie its row's best is not evaluated and scores inf. The
      rest take the Euler-Maclaurin expansion (:func:`_euler_maclaurin`),
      which has no Var U to cancel; steps over STEP_LIMIT scales, and series
      that do not converge, sum their edges within TAIL_HALF_WIDTH scales of
      the mean (:func:`_edge_sums`).
    Against a 60-digit per-edge sum, the quartic and Laplace noises read
    within 1e-14 relative from 2 to 16 bits, the gaussian's within 4e-13;
    the per-edge sum loses about 1e-16 (Var U + c^2) / noise to rounding.
    """
    fls = np.asarray(fls, dtype=np.int64)
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64)[:, None], fls.shape)
    s = np.broadcast_to(np.asarray(s, dtype=np.float64)[:, None], fls.shape)
    min_code, max_code = code_range(bit_width, signed)
    scale, step = np.ldexp(1.0, fls), np.ldexp(1.0, -fls)
    h = step / s
    lo, hi = (min_code * step - mu) / s, (max_code * step - mu) / s
    c = (np.clip(np.rint(mu * scale), min_code, max_code) * step - mu) / s
    if family == "laplace":
        return s * s * _laplace_noise(lo, hi, c, h)
    # The granular noise is h^2 y^2 against the density, y the offset from
    # the code in steps. By the Fourier series of y^2, the exact noise lies
    # within 2 p(0) zeta(3) h^3 / pi^3 of the leading term, so an entry whose
    # bound cannot tie its row's best is not evaluated and scores inf.
    lead = _leading(family, lo, hi, h)
    slack = _SLACKS[family] * h**3
    best = (lead + slack).min(axis=1, keepdims=True)
    live = lead - slack <= best + 1e-12 * best
    fast = live & (h <= STEP_LIMIT[family])
    noise = np.full(fls.shape, inf)
    noise[fast], failed = _euler_maclaurin(family, lo[fast], hi[fast], h[fast], c[fast],
                                           lead[fast])
    slow = live & ~fast
    slow[fast] = failed
    if not slow.any():
        return s * s * noise
    extent = min(pdfs.HALF_SUPPORT[family], TAIL_HALF_WIDTH)
    m, sc, st, r = mu[slow], s[slow], step[slow], scale[slow]
    first = np.clip(np.ceil((m - extent * sc) * r - 0.5), min_code, max_code)
    last = np.clip(np.floor((m + extent * sc) * r - 0.5), min_code - 1, max_code - 1)
    count = np.maximum(last - first + 1, 0).astype(np.int64)
    sums = _edge_sums(family, m, sc, first.astype(np.int64), count, st)
    noise[slow] = pdfs.UNIT_VARIANCE[family] + c[slow] ** 2 - 2.0 * h[slow] * sums
    return s * s * noise


def sqnr_noise(model: pdfs.PdfModel, q: QFormat) -> float:
    """Expected squared quantization error of the model under the format:
    the integral of (x - Q(x))^2 against the density, where Q rounds
    half-even to a code and saturates (see :func:`_noise_curve`), to about
    1e-14 relative at every bit width (4e-13 for the gaussian)."""
    return float(_noise_curve(model.family, [model.location], [model.scale], q.bit_width,
                              q.signed, [[q.frac_len]])[0, 0])


def optimal_fl(stats: ChannelStats, family, bit_width: int = 8, signed: bool = True) -> np.ndarray:
    """SQNR-optimal integer fractional lengths, int64 [C]; ``family`` is one
    name or one per channel, and channels with sigma == 0 keep the MAX rule.

    Scores every fl from the finest whose range covers twice |mean| +
    SCAN_HALF_WIDTH scales (it dominates all coarser fls: dyadic grids nest
    and neither saturates there) up to FL_MAX. Noises within 1e-12 relative
    of a channel's minimum tie; ties go to the smaller fl (wider range).
    """
    fls = fl_from_max(stats.max_abs, bit_width, signed)
    families = np.broadcast_to(np.asarray(family), fls.shape)
    live = ~(stats.sigma <= 0)  # a NaN sigma stays live, and fit_scale rejects it
    for fam in sorted(set(families[live].tolist())):  # np.unique of strings imports numpy.ma
        rows = np.flatnonzero(live & (families == fam))
        mu, s = stats.mean[rows], pdfs.fit_scale(stats.sigma[rows], fam)
        # each row from its own scan start, FL_MAX repeated on the right: a
        # repeat ties with its original, so the first (smaller) fl still wins
        lo = fl_from_max(2.0 * (np.abs(mu) + SCAN_HALF_WIDTH * s), bit_width, signed)[:, None]
        cand = np.minimum(lo + np.arange(FL_MAX - lo.min() + 1), FL_MAX)
        noise = _noise_curve(fam, mu, s, bit_width, signed, cand)
        best = noise.min(axis=1, keepdims=True)
        pick = np.argmax(noise <= best + 1e-12 * np.abs(best), axis=1, keepdims=True)
        fls[rows] = np.take_along_axis(cand, pick, axis=1)[:, 0]
    return fls


def empirical_quant_mse(samples: np.ndarray, q: QFormat) -> float:
    """Mean squared quantize-dequantize error over observed samples."""
    samples = np.asarray(samples, dtype=np.float64)
    back = dequantize(quantize(samples, q), q)
    return float(np.mean((samples - back) ** 2))


LABEL_FAMILIES = ("laplace", "super_cauchy")


def label_channel(samples, bit_width: int = 8) -> str:
    """Best-fit family for a signed channel: lowest empirical MSE at each
    family's optimal fl. Ties go to laplace."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 100:
        raise ValueError(f"need at least 100 samples to label a channel, got {samples.size}")
    stats = stats_from_samples(samples)
    if float(stats.sigma[0]) <= 0:
        raise ValueError("cannot label a degenerate (sigma == 0) channel")

    def mse(family):
        fl = int(optimal_fl(stats, family, bit_width)[0])
        return empirical_quant_mse(samples, QFormat(bit_width, fl))
    return min(LABEL_FAMILIES, key=mse)  # laplace first, so ties keep laplace


# ---------------------------------------------------------------------------
# Best-fit-family classifier (kNN over standardized moment features)
# ---------------------------------------------------------------------------

@dataclass
class KnnModel:
    points: np.ndarray  # [N, F], z-score normalized
    labels: list
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    k: int = 12


def train_knn(features: np.ndarray, labels, k: int = 12) -> KnnModel:
    """Fit a k-nearest-neighbors model over z-score-normalized features."""
    features = np.asarray(features, dtype=np.float64)
    labels = list(labels)
    if len(labels) < k:
        raise ValueError(f"need at least k={k} training entries, got {len(labels)}")
    mu = features.mean(axis=0)
    sd = features.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return KnnModel(points=(features - mu) / sd, labels=labels, feat_mean=mu, feat_scale=sd, k=k)


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(d2, axis=1, kind="stable")[:, :k]`` for k <= N, sorting
    only the distances at or below each row's k-th smallest."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]  # NaN where a row has fewer than k numbers
    rows, cols = np.nonzero(d2 <= kth)  # each row's columns in order: ties go to the lower index
    order = np.lexsort((d2[rows, cols], rows))  # stable
    counts = np.bincount(rows, minlength=len(d2))
    full = counts >= k
    nearest = np.empty((len(d2), k), dtype=np.intp)
    starts = np.cumsum(counts) - counts
    nearest[full] = cols[order][starts[full, None] + np.arange(k)]
    nearest[~full] = np.argsort(d2[~full], axis=1, kind="stable")[:, :k]
    return nearest


def classify_pdf(features, model: KnnModel) -> list:
    """One family per row of ``features`` [C, F]: its k nearest points' vote; ties -> laplace."""
    f = (np.asarray(features, dtype=np.float64) - model.feat_mean) / model.feat_scale
    d2 = np.sum((model.points - f[:, None, :]) ** 2, axis=2)  # [C, N]
    nearest = _nearest(d2, model.k)
    names = sorted(set(model.labels), key=lambda lbl: (lbl != "laplace", lbl))
    votes = (np.asarray(model.labels)[nearest][..., None] == names).sum(axis=1)  # [C, names]
    return [names[i] for i in np.argmax(votes == votes.max(axis=1, keepdims=True), axis=1)]


def build_labeled_corpus(n_channels: int, seed: int, samples_per_channel: int = 20_000,
                         bit_width: int = 8, scale_log2_range: tuple = (-4.0, 4.0)):
    """Synthetic labeled channels: half laplace, half heavy-tailed draws,
    varied scales; labels from :func:`label_channel`.

    Returns (features [N, 5], labels list, true_families list).
    """
    rng = np.random.default_rng(seed)
    feats, labels, true = [], [], []
    for i in range(n_channels):
        family = LABEL_FAMILIES[i % 2]
        sigma = 2.0 ** rng.uniform(*scale_log2_range)
        model = pdfs.fit_pdf(0.0, sigma, family)
        samples = pdfs.sample(model, samples_per_channel, rng)
        stats = stats_from_samples(samples)
        feats.append(standardized_moments(stats)[0])
        labels.append(label_channel(samples, bit_width))
        true.append(family)
    return np.array(feats), labels, true


_DEFAULT_KNN: dict[int, KnnModel] = {}


def default_classifier(bit_width: int = 8) -> KnnModel:
    """Shared classifier for the PDF-aware mode.

    A bit width whose frozen synthetic corpus ships with the package
    (``data/knn_default_<bits>.json``) loads it; any other builds a fresh
    corpus on first use.
    """
    if bit_width not in _DEFAULT_KNN:
        shipped = resources.files("chanq").joinpath(f"data/knn_default_{bit_width}.json")
        if shipped.is_file():
            doc = json.loads(shipped.read_text())
            _DEFAULT_KNN[bit_width] = train_knn(np.asarray(doc["features"]), doc["labels"],
                                                k=doc["k"])
        else:
            feats, labels, _ = build_labeled_corpus(400, seed=20240801, bit_width=bit_width)
            _DEFAULT_KNN[bit_width] = train_knn(feats, labels)
    return _DEFAULT_KNN[bit_width]
