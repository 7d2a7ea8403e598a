"""Fractional-length rules that answer for all channels of a stats record at once.

The MAX rule reserves integer bits for the observed extreme value; the
moment-based rules fit a density to each channel's mean/sigma, as arrays of
locations and scales (:func:`pdfs.fit_scale`), and pick the integer
fractional length minimizing expected squared quantization error (granular
inside the range, overload from saturated tails). That error is exact and
elementary: one closed-form term per cell edge, as in ACIQ (Banner et al.,
arXiv 1810.05723) and Lin et al. (arXiv 1511.06393), summed for the
channels of a family in one pass. A kNN over standardized absolute moments
votes each channel's best-fit family, from one distance matrix per record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import pdfs
from .fixedpoint import FL_MAX, FL_MIN, QFormat, code_range, dequantize, fl_from_max, quantize
from .profiling import ChannelStats, standardized_moments, stats_from_samples

SCAN_HALF_WIDTH = 30.0  # the scan starts at the finest fl covering 2 (|mean| + this many scales)
TAIL_HALF_WIDTH = 40.0  # cell edges this many scales out on an unbounded density are dropped


def _noise_curve(family: str, mu, s, bit_width: int, signed: bool, fls) -> np.ndarray:
    """Expected squared quantization error, at each fl of its row of ``fls``
    [rows, L], of the ``family`` density with each row's location ``mu`` and
    scale ``s`` [rows].

    In u = (x - location) / scale, with code step h and c the distance from
    the mean to the code it rounds (and saturates) to, the cell integrals of
    (u - code)^2 p(u) sum, by parts, to one term per edge e between codes:

        noise / scale^2 = Var U + c^2 - 2 h sum_e T(|e|),  T(t) = E[(U - t)+].

    Each edge is shared by its two cells, T is elementary (pdfs.tail_excess),
    and a pairwise sum per row and fl keeps rounding near 1e-16 Var U / noise.
    As T(|e|) <= T(0), noise >= Var U + c^2 - 2 T(0) h (edge count): fls this
    bound puts above twice their row's best are not summed and score inf.
    """
    fls = np.asarray(fls, dtype=np.int64)
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64)[:, None], fls.shape)
    s = np.broadcast_to(np.asarray(s, dtype=np.float64)[:, None], fls.shape)
    min_code, max_code = code_range(bit_width, signed)
    scale, step = np.ldexp(1.0, fls), np.ldexp(1.0, -fls)
    half = min(pdfs.HALF_SUPPORT[family], TAIL_HALF_WIDTH)
    # edges (k + 1/2) step for k in [min_code, max_code - 1], within mu +- half * s
    first = np.clip(np.ceil((mu - half * s) * scale - 0.5), min_code, max_code)
    last = np.clip(np.floor((mu + half * s) * scale - 0.5), min_code - 1, max_code - 1)
    count = np.maximum(last - first + 1, 0).astype(np.int64)
    c = (np.clip(np.rint(mu * scale), min_code, max_code) * step - mu) / s
    base = pdfs.UNIT_VARIANCE[family] + c * c
    bound = base - 2.0 * float(pdfs.tail_excess(family, 0.0)) * count * step / s
    noise = np.full(fls.shape, np.inf)
    for pick in (bound <= 0, bound > 0):  # the second pass is pruned by the first's best
        pick &= bound <= 2.0 * np.abs(noise.min(axis=1, keepdims=True))
        n = count[pick]
        starts = np.cumsum(n) - n
        k = np.arange(n.sum()) - np.repeat(starts - first[pick].astype(np.int64), n)
        u = ((k + 0.5) * np.repeat(step[pick], n) - np.repeat(mu[pick], n)) / np.repeat(s[pick], n)
        sums = np.zeros(n.size)
        if n.any():
            sums[n > 0] = np.add.reduceat(pdfs.tail_excess(family, np.abs(u)), starts[n > 0])
        noise[pick] = base[pick] - 2.0 * step[pick] / s[pick] * sums
    return s * s * noise


def sqnr_noise(model: pdfs.PdfModel, q: QFormat) -> float:
    """Expected squared quantization error of the model under the format:
    the exact integral of (x - Q(x))^2 against the density, where Q rounds
    half-even to a code and saturates (see :func:`_noise_curve`). Edges
    TAIL_HALF_WIDTH scales out on a laplace or gaussian model are dropped,
    which moves it by under (1 + h) exp(-40) scale^2 per side, h the step in
    scales."""
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
    per_pass = max(1, 2**17 // ((FL_MAX - FL_MIN + 1) << bit_width))  # 2**17 edges, 1 MB an array
    for fam in np.unique(families[live]).tolist():
        group = np.flatnonzero(live & (families == fam))
        for rows in np.split(group, range(per_pass, len(group), per_pass)):
            mu, s = stats.mean[rows], pdfs.fit_scale(stats.sigma[rows], fam)
            # each row from its own scan start, repeated on the left: a repeat
            # ties with its original, so the first (smaller) fl still wins
            lo = fl_from_max(2.0 * (np.abs(mu) + SCAN_HALF_WIDTH * s), bit_width, signed)[:, None]
            cand = np.maximum(np.arange(lo.min(), FL_MAX + 1), lo)
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


def label_channel(samples, bit_width: int = 8, signed: bool = True) -> str:
    """Best-fit family for a channel: lowest empirical MSE at each family's
    optimal fl. Ties go to laplace."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 100:
        raise ValueError(f"need at least 100 samples to label a channel, got {samples.size}")
    stats = stats_from_samples(samples)
    if float(stats.sigma[0]) <= 0:
        raise ValueError("cannot label a degenerate (sigma == 0) channel")

    def mse(family):
        fl = int(optimal_fl(stats, family, bit_width, signed)[0])
        return empirical_quant_mse(samples, QFormat(bit_width, fl, signed))
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


def classify_pdf(features, model: KnnModel) -> list:
    """One family per row of ``features`` [C, F]: its k nearest points' vote; ties -> laplace."""
    f = (np.asarray(features, dtype=np.float64) - model.feat_mean) / model.feat_scale
    d2 = np.sum((model.points - f[:, None, :]) ** 2, axis=2)  # [C, N]
    nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
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
