"""Fractional-length determination from channel statistics.

The MAX rule reserves integer bits for the observed extreme value; the
moment-based rules fit a density to the channel's mean/sigma and pick the
integer fractional length minimizing expected squared quantization error
(granular error inside the representable range plus overload error from
saturating the tails). A small kNN over standardized absolute moments
selects the best-fit family per channel.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import pdfs
from .fixedpoint import FL_MAX, QFormat, dequantize, fl_from_max, quantize
from .profiling import ChannelStats, standardized_moments, stats_from_samples

DEFAULT_PANELS = 200_000
GRID_HALF_WIDTH = 30.0  # integration span in scale units, per family support


class _NoiseGrid:
    """Composite-midpoint noise integral of one density family, on a fixed
    grid in standardized coordinates u = (x - location) / scale.

    Every model of a family (at one truncation) is an affine image of its
    unit-scale model, so the weights f(u_i) * h_u and their moment prefix
    sums serve every channel: a format's cell edges and codes map into u,
    and the noise is scale**2 times the standardized one. Regrouping
    sum_i w_i (x_i - Q(x_i))^2 by the cell each midpoint lands in gives the
    identical quantity; with <= 2^B cells per format this is hundreds of
    times cheaper than re-quantizing the whole grid per fl.
    """

    def __init__(self, family: str, truncation: float | None = None):
        unit = pdfs.PdfModel(family, 0.0, 1.0, truncation)
        half = max(unit.half_support if np.isfinite(unit.half_support) else 0.0, GRID_HALF_WIDTH)
        h = 2.0 * half / DEFAULT_PANELS
        self.u = -half + (np.arange(DEFAULT_PANELS) + 0.5) * h
        w = pdfs.density(unit, self.u) * h
        # prefix sums of the zeroth, first and second moments of w in u
        self.prefix = [np.concatenate([[0.0], np.cumsum(w * self.u**k)]) for k in range(3)]

    def extent(self, model: pdfs.PdfModel) -> tuple[float, float]:
        """First and last grid midpoints of the model, in x."""
        return (model.location + model.scale * float(self.u[0]),
                model.location + model.scale * float(self.u[-1]))

    def noise(self, model: pdfs.PdfModel, q: QFormat) -> float:
        mu, s = model.location, model.scale
        step = 2.0**-q.frac_len
        k_lo, k_hi = (int(np.clip(np.rint(x * 2.0**q.frac_len), q.min_code, q.max_code))
                      for x in self.extent(model))
        codes = np.arange(k_lo, k_hi + 1) * step  # dyadic, so exact
        # cell k holds values rounding (then saturating) to code k
        idx = np.searchsorted(self.u, (codes[:-1] + 0.5 * step - mu) / s, side="left")
        bounds = np.concatenate([[0], idx, [len(self.u)]])
        m0, m1, m2 = (np.diff(p[bounds]) for p in self.prefix)
        v = (codes - mu) / s
        return s * s * float(np.sum(m2 - 2.0 * v * m1 + v * v * m0))


def _noise_grid(model: pdfs.PdfModel, grids: dict | None) -> _NoiseGrid:
    # ``grids`` is a caller-owned memo, so a grid lives as long as the one
    # solve (or corpus build) that shares it
    key = (model.family, model.truncation)
    grids = {} if grids is None else grids
    if key not in grids:
        grids[key] = _NoiseGrid(*key)
    return grids[key]


def sqnr_noise(model: pdfs.PdfModel, q: QFormat) -> float:
    """Expected squared quantization error of the model under the format.

    Composite midpoint quadrature over location +/- max(support, 30) scale
    units; saturation to the extreme code is the overload behavior.
    """
    return _NoiseGrid(model.family, model.truncation).noise(model, q)


def _scan_lower_bound(extent, bit_width: int, signed) -> int:
    # Any fl whose range covers twice the grid extent dominates all coarser
    # fls pointwise (dyadic grids nest and neither saturates there), so the
    # argmin scan can start at the finest such fl.
    span = max(abs(extent[0]), abs(extent[1]))
    return fl_from_max(2.0 * span, bit_width, signed)


def optimal_fl(stats: ChannelStats, family: str, bit_width: int = 8,
               signed: bool = True, channel: int = 0, grids: dict | None = None) -> int:
    """SQNR-optimal integer fractional length for one channel.

    Balances granular against overload error by explicit argmin over
    integer fls; ties break toward the smaller fl (wider range). Channels
    with sigma == 0 fall back to the MAX rule. Callers solving many
    channels pass one ``grids`` dict so each family's grid is built once.
    """
    sigma = float(stats.sigma[channel])
    if sigma <= 0:
        return fl_from_max(float(stats.max_abs[channel]), bit_width, signed)
    model = pdfs.fit_pdf(float(stats.mean[channel]), sigma, family)
    grid = _noise_grid(model, grids)
    best_fl, best_noise = None, np.inf
    for fl in range(_scan_lower_bound(grid.extent(model), bit_width, signed), FL_MAX + 1):
        noise = grid.noise(model, QFormat(bit_width, fl, signed))
        if noise < best_noise:
            best_fl, best_noise = fl, noise
    return best_fl


def empirical_quant_mse(samples: np.ndarray, q: QFormat) -> float:
    """Mean squared quantize-dequantize error over observed samples."""
    samples = np.asarray(samples, dtype=np.float64)
    back = dequantize(quantize(samples, q), q)
    return float(np.mean((samples - back) ** 2))


LABEL_FAMILIES = ("laplace", "super_cauchy")


def label_channel(samples, bit_width: int = 8, signed: bool = True,
                  grids: dict | None = None) -> str:
    """Best-fit family for a channel: lowest empirical MSE at each family's
    optimal fl. Ties go to laplace. ``grids`` is passed to :func:`optimal_fl`."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 100:
        raise ValueError(f"need at least 100 samples to label a channel, got {samples.size}")
    stats = stats_from_samples(samples)
    if float(stats.sigma[0]) <= 0:
        raise ValueError("cannot label a degenerate (sigma == 0) channel")
    best = None
    for family in LABEL_FAMILIES:  # laplace first, so ties keep laplace
        fl = optimal_fl(stats, family, bit_width, signed, grids=grids)
        mse = empirical_quant_mse(samples, QFormat(bit_width, fl, signed))
        if best is None or mse < best[0]:
            best = (mse, family)
    return best[1]


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


def classify_pdf(features, model: KnnModel) -> str:
    """Majority vote among the k nearest training points; ties -> laplace."""
    f = (np.asarray(features, dtype=np.float64) - model.feat_mean) / model.feat_scale
    d2 = np.sum((model.points - f) ** 2, axis=1)
    nearest = np.argsort(d2, kind="stable")[: model.k]
    votes = Counter(model.labels[i] for i in nearest)
    top = max(votes.values())
    winners = sorted(lbl for lbl, c in votes.items() if c == top)
    return "laplace" if "laplace" in winners else winners[0]


def build_labeled_corpus(n_channels: int, seed: int, samples_per_channel: int = 20_000,
                         bit_width: int = 8, scale_log2_range: tuple = (-4.0, 4.0)):
    """Synthetic labeled channels: half laplace, half heavy-tailed draws,
    varied scales; labels from :func:`label_channel`.

    Returns (features [N, 5], labels list, true_families list).
    """
    rng = np.random.default_rng(seed)
    grids: dict = {}
    feats, labels, true = [], [], []
    for i in range(n_channels):
        family = LABEL_FAMILIES[i % 2]
        sigma = 2.0 ** rng.uniform(*scale_log2_range)
        model = pdfs.fit_pdf(0.0, sigma, family)
        samples = pdfs.sample(model, samples_per_channel, rng)
        stats = stats_from_samples(samples)
        feats.append(standardized_moments(stats)[0])
        labels.append(label_channel(samples, bit_width, grids=grids))
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
