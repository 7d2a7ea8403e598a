"""Per-channel activation and parameter statistics over a profiling dataset.

Signed central moments up to order 6 come from power sums shifted by a
per-channel anchor (first value seen), which keeps them numerically stable
far from zero. Odd-order absolute central moments have no exact finite
streaming form, so each channel retains its raw samples (float32 when they
arrive as float32: widening them later is exact); statistics over several
updates equal whole-dataset statistics.

Records are computed on first read: :func:`collect_stats` keeps the samples
and folds them into a tensor's per-channel or pooled record only when that
record is read, so a plan pays for the records its mode reads. A tensor's
samples live until both of its records have been read or its
:class:`TensorStats` is dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from math import comb

import numpy as np

from .graph import Graph, execute_float

MAX_ORDER = 6


@dataclass
class ChannelStats:
    """Derived per-channel record; every field is an array of length C.

    m2..m6 are central moments E[(x-mean)^k]; nu_k are standardized
    absolute moments E[|x-mean|^k] / sigma^k (NaN where sigma == 0).
    """

    count: np.ndarray
    minv: np.ndarray
    maxv: np.ndarray
    max_abs: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray
    m5: np.ndarray
    m6: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    nu3: np.ndarray
    nu4: np.ndarray
    nu5: np.ndarray
    nu6: np.ndarray

    @property
    def n_channels(self) -> int:
        return len(self.mean)

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.m2, 0.0))


def standardized_moments(stats: ChannelStats) -> np.ndarray:
    """Scale/shift-invariant feature vectors (nu1, nu3, nu4, nu5, nu6), [C, 5].

    Rows of degenerate channels (sigma == 0) are NaN; ``flsolver.optimal_fl``
    gives those channels the MAX rule, whatever the kNN makes of them.
    """
    return np.stack([stats.nu1, stats.nu3, stats.nu4, stats.nu5, stats.nu6], axis=1)


def _rebase(sums: np.ndarray, delta: np.ndarray) -> np.ndarray:
    # sums[k] = sum((x - K)^k); returns sum((x - K')^k) for K' = K - delta.
    out = np.zeros_like(sums)
    for k in range(MAX_ORDER + 1):
        acc = np.zeros_like(sums[0])
        for j in range(k + 1):
            acc += comb(k, j) * delta ** (k - j) * sums[j]
        out[k] = acc
    return out


class StatsAccumulator:
    """Per-channel accumulator: update with samples, then snapshot."""

    def __init__(self, channels: int):
        self.channels = channels
        self.count = np.zeros(channels, dtype=np.int64)
        self.minv = np.full(channels, np.inf)
        self.maxv = np.full(channels, -np.inf)
        self.shift = None  # per-channel anchor, fixed by the first chunk
        self.sums = np.zeros((MAX_ORDER + 1, channels))
        self._chunks: list[np.ndarray] = []
        self._folded = 0  # leading chunks already in count, min, max and sums

    def update(self, values: np.ndarray) -> None:
        """Add samples, shape [C, M]. The samples are retained (a float32 or
        float64 ``values`` as it is, not a copy), so the caller must not
        change them while the accumulator lives."""
        values = np.asarray(values)
        raw = values.astype(np.float32 if values.dtype == np.float32 else np.float64, copy=False)
        if raw.ndim != 2 or raw.shape[0] != self.channels:
            raise ValueError(f"expected [C={self.channels}, M] samples, got {raw.shape}")
        if raw.shape[1] > 0:
            self._chunks.append(raw)

    def _fold(self) -> None:
        """Fold the chunks not folded yet into count, min, max and the shifted
        power sums, in arrival order."""
        for raw in self._chunks[self._folded:]:
            if self.shift is None:
                self.shift = raw[:, 0].astype(np.float64)
            y = raw - self.shift[:, None]  # float64: widening float32 is exact
            self.sums[0] += y.shape[1]
            self.sums[1] += y.sum(axis=1)
            p = y * y
            self.sums[2] += p.sum(axis=1)
            for k in range(3, MAX_ORDER + 1):
                self.sums[k] += np.multiply(p, y, out=p).sum(axis=1)
            self.count += raw.shape[1]
            self.minv = np.minimum(self.minv, raw.min(axis=1))
            self.maxv = np.maximum(self.maxv, raw.max(axis=1))
        self._folded = len(self._chunks)

    def pooled(self) -> "StatsAccumulator":
        """Collapse all channels into one (for layer-wide formats)."""
        self._fold()
        out = StatsAccumulator(1)
        if self.shift is None:
            return out
        anchor = self.shift[:1]
        rebased = _rebase(self.sums, self.shift - anchor[0])
        out.shift = anchor.copy()
        out.sums = rebased.sum(axis=1, keepdims=True)
        out.count = self.count.sum(keepdims=True)
        out.minv = self.minv.min(keepdims=True)
        out.maxv = self.maxv.max(keepdims=True)
        out._chunks = [c.reshape(1, -1) for c in self._chunks]
        out._folded = len(out._chunks)
        return out

    def snapshot(self) -> ChannelStats:
        self._fold()
        if self.shift is None:
            raise ValueError("no samples accumulated")
        n = self.count.astype(np.float64)
        mean = self.shift + self.sums[1] / n
        central = _rebase(self.sums, -self.sums[1] / n)
        m = {k: central[k] / n for k in range(2, MAX_ORDER + 1)}
        sigma = np.sqrt(np.maximum(m[2], 0.0))
        absm = np.empty((3, self.channels))  # E|x - mean|^k, k = 1, 3, 5
        for c in range(self.channels):  # a row at a time keeps the temporaries small
            dev = np.subtract(np.concatenate([ch[c] for ch in self._chunks]), mean[c:c + 1])
            np.abs(dev, out=dev)
            absm[0, c] = dev.mean()
            absm[1, c] = np.power(dev, 3).mean()  # not d*d*d: other bits
            absm[2, c] = np.power(dev, 5, out=dev).mean()
        with np.errstate(divide="ignore", invalid="ignore"):
            nu = {}
            for i, k in enumerate((1, 3, 5)):
                nu[k] = np.where(sigma > 0, absm[i] / sigma**k, np.nan)
            for k in (2, 4, 6):
                nu[k] = np.where(sigma > 0, m[k] / sigma**k, np.nan)
        return ChannelStats(
            count=self.count.copy(), minv=self.minv.copy(), maxv=self.maxv.copy(),
            max_abs=np.maximum(np.abs(self.minv), np.abs(self.maxv)), mean=mean,
            **{f"m{k}": v for k, v in m.items()}, **{f"nu{k}": v for k, v in nu.items()})


class TensorStats:
    """Per-channel stats plus the tensor-pooled record (one pseudo-channel).

    Each record is computed from the accumulator the first time it is read;
    once both have been, the accumulator and its samples are let go.
    """

    def __init__(self, kind: str, acc: StatsAccumulator | None = None):
        self.kind = kind  # activation | parameter
        self._acc = acc

    def _record(self, other: str, make) -> ChannelStats:
        record = make(self._acc)
        if other in self.__dict__:  # the other record is cached too
            self._acc = None
        return record

    @cached_property
    def per_channel(self) -> ChannelStats:
        return self._record("pooled", StatsAccumulator.snapshot)

    @cached_property
    def pooled(self) -> ChannelStats:
        return self._record("per_channel", lambda acc: acc.pooled().snapshot())


def stats_from_samples(samples) -> ChannelStats:
    """One-channel stats straight from a value sequence (exact single pass)."""
    samples = np.asarray(samples, dtype=np.float64).reshape(1, -1)
    acc = StatsAccumulator(1)
    acc.update(samples)
    return acc.snapshot()


def channel_major(arr: np.ndarray) -> np.ndarray:
    """Reorder an activation tensor to [C, everything-else]."""
    if arr.ndim == 4:
        return np.moveaxis(arr, 1, 0).reshape(arr.shape[1], -1)
    if arr.ndim == 2:
        return np.ascontiguousarray(arr.T)
    raise ValueError(f"unsupported activation rank {arr.ndim}")


def collect_stats(g: Graph, dataset) -> dict:
    """Accumulate stats for every activation tensor and parameter over a dataset.

    Activation statistics pool over batch and spatial positions per channel;
    parameter statistics are exact since the values are fully known. Each
    returned :class:`TensorStats` keeps its tensor's samples (parameters as
    a copy) until both of its records have been read or it is dropped.
    """
    names = g.activation_names()
    accs: dict[str, StatsAccumulator] = {}
    n_batches = 0
    for batch in dataset:
        batch = np.array(batch, dtype=np.float32)  # own it: the accumulators keep views of it
        if batch.ndim == 3:
            batch = batch[None]
        _, captured = execute_float(g, batch, capture=names)
        for name in list(captured):  # each capture goes once its channel-major copy exists
            cm = channel_major(captured.pop(name))
            if name not in accs:
                accs[name] = StatsAccumulator(cm.shape[0])
            accs[name].update(cm)
        n_batches += 1
    if n_batches == 0:
        raise ValueError("profiling dataset is empty")

    result = {name: TensorStats("activation", acc) for name, acc in accs.items()}
    for pname, arr in g.params.items():
        acc = StatsAccumulator(arr.shape[0])
        acc.update(np.array(arr, dtype=np.float64).reshape(arr.shape[0], -1))  # own a copy
        result[pname] = TensorStats("parameter", acc)
    if any(not ts._acc._chunks for ts in result.values()):
        raise ValueError("no samples accumulated")
    return result


# ---------------------------------------------------------------------------
# JSON stats dump
# ---------------------------------------------------------------------------

_FIELD_NAMES = tuple(f.name for f in fields(ChannelStats))


def _encode_array(a: np.ndarray) -> list:
    return [None if not np.isfinite(v) else float(v) for v in np.asarray(a, dtype=np.float64)]


def _decode_array(vals) -> np.ndarray:
    return np.array([np.nan if v is None else float(v) for v in vals], dtype=np.float64)


def _encode_stats(cs: ChannelStats) -> dict:
    return {name: _encode_array(getattr(cs, name)) for name in _FIELD_NAMES}


def _decode_stats(doc: dict) -> ChannelStats:
    """One channel record; ValueError where no profile could have written it."""
    kw = {name: _decode_array(doc[name]) for name in _FIELD_NAMES}
    count = kw["count"]
    if not np.all((count >= 0) & (count <= 2**53) & (count == np.floor(count))):  # NaN fails
        raise ValueError(f"count must hold whole numbers, got {count.tolist()}")
    if not np.all(kw["m2"] >= 0):
        raise ValueError(f"m2 must be >= 0, got {kw['m2'].tolist()}")
    if np.any(kw["minv"] > kw["maxv"]):
        raise ValueError("minv exceeds maxv")
    kw["count"] = count.astype(np.int64)
    return ChannelStats(**kw)


def dump_stats(stats: dict, path) -> None:
    doc = {
        "version": 1,
        "tensors": {
            name: {
                "kind": ts.kind,
                "per_channel": _encode_stats(ts.per_channel),
                "pooled": _encode_stats(ts.pooled),
            }
            for name, ts in stats.items()
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_stats(path) -> dict:
    """Inverse of :func:`dump_stats`; a missing key or a value of the wrong
    type raises ValueError naming where it is."""
    with open(path) as f:
        doc = json.load(f)
    stats, where = {}, "stats file"
    try:
        if doc.get("version") != 1:
            raise ValueError(f"unsupported stats file version {doc.get('version')}")
        for name, td in doc["tensors"].items():
            where = f"stats of tensor {name!r}"
            ts = stats[name] = TensorStats(td["kind"])
            ts.per_channel = _decode_stats(td["per_channel"])
            ts.pooled = _decode_stats(td["pooled"])
    except KeyError as e:
        raise ValueError(f"{where}: missing key {e.args[0]!r}") from None
    except (TypeError, AttributeError, ValueError) as e:
        raise ValueError(f"{where}: malformed value ({e})") from None
    return stats
