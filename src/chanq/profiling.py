"""Per-channel activation and parameter statistics over a profiling dataset.

Each channel retains its raw samples (float32 when they arrive as float32:
widening them later is exact); statistics over several updates equal
whole-dataset statistics. A ReLU output retains none of its own: its
records read the samples of the tensor the relu chain starts from, each
chunk clipped by ``tensorops.relu`` as it is read, so every field is the
fold of the engine's own relu values. A record computes each group of its
fields the first time one of them is read, so a plan pays for what its
mode reads. Of the four groups, the extremes (count, min, max, max_abs: the
MAX rule) come from a min/max fold; the moments (mean, m2, nu2: the fitted
families) from power sums of orders 0..2 shifted by a per-channel anchor
(first value seen), stable far from zero; the higher moments (m3..m6, nu4,
nu6: kNN features) from the orders 3..6 about the same anchor. Each fold is
made once per channel and serves both records of a tensor, the pooled one
through a rebase of the per-channel sums. The odd absolute moments (nu1,
nu3, nu5: kNN features) have no exact finite streaming form, so each record
takes its own pass over the samples about its final mean. Samples live
until every record that reads them has computed its absolute moments (a
tensor's two, and those of each ReLU output of it) or the
:class:`TensorStats` holding them are dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from math import comb

import numpy as np

from . import tensorops as ops
from .graph import Graph, execute_float

MAX_ORDER = 6


@dataclass
class ChannelStats:
    """Derived per-channel record; every field is an array of length C.

    m2..m6 are central moments E[(x-mean)^k]; nu_k are standardized
    absolute moments E[|x-mean|^k] / sigma^k (NaN where sigma == 0).
    A record taken from a :class:`StatsAccumulator` computes each group of
    fields in ``_GROUP_OF`` on first read; a loaded one holds them all.
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

    def __getattr__(self, name):  # reached only for a field a record over samples lacks
        if name not in _GROUP_OF:
            raise AttributeError(name)
        self.__dict__.update(getattr(self._samples, _GROUP_OF[name])(self))
        return self.__dict__[name]

    @property
    def n_channels(self) -> int:
        return len(self.count)

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.m2, 0.0))


# the field groups of a record, each computed by the _Samples method named
_GROUP_OF = {**dict.fromkeys(("count", "minv", "maxv", "max_abs"), "extremes"),
             **dict.fromkeys(("mean", "m2", "nu2"), "moments"),
             **dict.fromkeys(("m3", "m4", "m5", "m6", "nu4", "nu6"), "higher_moments"),
             **dict.fromkeys(("nu1", "nu3", "nu5"), "abs_moments")}


def standardized_moments(stats: ChannelStats) -> np.ndarray:
    """Scale/shift-invariant feature vectors (nu1, nu3, nu4, nu5, nu6), [C, 5].

    Rows of degenerate channels (sigma == 0) are NaN; ``flsolver.optimal_fl``
    gives those channels the MAX rule, whatever the kNN makes of them.
    """
    return np.stack([stats.nu1, stats.nu3, stats.nu4, stats.nu5, stats.nu6], axis=1)


def _rebase(sums: np.ndarray, delta: np.ndarray) -> np.ndarray:
    # sums[k] = sum((x - K)^k) for k < len(sums); returns sum((x - K')^k) for K' = K - delta.
    out = np.zeros_like(sums)
    for k in range(len(sums)):
        acc = np.zeros_like(sums[0])
        for j in range(k + 1):
            acc += comb(k, j) * delta ** (k - j) * sums[j]
        out[k] = acc
    return out


class _Samples:
    """Retained [C, M] chunks, each clipped by ``tensorops.relu`` as it is
    read when ``relu`` (the samples of a ReLU output). The extremes and each
    group of power sums are folded per channel once, on first need, for
    every record taken over them; each public method computes one field
    group of one record, with all channels as one when the record is pooled."""

    def __init__(self, chunks: tuple, relu: bool):
        self.chunks, self.relu = chunks, relu
        self.shift = self._read(chunks[0][:, 0]).astype(np.float64)

    def _read(self, raw: np.ndarray) -> np.ndarray:
        return ops.relu(raw) if self.relu else raw

    @cached_property
    def _extremes(self) -> tuple:
        """Per channel: (count, min, max)."""
        count = np.zeros(len(self.shift), dtype=np.int64)
        minv, maxv = np.full(len(self.shift), np.inf), np.full(len(self.shift), -np.inf)
        for raw in map(self._read, self.chunks):
            count += raw.shape[1]
            minv = np.minimum(minv, raw.min(axis=1))
            maxv = np.maximum(maxv, raw.max(axis=1))
        return count, minv, maxv

    @cached_property
    def _low_sums(self) -> np.ndarray:
        """Per channel: sums[k] = sum((x - shift)^k) for k = 0..2."""
        sums = np.zeros((3, len(self.shift)))
        for raw in map(self._read, self.chunks):
            y = raw - self.shift[:, None]  # float64: widening float32 is exact
            sums[0] += y.shape[1]
            sums[1] += y.sum(axis=1)
            sums[2] += np.multiply(y, y, out=y).sum(axis=1)
        return sums

    @cached_property
    def _high_sums(self) -> np.ndarray:
        """The same for k = 3..6, rebuilding y and y**2 of each chunk."""
        high = np.zeros((MAX_ORDER - 2, len(self.shift)))
        for raw in map(self._read, self.chunks):
            y = raw - self.shift[:, None]
            p = y * y
            for row in high:
                row += np.multiply(p, y, out=p).sum(axis=1)
        return high

    def _central(self, sums: np.ndarray, pooled: bool) -> tuple:
        """(n, sums, central): a record's count and its power sums about
        the anchor and about the mean, from per-channel sums about the anchor."""
        if pooled:
            sums = _rebase(sums, self.shift - self.shift[0]).sum(axis=1, keepdims=True)
        n = sums[0]  # the count: a sum of whole numbers, exact below 2**53
        return n, sums, _rebase(sums, -sums[1] / n)

    def extremes(self, record: ChannelStats) -> dict:
        count, minv, maxv = self._extremes
        if record._pooled:
            count, minv, maxv = count.sum(keepdims=True), minv.min(keepdims=True), maxv.max(keepdims=True)
        return dict(count=count, minv=minv, maxv=maxv, max_abs=np.maximum(np.abs(minv), np.abs(maxv)))

    def moments(self, record: ChannelStats) -> dict:
        n, sums, central = self._central(self._low_sums, record._pooled)
        m2 = central[2] / n
        sigma = np.sqrt(np.maximum(m2, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            nu2 = np.where(sigma > 0, m2 / sigma**2, np.nan)
        shift = self.shift[:1] if record._pooled else self.shift
        return dict(mean=shift + sums[1] / n, m2=m2, nu2=nu2)

    def higher_moments(self, record: ChannelStats) -> dict:
        """Orders 3..6; computes the record's moments first."""
        sigma = record.sigma
        sums = np.concatenate([self._low_sums, self._high_sums])
        n, _, central = self._central(sums, record._pooled)
        m = {k: central[k] / n for k in range(3, MAX_ORDER + 1)}
        with np.errstate(divide="ignore", invalid="ignore"):
            nu = {f"nu{k}": np.where(sigma > 0, m[k] / sigma**k, np.nan) for k in (4, 6)}
        return dict(**{f"m{k}": v for k, v in m.items()}, **nu)

    def abs_moments(self, record: ChannelStats) -> dict:
        """The last group to need the samples: computes the record's other
        groups first, and the record lets the samples go."""
        mean, sigma, _, _ = record.mean, record.sigma, record.count, record.m3
        del record._samples
        rows = [ch.reshape(1, -1) for ch in self.chunks] if record._pooled else self.chunks
        absm = np.empty((3, len(mean)))  # E|x - mean|^k, k = 1, 3, 5
        for c in range(len(mean)):  # a row at a time keeps the temporaries small
            dev = np.subtract(np.concatenate([self._read(ch[c]) for ch in rows]), mean[c:c + 1])
            np.abs(dev, out=dev)
            absm[0, c] = dev.mean()
            absm[1, c] = np.power(dev, 3).mean()  # not d*d*d: other bits
            absm[2, c] = np.power(dev, 5, out=dev).mean()
        with np.errstate(divide="ignore", invalid="ignore"):
            return {f"nu{k}": np.where(sigma > 0, absm[i] / sigma**k, np.nan)
                    for i, k in enumerate((1, 3, 5))}


class StatsAccumulator:
    """Per-channel sample store: update with samples, then take records.
    The records taken between two updates share one :class:`_Samples` fold."""

    def __init__(self, channels: int):
        self.channels = channels
        self._chunks: list[np.ndarray] = []
        self._relu = False  # the records are of tensorops.relu of the samples
        self._samples: _Samples | None = None

    def update(self, values: np.ndarray) -> None:
        """Add samples, shape [C, M]. The samples are retained (a float32 or
        float64 ``values`` as it is, not a copy), so the caller must not
        change them while the accumulator or a record taken from it lives."""
        values = np.asarray(values)
        raw = values.astype(np.float32 if values.dtype == np.float32 else np.float64, copy=False)
        if raw.ndim != 2 or raw.shape[0] != self.channels:
            raise ValueError(f"expected [C={self.channels}, M] samples, got {raw.shape}")
        if raw.shape[1] > 0:
            self._chunks.append(raw)
            self._samples = None

    def relu(self) -> StatsAccumulator:
        """A store whose records are of ``tensorops.relu`` of the samples so
        far: it holds the same chunks, not a copy, and clips each as a fold
        reads it, one chunk or channel row at a time. That relu maps -0.0
        to +0.0 and is idempotent bit for bit, so the store of a relu chain
        is ``relu()`` of the store the chain starts from."""
        acc = StatsAccumulator(self.channels)
        acc._chunks, acc._relu = list(self._chunks), True
        return acc

    def _record(self, pooled: bool) -> ChannelStats:
        if not self._chunks:
            raise ValueError("no samples accumulated")
        if self._samples is None:
            self._samples = _Samples(tuple(self._chunks), self._relu)
        record = object.__new__(ChannelStats)  # no field yet: each group comes on first read
        record._samples, record._pooled = self._samples, pooled
        return record

    def snapshot(self) -> ChannelStats:
        """The per-channel record of the samples so far; later updates do not change it."""
        return self._record(False)

    def pooled(self) -> ChannelStats:
        """The same with all channels as one (for layer-wide formats)."""
        return self._record(True)


class TensorStats:
    """Per-channel stats plus the tensor-pooled record (one pseudo-channel).

    Each record is taken from the accumulator the first time it is read,
    and the two share its fold; once both have been taken, the accumulator
    is let go, and each record lets the samples go once it has computed its
    absolute moments.
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
        return self._record("per_channel", StatsAccumulator.pooled)


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
    a copy) until its records have computed their absolute moments or it is
    dropped. A ReLU output is not captured: its stats hold the samples of
    the tensor its relu chain starts from and read them clipped.
    """
    relu_input = {node.outputs[0]: node.inputs[0] for node in g.nodes if node.kind == "relu"}
    names = [name for name in g.activation_names() if name not in relu_input]
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
    for out, src in relu_input.items():  # node order: a chain's earlier relu comes first
        accs[out] = accs[src].relu()

    result = {name: TensorStats("activation", accs[name]) for name in g.activation_names()}
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
