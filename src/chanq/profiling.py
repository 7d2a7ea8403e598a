"""Per-channel activation and parameter statistics over a profiling dataset.

:func:`collect_stats` runs nothing: it checks the dataset and keeps it with
the graph, and each record knows its count from the shapes alone. A reader
asks for the records it needs with :func:`fold_records`, and the float
engine re-runs over the batches, capturing only the asked tensors, in at
most two passes, the second over every batch but the last:

- pass 1 folds per channel the extremes (count, min, max, max_abs: the MAX
  rule) and the power sums of orders 0..2 about a per-channel anchor (the
  first value seen), stable far from zero, which give the moments (mean,
  m2, nu2: the fitted families);
- pass 2 runs only for a reader of the kNN features. Each chunk of a
  tensor's values gives one set of partial sums: the orders 3..6 about the
  same anchor (m3..m6, nu4, nu6) and, about each asked record's final
  mean, the sums of |x - mean|**k for k = 1, 3, 5 (nu1, nu3, nu5), which
  have no exact one-pass form, as row sums of one deviation array. One
  accumulator adds the partials in batch order. The last batch comes from
  pass 1, which keeps that batch's values of each tensor it folds; its
  partial is made first and added last, as a re-run's would be. A
  one-batch profile runs the engine once.

A tensor's sums are folded once and serve both of its records, the pooled
one through a rebase of the per-channel sums. Parameter records fold from
the graph's values, with no engine run. A field read before its record was
asked for folds that record alone, the same way; a tensor whose kept batch
an earlier pass 2 read re-runs its last batch too. No sample outlives the
pass that reads it, but for the last batch, kept from pass 1 until pass 2
reads it or the stats go: memory holds at most one batch of captures and
does not grow with the dataset. The graph and the batches are read when a
record is asked for, so neither may change while the stats live.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from math import comb, prod

import numpy as np

from .graph import Graph, execute_float
from .tensorfile import json_array, located, read_json, write_json

MAX_ORDER = 6


@dataclass
class ChannelStats:
    """Derived per-channel record; every field is an array of length C.

    m2..m6 are central moments E[(x-mean)^k]; nu_k are standardized
    absolute moments E[|x-mean|^k] / sigma^k (NaN where sigma == 0).
    A record from :func:`collect_stats` holds its count, and the rest
    once asked for (:func:`fold_records`) or read; a loaded one holds all.
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

    def __getattr__(self, name):  # reached only for a field a profiled record has not folded
        if name not in _FIELD_NAMES or "_fold" not in self.__dict__:
            raise AttributeError(name)
        fold_records([self], higher=name in _PASS_2)
        return self.__dict__[name]

    @property
    def n_channels(self) -> int:
        return len(self.count)

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.m2, 0.0))


_FIELD_NAMES = tuple(f.name for f in fields(ChannelStats))
_PASS_2 = frozenset(("m3", "m4", "m5", "m6", "nu4", "nu6", "nu1", "nu3", "nu5"))


@dataclass
class TensorStats:
    """Per-channel stats plus the tensor-pooled record (one pseudo-channel)."""

    kind: str  # activation | parameter
    per_channel: ChannelStats
    pooled: ChannelStats


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


def _central(shift: np.ndarray, sums: np.ndarray, pooled: bool) -> tuple:
    """(n, sums, central): a record's count and its power sums about the
    anchor and about the mean, from per-channel sums about the anchor."""
    if pooled:
        sums = _rebase(sums, shift - shift[0]).sum(axis=1, keepdims=True)
    n = sums[0]  # the count: a sum of whole numbers, exact below 2**53
    return n, sums, _rebase(sums, -sums[1] / n)


def _fold_low(state: tuple | None, raw: np.ndarray) -> tuple:
    """Pass 1 over one [C, M] chunk: (anchor, min, max, power sums of orders 0..2)."""
    if state is None:
        channels = raw.shape[0]
        state = (raw[:, 0].astype(np.float64), np.full(channels, np.inf),
                 np.full(channels, -np.inf), np.zeros((3, channels)))
    shift, minv, maxv, sums = state
    minv, maxv = np.minimum(minv, raw.min(axis=1)), np.maximum(maxv, raw.max(axis=1))
    y = raw - shift[:, None]  # float64: widening float32 is exact
    sums[0] += y.shape[1]
    sums[1] += y.sum(axis=1)
    sums[2] += np.multiply(y, y, out=y).sum(axis=1)
    return shift, minv, maxv, sums


class _Folds:
    """The sums folded so far for each tensor that ``chunks(names, kept)``
    yields as (batch, name, [C, M] values), each tensor's chunks in batch
    order; a parameter's one chunk comes as batch None. Of batch ``last``,
    ``chunks`` skips the names in ``kept``: their chunks are pass 1's."""

    def __init__(self, chunks, last: int):
        self.chunks, self.last = chunks, last
        self.low: dict = {}  # name -> pass 1's (anchor, min, max, orders 0..2)
        self.high: dict = {}  # name -> pass 2's orders 3..6 about the anchor
        self.kept: dict = {}  # name -> the last batch's chunk, from pass 1 until pass 2 reads it

    def fold(self, records: list, higher: bool) -> None:
        # names in a fixed order: a set's order varies from run to run, and
        # with it the order of the allocations and the process's peak memory
        names = list(dict.fromkeys(r._fold[1] for r in records))
        for batch, name, raw in self.chunks([n for n in names if n not in self.low], ()):
            self.low[name] = _fold_low(self.low.get(name), raw)
            if batch == self.last:
                self.kept[name] = raw
        for r in records:
            if "mean" not in vars(r):
                r.__dict__.update(self._moments(*r._fold[1:]))
        if not higher:
            return
        todo = [r for r in records if "nu1" not in vars(r)]
        names = list(dict.fromkeys(r._fold[1] for r in todo))
        # the kept last batch first, each chunk dropped once summed, and its
        # partial added last: every sum takes its terms in batch order
        held = [n for n in names if n in self.kept]
        last = [self._pass_2(todo, name, self.kept.pop(name)) for name in held]
        sums: dict = {}
        rerun = (self._pass_2(todo, name, raw) for _, name, raw in self.chunks(names, held))
        for part in chain(rerun, last):
            for key, value in part.items():
                sums[key] = sums.get(key, 0.0) + value
        self.high.update({name: sums[name] for name in names if name not in self.high})
        for i, r in enumerate(todo):
            r.__dict__.update(self._higher_moments(r, sums["abs", i]))
            del r._fold  # every field is in: the record no longer reads the folds

    def _pass_2(self, todo: list, name: str, raw: np.ndarray) -> dict:
        """One [C, M] chunk's partial sums: under ``name``, the tensor's power
        sums of orders 3..6 about the anchor, unless folded before; under
        ("abs", i), for the record ``todo[i]`` of the tensor, its sums of
        |x - mean|**k for k = 1, 3, 5."""
        part = {}
        if name not in self.high:
            y = raw - self.low[name][0][:, None]
            p = y * y
            part[name] = np.array([np.multiply(p, y, out=p).sum(axis=1)
                                   for _ in range(MAX_ORDER - 2)])
            del y, p  # freed before the absolute moments make theirs
        for i, r in enumerate(todo):
            if r._fold[1] == name:
                # C order: each row's deviations contiguous, so that its sum
                # takes the terms of a sum over that row alone; a strided
                # chunk's default (K) layout would sum them in another order
                dev = np.subtract(raw.reshape(1, -1) if r._fold[2] else raw, r.mean[:, None],
                                  order="C")
                np.abs(dev, out=dev)  # and np.power, not d*d*d: other bits
                part["abs", i] = np.array([dev.sum(axis=1), np.power(dev, 3).sum(axis=1),
                                          np.power(dev, 5, out=dev).sum(axis=1)])
        return part

    def _moments(self, name: str, pooled: bool) -> dict:
        shift, minv, maxv, sums = self.low[name]
        if pooled:
            minv, maxv = minv.min(keepdims=True), maxv.max(keepdims=True)
        n, sums, central = _central(shift, sums, pooled)
        m2 = central[2] / n
        nu2 = _standardized(m2, np.sqrt(np.maximum(m2, 0.0)), 2)
        return dict(minv=minv, maxv=maxv, max_abs=np.maximum(np.abs(minv), np.abs(maxv)),
                    mean=(shift[:1] if pooled else shift) + sums[1] / n, m2=m2, nu2=nu2)

    def _higher_moments(self, r: ChannelStats, absums: np.ndarray) -> dict:
        _, name, pooled = r._fold
        shift, _, _, low = self.low[name]
        n, _, central = _central(shift, np.concatenate([low, self.high[name]]), pooled)
        sigma = r.sigma
        m = {k: central[k] / n for k in range(3, MAX_ORDER + 1)}
        nu = {f"nu{k}": _standardized(m[k], sigma, k) for k in (4, 6)}
        nu.update({f"nu{k}": _standardized(absums[i] / n, sigma, k)
                   for i, k in enumerate((1, 3, 5))})
        return dict(**{f"m{k}": v for k, v in m.items()}, **nu)


def _standardized(x: np.ndarray, sigma: np.ndarray, k: int) -> np.ndarray:
    """x / sigma**k where sigma > 0, else NaN: a standardized moment."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sigma > 0, x / sigma**k, np.nan)


def _record(folds: _Folds, name: str, count: np.ndarray, pooled: bool) -> ChannelStats:
    record = object.__new__(ChannelStats)  # the count alone: the rest is folded when asked for
    record.count = count.sum(keepdims=True) if pooled else count
    record._fold = (folds, name, pooled)
    return record


def fold_records(records, higher: bool = False) -> None:
    """Fold the fields of the given records now: pass 1's and, when
    ``higher``, pass 2's, for all the records of one :func:`collect_stats`
    call. Pass 1 is one run over the batches; pass 2 re-runs every batch
    but the last, which pass 1 kept, in this call or an earlier one. Loaded
    records, and records that hold the fields already, are skipped."""
    todo: dict = {}
    for r in records:
        src = vars(r).get("_fold")
        if src is not None and (higher or "mean" not in vars(r)):
            todo.setdefault(src[0], {})[id(r)] = r
    for folds, rs in todo.items():
        folds.fold(list(rs.values()), higher)


def stats_from_samples(samples) -> ChannelStats:
    """One-channel stats straight from a value sequence, folded when read."""
    samples = np.asarray(samples, dtype=np.float64).reshape(1, -1)
    if samples.size == 0:
        raise ValueError("no samples accumulated")
    folds = _Folds(lambda names, kept: [(0, name, samples) for name in names if name not in kept], 0)
    return _record(folds, "samples", np.array([samples.shape[1]], dtype=np.int64), False)


def channel_major(arr: np.ndarray) -> np.ndarray:
    """Reorder an [N, D] or [N, C, H, W] activation tensor to [C, everything-else]."""
    if arr.ndim == 2:
        return np.ascontiguousarray(arr.T)
    return np.moveaxis(arr, 1, 0).reshape(arr.shape[1], -1)


def collect_stats(g: Graph, dataset) -> dict:
    """Stats records for every activation tensor and parameter of ``g``,
    folded over ``dataset`` when a reader asks for them.

    Activation statistics pool over batch and spatial positions per channel;
    parameter statistics are exact since the values are fully known. The
    dataset must be re-iterable (such as a list of batches), and it and
    ``g`` must not change while the returned stats live.
    """
    if iter(dataset) is dataset:
        raise ValueError("profiling dataset must be re-iterable (a list of batches), "
                         "not a one-shot iterator")
    batches = [b[None] if b.ndim == 3 else b for b in map(np.asarray, dataset)]
    if not batches:
        raise ValueError("profiling dataset is empty")
    for batch in batches:
        g.check_input(batch.shape)
    batches = [b for b in batches if len(b)]
    if not batches:
        raise ValueError("no samples accumulated")
    last = len(batches) - 1

    def chunks(names, kept):
        for name in names:
            if name in g.params:
                arr = g.params[name]
                yield None, name, np.asarray(arr, dtype=np.float64).reshape(arr.shape[0], -1)
        activations = [name for name in names if name not in g.params]
        for b, batch in enumerate(batches):
            capture = [n for n in activations if n not in kept] if b == last else activations
            if capture:
                _, captured = execute_float(g, batch, capture=capture)
                for name in list(captured):  # each capture goes once its channel-major copy exists
                    yield b, name, channel_major(captured.pop(name))

    folds, samples = _Folds(chunks, last), sum(map(len, batches))
    counts = {name: (g.shapes[name][1], samples * prod(g.shapes[name][2:]))
              for name in g.activation_names()}
    counts.update((name, (arr.shape[0], arr.size // arr.shape[0])) for name, arr in g.params.items())
    return {name: TensorStats("parameter" if name in g.params else "activation",
                              *(_record(folds, name, np.full(c, n, dtype=np.int64), pooled)
                                for pooled in (False, True)))
            for name, (c, n) in counts.items()}


# ---------------------------------------------------------------------------
# JSON stats dump
# ---------------------------------------------------------------------------

def _encode_array(a: np.ndarray) -> list:
    return [None if not np.isfinite(v) else float(v) for v in np.asarray(a, dtype=np.float64)]


def _encode_stats(cs: ChannelStats) -> dict:
    return {name: _encode_array(getattr(cs, name)) for name in _FIELD_NAMES}


def _decode_stats(doc, pooled: bool) -> ChannelStats:
    """One channel record; ValueError where no profile could have written it,
    such as a field whose length is not count's (one, if ``pooled``)."""
    doc = json_array(doc, dict, "pooled" if pooled else "per_channel", 0).item()
    kw = {name: json_array(doc[name], np.float64, name, 1) for name in _FIELD_NAMES}
    count = kw["count"]
    for name, values in kw.items():
        if len(values) != (1 if pooled else len(count)):
            raise ValueError(f"pooled {name} holds {len(values)} values, not 1" if pooled else
                             f"{name} holds {len(values)} values, count {len(count)}")
    if not np.all((count >= 0) & (count <= 2**53) & (count == np.floor(count))):  # NaN fails
        raise ValueError(f"count must hold whole numbers, got {count.tolist()}")
    if not np.all(kw["m2"] >= 0):
        raise ValueError(f"m2 must be >= 0, got {kw['m2'].tolist()}")
    if np.any(kw["minv"] > kw["maxv"]):
        raise ValueError("minv exceeds maxv")
    kw["count"] = count.astype(np.int64)
    return ChannelStats(**kw)


def dump_stats(stats: dict, path) -> None:
    fold_records([r for ts in stats.values() for r in (ts.per_channel, ts.pooled)], higher=True)
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
    write_json(path, doc)


class StatsError(ValueError):
    """Malformed stats file."""


def load_stats(path) -> dict:
    """Inverse of :func:`dump_stats`; a file that does not parse, a missing
    key or a value of the wrong type raises StatsError naming where it is."""
    doc = read_json(path, StatsError)
    stats = {}
    with located(StatsError, "stats file"):
        if doc.get("version") != 1:
            raise StatsError(f"unsupported stats file version {doc.get('version')}")
        for name, td in json_array(doc["tensors"], dict, "tensors", 0).item().items():
            with located(StatsError, f"stats of tensor {name!r}"):
                td = json_array(td, dict, "record", 0).item()
                if td["kind"] not in ("activation", "parameter"):
                    raise ValueError(f"kind must be activation or parameter, got {td['kind']!r}")
                stats[name] = TensorStats(td["kind"], _decode_stats(td["per_channel"], False),
                                          _decode_stats(td["pooled"], True))
    return stats
