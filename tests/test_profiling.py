"""Channel statistics tests: moments, invariances, streaming updates,
field groups computed on first read from one fold per tensor, ReLU records
read from their source's samples."""

import gc
import itertools
import weakref
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from chanq.graph import Graph, LayerSpec, execute_float, validate
from chanq.planner import MODES, solve_plan
from chanq.profiling import (
    _GROUP_OF,
    MAX_ORDER,
    ChannelStats,
    StatsAccumulator,
    _Samples,
    _rebase,
    channel_major,
    collect_stats,
    dump_stats,
    load_stats,
    standardized_moments,
    stats_from_samples,
)
from chanq.synthetic import ARCHS, SynthSpec, build_graph, gen_dataset
from chanq.tensorops import relu

GROUPS = ("extremes", "moments", "higher_moments", "abs_moments")


def _same_bits(a, b):
    for f in fields(ChannelStats):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


def _eager_snapshot(count, minv, maxv, shift, sums, chunks) -> ChannelStats:
    """Every field at once from a finished fold: the oracle for the lazy records."""
    n = count.astype(np.float64)
    mean = shift + sums[1] / n
    central = _rebase(sums, -sums[1] / n)
    m = {k: central[k] / n for k in range(2, MAX_ORDER + 1)}
    sigma = np.sqrt(np.maximum(m[2], 0.0))
    absm = np.empty((3, len(mean)))
    for c in range(len(mean)):
        dev = np.subtract(np.concatenate([ch[c] for ch in chunks]), mean[c:c + 1])
        np.abs(dev, out=dev)
        absm[0, c] = dev.mean()
        absm[1, c] = np.power(dev, 3).mean()
        absm[2, c] = np.power(dev, 5, out=dev).mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = {}
        for i, k in enumerate((1, 3, 5)):
            nu[k] = np.where(sigma > 0, absm[i] / sigma**k, np.nan)
        for k in (2, 4, 6):
            nu[k] = np.where(sigma > 0, m[k] / sigma**k, np.nan)
    return ChannelStats(
        count=count.copy(), minv=minv.copy(), maxv=maxv.copy(),
        max_abs=np.maximum(np.abs(minv), np.abs(maxv)), mean=mean,
        **{f"m{k}": v for k, v in m.items()}, **{f"nu{k}": v for k, v in nu.items()})


def _eager_records(chunks) -> tuple:
    """(per-channel, pooled) records of [C, M] chunks, one fold of count, min,
    max and power sums for both, every field computed at once."""
    channels = chunks[0].shape[0]
    count = np.zeros(channels, dtype=np.int64)
    minv, maxv = np.full(channels, np.inf), np.full(channels, -np.inf)
    shift = chunks[0][:, 0].astype(np.float64)
    sums = np.zeros((MAX_ORDER + 1, channels))
    for raw in chunks:
        y = raw - shift[:, None]
        sums[0] += y.shape[1]
        sums[1] += y.sum(axis=1)
        p = y * y
        sums[2] += p.sum(axis=1)
        for k in range(3, MAX_ORDER + 1):
            sums[k] += np.multiply(p, y, out=p).sum(axis=1)
        count += raw.shape[1]
        minv = np.minimum(minv, raw.min(axis=1))
        maxv = np.maximum(maxv, raw.max(axis=1))
    pooled = _eager_snapshot(count.sum(keepdims=True), minv.min(keepdims=True),
                             maxv.max(keepdims=True), shift[:1].copy(),
                             _rebase(sums, shift - shift[0]).sum(axis=1, keepdims=True),
                             [c.reshape(1, -1) for c in chunks])
    return _eager_snapshot(count, minv, maxv, shift, sums, chunks), pooled


def _engine_records(g, batches) -> dict:
    """Eager (per-channel, pooled) records of every tensor: each activation
    from the float engine's own output, put through ``channel_major`` once
    per batch, each parameter from its values."""
    chunks = {}
    for batch in batches:
        _, captured = execute_float(g, batch, capture=g.activation_names())
        for name, arr in captured.items():
            chunks.setdefault(name, []).append(channel_major(arr))
    for pname, arr in g.params.items():
        chunks[pname] = [np.asarray(arr, dtype=np.float64).reshape(arr.shape[0], -1)]
    return {name: _eager_records(c) for name, c in chunks.items()}


def _groups_computed(record) -> set:
    return {_GROUP_OF[name] for name in vars(record) if name in _GROUP_OF}


class TestBasicStats:
    def test_constant_channel(self):
        acc = StatsAccumulator(1)
        acc.update(np.full((1, 4), 3.25))
        acc.update(np.full((1, 4), 3.25))
        s = acc.snapshot()
        assert s.minv[0] == s.maxv[0] == s.mean[0] == 3.25
        assert s.m2[0] == 0.0
        assert s.sigma[0] == 0.0

    def test_plus_minus_one(self):
        s = stats_from_samples([1.0, -1.0])
        assert s.mean[0] == 0.0
        assert s.m2[0] == 1.0
        assert s.max_abs[0] == 1.0

    def test_gaussian_kurtosis(self):
        rng = np.random.default_rng(0)
        s = stats_from_samples(rng.normal(0, 1, 10**5))
        assert s.nu4[0] == pytest.approx(3.0, abs=0.1)

    def test_laplace_kurtosis(self):
        rng = np.random.default_rng(1)
        s = stats_from_samples(rng.laplace(0, 1, 10**5))
        assert s.nu4[0] == pytest.approx(6.0, abs=0.3)

    def test_half_normal_mean(self):
        rng = np.random.default_rng(2)
        s = stats_from_samples(rng.normal(0, 1, 10**5))
        assert s.nu1[0] == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)


class TestFeatureInvariance:
    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(3)
        x = rng.laplace(0, 1, 20000)
        f1 = standardized_moments(stats_from_samples(x))
        f2 = standardized_moments(stats_from_samples(100.0 * x))
        np.testing.assert_allclose(f1, f2, rtol=1e-6)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 20000)
        f1 = standardized_moments(stats_from_samples(x))
        for a, b in ((2.5, 10.0), (0.03, -7.0), (1000.0, 123.0)):
            f2 = standardized_moments(stats_from_samples(a * x + b))
            np.testing.assert_allclose(f1, f2, rtol=1e-6, atol=1e-9)

    def test_degenerate_flagged(self):
        s = stats_from_samples(np.full(200, 1.0))
        assert s.sigma[0] == 0.0
        assert np.all(np.isnan(standardized_moments(s)))


class TestStreamingUpdates:
    def test_two_updates_equal_one(self):
        rng = np.random.default_rng(5)
        data = rng.normal(3.0, 2.0, size=(4, 10000))
        whole = StatsAccumulator(4)
        whole.update(data)
        halves = StatsAccumulator(4)
        halves.update(data[:, :5000])
        halves.update(data[:, 5000:])
        got = halves.snapshot()
        ref = whole.snapshot()
        for field in ("mean", "m2", "m3", "m4", "m5", "m6", "nu1", "nu3", "nu4", "nu5", "nu6"):
            np.testing.assert_allclose(getattr(got, field), getattr(ref, field),
                                       rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(got.count, ref.count)
        np.testing.assert_array_equal(got.minv, ref.minv)
        np.testing.assert_array_equal(got.maxv, ref.maxv)

    def test_updates_far_from_zero(self):
        # anchored power sums stay stable with a large common offset
        rng = np.random.default_rng(6)
        data = rng.normal(0, 1, size=(2, 8000)) + 5000.0
        halves = StatsAccumulator(2)
        halves.update(data[:, :3000])
        halves.update(data[:, 3000:])
        got = halves.snapshot()
        whole = StatsAccumulator(2)
        whole.update(data)
        ref = whole.snapshot()
        np.testing.assert_allclose(got.m4, ref.m4, rtol=1e-9)
        np.testing.assert_allclose(got.nu4, ref.nu4, rtol=1e-9)

    def test_pooled_matches_flat(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 4000))
        acc = StatsAccumulator(3)
        acc.update(data)
        pooled = acc.pooled()
        flat = stats_from_samples(data.reshape(-1))
        np.testing.assert_allclose(pooled.mean, flat.mean, rtol=1e-9)
        np.testing.assert_allclose(pooled.m2, flat.m2, rtol=1e-9)
        np.testing.assert_allclose(pooled.nu4, flat.nu4, rtol=1e-9)

    def test_float32_samples_keep_their_width_and_give_the_same_stats(self):
        # raw chunks stay float32 (half the memory); widening them later is exact
        rng = np.random.default_rng(12)
        data = (rng.standard_t(3, size=(3, 2000)) * 40 + 7).astype(np.float32)
        narrow, wide = StatsAccumulator(3), StatsAccumulator(3)
        for chunk in (data[:, :700], data[:, 700:]):
            narrow.update(chunk)
            wide.update(chunk.astype(np.float64))
        assert narrow._chunks[0].dtype == np.float32
        for rec_a, rec_b in ((narrow.snapshot(), wide.snapshot()), (narrow.pooled(), wide.pooled())):
            _same_bits(rec_a, rec_b)

    def test_update_keeps_the_callers_chunk_and_gives_the_same_stats(self):
        data = np.arange(24, dtype=np.float32).reshape(2, 12) ** 1.5
        kept, copied = StatsAccumulator(2), StatsAccumulator(2)
        kept.update(data)
        copied.update(data.copy())
        assert kept._chunks[0] is data
        _same_bits(kept.snapshot(), copied.snapshot())

    def test_snapshot_after_every_update_equals_one_at_the_end(self):
        # the fold runs chunk by chunk in arrival order, however often it is asked
        # for, and a record keeps the samples it was taken over: later updates
        # change neither a record read before them nor one read after them
        rng = np.random.default_rng(13)
        chunks = [(rng.laplace(size=(3, m)) * 30 + 500).astype(np.float32) for m in (5, 900, 1, 77)]
        eager, late, unread = StatsAccumulator(3), StatsAccumulator(3), []
        for i, chunk in enumerate(chunks, 1):
            eager.update(chunk)
            for record, ref in zip((eager.snapshot(), eager.pooled()), _eager_records(chunks[:i])):
                _same_bits(record, ref)
            unread.append((eager.snapshot(), eager.pooled(), _eager_records(chunks[:i])))
            late.update(chunk)
        _same_bits(eager.snapshot(), late.snapshot())
        _same_bits(eager.pooled(), late.pooled())
        for per_channel, pooled, (ref_per_channel, ref_pooled) in unread:
            _same_bits(per_channel, ref_per_channel)
            _same_bits(pooled, ref_pooled)

    def test_update_checks_the_shape_at_once(self):
        with pytest.raises(ValueError, match=r"expected \[C=2, M\] samples"):
            StatsAccumulator(2).update(np.zeros((3, 4)))


def _conv_relu_graph():
    conv = LayerSpec("c0", "conv", ["x"], ["t0"], attrs={"stride": 1, "pad": 0},
                     params={"weight": "c0.weight", "bias": "c0.bias"})
    relu = LayerSpec("r0", "relu", ["t0"], ["t1"])
    return validate(Graph("x", (1, 2, 4, 4), [conv, relu],
                          {"c0.weight": np.ones((2, 2, 1, 1), np.float32),
                           "c0.bias": np.zeros(2, np.float32)}))


def _relu_chain_graph():
    # x -> relu -> xa -> conv -> t0 -> relu -> t1 -> relu -> t2
    nodes = [LayerSpec("ri", "relu", ["x"], ["xa"]),
             LayerSpec("c0", "conv", ["xa"], ["t0"], attrs={"stride": 1, "pad": 0},
                       params={"weight": "c0.weight", "bias": "c0.bias"}),
             LayerSpec("r0", "relu", ["t0"], ["t1"]),
             LayerSpec("r1", "relu", ["t1"], ["t2"])]
    return validate(Graph("x", (1, 2, 4, 4), nodes,
                          {"c0.weight": np.array([[[[1.0]], [[-2.0]]], [[[0.5]], [[0.0]]]], np.float32),
                           "c0.bias": np.array([0.25, -0.0], np.float32)}))


class TestCollectStats:
    def test_covers_all_tensors(self):
        g = _conv_relu_graph()
        rng = np.random.default_rng(8)
        data = [rng.normal(size=(1, 2, 4, 4)).astype(np.float32) for _ in range(3)]
        stats = collect_stats(g, data)
        for name in ("x", "t0", "t1", "c0.weight", "c0.bias"):
            assert name in stats
        assert stats["x"].per_channel.n_channels == 2
        assert stats["x"].kind == "activation"
        assert stats["c0.weight"].kind == "parameter"
        # activations pool batch and spatial: 3 samples x 16 positions
        assert int(stats["t0"].per_channel.count[0]) == 48

    def test_dataset_reusing_one_buffer(self):
        g = _conv_relu_graph()
        rng = np.random.default_rng(10)
        data = [rng.normal(size=(1, 2, 4, 4)).astype(np.float32) for _ in range(3)]
        buf = np.empty_like(data[0])

        def refilled():
            for d in data:
                buf[...] = d
                yield buf

        _same_bits(collect_stats(g, data)["x"].per_channel,
                   collect_stats(g, refilled())["x"].per_channel)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            collect_stats(_conv_relu_graph(), [])

    def test_dump_roundtrip(self, tmp_path):
        g = _conv_relu_graph()
        rng = np.random.default_rng(9)
        data = [rng.normal(size=(1, 2, 4, 4)).astype(np.float32) for _ in range(2)]
        stats = collect_stats(g, data)
        dump_stats(stats, tmp_path / "s.json")
        loaded = load_stats(tmp_path / "s.json")
        assert set(loaded) == set(stats)
        np.testing.assert_allclose(loaded["t0"].per_channel.mean,
                                   stats["t0"].per_channel.mean, rtol=1e-12)
        np.testing.assert_allclose(loaded["t0"].pooled.nu4,
                                   stats["t0"].pooled.nu4, rtol=1e-12)
        # identical dump bytes when repeated
        dump_stats(stats, tmp_path / "s2.json")
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    def test_parameter_records_own_their_values(self):
        g = _conv_relu_graph()
        g.params["c0.weight"] = np.arange(4, dtype=np.float64).reshape(2, 2, 1, 1) - 1.5
        data = [np.ones((1, 2, 4, 4), np.float32)]
        ref = collect_stats(g, data)["c0.weight"]
        ref.per_channel, ref.pooled  # read now, from the values as they were
        stats = collect_stats(g, data)
        g.params["c0.weight"][...] = 100.0  # after collect_stats, before any record is read
        _same_bits(stats["c0.weight"].per_channel, ref.per_channel)
        _same_bits(stats["c0.weight"].pooled, ref.pooled)

    def test_a_relu_chain_reads_the_samples_it_starts_from(self):
        # every relu output, a chain's second one too, matches the engine's
        # own relu values bit for bit, -0.0 inputs included, and holds its
        # source's chunks, not a copy
        g = _relu_chain_graph()
        rng = np.random.default_rng(14)
        data = [rng.normal(size=(n, 2, 4, 4)).astype(np.float32) for n in (1, 3)]
        for d in data:  # channel 1: no value below zero, some of them -0.0
            d[:, 1] = np.abs(d[:, 1])
        data[0][0, :, :2] = -0.0
        stats = collect_stats(g, data)
        for out, src in (("xa", "x"), ("t1", "t0"), ("t2", "t0")):
            assert all(a is b for a, b in zip(stats[out]._acc._chunks, stats[src]._acc._chunks,
                                              strict=True)), out
        refs = _engine_records(g, data)
        for name, ts in stats.items():
            _same_bits(ts.per_channel, refs[name][0])
            _same_bits(ts.pooled, refs[name][1])
        assert np.signbit(stats["x"].per_channel.minv).tolist() == [True, True]
        assert np.signbit(stats["xa"].per_channel.minv).tolist() == [False, False]

    def test_batch_of_no_samples_fails_inside_collect_stats(self):
        with pytest.raises(ValueError, match="no samples accumulated"):
            collect_stats(_conv_relu_graph(), [np.zeros((0, 2, 4, 4), np.float32)])


@pytest.fixture(scope="module")
def hetero():
    spec = SynthSpec(arch="hetero_conv", in_channels=3, channels=4, image_size=8, samples=24,
                     input_scale_span_bits=3.0, seed=3)
    g = build_graph(spec)
    x, _ = gen_dataset(g, spec)
    return g, [x[i:i + 8] for i in range(0, len(x), 8)]


class TestRecordsOnFirstRead:
    def test_dump_bytes_do_not_depend_on_read_order(self, hetero, tmp_path):
        g, batches = hetero
        dumps = []
        for first in ("per_channel", "pooled", None):
            stats = collect_stats(g, batches)
            if first:
                for ts in stats.values():
                    getattr(ts, first)
            dump_stats(stats, tmp_path / f"{first}.json")
            dumps.append((tmp_path / f"{first}.json").read_bytes())
        assert dumps[0] == dumps[1] == dumps[2]

    @pytest.mark.parametrize("mode", MODES)
    def test_solve_computes_only_the_records_it_reads(self, hetero, mode, monkeypatch):
        # and of those records only the field groups its rule reads, each once
        g, batches = hetero
        stats = collect_stats(g, batches)
        calls = []
        for group in GROUPS:
            compute = getattr(_Samples, group)
            monkeypatch.setattr(_Samples, group,
                                lambda samples, rec, group=group, compute=compute:
                                calls.append(group) or compute(samples, rec))
        solve_plan(g, stats, mode)
        records = {(name, rec): getattr(ts, rec) for name, ts in stats.items()
                   for rec in ("per_channel", "pooled") if rec in vars(ts)}
        if mode == "layerwise_max":
            expected = {(t, "pooled") for t in ("input", "t1", "t3", "t5")}
        else:
            expected = {(t, "per_channel") for t in ("input", "t1", "t3")} | {("t5", "pooled")}
        assert set(records) == expected
        groups = {"layerwise_max": {"extremes"}, "cw_max": {"extremes"},
                  "cw_laplace": {"extremes", "moments"},
                  "cw_scauchy": {"extremes", "moments"}, "cw_pdf_aware": set(GROUPS)}[mode]
        for key, record in records.items():
            assert _groups_computed(record) == groups, key
        assert Counter(calls) == {group: len(expected) for group in groups}

    def test_samples_are_released_once_every_record_reading_them_is_done(self, hetero):
        # ... to its absolute moments, the last group that needs the samples:
        # t1's chunks serve its own two records and those of t2 = relu(t1)
        g, batches = hetero
        stats = collect_stats(g, batches)
        ts, relu_ts = stats["t1"], stats["t2"]
        acc = weakref.ref(ts._acc)
        chunk = weakref.ref(ts._acc._chunks[0])
        assert relu_ts._acc._chunks[0] is chunk()
        ts.pooled.nu1
        assert acc() is not None
        ts.per_channel.max_abs
        ts.per_channel.mean
        assert acc() is None and chunk() is not None  # the per-channel nu1, nu3, nu5 may follow
        ts.per_channel.m4
        ts.per_channel.nu5
        assert chunk() is not None  # t2's records still read them
        relu_ts.per_channel.nu5
        relu_ts.pooled.m4
        assert chunk() is not None
        relu_ts.pooled.nu5
        assert chunk() is None
        for record in (ts.per_channel, ts.pooled, relu_ts.per_channel, relu_ts.pooled):
            assert _groups_computed(record) == set(GROUPS)
        assert ts.per_channel is ts.per_channel  # computed once, then cached

    def test_only_the_samples_of_non_relu_tensors_are_retained(self, hetero):
        g, batches = hetero
        stats = collect_stats(g, batches)
        relu_input = {node.outputs[0]: node.inputs[0] for node in g.nodes if node.kind == "relu"}
        assert relu_input == {"t2": "t1", "t4": "t3"}
        held = {id(c): c for ts in stats.values() for c in ts._acc._chunks}
        samples = sum(len(b) for b in batches)
        activations = sum(samples * int(np.prod(g.shapes[t][1:])) * 4  # float32
                          for t in g.activation_names() if t not in relu_input)
        params = sum(arr.size * 8 for arr in g.params.values())  # float64 copies
        assert sum(c.nbytes for c in held.values()) == activations + params
        for out, src in relu_input.items():
            assert [id(c) for c in stats[out]._acc._chunks] == [id(c) for c in stats[src]._acc._chunks]
        # every record still counts every sample of its tensor
        assert sum(int(ts.per_channel.count.sum()) for ts in stats.values()) == 25758

    def test_dropping_the_stats_after_a_compile_releases_every_sample(self, hetero):
        g, batches = hetero
        for mode in MODES:
            stats = collect_stats(g, batches)
            chunks = [weakref.ref(ts._acc._chunks[0]) for ts in stats.values()]
            solve_plan(g, stats, mode)
            del stats
            gc.collect()
            assert all(chunk() is None for chunk in chunks), mode


class _PassCounter(np.ndarray):
    """A chunk that counts, in ``passes``, the ufunc passes over arrays of
    its shape: itself and the arrays computed from it whole."""

    def __array_finalize__(self, obj):
        self.shape0, self.passes = getattr(obj, "shape0", self.shape), getattr(obj, "passes", None)

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        if any(getattr(a, "shape", None) == self.shape0 for a in (*inputs, *out)):
            self.passes[f"{ufunc.__name__}.{method}"] += 1
        plain = [a.view(np.ndarray) if isinstance(a, _PassCounter) else a for a in inputs]
        if out:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, _PassCounter) else o
                                  for o in out)
        res = getattr(ufunc, method)(*plain, **kwargs)
        if out:
            return out[0]
        if getattr(res, "shape", None) == self.shape0:
            res = res.view(_PassCounter)
            res.shape0, res.passes = self.shape0, self.passes
        return res


def _samples_with_a_constant_channel(dtype):
    rng = np.random.default_rng(15)
    data = rng.standard_t(3, size=(3, 3000)) * [[0.5], [40.0], [0.0]] + [[3.0], [-200.0], [1.25]]
    return data.astype(dtype)


def _counting_accumulator(data) -> tuple:
    """(an accumulator over ``data`` as one chunk that counts its passes, the count)."""
    acc = StatsAccumulator(data.shape[0])
    acc.update(data)
    acc._chunks[0] = acc._chunks[0].view(_PassCounter)
    acc._chunks[0].passes = passes = Counter()
    return acc, passes


class TestLazyRecordsAgainstEagerOracle:
    @pytest.mark.parametrize("order", list(itertools.permutations(GROUPS)))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cuts", [(), (1, 700, 2999)])
    def test_every_field_bit_for_bit_in_any_read_order(self, order, dtype, cuts):
        data = _samples_with_a_constant_channel(dtype)
        acc = StatsAccumulator(3)
        for chunk in np.split(data, cuts, axis=1):
            acc.update(chunk)
        refs = _eager_records(acc._chunks)
        assert refs[0].m2[2] == 0 and np.isnan(refs[0].nu1[2])  # the constant channel
        for record, ref in zip((acc.snapshot(), acc.pooled()), refs):
            for group in order:
                getattr(record, next(f for f, g in _GROUP_OF.items() if g == group))
                assert group in _groups_computed(record)
            _same_bits(record, ref)

    @pytest.mark.parametrize("records", [("snapshot",), ("pooled",), ("snapshot", "pooled"),
                                         ("pooled", "snapshot")])
    def test_a_record_read_in_full_folds_each_power_sum_once(self, records):
        # the moments and the higher moments each rebuild y and y**2 of a chunk,
        # and no more: every other pass over a chunk is made once, and once for
        # both records of the accumulator; only their absolute moments, a pass
        # a channel row, are each record's own
        data = _samples_with_a_constant_channel(np.float32)
        acc, passes = _counting_accumulator(data)
        refs = _eager_records([data])
        for record in records:
            _same_bits(getattr(acc, record)(), refs[record == "pooled"])
        assert passes == {"minimum.reduce": 1, "maximum.reduce": 1,  # the extremes
                          "subtract.__call__": 2,  # y, twice
                          "multiply.__call__": 2 + MAX_ORDER - 2,  # y**2 twice, y**3..y**6
                          "add.reduce": MAX_ORDER}  # one sum per order 1..6

    @pytest.mark.parametrize("records", [("snapshot",), ("snapshot", "pooled")])
    def test_a_relu_record_clips_each_chunk_once_a_fold(self, records):
        # the extremes, the low and the high power sums each clip the chunk
        # once, for both records; the absolute moments clip a channel row at
        # a time. A clipped chunk is a plain array: only the clips count.
        data = _samples_with_a_constant_channel(np.float32)
        acc, passes = _counting_accumulator(data)
        relu_acc = acc.relu()
        refs = _eager_records([relu(data)])
        for record in records:
            _same_bits(getattr(relu_acc, record)(), refs[record == "pooled"])
        assert passes == {"maximum.__call__": 3}

    @pytest.mark.parametrize("arch", ARCHS)
    def test_every_record_of_every_arch(self, arch):
        spec = SynthSpec(arch=arch, channels=4, image_size=8, samples=12,
                         input_scale_span_bits=3.0, input_family="heavy", seed=2)
        g = build_graph(spec)
        x, _ = gen_dataset(g, spec)
        batches = [x[:5], x[5:]]
        stats = collect_stats(g, batches)
        refs = _engine_records(g, batches)
        assert set(stats) == set(refs)
        for name, ts in stats.items():
            _same_bits(ts.per_channel, refs[name][0])
            _same_bits(ts.pooled, refs[name][1])
