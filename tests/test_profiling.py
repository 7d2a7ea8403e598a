"""Channel statistics tests: moments, invariances, folds over several
batches, records folded when asked for in at most two passes (the second
re-running every batch but the last, which the first keeps), ReLU records
from the engine's own values."""

import itertools
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from chanq import profiling
from chanq.graph import Graph, GraphError, LayerSpec, execute_float, validate
from chanq.planner import MODES, solve_plan
from chanq.profiling import (
    _PASS_2,
    MAX_ORDER,
    ChannelStats,
    _rebase,
    channel_major,
    collect_stats,
    dump_stats,
    fold_records,
    load_stats,
    standardized_moments,
    stats_from_samples,
)
from chanq.synthetic import ARCHS, SynthSpec, build_graph, gen_dataset

# a field of each group a record may compute: the extremes and the moments
# in pass 1, the higher and the odd absolute moments in pass 2
GROUP_FIELDS = ("max_abs", "m2", "m4", "nu3")
ABS_MOMENTS = ("nu1", "nu3", "nu5")


def _same_bits(a, b, batches=1):
    """Every field bit for bit; over several batches the odd absolute
    moments, summed batch by batch, to 1e-12 relative."""
    for f in fields(ChannelStats):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if batches > 1 and f.name in ABS_MOMENTS:
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=0, err_msg=f.name)
        else:
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


def _folded(record) -> set:
    """The passes whose fields a record holds."""
    return {p for p, name in ((1, "mean"), (2, "nu1")) if name in vars(record)}


def _samples_graph(channels):
    # x -> relu: the records of x are of the values fed in, [M, C] a batch
    return validate(Graph("x", (1, channels), [LayerSpec("r", "relu", ["x"], ["y"])], {}))


def _fold_chunks(chunks):
    """The stats of [C, M] float32 chunks, each fed to the engine as one batch."""
    return collect_stats(_samples_graph(chunks[0].shape[0]), [c.T for c in chunks])["x"]


def _widened(chunks):
    return [c.astype(np.float64) for c in chunks]


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts the float engine runs that profiling makes."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("capture"))
        return execute_float(*args, **kwargs)
    monkeypatch.setattr(profiling, "execute_float", spy)
    return calls


class TestBasicStats:
    def test_constant_channel(self):
        s = _fold_chunks([np.full((1, 4), 3.25, np.float32)] * 2).per_channel
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


class TestSeveralBatches:
    def test_several_batches_match_one(self):
        rng = np.random.default_rng(5)
        data = rng.normal(3.0, 2.0, size=(4, 10000)).astype(np.float32)
        whole = _fold_chunks([data])
        halves = _fold_chunks([data[:, :5000], data[:, 5000:]])
        for rec in ("per_channel", "pooled"):
            got, ref = getattr(halves, rec), getattr(whole, rec)
            for field in ("count", "minv", "maxv", "max_abs"):
                assert getattr(got, field).tobytes() == getattr(ref, field).tobytes(), field
            for field in ("mean", "m2", "m3", "m4", "m5", "m6", "nu1", "nu3", "nu4", "nu5", "nu6"):
                np.testing.assert_allclose(getattr(got, field), getattr(ref, field),
                                           rtol=1e-9, atol=1e-12)
        refs = _eager_records(_widened([data[:, :5000], data[:, 5000:]]))
        _same_bits(halves.per_channel, refs[0], batches=2)
        _same_bits(halves.pooled, refs[1], batches=2)

    def test_batches_far_from_zero(self):
        # anchored power sums stay stable with a large common offset
        rng = np.random.default_rng(6)
        data = (rng.normal(0, 1, size=(2, 8000)) + 5000.0).astype(np.float32)
        got = _fold_chunks([data[:, :3000], data[:, 3000:]]).per_channel
        ref = _fold_chunks([data]).per_channel
        np.testing.assert_allclose(got.m4, ref.m4, rtol=1e-9)
        np.testing.assert_allclose(got.nu4, ref.nu4, rtol=1e-9)

    def test_pooled_matches_flat(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 4000)).astype(np.float32)
        pooled = _fold_chunks([data]).pooled
        flat = stats_from_samples(data.reshape(-1))
        np.testing.assert_allclose(pooled.mean, flat.mean, rtol=1e-9)
        np.testing.assert_allclose(pooled.m2, flat.m2, rtol=1e-9)
        np.testing.assert_allclose(pooled.nu4, flat.nu4, rtol=1e-9)

    @pytest.mark.parametrize("cuts", [(), (700,)])
    def test_float32_samples_widen_exactly(self, cuts):
        # the engine's float32 values fold as the float64 values they widen to
        rng = np.random.default_rng(12)
        data = (rng.standard_t(3, size=(3, 2000)) * 40 + 7).astype(np.float32)
        chunks = np.split(data, cuts, axis=1)
        ts = _fold_chunks(chunks)
        refs = _eager_records(_widened(chunks))
        _same_bits(ts.per_channel, refs[0], batches=len(chunks))
        _same_bits(ts.pooled, refs[1], batches=len(chunks))

    def test_a_bad_batch_shape_raises_at_collect_stats(self, engine_calls):
        g = _samples_graph(2)
        with pytest.raises(GraphError, match=r"input shape \(4, 3\) incompatible"):
            collect_stats(g, [np.zeros((5, 2), np.float32), np.zeros((4, 3), np.float32)])
        assert engine_calls == []


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

    def test_a_one_shot_iterator_is_rejected(self):
        g = _conv_relu_graph()
        data = [np.ones((1, 2, 4, 4), np.float32)]
        for once in (iter(data), (d for d in data)):
            with pytest.raises(ValueError, match="re-iterable"):
                collect_stats(g, once)

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

    def test_relu_records_are_of_the_engines_relu_values(self):
        # every relu output, a chain's second one too, matches the engine's
        # own relu values bit for bit, -0.0 inputs included
        g = _relu_chain_graph()
        rng = np.random.default_rng(14)
        data = [rng.normal(size=(n, 2, 4, 4)).astype(np.float32) for n in (1, 3)]
        for d in data:  # channel 1: no value below zero, some of them -0.0
            d[:, 1] = np.abs(d[:, 1])
        data[0][0, :, :2] = -0.0
        stats = collect_stats(g, data)
        refs = _engine_records(g, data)
        for name, ts in stats.items():
            _same_bits(ts.per_channel, refs[name][0], batches=2)
            _same_bits(ts.pooled, refs[name][1], batches=2)
        assert np.signbit(stats["x"].per_channel.minv).tolist() == [True, True]
        assert np.signbit(stats["xa"].per_channel.minv).tolist() == [False, False]

    def test_batch_of_no_samples_fails_inside_collect_stats(self):
        with pytest.raises(ValueError, match="no samples accumulated"):
            collect_stats(_conv_relu_graph(), [np.zeros((0, 2, 4, 4), np.float32)])

    def test_a_batch_of_no_samples_among_others_adds_nothing(self):
        g = _conv_relu_graph()
        data = [np.arange(32, dtype=np.float32).reshape(1, 2, 4, 4)]
        ref = collect_stats(g, data)
        stats = collect_stats(g, [np.zeros((0, 2, 4, 4), np.float32), *data])
        for name, ts in stats.items():
            _same_bits(ts.per_channel, ref[name].per_channel)
            _same_bits(ts.pooled, ref[name].pooled)


@pytest.fixture(scope="module")
def hetero():
    spec = SynthSpec(arch="hetero_conv", in_channels=3, channels=4, image_size=8, samples=24,
                     input_scale_span_bits=3.0, seed=3)
    g = build_graph(spec)
    x, _ = gen_dataset(g, spec)
    return g, [x[i:i + 8] for i in range(0, len(x), 8)]


class TestAskedRecords:
    def test_collect_stats_runs_no_pass_and_knows_every_count(self, hetero, engine_calls):
        g, batches = hetero
        stats = collect_stats(g, batches)
        assert sum(int(ts.per_channel.count.sum()) for ts in stats.values()) == 25758
        for name in g.activation_names():
            assert stats[name].per_channel.n_channels == g.channels(name)
            assert stats[name].pooled.count.tolist() == [stats[name].per_channel.count.sum()]
        assert engine_calls == []
        assert not any(_folded(r) for ts in stats.values() for r in (ts.per_channel, ts.pooled))

    def test_dump_bytes_do_not_depend_on_read_order(self, hetero, tmp_path):
        # records read one at a time fold the bits that one ask for all folds
        g, batches = hetero
        dumps = []
        for first in ("per_channel", "pooled", None):
            stats = collect_stats(g, batches)
            if first:
                for ts in stats.values():
                    getattr(ts, first).nu1
            dump_stats(stats, tmp_path / f"{first}.json")
            dumps.append((tmp_path / f"{first}.json").read_bytes())
        assert dumps[0] == dumps[1] == dumps[2]

    @pytest.mark.parametrize("mode", MODES)
    def test_solve_computes_only_the_records_it_reads(self, hetero, mode, engine_calls):
        # in one engine pass per batch, and a second for the kNN features
        # over every batch but the last, which the first pass kept
        g, batches = hetero
        stats = collect_stats(g, batches)
        solve_plan(g, stats, mode)
        folded = {(name, rec): _folded(getattr(ts, rec)) for name, ts in stats.items()
                  for rec in ("per_channel", "pooled")}
        if mode == "layerwise_max":
            expected = {(t, "pooled") for t in ("input", "t1", "t3", "t5")}
        else:
            expected = {(t, "per_channel") for t in ("input", "t1", "t3")} | {("t5", "pooled")}
        passes = {1, 2} if mode == "cw_pdf_aware" else {1}
        assert {key for key, done in folded.items() if done} == expected
        assert all(folded[key] == passes for key in expected)
        assert len(engine_calls) == (2 * len(batches) - 1 if 2 in passes else len(batches))
        assert all(set(c) == {"input", "t1", "t3", "t5"} for c in engine_calls)

    def test_all_five_modes_on_one_stats_run_two_passes(self, hetero, engine_calls):
        g, batches = hetero
        stats = collect_stats(g, batches)
        plans = [solve_plan(g, stats, mode) for mode in MODES]
        assert len(engine_calls) == 2 * len(batches) - 1
        for mode, plan in zip(MODES, plans):  # the same plans as from stats of their own
            ref = solve_plan(g, collect_stats(g, batches), mode)
            for name, fmt in ref.tensors.items():
                assert plan.tensors[name].fls.tolist() == fmt.fls.tolist(), (mode, name)

    def test_one_batch_runs_the_engine_once(self, hetero, engine_calls, tmp_path):
        # pass 2 reads the batch that pass 1 kept: all five modes on one
        # stats, or a dump of every record, make one engine run
        g, batches = hetero
        one = [np.concatenate(batches)]
        stats = collect_stats(g, one)
        for mode in MODES:
            solve_plan(g, stats, mode)
        assert len(engine_calls) == 1
        dump_stats(collect_stats(g, one), tmp_path / "stats.json")
        assert len(engine_calls) == 2

    def test_pass_2_keeps_nothing_once_every_asked_record_is_in(self, hetero, engine_calls):
        g, batches = hetero
        stats = collect_stats(g, batches)
        folds = stats["t1"].pooled._fold[0]
        asked = [stats[t].per_channel for t in ("input", "t3")] + [stats["t1"].pooled]
        fold_records(asked)
        assert set(folds.kept) == {"input", "t1", "t3"}
        fold_records(asked[:2], higher=True)
        assert set(folds.kept) == {"t1"}
        asked[2].nu1
        assert folds.kept == {}
        assert len(engine_calls) == len(batches) + 2 * (len(batches) - 1)
        stats["t1"].per_channel.nu1  # the last batch again, for this record's absolute sums
        assert len(engine_calls) == 2 * len(batches) + 2 * (len(batches) - 1)
        assert folds.kept == {}

    def test_parameter_records_fold_with_no_engine_run(self, hetero, engine_calls):
        g, batches = hetero
        stats = collect_stats(g, batches)
        fold_records([ts.per_channel for ts in stats.values() if ts.kind == "parameter"],
                     higher=True)
        assert engine_calls == []
        refs = _engine_records(g, batches)
        for name, ts in stats.items():
            if ts.kind == "parameter":
                _same_bits(ts.per_channel, refs[name][0])


def test_memory_does_not_grow_with_the_sample_count(tmp_path):
    # no sample outlives the pass that reads it: profiling 1024 samples
    # peaks within 1 MB of profiling 64
    spec = SynthSpec(arch="hetero_conv", channels=8, image_size=8, samples=1024,
                     input_family="heavy", seed=4)
    g = build_graph(spec)
    x, _ = gen_dataset(g, spec)
    peaks = {}
    for n in (64, 1024):
        batches = [x[i:i + 32] for i in range(0, n, 32)]
        tracemalloc.start()
        dump_stats(collect_stats(g, batches), tmp_path / f"{n}.json")
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[1024] - peaks[64] < 2**20, peaks


def test_pass_1_keeps_at_most_one_batch_of_captures():
    spec = SynthSpec(arch="hetero_conv", channels=8, image_size=16, samples=48, seed=5)
    g = build_graph(spec)
    x, _ = gen_dataset(g, spec)
    batches = [x[i:i + 16] for i in range(0, len(x), 16)]
    _, captured = execute_float(g, batches[-1], capture=g.activation_names())
    one_batch = sum(a.nbytes for a in captured.values())
    del captured
    stats = collect_stats(g, batches)
    records = [r for ts in stats.values() for r in (ts.per_channel, ts.pooled)]
    tracemalloc.start()
    fold_records(records)
    kept = tracemalloc.get_traced_memory()[0]
    fold_records(records, higher=True)
    left = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    # the sums and fields take some 100 KB of the slack; a second batch kept would pass it
    assert kept < one_batch + one_batch // 4, (kept, one_batch)
    assert left < one_batch // 4, (left, one_batch)


class _PassCounter(np.ndarray):
    """A chunk that counts, in ``passes``, the ufunc passes over arrays of
    its size: itself, its reshapes and the arrays computed from it whole."""

    def __array_finalize__(self, obj):
        self.size0, self.passes = getattr(obj, "size0", self.size), getattr(obj, "passes", None)

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        if any(getattr(a, "size", None) == self.size0 for a in (*inputs, *out)):
            self.passes[f"{ufunc.__name__}.{method}"] += 1
        plain = [a.view(np.ndarray) if isinstance(a, _PassCounter) else a for a in inputs]
        if out:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, _PassCounter) else o
                                  for o in out)
        res = getattr(ufunc, method)(*plain, **kwargs)
        if out:
            return out[0]
        if getattr(res, "size", None) == self.size0:
            res = res.view(_PassCounter)
            res.size0, res.passes = self.size0, self.passes
        return res


def _samples_with_a_constant_channel(dtype, length=3000):
    rng = np.random.default_rng(15)
    data = rng.standard_t(3, size=(3, length)) * [[0.5], [40.0], [0.0]] + [[3.0], [-200.0], [1.25]]
    return data.astype(dtype)


class TestFoldsAgainstEagerOracle:
    @pytest.mark.parametrize("order", list(itertools.permutations(GROUP_FIELDS)))
    @pytest.mark.parametrize("first", ["per_channel", "pooled"])
    @pytest.mark.parametrize("cuts", [(), (1, 700, 2999)])
    def test_every_field_bit_for_bit_in_any_read_order(self, order, first, cuts):
        # one field of each group read in turn, the records one after the other
        chunks = np.split(_samples_with_a_constant_channel(np.float32), cuts, axis=1)
        refs = _eager_records(_widened(chunks))
        assert refs[0].m2[2] == 0 and np.isnan(refs[0].nu1[2])  # the constant channel
        ts = _fold_chunks(chunks)
        for rec in (first, "pooled" if first == "per_channel" else "per_channel"):
            record = getattr(ts, rec)
            for i, field in enumerate(order, 1):
                getattr(record, field)  # pass 2 folds only once one of its fields is read
                assert _folded(record) == ({1, 2} if _PASS_2 & set(order[:i]) else {1})
            assert _folded(record) == {1, 2}
            _same_bits(record, refs[rec == "pooled"], batches=len(chunks))

    def test_records_asked_at_once_equal_records_read(self):
        chunks = np.split(_samples_with_a_constant_channel(np.float32), (1, 700, 2999), axis=1)
        asked, read = _fold_chunks(chunks), _fold_chunks(chunks)
        fold_records([asked.per_channel, asked.pooled], higher=True)
        for rec in ("per_channel", "pooled"):
            assert _folded(getattr(asked, rec)) == {1, 2}
            _same_bits(getattr(asked, rec), getattr(read, rec))

    @pytest.mark.parametrize("records", [("per_channel",), ("pooled",), ("per_channel", "pooled"),
                                         ("pooled", "per_channel")])
    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("length", [7, 8, 9, 127, 128, 129, 3000, 8191, 8193])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_record_read_in_full_folds_each_power_sum_once(self, dtype, length, strided,
                                                             records):
        # pass 1 and pass 2 each rebuild y and y**2 of a chunk, and no more:
        # every other pass over a chunk is made once, and once for both
        # records of a tensor; only the absolute moments, whole-array passes
        # over one deviation array, are each record's own. Rows about numpy's
        # pairwise sum blocks (8 and 128 terms) and its 8192-term buffer; a
        # strided chunk is channel_major's view of an [N, C, 1, 1] tensor,
        # such as an avgpool output, of strides (s, C s)
        data = _samples_with_a_constant_channel(dtype, length)
        if strided:
            data = channel_major(np.ascontiguousarray(data.T)[:, :, None, None])
        assert data.flags.c_contiguous != strided
        chunk = data.view(_PassCounter)
        chunk.passes = passes = Counter()
        folds = profiling._Folds(lambda names, kept: [(0, name, chunk) for name in names
                                                      if name not in kept], 0)
        count = np.full(data.shape[0], data.shape[1], dtype=np.int64)
        refs = _eager_records(_widened([data]))
        for rec in records:
            _same_bits(profiling._record(folds, "x", count, rec == "pooled"), refs[rec == "pooled"])
        # a further record of the tensor reads the sums already folded
        _same_bits(profiling._record(folds, "x", count, False), refs[0])
        read = len(records) + 1  # the records read in full, the further one too
        assert passes == {"minimum.reduce": 1, "maximum.reduce": 1,  # the extremes
                          "subtract.__call__": 2 + read,  # y, once a pass; x - mean a record
                          "multiply.__call__": 2 + MAX_ORDER - 2,  # y**2 twice, y**3..y**6
                          "absolute.__call__": read,
                          "power.__call__": 2 * read,  # |x - mean|**3 and **5
                          # one sum per order 1..6; three a record
                          "add.reduce": MAX_ORDER + 3 * read}

    @pytest.mark.parametrize("cuts", [(), (0,), (1500,), (0, 700, 700, 2999)])
    @pytest.mark.parametrize("calls", [1, 2])
    def test_the_kept_batch_folds_the_bits_of_a_re_run(self, cuts, calls):
        # pass 1 and pass 2 in one call or two; over 1, 2 and 3 batches, empty
        # ones among them; against the oracle and, every field bit for bit,
        # against pass 2 re-running the last batch as well
        chunks = np.split(_samples_with_a_constant_channel(np.float32), cuts, axis=1)
        batches = [c for c in chunks if c.size]
        refs = _eager_records(_widened(batches))
        rerun = _fold_chunks(chunks)
        fold_records([rerun.per_channel, rerun.pooled])
        rerun.pooled._fold[0].kept.clear()
        fold_records([rerun.per_channel, rerun.pooled], higher=True)
        ts = _fold_chunks(chunks)
        folds = ts.pooled._fold[0]
        if calls == 2:
            fold_records([ts.per_channel, ts.pooled])
            assert list(folds.kept) == ["x"]
        fold_records([ts.per_channel, ts.pooled], higher=True)
        assert folds.kept == {}
        for rec in ("per_channel", "pooled"):
            _same_bits(getattr(ts, rec), refs[rec == "pooled"], batches=len(batches))
            _same_bits(getattr(ts, rec), getattr(rerun, rec))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stats_from_samples(self, dtype):
        data = _samples_with_a_constant_channel(dtype)
        for row in data:
            _same_bits(stats_from_samples(row), _eager_records([row[None].astype(np.float64)])[0])

    @pytest.mark.parametrize("cuts", [(), (5,)])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_every_record_of_every_arch(self, arch, cuts):
        spec = SynthSpec(arch=arch, channels=4, image_size=8, samples=12,
                         input_scale_span_bits=3.0, input_family="heavy", seed=2)
        g = build_graph(spec)
        x, _ = gen_dataset(g, spec)
        batches = np.split(x, cuts)
        stats = collect_stats(g, batches)
        refs = _engine_records(g, batches)
        assert set(stats) == set(refs)
        for name, ts in stats.items():
            _same_bits(ts.per_channel, refs[name][0], batches=len(batches))
            _same_bits(ts.pooled, refs[name][1], batches=len(batches))
