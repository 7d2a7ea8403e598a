"""Channel statistics tests: moments, invariances, streaming updates,
records computed on first read."""

import weakref
from dataclasses import fields

import numpy as np
import pytest

from chanq.graph import Graph, LayerSpec, validate
from chanq.planner import MODES, solve_plan
from chanq.profiling import (
    StatsAccumulator,
    collect_stats,
    dump_stats,
    load_stats,
    standardized_moments,
    stats_from_samples,
)
from chanq.synthetic import SynthSpec, build_graph, gen_dataset


def _same_bits(a, b):
    for f in fields(a):
        assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes(), f.name


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
        pooled = acc.pooled().snapshot()
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
        for acc_a, acc_b in ((narrow, wide), (narrow.pooled(), wide.pooled())):
            _same_bits(acc_a.snapshot(), acc_b.snapshot())

    def test_update_keeps_the_callers_chunk_and_gives_the_same_stats(self):
        data = np.arange(24, dtype=np.float32).reshape(2, 12) ** 1.5
        kept, copied = StatsAccumulator(2), StatsAccumulator(2)
        kept.update(data)
        copied.update(data.copy())
        assert kept._chunks[0] is data
        _same_bits(kept.snapshot(), copied.snapshot())

    def test_snapshot_after_every_update_equals_one_at_the_end(self):
        # the fold runs chunk by chunk in arrival order, however often it is asked for
        rng = np.random.default_rng(13)
        chunks = [(rng.laplace(size=(3, m)) * 30 + 500).astype(np.float32) for m in (5, 900, 1, 77)]
        eager, late = StatsAccumulator(3), StatsAccumulator(3)
        for chunk in chunks:
            eager.update(chunk)
            eager.snapshot()
            eager.pooled().snapshot()
            late.update(chunk)
        _same_bits(eager.snapshot(), late.snapshot())
        _same_bits(eager.pooled().snapshot(), late.pooled().snapshot())

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
        g, batches = hetero
        stats = collect_stats(g, batches)
        calls = []
        snapshot = StatsAccumulator.snapshot
        monkeypatch.setattr(StatsAccumulator, "snapshot",
                            lambda acc: calls.append(acc.channels) or snapshot(acc))
        solve_plan(g, stats, mode)
        computed = {(name, rec) for name, ts in stats.items()
                    for rec in ("per_channel", "pooled") if rec in vars(ts)}
        if mode == "layerwise_max":
            expected = {(t, "pooled") for t in ("input", "t1", "t3", "t5")}
        else:
            expected = {(t, "per_channel") for t in ("input", "t1", "t3")} | {("t5", "pooled")}
        assert computed == expected
        assert len(calls) == len(expected) == 4

    def test_samples_are_released_once_both_records_are_read(self, hetero):
        g, batches = hetero
        ts = collect_stats(g, batches)["t1"]
        acc = weakref.ref(ts._acc)
        chunk = weakref.ref(ts._acc._chunks[0])
        ts.pooled
        assert acc() is not None
        ts.per_channel
        assert acc() is None and chunk() is None
        assert ts.per_channel is ts.per_channel  # computed once, then cached
