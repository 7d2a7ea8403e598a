"""Plan solving tests: coordination algebra, mode rules, FC policy."""

import numpy as np
import pytest

from chanq.flsolver import train_knn
from chanq.graph import Graph, LayerSpec, validate
from chanq.planner import (
    MODES,
    PlanError,
    coordinate_layer,
    load_plan,
    plan_from_json,
    plan_to_json,
    save_plan,
    solve_plan,
)
from chanq.profiling import collect_stats


class TestCoordinateLayer:
    def test_worked_example(self):
        ker, bias_fl, shift, comp = coordinate_layer([6, 3], [[5, 4]], [5], -31)
        np.testing.assert_array_equal(ker, [[1, 4]])
        np.testing.assert_array_equal(bias_fl, [7])
        np.testing.assert_array_equal(shift, [2])
        assert not comp.any()

    def test_single_input_channel(self):
        ker, bias_fl, shift, comp = coordinate_layer([4], [[6]], [3], -31)
        np.testing.assert_array_equal(ker, [[6]])
        np.testing.assert_array_equal(bias_fl, [10])
        np.testing.assert_array_equal(shift, [7])
        assert not comp.any()

    def test_floor_clamp_with_compensation(self):
        ker, bias_fl, shift, comp = coordinate_layer([6, 3], [[5, 4]], [5], 3)
        np.testing.assert_array_equal(ker, [[3, 4]])
        np.testing.assert_array_equal(comp, [[2, 0]])
        np.testing.assert_array_equal(bias_fl, [7])

    def test_alignment_invariant_randomized(self):
        # adjusted ker fl + ifm fl - comp shift = bias fl; ker >= floor; always
        rng = np.random.default_rng(0)
        for _ in range(1000):
            co = int(rng.integers(1, 17))
            ci = int(rng.integers(1, 17))
            ifm = rng.integers(-4, 13, ci)
            tight = rng.integers(-4, 13, (co, ci))
            ofm = rng.integers(-4, 13, co)
            floor = int(tight.min()) - int(rng.integers(0, 3))
            ker, bias_fl, shift, comp = coordinate_layer(ifm, tight, ofm, floor)
            np.testing.assert_array_equal(ker + ifm[None, :] - comp,
                                          np.broadcast_to(bias_fl[:, None], ker.shape))
            assert (ker >= floor).all()
            assert (comp >= 0).all()
            np.testing.assert_array_equal(shift, bias_fl - ofm)
            # accumulator fl never below the layer-wise adder fl
            lw_adder = floor + ifm.min()
            assert (bias_fl >= lw_adder).all()

    def test_depthwise_pairing(self):
        ifm = np.array([[6], [3]])  # per-output pairing
        ker, bias_fl, shift, comp = coordinate_layer(ifm, [[5], [4]], [5, 5], -31)
        np.testing.assert_array_equal(bias_fl, [11, 7])
        np.testing.assert_array_equal(ker, [[5], [4]])


def _stats_for(g, rng, n=24):
    data = [rng.normal(size=(1,) + tuple(g.input_dims[1:])).astype(np.float32)
            for _ in range(n)]
    return collect_stats(g, data)


def _conv_graph(ci=2, co=2, relu=True, scales=(1.0, 8.0)):
    rng = np.random.default_rng(42)
    w = rng.normal(size=(co, ci, 3, 3)).astype(np.float32)
    w *= np.asarray(scales, np.float32)[:co, None, None, None]
    nodes = [LayerSpec("c0", "conv", ["x"], ["t0"], attrs={"stride": 1, "pad": 0},
                       params={"weight": "c0.weight", "bias": "c0.bias"})]
    if relu:
        nodes.append(LayerSpec("r0", "relu", ["t0"], ["t1"]))
    return validate(Graph("x", (1, ci, 6, 6), nodes,
                          {"c0.weight": w, "c0.bias": np.zeros(co, np.float32)}))


class TestSolvePlanModes:
    def test_layerwise_single_fl_per_tensor(self):
        g = _conv_graph()
        rng = np.random.default_rng(1)
        plan = solve_plan(g, _stats_for(g, rng), "layerwise_max")
        for fmt in plan.tensors.values():
            assert len(set(fmt.fls.tolist())) == 1
            assert fmt.layer_wide

    def test_cw_max_per_channel(self):
        # channel maxima {1, 8} -> signed fls {6, 3}
        conv = LayerSpec("c0", "conv", ["x"], ["t0"], attrs={"stride": 1, "pad": 0},
                         params={"weight": "c0.weight", "bias": "c0.bias"})
        g = validate(Graph("x", (1, 2, 1, 1), [conv],
                           {"c0.weight": np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1),
                            "c0.bias": np.zeros(2, np.float32)}))
        data = [np.array([1.0, 8.0], np.float32).reshape(1, 2, 1, 1),
                np.array([-1.0, -8.0], np.float32).reshape(1, 2, 1, 1)]
        stats = collect_stats(g, data)
        plan = solve_plan(g, stats, "cw_max")
        np.testing.assert_array_equal(plan.tensors["x"].fls, [6, 3])
        plan_lw = solve_plan(g, stats, "layerwise_max")
        np.testing.assert_array_equal(plan_lw.tensors["x"].fls, [3, 3])

    def test_unsigned_iff_relu(self):
        g = _conv_graph(relu=True)
        rng = np.random.default_rng(2)
        plan = solve_plan(g, _stats_for(g, rng), "cw_max")
        assert not plan.tensors["x"].signed.any() is False  # input stays signed
        assert plan.tensors["x"].signed.all()
        assert not plan.tensors["t0"].signed.any()  # consumed by relu only
        assert not plan.tensors["t1"].signed.any()  # produced by relu
        # relu output inherits the conv output's fls
        np.testing.assert_array_equal(plan.tensors["t1"].fls, plan.tensors["t0"].fls)

    def test_missing_stats_rejected(self):
        g = _conv_graph()
        rng = np.random.default_rng(3)
        stats = _stats_for(g, rng)
        del stats["t0"]
        with pytest.raises(PlanError, match="t0"):
            solve_plan(g, stats, "cw_max")

    def test_stats_for_another_model_rejected(self):
        g = _conv_graph()
        stats = _stats_for(_conv_graph(ci=3), np.random.default_rng(3))
        with pytest.raises(PlanError, match="'x'.* 3 channels"):
            solve_plan(g, stats, "cw_max")

    def test_unknown_family_from_knn_rejected(self):
        # a custom classifier may vote a family the solver has no density for
        g = _conv_graph()
        stats = _stats_for(g, np.random.default_rng(4))
        knn = train_knn(np.random.default_rng(5).normal(size=(12, 5)), ["student_t"] * 12)
        with pytest.raises(PlanError, match="tensor 'x': unknown family 'student_t'"):
            solve_plan(g, stats, "cw_pdf_aware", knn_model=knn)

    def test_unknown_mode(self):
        g = _conv_graph()
        with pytest.raises(PlanError):
            solve_plan(g, {}, "bogus")


def _conv_fc_graph():
    rng = np.random.default_rng(7)
    conv = LayerSpec("c0", "conv", ["x"], ["t0"], attrs={"stride": 1, "pad": 0},
                     params={"weight": "c0.weight", "bias": "c0.bias"})
    relu = LayerSpec("r0", "relu", ["t0"], ["t1"])
    fc = LayerSpec("f0", "fc", ["t1"], ["t2"], params={"weight": "f0.weight", "bias": "f0.bias"})
    fc2 = LayerSpec("f1", "fc", ["t2"], ["t3"], params={"weight": "f1.weight", "bias": "f1.bias"})
    scales = np.array([0.2, 1.0, 6.0], np.float32)
    w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32) * scales[:, None, None, None]
    return validate(Graph("x", (1, 2, 6, 6), [conv, relu, fc, fc2], {
        "c0.weight": w,
        "c0.bias": np.zeros(3, np.float32),
        "f0.weight": rng.normal(size=(5, 3 * 4 * 4)).astype(np.float32),
        "f0.bias": np.zeros(5, np.float32),
        "f1.weight": rng.normal(size=(4, 5)).astype(np.float32),
        "f1.bias": np.zeros(4, np.float32),
    }))


class TestFcPolicy:
    def test_fc_output_single_fl(self):
        g = _conv_fc_graph()
        rng = np.random.default_rng(4)
        plan = solve_plan(g, _stats_for(g, rng), "cw_max")
        # conv OFM channel-wise, FC outputs layer-wide
        assert len(set(plan.tensors["t1"].fls.tolist())) > 1
        assert plan.tensors["t2"].layer_wide
        assert len(set(plan.tensors["t2"].fls.tolist())) == 1
        assert plan.tensors["t3"].layer_wide

    def test_fc_after_conv_groups_by_source_channel(self):
        g = _conv_fc_graph()
        rng = np.random.default_rng(5)
        plan = solve_plan(g, _stats_for(g, rng), "cw_max")
        lp = plan.layers["f0"]
        assert lp.in_groups is not None
        assert lp.in_groups.shape == (3 * 4 * 4,)
        np.testing.assert_array_equal(np.unique(lp.in_groups), [0, 1, 2])
        assert lp.ker_fl.shape == (5, 3)
        # alignment across groups
        ifm = plan.tensors["t1"].fls
        np.testing.assert_array_equal(lp.ker_fl + ifm[None, :] - lp.comp_shift,
                                      np.broadcast_to(lp.bias_fl[:, None], lp.ker_fl.shape))

    def test_fc_after_fc_fully_layerwise(self):
        g = _conv_fc_graph()
        rng = np.random.default_rng(6)
        plan = solve_plan(g, _stats_for(g, rng), "cw_max")
        lp = plan.layers["f1"]
        assert lp.ker_fl.shape == (4, 1)
        assert len(set(lp.ker_fl.ravel().tolist())) == 1
        assert len(set(lp.bias_fl.tolist())) == 1


class TestPlanSerialization:
    def test_roundtrip(self, tmp_path):
        g = _conv_fc_graph()
        rng = np.random.default_rng(8)
        plan = solve_plan(g, _stats_for(g, rng), "cw_max")
        save_plan(plan, tmp_path / "p.json")
        loaded = load_plan(tmp_path / "p.json")
        assert loaded.mode == plan.mode and loaded.bit_width == plan.bit_width
        for name, fmt in plan.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name].fls, fmt.fls)
            np.testing.assert_array_equal(loaded.tensors[name].signed, fmt.signed)
            assert loaded.tensors[name].layer_wide == fmt.layer_wide
        for name, lp in plan.layers.items():
            got = loaded.layers[name]
            np.testing.assert_array_equal(got.ker_fl, lp.ker_fl)
            np.testing.assert_array_equal(got.bias_fl, lp.bias_fl)
            np.testing.assert_array_equal(got.shift, lp.shift)
            np.testing.assert_array_equal(got.comp_shift, lp.comp_shift)
        # identical bytes when re-serialized
        save_plan(loaded, tmp_path / "p2.json")
        assert (tmp_path / "p.json").read_bytes() == (tmp_path / "p2.json").read_bytes()

    def test_rejects_bad_version(self):
        with pytest.raises(PlanError):
            plan_from_json({"version": 9})


class TestPlanInvariants:
    def test_alignment_over_modes_and_graphs(self):
        rng = np.random.default_rng(9)
        from chanq.synthetic import SynthSpec, build_graph, gen_dataset

        for arch in ("hetero_conv", "residual", "concat", "depthwise"):
            spec = SynthSpec(arch=arch, in_channels=4, channels=4, image_size=8,
                             samples=16, scale_span_bits=3.0, seed=11)
            g = build_graph(spec)
            x, _ = gen_dataset(g, spec)
            stats = collect_stats(g, [x[i] for i in range(12)])
            for mode in MODES:
                if mode == "cw_pdf_aware":
                    continue  # exercised in acceptance; classifier load is slower
                plan = solve_plan(g, stats, mode)
                for node in g.nodes:
                    if node.name not in plan.layers:
                        continue
                    lp = plan.layers[node.name]
                    fmt_in = plan.tensors[node.inputs[0]]
                    if node.kind == "conv":
                        ifm = fmt_in.fls[None, :]
                    elif node.kind == "depthwise_conv":
                        ifm = fmt_in.fls[:, None]
                    else:
                        ifm = (fmt_in.fls[:1] if fmt_in.layer_wide else fmt_in.fls)[None, :]
                    np.testing.assert_array_equal(lp.ker_fl + ifm - lp.comp_shift,
                                                  np.broadcast_to(lp.bias_fl[:, None],
                                                                  lp.ker_fl.shape))
                    assert (lp.ker_fl >= lp.ker_fl_layerwise).all()
                    out_fls = plan.tensors[node.outputs[0]].fls
                    np.testing.assert_array_equal(lp.shift, lp.bias_fl - out_fls)
