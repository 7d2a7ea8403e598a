"""Integer engine tests: hand-traced datapaths, oracle equivalence, replay."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chanq import graph, qengine, tensorops
from chanq.cli import main
from chanq.fixedpoint import code_range, rounding_shift
from chanq.graph import Graph, GraphError, LayerSpec, execute_float, validate
from chanq.planner import (MODES, LayerPlan, PlanError, QuantPlan, TensorFormat, check_plan,
                           solve_plan)
from chanq.profiling import collect_stats
from chanq.qengine import (
    QuantizedGraph,
    SqnrAccumulator,
    dequantize_tensor,
    execute_quantized,
    load_quantized,
    quantize_params,
    quantize_tensor,
    save_quantized,
)
from chanq.synthetic import ARCHS, SynthSpec, build_graph, gen_dataset


def _single_conv(w, b, in_dims, attrs=None):
    node = LayerSpec("c0", "conv", ["x"], ["y"], attrs=attrs or {"stride": 1, "pad": 0},
                     params={"weight": "c0.weight", "bias": "c0.bias"})
    return validate(Graph("x", in_dims, [node],
                          {"c0.weight": np.asarray(w, np.float32),
                           "c0.bias": np.asarray(b, np.float32)}))


def _sqnr(float_acts, codes, plan):
    """SQNR report of one batch over the tensors both runs captured."""
    acc = SqnrAccumulator(plan)
    for name in float_acts.keys() & codes.keys():
        acc.update(name, float_acts[name], codes[name])
    return acc.report()


def _manual_plan(g, tensor_fls, layer):
    """Assemble a plan by hand for datapath tracing."""
    plan = QuantPlan(mode="cw_max", bit_width=8)
    for name, (fls, signed) in tensor_fls.items():
        fls = np.asarray(fls, dtype=np.int64)
        plan.tensors[name] = TensorFormat(fls=fls, signed=np.full(len(fls), signed))
    plan.layers["c0"] = layer
    return plan


class TestQuantizeParams:
    def test_weight_code_examples(self):
        g = _single_conv(np.full((1, 1, 1, 1), 0.5), [1.0], (1, 1, 2, 2))
        from chanq.planner import LayerPlan

        lp = LayerPlan(ker_fl=np.array([[6]]), bias_fl=np.array([7]),
                       shift=np.array([0]), comp_shift=np.array([[0]]),
                       ker_fl_layerwise=6)
        plan = _manual_plan(g, {"x": ([7], True), "y": ([7], True)}, lp)
        qg = quantize_params(g, plan)
        assert qg.kernels["c0"][0, 0, 0, 0] == 32  # 0.5 at fl 6
        assert qg.biases["c0"][0] == 128  # 1.0 at fl 7

    def test_edge_weight_no_saturation(self):
        g = _single_conv(np.full((1, 1, 1, 1), 127.0 / 64.0), [0.0], (1, 1, 1, 1))
        from chanq.planner import LayerPlan

        lp = LayerPlan(ker_fl=np.array([[6]]), bias_fl=np.array([6]),
                       shift=np.array([0]), comp_shift=np.array([[0]]),
                       ker_fl_layerwise=6)
        plan = _manual_plan(g, {"x": ([0], True), "y": ([0], True)}, lp)
        qg = quantize_params(g, plan)
        assert qg.kernels["c0"].ravel()[0] == 127

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        g = _single_conv(rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2), (1, 2, 5, 5))
        stats = collect_stats(g, [rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
                                  for _ in range(4)])
        plan = solve_plan(g, stats, "cw_max")
        qg1 = quantize_params(g, plan)
        # re-quantizing the dequantized parameters reproduces the codes
        g2 = validate(Graph("x", g.input_dims, g.nodes, {
            "c0.weight": (qg1.kernels["c0"] *
                          2.0 ** -plan.layers["c0"].ker_fl[:, :, None, None]).astype(np.float32),
            "c0.bias": (qg1.biases["c0"] *
                        2.0 ** -plan.layers["c0"].bias_fl.astype(np.float64)).astype(np.float32),
        }))
        qg2 = quantize_params(g2, plan)
        np.testing.assert_array_equal(qg1.kernels["c0"], qg2.kernels["c0"])
        np.testing.assert_array_equal(qg1.biases["c0"], qg2.biases["c0"])


class TestDatapath:
    def test_identity_conv_codes_pass_through(self):
        g = _single_conv(np.ones((1, 1, 1, 1)), [0.0], (1, 1, 3, 3))
        from chanq.planner import LayerPlan

        # w=1.0 at ker fl 0 -> code 1; ifm fl 6 -> bias fl 6; ofm fl 6 -> shift 0
        lp = LayerPlan(ker_fl=np.array([[0]]), bias_fl=np.array([6]),
                       shift=np.array([0]), comp_shift=np.array([[0]]),
                       ker_fl_layerwise=0)
        plan = _manual_plan(g, {"x": ([6], True), "y": ([6], True)}, lp)
        qg = quantize_params(g, plan)
        x = np.linspace(-1, 1, 9, dtype=np.float32).reshape(1, 1, 3, 3)
        res = execute_quantized(qg, x, capture={"y"})
        want = quantize_tensor(x, plan.tensors["x"], 8)
        np.testing.assert_array_equal(res.captured["y"].astype(np.int64), want)

    def test_single_mac_hand_trace(self):
        # ifm code 32 (fl 6), ker code 16 (fl 5): acc 512 at fl 11,
        # shift 2 -> 128 -> saturates to 127
        g = _single_conv(np.full((1, 1, 1, 1), 16 * 2.0**-5), [0.0], (1, 1, 1, 1))
        from chanq.planner import LayerPlan

        lp = LayerPlan(ker_fl=np.array([[5]]), bias_fl=np.array([11]),
                       shift=np.array([2]), comp_shift=np.array([[0]]),
                       ker_fl_layerwise=5)
        plan = _manual_plan(g, {"x": ([6], True), "y": ([9], True)}, lp)
        qg = quantize_params(g, plan)
        assert qg.kernels["c0"].ravel()[0] == 16
        res = execute_quantized(qg, np.full((1, 1, 1, 1), 0.5, np.float32), capture={"y"})
        assert res.captured["y"].ravel()[0] == 127

    def test_zero_input_gives_shifted_bias(self):
        g = _single_conv(np.ones((1, 1, 1, 1)), [1.0], (1, 1, 2, 2))
        from chanq.planner import LayerPlan

        lp = LayerPlan(ker_fl=np.array([[4]]), bias_fl=np.array([8]),
                       shift=np.array([3]), comp_shift=np.array([[0]]),
                       ker_fl_layerwise=4)
        plan = _manual_plan(g, {"x": ([4], True), "y": ([5], True)}, lp)
        qg = quantize_params(g, plan)
        res = execute_quantized(qg, np.zeros((1, 1, 2, 2), np.float32), capture={"y"})
        # bias code 256 at fl 8, shift 3 -> 32 at fl 5 -> dequantizes to 1.0
        assert np.all(res.captured["y"] == 32)
        np.testing.assert_allclose(res.output, 1.0)


def _layerwise_reference(x_codes, w_codes, b_codes, shift, out_lo, out_hi, stride=1, pad=0):
    """Independent all-loops single-fl integer conv (the layer-wise oracle)."""
    n, ci, h, w = x_codes.shape
    co, _, kh, kw = w_codes.shape
    ph = pw = pad
    xp = np.zeros((n, ci, h + 2 * ph, w + 2 * pw), dtype=np.int64)
    xp[:, :, ph : ph + h, pw : pw + w] = x_codes
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    out = np.zeros((n, co, oh, ow), dtype=np.int64)
    for b in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    acc = int(b_codes[o])
                    for c in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                acc += int(xp[b, c, i * stride + u, j * stride + v]) * int(
                                    w_codes[o, c, u, v])
                    if shift > 0:
                        q, r = divmod(acc, 2**shift)
                        half = 2 ** (shift - 1)
                        if r > half or (r == half and q % 2 == 1):
                            q += 1
                        acc = q
                    elif shift < 0:
                        acc <<= -shift
                    out[b, o, i, j] = min(max(acc, out_lo), out_hi)
    return out


class TestLayerwiseOracle:
    def test_engine_matches_reference_on_shared_fl_layers(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            h = int(rng.integers(k, k + 4))
            w_arr = rng.normal(0, 0.4, size=(co, ci, k, k)).astype(np.float32)
            b_arr = rng.normal(0, 0.2, size=co).astype(np.float32)
            g = _single_conv(w_arr, b_arr, (1, ci, h, h))
            fl_in, fl_k, fl_out = (int(v) for v in rng.integers(2, 7, 3))
            from chanq.planner import LayerPlan

            lp = LayerPlan(ker_fl=np.full((co, ci), fl_k), bias_fl=np.full(co, fl_k + fl_in),
                           shift=np.full(co, fl_k + fl_in - fl_out),
                           comp_shift=np.zeros((co, ci), dtype=np.int64),
                           ker_fl_layerwise=fl_k)
            plan = _manual_plan(g, {"x": ([fl_in] * ci, True), "y": ([fl_out] * co, True)}, lp)
            qg = quantize_params(g, plan)
            x = rng.normal(0, 1.0, size=(2, ci, h, h)).astype(np.float32)
            res = execute_quantized(qg, x, capture={"y"})
            x_codes = quantize_tensor(x, plan.tensors["x"], 8)
            want = _layerwise_reference(x_codes, qg.kernels["c0"], qg.biases["c0"],
                                        fl_k + fl_in - fl_out, -128, 127)
            np.testing.assert_array_equal(res.captured["y"].astype(np.int64), want)


class TestCompensationShifts:
    def test_products_shifted_individually(self):
        # clamped kernel fls compensate with a per-channel right shift of
        # each partial sum before accumulation
        from chanq.fixedpoint import rounding_shift
        from chanq.planner import LayerPlan

        rng = np.random.default_rng(6)
        w = rng.normal(0, 0.5, size=(2, 2, 2, 2)).astype(np.float32)
        b = rng.normal(0, 0.2, size=2).astype(np.float32)
        g = _single_conv(w, b, (1, 2, 4, 4))
        ker_fl = np.array([[5, 6], [6, 5]])
        comp = np.array([[2, 5], [1, 2]])
        ifm = np.array([4, 6])
        bias_fl = ker_fl + ifm[None, :] - comp
        assert (bias_fl == bias_fl[:, :1]).all()  # aligned by construction
        lp = LayerPlan(ker_fl=ker_fl, bias_fl=bias_fl[:, 0],
                       shift=bias_fl[:, 0] - 5, comp_shift=comp, ker_fl_layerwise=5)
        plan = _manual_plan(g, {"x": (ifm, True), "y": ([5, 5], True)}, lp)
        qg = quantize_params(g, plan)
        x = rng.normal(0, 1, size=(1, 2, 4, 4)).astype(np.float32)
        res = execute_quantized(qg, x, capture={"y"})

        # direct per-product reference
        x_codes = quantize_tensor(x, plan.tensors["x"], 8)
        out = np.zeros((1, 2, 3, 3), dtype=np.int64)
        for j in range(2):
            for oi in range(3):
                for oj in range(3):
                    acc = int(qg.biases["c0"][j])
                    for i in range(2):
                        for u in range(2):
                            for v in range(2):
                                prod = int(x_codes[0, i, oi + u, oj + v]) * int(
                                    qg.kernels["c0"][j, i, u, v])
                                acc += int(rounding_shift(prod, int(comp[j, i])))
                    acc = int(rounding_shift(acc, int(lp.shift[j])))
                    out[0, j, oi, oj] = min(max(acc, -128), 127)
        np.testing.assert_array_equal(res.captured["y"].astype(np.int64), out)


class TestAccumulatorSaturation:
    def test_a_layer_over_the_bound_counts_and_clips(self):
        # bias code 2**31 - 1 (1.0 at fl 31) plus max|x| * sum|k| = 127 * 100:
        # every lane with a positive product leaves the int32 range
        g = _single_conv(np.full((1, 1, 1, 1), 100.0), [1.0], (1, 1, 2, 3))
        lp = LayerPlan(ker_fl=np.array([[0]]), bias_fl=np.array([31]), shift=np.array([7]),
                       comp_shift=np.array([[0]]), ker_fl_layerwise=0)
        qg = quantize_params(g, _manual_plan(g, {"x": ([31], True), "y": ([24], True)}, lp))
        assert qg.biases["c0"].tolist() == [2**31 - 1]
        x = np.array([127, 1, 0, -1, -128, 64], np.float32).reshape(1, 1, 2, 3) * 2.0**-31
        res = execute_quantized(qg, x, capture={"y"})
        assert res.saturation == {"c0": 3}
        assert res.captured["y"].ravel().tolist() == [127] * 6
        _check_layers_against_oracle(qg, x)


def _toy_net_and_data(seed=3, arch="hetero_conv"):
    from chanq.synthetic import SynthSpec, build_graph, gen_dataset

    spec = SynthSpec(arch=arch, in_channels=4, channels=4, image_size=8,
                     samples=32, scale_span_bits=3.0, seed=seed)
    g = build_graph(spec)
    x, _ = gen_dataset(g, spec)
    stats = collect_stats(g, [x[i] for i in range(16)])
    return g, x, stats


class TestAvgPoolRounding:
    @pytest.mark.parametrize("window", [(1, 1), (2, 2), (2, 3), (3, 3)],
                             ids=lambda w: f"{w[0]}x{w[1]}")
    @pytest.mark.parametrize("lo, hi", [(-20, 20), (-(2**15), 2**16 - 1)], ids=["small", "wide"])
    def test_window_mean_is_half_even(self, window, lo, hi):
        # small codes make exact ties common; wide ones span signed and unsigned 16-bit codes
        wh, ww = window
        rng = np.random.default_rng([wh, ww, hi.bit_length()])
        x = rng.integers(lo, hi + 1, size=(2, 3, 6, 6)).astype(np.float64)
        node = LayerSpec("p0", "avgpool", ["x"], ["y"], attrs={"window": list(window)})
        got = qengine._run_pool(node, x)
        assert got.shape == (2, 3, 6 // wh, 6 // ww)
        for n, c, i, j in np.ndindex(got.shape):
            total = int(x[n, c, i * wh:(i + 1) * wh, j * ww:(j + 1) * ww].sum())
            assert got[n, c, i, j] == round(Fraction(total, wh * ww))  # round() is half-even


class TestExecutionProperties:
    def test_bit_exact_replay(self):
        g, x, stats = _toy_net_and_data()
        plan = solve_plan(g, stats, "cw_max")
        qg = quantize_params(g, plan)
        cap = set(g.activation_names())
        r1 = execute_quantized(qg, x[:8], capture=cap)
        r2 = execute_quantized(qg, x[:8], capture=cap)
        for name in cap:
            assert r1.captured[name].tobytes() == r2.captured[name].tobytes()
        assert r1.output.tobytes() == r2.output.tobytes()

    def test_wider_accumulated_precision_raises_sqnr(self):
        # 16-bit operands under the same plan logic beat 8-bit per tensor
        g, x, stats = _toy_net_and_data()
        reports = {}
        for bw in (8, 16):
            plan = solve_plan(g, stats, "cw_max", bit_width=bw)
            qg = quantize_params(g, plan)
            cap = set(g.activation_names())
            ref, acts = execute_float(g, x[:16], capture=cap)
            res = execute_quantized(qg, x[:16], capture=cap)
            reports[bw] = _sqnr(acts, res.captured, plan)
        for name in reports[8]:
            lo = reports[8][name]["pooled"]
            hi = reports[16][name]["pooled"]
            if np.isfinite(lo) and np.isfinite(hi):
                assert hi > lo

    def test_residual_and_concat_archs_run(self, monkeypatch):
        for arch in ("residual", "concat", "depthwise"):
            g, x, stats = _toy_net_and_data(seed=5, arch=arch)
            plan = solve_plan(g, stats, "cw_max")
            qg = quantize_params(g, plan)
            names = g.activation_names()
            ref, acts = execute_float(g, x[:8], capture=names)
            res = execute_quantized(qg, x[:8], capture=names)
            assert res.output.shape == ref.shape
            agree = np.mean(np.argmax(ref, 1) == np.argmax(res.output, 1))
            assert agree >= 0.5
            assert list(plan.tensors) == list(g.shapes) == names

            # each engine's per-node step is looked up through its module at
            # every node, so a wrapper set there (a timer, say) sees them all
            calls, walked = [], []

            def counting(engine, step):
                def run_node(node, *args):
                    calls.append((engine, node.name))
                    return step(node, *args)
                return run_node

            def recording(walk):
                def walk_recorded(*args):
                    values = walk(*args)
                    walked.append(list(values))
                    return values
                return walk_recorded

            monkeypatch.setattr(graph, "_run_node", counting("float", graph._run_node))
            monkeypatch.setattr(qengine, "_run_node", counting("int", qengine._run_node))
            monkeypatch.setattr(graph, "walk", recording(graph.walk))
            ref2, acts2 = execute_float(g, x[:8], capture=names)
            res2 = execute_quantized(qg, x[:8], capture=names)
            monkeypatch.undo()
            order = [n.name for n in g.nodes]
            assert calls == [("float", n) for n in order] + [("int", n) for n in order]
            assert walked == [names, names]
            assert ref2.tobytes() == ref.tobytes() and res2.output.tobytes() == res.output.tobytes()
            assert res2.saturation == res.saturation
            for got, want in ((acts2, acts), (res2.captured, res.captured)):
                assert list(got) == list(want) == names
                assert all(got[t].tobytes() == want[t].tobytes() for t in names)

    @pytest.mark.parametrize("shape", [(4, 8, 8), (2, 4, 7, 7), (2, 2, 8, 8)],
                             ids=["one-sample", "7x7", "2-channel"])
    @pytest.mark.parametrize("engine", ["float", "int"])
    def test_a_batch_of_another_shape_is_rejected(self, engine, shape):
        g, _, stats = _toy_net_and_data()  # hetero_conv, input [N, 4, 8, 8]
        qg = quantize_params(g, solve_plan(g, stats, "cw_max"))
        x = np.ones(shape, np.float32)
        with pytest.raises(GraphError, match=re.escape(
                f"input shape {shape} incompatible with graph input {g.shapes[g.input_name]}")):
            execute_float(g, x) if engine == "float" else execute_quantized(qg, x)

    def test_dump_of_a_concat_of_signed_and_unsigned_channels_keeps_the_signs(self):
        # conv -> relu (unsigned) and conv (signed) concatenated: one tensor, both kinds
        def conv(name, out):
            return LayerSpec(name, "conv", ["x"], [out], attrs={"stride": 1, "pad": 0},
                             params={"weight": f"{name}.weight", "bias": f"{name}.bias"})
        rng = np.random.default_rng(14)
        g = validate(Graph("x", (1, 2, 5, 5), [
            conv("ca", "t0"), LayerSpec("r0", "relu", ["t0"], ["t1"]), conv("cb", "t2"),
            LayerSpec("cat", "concat", ["t1", "t2"], ["t3"])],
            {f"{n}.{p}": rng.normal(size=shape).astype(np.float32)
             for n in ("ca", "cb") for p, shape in (("weight", (2, 2, 3, 3)), ("bias", (2,)))}))
        x = rng.normal(size=(16, 2, 5, 5)).astype(np.float32)
        plan = solve_plan(g, collect_stats(g, [x]), "cw_max")
        assert plan.tensors["t3"].signed.tolist() == [False, False, True, True]
        res = execute_quantized(quantize_params(g, plan), x, capture={"t1", "t2", "t3"})
        assert res.captured["t3"].dtype == np.int32
        assert (res.captured["t2"] < 0).any()
        np.testing.assert_array_equal(res.captured["t3"], np.concatenate(
            [res.captured["t1"].astype(np.int32), res.captured["t2"]], axis=1))
        _, acts = execute_float(g, x, capture={"t2", "t3"})
        db = _sqnr(acts, res.captured, plan)
        np.testing.assert_array_equal(db["t3"]["per_channel"][2:], db["t2"]["per_channel"])

    def test_save_load_quantized_roundtrip(self, tmp_path):
        g, x, stats = _toy_net_and_data()
        plan = solve_plan(g, stats, "cw_laplace")
        qg = quantize_params(g, plan)
        save_quantized(qg, tmp_path / "plan.json", tmp_path / "q.bin")
        qg2 = load_quantized(g, tmp_path / "plan.json", tmp_path / "q.bin")
        for name in qg.kernels:
            np.testing.assert_array_equal(qg.kernels[name], qg2.kernels[name])
            np.testing.assert_array_equal(qg.biases[name], qg2.biases[name])
        r1 = execute_quantized(qg, x[:4])
        r2 = execute_quantized(qg2, x[:4])
        assert r1.output.tobytes() == r2.output.tobytes()


def _one_channel_sqnr(x, codes, fl=0):
    """(per-channel dB, pooled dB) of one signed channel at fractional length fl."""
    plan = QuantPlan("cw_max", 8, tensors={"t": TensorFormat(np.array([fl]), np.array([True]))})
    acc = SqnrAccumulator(plan)
    acc.update("t", np.asarray(x, np.float64)[:, None], np.asarray(codes)[:, None])
    rep = acc.report()["t"]
    assert rep["per_channel"].shape == (1,)
    return float(rep["per_channel"][0]), rep["pooled"]


class TestSqnrReport:
    def test_exact_match_is_inf(self):
        assert _one_channel_sqnr([1.0, 2.0], [1, 2]) == (np.inf, np.inf)

    def test_zero_estimate_is_zero_db(self):
        per, pooled = _one_channel_sqnr([1.0, -1.0, 1.0], [0, 0, 0])
        assert per == pytest.approx(0.0) and pooled == pytest.approx(0.0)

    def test_twenty_db_example(self):
        # error one tenth of the signal: 10*log10(100) dB
        per, pooled = _one_channel_sqnr([5.0] * 4, [18] * 4, fl=2)
        assert per == pytest.approx(20.0) and pooled == pytest.approx(20.0)

    def test_zero_signal_sentinel(self):
        per, pooled = _one_channel_sqnr([0.0] * 3, [1] * 3)
        assert np.isnan(per) and np.isnan(pooled)

    def test_report_shapes(self):
        g, x, stats = _toy_net_and_data()
        plan = solve_plan(g, stats, "cw_max")
        qg = quantize_params(g, plan)
        cap = {"t1"}
        ref, acts = execute_float(g, x[:4], capture=cap)
        res = execute_quantized(qg, x[:4], capture=cap)
        rep = _sqnr(acts, res.captured, plan)
        assert rep["t1"]["per_channel"].shape == (4,)
        assert np.isfinite(rep["t1"]["pooled"])


# ---------------------------------------------------------------------------
# The int64 datapath the float64 engine replaced, kept as its oracle
# ---------------------------------------------------------------------------

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


def _int64_epilogue(acc, bias_codes, lp, out_fmt, bit_width):
    """:func:`qengine._finish_accumulator` on int64: add the bias, saturate
    to int32 (counting clipped lanes), ``rounding_shift``, clip."""
    cshape = qengine._channel_shape(acc.ndim)
    acc = np.asarray(acc, dtype=np.int64) + bias_codes.reshape(cshape)
    clipped = int(np.count_nonzero((acc < INT32_MIN) | (acc > INT32_MAX)))
    acc = rounding_shift(np.clip(acc, INT32_MIN, INT32_MAX), lp.shift.reshape(cshape))
    lo, hi = code_range(bit_width, out_fmt.signed)
    return np.clip(acc, lo.reshape(cshape), hi.reshape(cshape)), clipped


def _div_half_even(acc: np.ndarray, divisor: int) -> np.ndarray:
    """Integer division of int64 ``acc``, rounded half to even."""
    # floor division, then round up past the half and on odd ties
    q = acc // divisor
    r = acc - q * divisor
    q = q + (2 * r > divisor)
    ties = 2 * r == divisor
    return q + (ties & ((q & 1) == 1))


class TestInt64Oracle:
    def test_saturate_counts(self):
        c = 3
        lp = LayerPlan(ker_fl=np.zeros((c, 1), np.int64), bias_fl=np.zeros(c, np.int64),
                       shift=np.zeros(c, np.int64), comp_shift=np.zeros((c, 1), np.int64),
                       ker_fl_layerwise=0)
        fmt = TensorFormat(fls=np.zeros(c, np.int64), signed=np.full(c, True))
        acc, clipped = _int64_epilogue(np.array([[2**40, -5, 3]]), np.zeros(c, np.int64), lp,
                                       fmt, 32)
        assert clipped == 1
        assert acc.tolist() == [[2**31 - 1, -5, 3]]


def _oracle_conv(node, codes_in, qg):
    """Integer conv/depthwise layer: one product array per (out, in) pair,
    each rounding-shifted by its compensation shift, summed in int64."""
    from chanq.tensorops import _windows

    lp = qg.plan.layers[node.name]
    ker = qg.kernels[node.name]
    win = _windows(codes_in, ker.shape[2], ker.shape[3],
                   node.attr_pair("stride", 1), node.attr_pair("pad", 0))
    n, oh, ow = win.shape[0], win.shape[2], win.shape[3]
    acc = np.zeros((n, ker.shape[0], oh, ow), dtype=np.int64)
    for j in range(ker.shape[0]):
        for i in range(ker.shape[1]):
            src = i if node.kind == "conv" else j  # depthwise pairs channel j with itself
            prods = win[:, src] * ker[j, i]  # [N, H', W', Kh, Kw]
            acc[:, j] += rounding_shift(prods, int(lp.comp_shift[j, i])).sum(axis=(3, 4))
    out_fmt = qg.plan.tensors[node.outputs[0]]
    return _int64_epilogue(acc, qg.biases[node.name], lp, out_fmt, qg.plan.bit_width)


def _oracle_fc(node, codes_in, qg):
    lp = qg.plan.layers[node.name]
    ker = qg.kernels[node.name]  # [U, D]
    x = codes_in.reshape(codes_in.shape[0], -1)
    shifts = lp.comp_shift[:, lp.in_groups]  # [U, D]
    acc = np.zeros((x.shape[0], ker.shape[0]), dtype=np.int64)
    for u in range(ker.shape[0]):
        acc[:, u] = rounding_shift(x * ker[u][None, :], shifts[u][None, :]).sum(axis=1)
    out_fmt = qg.plan.tensors[node.outputs[0]]
    return _int64_epilogue(acc, qg.biases[node.name], lp, out_fmt, qg.plan.bit_width)


def _check_layers_against_oracle(qg, x) -> int:
    """Run the engine, then replay every conv/fc layer through the oracle on
    the captured input codes; returns the number of shifted pairs seen."""
    g, plan = qg.graph, qg.plan
    res = execute_quantized(qg, x, capture=g.activation_names())
    codes = {g.input_name: quantize_tensor(x, plan.tensors[g.input_name],
                                           plan.bit_width).astype(np.int64)}
    codes.update({k: v.astype(np.int64) for k, v in res.captured.items()})
    shifted = 0
    for node in g.nodes:
        if node.kind not in graph.LINEAR_KINDS:
            continue
        oracle = _oracle_fc if node.kind == "fc" else _oracle_conv
        want, clipped = oracle(node, codes[node.inputs[0]], qg)
        np.testing.assert_array_equal(codes[node.outputs[0]], want, err_msg=node.name)
        assert res.saturation[node.name] == clipped, node.name
        shifted += int((plan.layers[node.name].comp_shift > 0).sum())
    return shifted


class TestGroupedMacOracle:
    @pytest.mark.parametrize("arch", ["classifier", "hetero_conv", "homogeneous", "residual",
                                      "concat", "depthwise"])
    def test_codes_and_saturation_match_per_pair_loop(self, arch):
        from chanq.synthetic import SynthSpec, build_graph, gen_dataset

        spec = SynthSpec(arch=arch, in_channels=3, channels=4, image_size=8, samples=12,
                         scale_span_bits=4.0, input_scale_span_bits=4.0, seed=2)
        g = build_graph(spec)
        x, _ = gen_dataset(g, spec)
        stats = collect_stats(g, [x])
        # cw_pdf_aware reads the family classifier that ships for each width
        shifted = 0
        for bw in (8, 16):
            for mode in MODES:
                qg = quantize_params(g, solve_plan(g, stats, mode, bit_width=bw))
                shifted += _check_layers_against_oracle(qg, x)
        assert shifted > 0  # the compensation path ran

    def test_sixteen_bit_extremes_are_exact(self):
        # unsigned 16-bit codes up to 65535 against kernels down to -32768:
        # products near 2**31, rounded in rows where shifted
        rng = np.random.default_rng(11)
        m, o, i, t = 5, 3, 8, 32
        x = rng.integers(2**16 - 4096, 2**16, size=(m, i, t))
        x[0] = 2**16 - 1
        ker = rng.integers(-(2**15), -(2**15) + 4096, size=(o, i, t))
        ker[1, :, ::2] = -(2**15)
        comp = rng.integers(0, 3, size=(o, i))
        comp[0] = 0  # one output channel takes the GEMM path alone
        comp[1:, :4] = [[1, 16, 31, 32], [2, 30, 33, 64]]  # -32768 * 65535 rounds to -1 at 31
        acc = qengine._grouped_mac(x.astype(np.float64).transpose(1, 2, 0), 2, ker, comp)
        assert acc.dtype == np.float64
        assert acc.tolist() == [[float(v) for v in row] for row in _pair_oracle(x, ker, comp)]

    def test_16_bit_fc_extremes_match_oracle(self):
        rng = np.random.default_rng(12)
        fc = LayerSpec("f0", "fc", ["x"], ["y"], params={"weight": "f0.weight", "bias": "f0.bias"})
        w = rng.normal(0, 0.5, size=(3, 256))
        w[:, :64:3] = -10.0  # clips to kernel code -32768
        g = validate(Graph("x", (1, 4, 8, 8), [fc], {
            "f0.weight": w.astype(np.float32),
            "f0.bias": rng.normal(0, 0.1, size=3).astype(np.float32)}))
        ifm = np.array([12, 13, 14, 12])
        ker_fl = np.array([[15, 11, 12, 12]] * 3)
        comp = np.array([[3, 0, 2, 0]] * 3)
        bias_fl = ker_fl[0] + ifm - comp[0]
        assert (bias_fl == bias_fl[0]).all()
        plan = QuantPlan(mode="cw_max", bit_width=16)
        plan.tensors["x"] = TensorFormat(fls=ifm, signed=np.full(4, False))
        plan.tensors["y"] = TensorFormat(fls=np.full(3, 6), signed=np.full(3, True))
        plan.layers["f0"] = LayerPlan(
            ker_fl=ker_fl, bias_fl=np.full(3, bias_fl[0]), shift=np.full(3, bias_fl[0] - 6),
            comp_shift=comp, ker_fl_layerwise=13, in_groups=np.repeat(np.arange(4), 64))
        qg = quantize_params(g, plan)
        assert qg.kernels["f0"].min() == -(2**15)
        x = np.abs(rng.normal(0, 4.0, size=(6, 4, 8, 8))).astype(np.float32)
        x[:, 0, 0] = 100.0  # clips to input code 65535
        assert quantize_tensor(x, plan.tensors["x"], 16).max() == 2**16 - 1
        assert _check_layers_against_oracle(qg, x) > 0


class TestFanInBound:
    """check_plan admits a linear layer only while its 16-bit sums stay exact
    in float64: (2**16 - 1) * 2**15 * F + 2**31 < 2**53, so F <= 4,194,367."""

    @staticmethod
    def _fc(in_dims):
        d = int(np.prod(in_dims[1:]))
        w = np.full((1, d), -1.0, np.float32)  # kernel code -32768 at fl 15
        w[0, ::2] = -32767 / 32768  # odd products: a sum past 2**53 would lose them
        fc = LayerSpec("f0", "fc", ["x"], ["y"], params={"weight": "f0.weight", "bias": "f0.bias"})
        g = validate(Graph("x", in_dims, [fc], {"f0.weight": w,
                                                "f0.bias": np.full(1, -1.0, np.float32)}))
        plan = QuantPlan(mode="cw_max", bit_width=16, tensors={
            "x": TensorFormat(fls=np.array([0]), signed=np.array([False])),
            "y": TensorFormat(fls=np.array([0]), signed=np.array([True]))})
        plan.layers["f0"] = LayerPlan(
            ker_fl=np.array([[15]]), bias_fl=np.array([15]), shift=np.array([15]),
            comp_shift=np.array([[0]]), ker_fl_layerwise=15, in_groups=np.zeros(d, np.int64))
        return g, plan

    def test_widest_fc_is_exact(self):
        g, plan = self._fc((1, 1, 53, 79139))  # F = 4,194,367
        qg = quantize_params(g, plan)
        x = np.full((1, 1, 53, 79139), 65535.0, np.float32)
        x[..., 1::4] = 65533.0
        codes = quantize_tensor(x, plan.tensors["x"], 16)
        acc = qengine._grouped_mac(codes.reshape(1, 1, -1).transpose(1, 2, 0), 2,
                                   qg.kernels["f0"][:, None], np.zeros((1, 1), np.int64))
        want = sum(int(c) * int(k) for c, k in zip(codes.ravel().tolist(),
                                                    qg.kernels["f0"].ravel().tolist()))
        assert -(2**53) < want < -(2**52)
        assert acc.ravel().tolist() == [float(want)]
        _check_layers_against_oracle(qg, x)

    def test_one_wider_is_rejected(self):
        g, plan = self._fc((1, 1, 64, 65537))  # F = 4,194,368
        with pytest.raises(PlanError, match="fan-in 4194368 exceeds 4194367"):
            check_plan(g, plan)


class TestBlockSplitting:
    """Blocks of im2col columns, split inside a sample or one column each,
    give the bits of the default blocking in both engines."""

    @pytest.mark.parametrize("arch", ARCHS)
    def test_bits_do_not_depend_on_block_size(self, monkeypatch, arch):
        spec = SynthSpec(arch=arch, in_channels=3, channels=4, image_size=8, samples=3,
                         scale_span_bits=4.0, input_scale_span_bits=4.0, seed=2)
        g = build_graph(spec)
        x, _ = gen_dataset(g, spec)
        stats = collect_stats(g, [x])
        # both widths' plans round compensated products in rows of each block
        qgs = [quantize_params(g, solve_plan(g, stats, "cw_max", bit_width=bw)) for bw in (8, 16)]
        assert any((lp.comp_shift > 0).any() for lp in qgs[1].plan.layers.values())
        names = g.activation_names()

        def run():
            _, acts = execute_float(g, x, capture=names)
            return ([acts[n].tobytes() for n in names]
                    + [execute_quantized(qg, x, capture=names).captured[n].tobytes()
                       for qg in qgs for n in names])

        want = run()
        windowed = [n for n in g.nodes if n.kind in ("conv", "depthwise_conv")]
        # columns of one sample: at least K of the first output channel by H' * W'
        assert min(g.params[n.params["weight"]][0].size * np.prod(g.shapes[n.outputs[0]][2:])
                   for n in windowed) > 100
        for elems in (1000, 100, 1):
            monkeypatch.setattr(tensorops, "_BLOCK_ELEMS", elems)
            assert run() == want, elems


class TestFcGroupLayout:
    def test_non_contiguous_groups_raise(self):
        # a plan defect: check_plan rejects it, so the engine need not re-check
        g, _, stats = _toy_net_and_data()
        plan = solve_plan(g, stats, "cw_max")
        fc = next(n for n in g.nodes if n.kind == "fc")
        lp = plan.layers[fc.name]
        lp.in_groups = lp.in_groups.reshape(lp.comp_shift.shape[1], -1).T.ravel()  # interleaved
        with pytest.raises(PlanError, match="contiguous blocks"):
            quantize_params(g, plan)

    def test_eval_exits_2_with_one_line(self, tmp_path, capsys):
        import json

        assert main(["gen-synthetic", "--arch", "hetero_conv", "--channels", "4",
                     "--image-size", "8", "--samples", "8", "--seed", "3",
                     "--out", str(tmp_path / "m")]) == 0
        model = ["--model", str(tmp_path / "m" / "model.json")]
        data = ["--dataset", str(tmp_path / "m" / "data.qtsr")]
        assert main(["profile", *model, *data, "--out", str(tmp_path / "s.json")]) == 0
        assert main(["quantize", *model, "--stats", str(tmp_path / "s.json"), "--mode", "cw_max",
                     "--out", str(tmp_path / "q")]) == 0
        plan_path = tmp_path / "q" / "plan.json"
        doc = json.loads(plan_path.read_text())
        fc = next(ld for ld in doc["layers"].values() if ld["in_groups"] is not None)
        fc["in_groups"] = fc["in_groups"][::-1]
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", *model, *data, "--plan", str(plan_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "contiguous blocks" in err


# ---------------------------------------------------------------------------
# The float64 datapath against the int64 oracles
# ---------------------------------------------------------------------------

_ACC_MAX = 2**53 - 2**31  # the largest accumulator the MAC hands the float epilogue


@st.composite
def _epilogue_lane(draw):
    """(accumulator, bias, shift): any lane, a sum on an int32 edge, or a tie."""
    bias = draw(st.integers(INT32_MIN, INT32_MAX))
    kind = draw(st.sampled_from(["any", "edge", "tie"]))
    if kind == "tie":  # the biased sum is an odd multiple of 2**(shift - 1)
        shift = draw(st.integers(1, 31))
        k = draw(st.integers(INT32_MIN >> shift, (INT32_MAX >> shift) - 1))
        return k * 2**shift + 2 ** (shift - 1) - bias, bias, shift
    shift = draw(st.integers(-93, 93))
    if kind == "edge":
        total = draw(st.sampled_from([INT32_MIN - 1, INT32_MIN, INT32_MAX, INT32_MAX + 1]))
        return total - bias, bias, shift
    return draw(st.integers(-_ACC_MAX, _ACC_MAX)), bias, shift


class TestFloatEpilogue:
    @given(lanes=st.lists(_epilogue_lane(), min_size=1, max_size=30),
           signed=st.booleans(), bit_width=st.sampled_from([8, 16]))
    def test_fused_pass_matches_int64_path(self, lanes, signed, bit_width):
        acc, bias, shift = (np.array(v, dtype=np.int64) for v in zip(*lanes))
        c = len(lanes)
        lp = LayerPlan(ker_fl=np.zeros((c, 1), np.int64), bias_fl=np.zeros(c, np.int64),
                       shift=shift, comp_shift=np.zeros((c, 1), np.int64), ker_fl_layerwise=0)
        fmt = TensorFormat(fls=np.zeros(c, np.int64), signed=np.full(c, signed))
        want, want_clipped = _int64_epilogue(acc[None], bias, lp, fmt, bit_width)
        got, clipped = qengine._finish_accumulator(acc[None].astype(np.float64), bias, lp, fmt,
                                                   bit_width)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        assert clipped == want_clipped


class TestFloatAvgPool:
    @pytest.mark.parametrize("window", [(1, 1), (2, 2), (2, 3), (3, 3)],
                             ids=lambda w: f"{w[0]}x{w[1]}")
    @pytest.mark.parametrize("lo, hi", [(-20, 20), (-(2**15), 2**16 - 1)], ids=["small", "wide"])
    def test_rint_of_mean_matches_div_half_even(self, window, lo, hi):
        rng = np.random.default_rng([hi.bit_length(), *window])
        x = rng.integers(lo, hi + 1, size=(2, 3, 6, 6))
        x[0, 0, :window[0], :window[1]] = hi  # a window at the bound
        x[0, 1, :window[0], :window[1]] = lo
        node = LayerSpec("p0", "avgpool", ["x"], ["y"], attrs={"window": list(window)})
        win = tensorops._windows(x, *window, node.pool_stride(), (0, 0))
        want = _div_half_even(tensorops._tap_reduce(win, np.add), window[0] * window[1])
        got = qengine._run_pool(node, x.astype(np.float64))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def _pair_oracle(x, ker, comp):
    """acc[o, m] of :func:`qengine._grouped_mac` from Python integers, x [M, I, T]."""
    return [[sum(int(rounding_shift(int(x[m, i, t]) * int(ker[o, i, t]), int(comp[o, i])))
                 for i in range(x.shape[1]) for t in range(x.shape[2]))
             for m in range(len(x))] for o in range(len(ker))]


def _assert_matches_pair_oracle(x, ker, comp):
    """:func:`qengine._grouped_mac` on x [M, I, T], as an fc-style [I, T, M]
    view, against :func:`_pair_oracle`."""
    acc = qengine._grouped_mac(x.astype(np.float64).transpose(1, 2, 0), 2, ker, comp)
    assert acc.dtype == np.float64
    assert acc.tolist() == [[float(v) for v in row] for row in _pair_oracle(x, ker, comp)]


class TestSplitKernelOracle:
    """Shifted kernel codes split into a GEMM part and shared rounded rows
    give the codes of Python integers through rounding_shift."""

    @pytest.mark.parametrize("bit_width", range(2, 17))
    def test_random_layers(self, bit_width):
        rng = np.random.default_rng(bit_width)
        k_lo, k_hi = -(2 ** (bit_width - 1)), 2 ** (bit_width - 1) - 1
        for _ in range(12):
            m, o, i, t = (int(v) for v in rng.integers(1, 6, size=4))
            # signed and unsigned inputs of the width
            x = rng.integers(k_lo, 2**bit_width, size=(m, i, t))
            ker = rng.integers(k_lo, k_hi + 1, size=(o, i, t))
            ker.flat[::5] = k_lo
            ker.flat[1::7] = k_hi
            comp = rng.integers(0, 2 * bit_width + 3, size=(o, i))
            _assert_matches_pair_oracle(x, ker, comp)

    @pytest.mark.parametrize("shift", [0, 1, 2, 3, 4, 5, 6, 31, 62, 63, 64, 200])
    def test_every_product_at_the_shift(self, shift):
        # one output per kernel code, one input row: each product is checked
        # by itself, and codes k and -k share a row with opposite signs
        s = min(shift, 14)
        ks = {0, 1, -1, 3, -3, 2**15 - 1, -(2**15), 2**15 - 2**s, -(2**15) + 2**s}
        ks |= {sign * (odd << s) for odd in (1, 3, 5) for sign in (1, -1) if odd << s < 2**15}
        if shift <= 6:  # every residue class mod 2**(s+1), on both sides of 0
            ks |= set(range(-(2 ** (s + 2)) - 1, 2 ** (s + 2) + 2))
        ker = np.array(sorted(ks)).reshape(-1, 1, 1)
        xs = [0, 1, -1, 3, -3, 255, -256, 32767, -32768, 65533, 65535]
        x = np.array(xs).reshape(-1, 1, 1)
        comp = np.full((len(ker), 1), shift)
        comp[::11] = 0  # unshifted pairs beside them take the GEMM alone
        _assert_matches_pair_oracle(x, ker, comp)

    def test_ties_at_shift_one(self):
        # odd x * odd k is an odd product: every shifted one lies on a half
        rng = np.random.default_rng(1)
        x = rng.integers(-500, 500, size=(7, 3, 4)) | 1
        ker = rng.integers(-500, 500, size=(5, 3, 4)) | 1
        comp = np.ones((5, 3), np.int64)
        comp[0, 0] = 0
        _assert_matches_pair_oracle(x, ker, comp)

    @pytest.mark.parametrize("elems", [tensorops._BLOCK_ELEMS, 97])
    def test_block_splits_do_not_move_codes(self, monkeypatch, elems):
        # 97 elements hold one column of the widest operand: 50 blocks of one position
        rng = np.random.default_rng(97)
        x = rng.integers(-300, 300, size=(50, 3, 8))
        ker = rng.integers(-300, 300, size=(6, 3, 8))
        comp = rng.integers(0, 5, size=(6, 3))
        _, rows, _, _ = qengine._split_kernel(ker, comp)
        assert 97 // max(3 * 8, len(rows), 6) == 1
        monkeypatch.setattr(tensorops, "_BLOCK_ELEMS", elems)
        _assert_matches_pair_oracle(x, ker, comp)

    def test_exact_taps_round_no_row(self):
        # shifted codes that are multiples of 2**s: q or q + 1 joins the GEMM whole
        rng = np.random.default_rng(5)
        comp = rng.integers(1, 6, size=(4, 3))
        ker = rng.integers(-40, 40, size=(4, 3, 9)) << comp[:, :, None]
        ker[:, :, 0] = 1 << comp  # r = 2**s
        k_gemm, rows, frac, signs = qengine._split_kernel(ker, comp)
        assert len(rows) == len(frac) == signs.shape[1] == 0
        assert (k_gemm == ker >> comp[:, :, None]).all()
        x = rng.integers(-255, 256, size=(6, 3, 9))
        _assert_matches_pair_oracle(x, ker, comp)


class TestFloatPathTaken:
    @pytest.mark.parametrize("bit_width", [8, 16])
    def test_depthwise_layer(self, bit_width):
        rng = np.random.default_rng(bit_width)
        node = LayerSpec("d0", "depthwise_conv", ["x"], ["y"], attrs={"stride": 1, "pad": 1},
                         params={"weight": "d0.weight", "bias": "d0.bias"})
        g = validate(Graph("x", (1, 3, 6, 6), [node], {
            "d0.weight": rng.normal(0, 0.5, size=(3, 1, 3, 3)).astype(np.float32),
            "d0.bias": rng.normal(0, 0.1, size=3).astype(np.float32)}))
        x = (rng.normal(0, 1, size=(4, 3, 6, 6)) * [[[[1.0]], [[8.0]], [[0.1]]]]).astype(np.float32)
        qg = quantize_params(g, solve_plan(g, collect_stats(g, [x]), "cw_max", bit_width=bit_width))
        # the width's extreme codes: unsigned input 2**bw - 1 against kernel -2**(bw - 1)
        qg.plan.tensors["x"].signed[:] = False
        x[:, 0, 1:4, 1:4] = 1e6
        qg.kernels["d0"][:, 0, 1, 1] = -(2 ** (bit_width - 1))
        assert quantize_tensor(x, qg.plan.tensors["x"], bit_width).max() == 2**bit_width - 1
        _check_layers_against_oracle(qg, x)


class TestFloatAdd:
    @given(data=st.data(), bit_width=st.sampled_from([8, 16]), signed=st.booleans())
    def test_alignment_and_output_shift_match_int64_path(self, data, bit_width, signed):
        from types import SimpleNamespace

        c = data.draw(st.integers(1, 4))
        fls = st.lists(st.integers(-31, 31), min_size=c, max_size=c)
        fa, fb, fo = (np.array(data.draw(fls)) for _ in range(3))
        half = 2 ** (bit_width - 1)
        lo, hi = (-half, half - 1) if signed else (0, 2 * half - 1)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a, b = (rng.integers(lo, hi + 1, size=(2, c, 3, 3)) for _ in range(2))
        plan = QuantPlan("cw_max", bit_width, tensors={
            name: TensorFormat(fls=f, signed=np.full(c, signed))
            for name, f in (("a", fa), ("b", fb), ("y", fo))})
        node = LayerSpec("s0", "add", ["a", "b"], ["y"])
        got = qengine._run_add(node, a.astype(np.float64), b.astype(np.float64),
                               SimpleNamespace(plan=plan))
        common = np.minimum(fa, fb)[None, :, None, None]
        total = (rounding_shift(a, fa[None, :, None, None] - common)
                 + rounding_shift(b, fb[None, :, None, None] - common))
        want = np.clip(rounding_shift(total, common - fo[None, :, None, None]), lo, hi)
        np.testing.assert_array_equal(got, want)
