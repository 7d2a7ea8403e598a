"""Integer engine tests: hand-traced datapaths, oracle equivalence, replay."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chanq import qengine, tensorops
from chanq.cli import main
from chanq.fixedpoint import rounding_shift
from chanq.flsolver import default_classifier
from chanq.graph import Graph, GraphError, LayerSpec, execute_float, validate
from chanq.planner import MODES, LayerPlan, QuantPlan, TensorFormat, solve_plan
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
    sqnr_report,
)
from chanq.synthetic import ARCHS, SynthSpec, build_graph, gen_dataset


def _single_conv(w, b, in_dims, attrs=None):
    node = LayerSpec("c0", "conv", ["x"], ["y"], attrs=attrs or {"stride": 1, "pad": 0},
                     params={"weight": "c0.weight", "bias": "c0.bias"})
    return validate(Graph("x", in_dims, [node],
                          {"c0.weight": np.asarray(w, np.float32),
                           "c0.bias": np.asarray(b, np.float32)}))


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
    @pytest.mark.parametrize("high", [20, 2**40], ids=["small", "wide"])
    def test_window_mean_is_half_even(self, window, high):
        # small codes make exact ties common; large ones need int64 sums
        wh, ww = window
        rng = np.random.default_rng([wh, ww, high.bit_length()])
        x = rng.integers(-high, high + 1, size=(2, 3, 6, 6))
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
            reports[bw] = sqnr_report(acts, res.captured, plan)
        for name in reports[8]:
            lo = reports[8][name]["pooled"]
            hi = reports[16][name]["pooled"]
            if np.isfinite(lo) and np.isfinite(hi):
                assert hi > lo

    def test_residual_and_concat_archs_run(self):
        for arch in ("residual", "concat", "depthwise"):
            g, x, stats = _toy_net_and_data(seed=5, arch=arch)
            plan = solve_plan(g, stats, "cw_max")
            qg = quantize_params(g, plan)
            ref, _ = execute_float(g, x[:8])
            res = execute_quantized(qg, x[:8])
            assert res.output.shape == ref.shape
            agree = np.mean(np.argmax(ref, 1) == np.argmax(res.output, 1))
            assert agree >= 0.5

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
        rep = sqnr_report(acts, res.captured, plan)
        assert rep["t1"]["per_channel"].shape == (4,)
        assert np.isfinite(rep["t1"]["pooled"])


# ---------------------------------------------------------------------------
# The per-pair loop the grouped MAC replaced, kept as its oracle
# ---------------------------------------------------------------------------

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
    return qengine._finish_accumulator(acc, qg.biases[node.name], lp, out_fmt, qg.plan.bit_width)


def _oracle_fc(node, codes_in, qg):
    lp = qg.plan.layers[node.name]
    ker = qg.kernels[node.name]  # [U, D]
    x = codes_in.reshape(codes_in.shape[0], -1)
    shifts = lp.comp_shift[:, lp.in_groups]  # [U, D]
    acc = np.zeros((x.shape[0], ker.shape[0]), dtype=np.int64)
    for u in range(ker.shape[0]):
        acc[:, u] = rounding_shift(x * ker[u][None, :], shifts[u][None, :]).sum(axis=1)
    out_fmt = qg.plan.tensors[node.outputs[0]]
    return qengine._finish_accumulator(acc, qg.biases[node.name], lp, out_fmt, qg.plan.bit_width)


def _check_layers_against_oracle(qg, x) -> int:
    """Run the engine, then replay every conv/fc layer through the oracle on
    the captured input codes; returns the number of shifted pairs seen."""
    g, plan = qg.graph, qg.plan
    res = execute_quantized(qg, x, capture=g.activation_names())
    codes = {g.input_name: quantize_tensor(x, plan.tensors[g.input_name], plan.bit_width)}
    codes.update({k: v.astype(np.int64) for k, v in res.captured.items()})
    shifted = 0
    for node in g.nodes:
        if node.kind not in ("conv", "depthwise_conv", "fc"):
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
        # the engine sees only fls: the shipped 8-bit family classifier stands
        # in at 16 bits, whose own corpus takes minutes to build
        knn = default_classifier(8)
        shifted = 0
        for bw in (8, 16):
            for mode in MODES:
                qg = quantize_params(g, solve_plan(g, stats, mode, bit_width=bw, knn_model=knn))
                shifted += _check_layers_against_oracle(qg, x)
        assert shifted > 0  # the compensation path ran

    def test_int64_path_is_exact_beyond_float64(self):
        # 24-bit codes: max|x| * max|w| * I * T = 2**23 * 2**23 * 256 >= 2**53,
        # so the MAC must leave float64, whose sums here would drop low bits
        rng = np.random.default_rng(11)
        m, o, i, t = 5, 3, 8, 32
        x = rng.integers(2**23 - 4096, 2**23, size=(m, i, t))
        ker = rng.integers(2**22, 2**23, size=(o, i, t))
        comp = rng.integers(0, 3, size=(o, i))
        comp[0] = 0  # one output channel takes the GEMM path alone
        acc = qengine._grouped_mac(x.transpose(1, 2, 0), 2, ker, comp, int(x.max()))
        want = [[sum(int(rounding_shift(int(x[r, c, k]) * int(ker[u, c, k]), int(comp[u, c])))
                     for c in range(i) for k in range(t)) for u in range(o)] for r in range(m)]
        assert acc.dtype == np.int64
        assert acc.T.tolist() == want
        in_float = x.reshape(m, -1).astype(np.float64) @ ker[0].reshape(-1).astype(np.float64)
        assert in_float.astype(np.int64).tolist() != [row[0] for row in want]

    def test_24_bit_fc_matches_oracle(self):
        rng = np.random.default_rng(12)
        fc = LayerSpec("f0", "fc", ["x"], ["y"], params={"weight": "f0.weight", "bias": "f0.bias"})
        g = validate(Graph("x", (1, 4, 8, 8), [fc], {
            "f0.weight": rng.normal(0, 0.5, size=(3, 256)).astype(np.float32),
            "f0.bias": rng.normal(0, 0.1, size=3).astype(np.float32)}))
        ifm = np.array([20, 21, 22, 20])
        ker_fl = np.array([[23, 19, 20, 20]] * 3)
        comp = np.array([[3, 0, 2, 0]] * 3)
        bias_fl = ker_fl[0] + ifm - comp[0]
        assert (bias_fl == bias_fl[0]).all()
        plan = QuantPlan(mode="cw_max", bit_width=24)
        plan.tensors["x"] = TensorFormat(fls=ifm, signed=np.full(4, True))
        plan.tensors["y"] = TensorFormat(fls=np.full(3, 18), signed=np.full(3, True))
        plan.layers["f0"] = LayerPlan(
            ker_fl=ker_fl, bias_fl=np.full(3, bias_fl[0]), shift=np.full(3, bias_fl[0] - 18),
            comp_shift=comp, ker_fl_layerwise=21, in_groups=np.repeat(np.arange(4), 64))
        qg = quantize_params(g, plan)
        x = rng.normal(0, 2.0, size=(6, 4, 8, 8)).astype(np.float32)
        assert _check_layers_against_oracle(qg, x) > 0


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
        # the 16-bit plan's compensated pairs take float64 lanes, the 8-bit one's float32
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
        g, x, stats = _toy_net_and_data()
        plan = solve_plan(g, stats, "cw_max")
        qg = quantize_params(g, plan)
        fc = next(n for n in g.nodes if n.kind == "fc")
        lp = plan.layers[fc.name]
        lp.in_groups = lp.in_groups.reshape(lp.comp_shift.shape[1], -1).T.ravel()  # interleaved
        with pytest.raises(GraphError, match="contiguous blocks"):
            execute_quantized(qg, x[:2])
        with pytest.raises(GraphError, match="contiguous blocks"):
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
# The float64 datapath against the int64 one
# ---------------------------------------------------------------------------

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
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
        want, want_clipped = qengine._finish_accumulator(acc[None], bias, lp, fmt, bit_width)
        got, clipped = qengine._finish_accumulator(acc[None].astype(np.float64), bias, lp, fmt,
                                                   bit_width)
        assert want.dtype == np.int64 and got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        assert clipped == want_clipped


class TestFloatAvgPool:
    @pytest.mark.parametrize("window", [(1, 1), (2, 2), (2, 3), (3, 3)],
                             ids=lambda w: f"{w[0]}x{w[1]}")
    @pytest.mark.parametrize("high", [20, 2**40], ids=["small", "wide"])
    def test_rint_of_mean_matches_div_half_even(self, window, high):
        rng = np.random.default_rng([high.bit_length(), *window])
        x = rng.integers(-high, high + 1, size=(2, 3, 6, 6))
        x[0, 0, :window[0], :window[1]] = high  # a window at the bound
        node = LayerSpec("p0", "avgpool", ["x"], ["y"], attrs={"window": list(window)})
        want = qengine._run_pool(node, x)  # int64 codes: _div_half_even
        got = qengine._run_pool(node, x.astype(np.float64))
        assert want.dtype == np.int64 and got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def _pair_oracle(x, ker, comp):
    """acc[o, m] of :func:`qengine._grouped_mac` from Python integers, x [M, I, T]."""
    return [[sum(int(rounding_shift(int(x[m, i, t]) * int(ker[o, i, t]), int(comp[o, i])))
                 for i in range(x.shape[1]) for t in range(x.shape[2]))
             for m in range(len(x))] for o in range(len(ker))]


class TestFloat32PairLanes:
    @pytest.mark.parametrize("x_max, k_max, taps, lane", [
        (455, 4097, 8, np.float32),  # x_max * k_max * (T + 1) = 2**24 - 1
        (1024, 2048, 7, np.float64),  # = 2**24
    ], ids=["2^24-1", "2^24"])
    def test_lane_dtype_and_codes(self, monkeypatch, x_max, k_max, taps, lane):
        assert x_max * k_max * (taps + 1) == 2**24 - (lane is np.float32)
        rng = np.random.default_rng(taps)
        m, o, i = 6, 3, 4
        x = rng.integers(-x_max, x_max + 1, size=(m, i, taps))
        x[0], x[1] = x_max, -x_max
        ker = rng.integers(-k_max, k_max + 1, size=(o, i, taps))
        ker[:, 0] = k_max
        ker[1, 1] = k_max - 1  # odd products: halves at a shift of 1
        comp = rng.integers(0, 4, size=(o, i))
        comp[:, :2] = 1
        picked = []
        pick = qengine._pair_lane_dtype
        monkeypatch.setattr(qengine, "_pair_lane_dtype", lambda *a: picked.append(pick(*a))
                            or picked[-1])
        acc = qengine._grouped_mac(x.astype(np.float64).transpose(1, 2, 0), 2, ker, comp, x_max)
        assert picked == [lane]
        assert acc.dtype == np.float64
        assert acc.T.tolist() == [[float(v) for v in row] for row in
                                  np.array(_pair_oracle(x, ker, comp)).T.tolist()]


def _count_int64_calls(monkeypatch) -> list:
    """Record every call the engine makes to its int64 primitives."""
    calls = []
    for name in ("rounding_shift", "saturate_accumulator", "_div_half_even"):
        fn = getattr(qengine, name)
        monkeypatch.setattr(qengine, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    return calls


class TestFloatPathTaken:
    @pytest.mark.parametrize("bit_width", [8, 30])
    def test_depthwise_layer(self, monkeypatch, bit_width):
        # 30-bit codes: max|x| * max|ker| * 9 taps passes 2**53, so the layer runs in int64
        rng = np.random.default_rng(bit_width)
        node = LayerSpec("d0", "depthwise_conv", ["x"], ["y"], attrs={"stride": 1, "pad": 1},
                         params={"weight": "d0.weight", "bias": "d0.bias"})
        g = validate(Graph("x", (1, 3, 6, 6), [node], {
            "d0.weight": rng.normal(0, 0.5, size=(3, 1, 3, 3)).astype(np.float32),
            "d0.bias": rng.normal(0, 0.1, size=3).astype(np.float32)}))
        x = (rng.normal(0, 1, size=(4, 3, 6, 6)) * [[[[1.0]], [[8.0]], [[0.1]]]]).astype(np.float32)
        qg = quantize_params(g, solve_plan(g, collect_stats(g, [x]), "cw_max", bit_width=bit_width))
        calls = _count_int64_calls(monkeypatch)
        execute_quantized(qg, x)
        monkeypatch.undo()
        assert (calls == []) == (bit_width == 8), calls
        _check_layers_against_oracle(qg, x)

    def test_eight_bit_classifier_never_calls_the_int64_primitives(self, monkeypatch):
        # a silent fallback to the int64 path would keep the codes and lose the speed
        from chanq.synthetic import SynthSpec, build_graph, gen_dataset

        spec = SynthSpec(arch="classifier", channels=8, image_size=8, samples=16,
                         input_scale_span_bits=4.0, seed=1)
        g = build_graph(spec)
        x, _ = gen_dataset(g, spec)
        plan = solve_plan(g, collect_stats(g, [x]), "cw_laplace")
        assert sum(int((lp.comp_shift > 0).sum()) for lp in plan.layers.values()) > 0
        qg = quantize_params(g, plan)
        calls = _count_int64_calls(monkeypatch)
        execute_quantized(qg, x)
        assert calls == []


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
