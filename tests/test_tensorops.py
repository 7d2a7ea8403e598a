"""Float reference operation tests: worked examples and oracle equivalences."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chanq import tensorops as ops
from chanq.graph import Graph, GraphError, LayerSpec, execute_float, validate
from chanq.synthetic import ARCHS, SynthSpec, build_graph, gen_dataset


def t(data, shape):
    return np.asarray(data, dtype=np.float32).reshape(shape)


def linear_graph(kind, in_dims, weight, bias, tail=()):
    """Validate a graph of one ``kind`` node "n0" over input "x", with zero
    parameters of the given shapes, and then the nodes ``tail``. The float
    ops trust a validated graph: a shape they cannot take is its to reject."""
    node = LayerSpec("n0", kind, ["x"], ["h"], params={"weight": "n0.weight", "bias": "n0.bias"})
    return validate(Graph("x", in_dims, [node, *tail],
                          {"n0.weight": np.zeros(weight, np.float32),
                           "n0.bias": np.zeros(bias, np.float32)}))


# ---------------------------------------------------------------------------
# Oracles: the einsum and window reductions the GEMM datapath replaced, and
# the exact rounding of a sum of products
# ---------------------------------------------------------------------------

def einsum_conv2d(x, kernel, bias, stride=(1, 1), pad=(0, 0)):
    win = ops._windows(x, kernel.shape[2], kernel.shape[3], stride, pad)
    out = np.einsum("nihwkl,oikl->nohw", win, kernel, dtype=np.float64)
    return (out + bias[None, :, None, None]).astype(np.float32)


def einsum_depthwise(x, kernel, bias, stride=(1, 1), pad=(0, 0)):
    win = ops._windows(x, kernel.shape[2], kernel.shape[3], stride, pad)
    out = np.einsum("nchwkl,ckl->nchw", win, kernel[:, 0], dtype=np.float64)
    return (out + bias[None, :, None, None]).astype(np.float32)


def float64_fc(x, weights, bias):
    x = x.reshape(len(x), -1)
    return (x.astype(np.float64) @ weights.T.astype(np.float64) + bias).astype(np.float32)


def window_pool(x, kind, window, stride=None, pad=(0, 0)):
    win = ops._windows(x, *window, window if stride is None else stride, pad)
    out = win.max(axis=(4, 5)) if kind == "max" else win.sum(axis=(4, 5)) / float(np.prod(window))
    return out.astype(np.float32)


def exact_f32(q: Fraction) -> np.float32:
    """The float32 nearest to q, ties to the even significand."""
    f = np.float32(float(q))
    cands = (np.nextafter(f, np.float32(-np.inf)), f, np.nextafter(f, np.float32(np.inf)))
    return min(cands, key=lambda c: (abs(Fraction(float(c)) - q), int(c.view(np.int32)) & 1))


def exact_sum(c, w, b=0.0) -> Fraction:
    return sum((Fraction(float(a)) * Fraction(float(v)) for a, v in zip(c, w)), Fraction(float(b)))


class TestConv2d:
    def test_single_element(self):
        out = ops.conv2d(t([2.0], (1, 1, 1, 1)), t([3.0], (1, 1, 1, 1)), np.array([1.0]))
        assert out.reshape(()) == 7.0

    def test_sum_of_ones(self):
        out = ops.conv2d(np.ones((1, 1, 2, 2), np.float32), np.ones((1, 1, 2, 2), np.float32),
                         np.zeros(1))
        assert out.reshape(()) == 4.0

    def test_zero_kernel_gives_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        out = ops.conv2d(x, np.zeros((4, 3, 3, 3), np.float32), np.array([1.5, -2.0, 0.0, 3.0]))
        for j, b in enumerate([1.5, -2.0, 0.0, 3.0]):
            assert np.all(out[:, j] == b)

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 6, 6)).astype(np.float32)
        out = ops.conv2d(x, np.ones((1, 1, 1, 1), np.float32), np.zeros(1))
        np.testing.assert_array_equal(out, x)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        # scale in float64 so alpha*x itself carries no rounding
        a = ops.conv2d(3.0 * x.astype(np.float64), k, np.zeros(3))
        b = 3.0 * ops.conv2d(x, k, np.zeros(3))
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-6 * np.abs(b).max())

    def test_stride_and_pad_shapes(self):
        x = np.zeros((1, 1, 7, 9), np.float32)
        out = ops.conv2d(x, np.zeros((1, 1, 3, 3), np.float32), np.zeros(1),
                         stride=(2, 2), pad=(1, 1))
        assert out.shape == (1, 1, 4, 5)

    def test_shape_mismatch(self):
        with pytest.raises(GraphError, match="node n0: conv kernel"):
            linear_graph("conv", (1, 2, 4, 4), (1, 3, 3, 3), 1)

    def test_loop_oracle(self):
        # independent nested-loop cross-correlation
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 5, 6)).astype(np.float32)
        k = rng.normal(size=(4, 3, 2, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        want = np.zeros((2, 4, 4, 4), np.float64)
        for n in range(2):
            for o in range(4):
                for i in range(4):
                    for j in range(4):
                        acc = b[o]
                        for c in range(3):
                            for u in range(2):
                                for v in range(3):
                                    acc += x[n, c, i + u, j + v] * k[o, c, u, v]
                        want[n, o, i, j] = acc
        got = ops.conv2d(x, k, b)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


class TestDepthwise:
    def test_per_channel_scaling(self):
        x = t([5.0, 7.0], (1, 2, 1, 1))
        k = t([1.0, 2.0], (2, 1, 1, 1))
        out = ops.conv2d(x, k, np.zeros(2))
        np.testing.assert_array_equal(out.ravel(), [5.0, 14.0])

    def test_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        k = np.ones((3, 1, 1, 1), np.float32)
        np.testing.assert_array_equal(ops.conv2d(x, k, np.zeros(3)), x)

    def test_zero_kernel_constant_channels(self):
        x = np.ones((1, 2, 3, 3), np.float32)
        out = ops.conv2d(x, np.zeros((2, 1, 1, 1), np.float32), np.array([1.0, 2.0]))
        assert np.all(out[:, 0] == 1.0) and np.all(out[:, 1] == 2.0)

    def test_equals_blockdiag_conv(self):
        # depthwise == conv with a block-diagonal kernel, bit for bit: both
        # sides are the float32 nearest the exact sum
        rng = np.random.default_rng(5)
        for c, stride, _ in itertools.product((1, 2, 3, 5, 8), (1, 2), range(10)):
            x = rng.normal(size=(2, c, 6, 6)).astype(np.float32)
            kd = rng.normal(size=(c, 1, 3, 3)).astype(np.float32)
            b = rng.normal(size=c).astype(np.float32)
            kfull = np.zeros((c, c, 3, 3), np.float32)
            for i in range(c):
                kfull[i, i] = kd[i, 0]
            geometry = (stride, stride), (1, 1)
            np.testing.assert_array_equal(bits(ops.conv2d(x, kd, b, *geometry)),
                                          bits(ops.conv2d(x, kfull, b, *geometry)))

    def test_channel_mismatch(self):
        with pytest.raises(GraphError, match="node n0: depthwise_conv kernel"):
            linear_graph("depthwise_conv", (1, 2, 4, 4), (3, 1, 3, 3), 3)

    @pytest.mark.parametrize("c", [2, 3])
    def test_no_channel_multiplier(self, c):
        # a [2C, 1, Kh, Kw] kernel would give each channel two outputs, which
        # no graph node describes, so neither kind lets one reach an engine
        for kind in ("depthwise_conv", "conv"):
            with pytest.raises(GraphError, match=f"node n0: {kind} kernel"):
                linear_graph(kind, (1, c, 4, 4), (2 * c, 1, 3, 3), 2 * c)


class TestFullyConnected:
    def test_example(self):
        out = ops.fully_connected(t([1.0, 2.0], (1, 2)),
                                  t([1.0, 1.0, 1.0, -1.0], (2, 2)), np.zeros(2))
        np.testing.assert_array_equal(out.ravel(), [3.0, -1.0])

    def test_identity(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        np.testing.assert_array_equal(ops.fully_connected(x, np.eye(3, dtype=np.float32),
                                                          np.zeros(3)), x)

    def test_zero_input_gives_bias(self):
        out = ops.fully_connected(np.zeros((3, 4), np.float32),
                                  np.ones((2, 4), np.float32), np.array([5.0, -1.0]))
        assert np.all(out[:, 0] == 5.0) and np.all(out[:, 1] == -1.0)

    def test_flattens_4d(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        w = np.eye(8, dtype=np.float32)
        out = ops.fully_connected(x, w, np.zeros(8))
        np.testing.assert_array_equal(out.ravel(), np.arange(8))


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(ops.relu(np.array([-1.0, 0.0, 2.0], np.float32)),
                                      [0.0, 0.0, 2.0])

    def test_maxpool(self):
        x = t([1.0, 2.0, 3.0, 4.0], (1, 1, 2, 2))
        out = ops.pool(x, "max", (2, 2), (2, 2))
        assert out.reshape(()) == 4.0

    def test_avgpool_full_window_divisor(self):
        x = t([1.0, 2.0, 3.0, 4.0], (1, 1, 2, 2))
        out = ops.pool(x, "avg", (2, 2), (2, 2))
        assert out.reshape(()) == 2.5
        # padded border still divides by the full window size
        out = ops.pool(x, "avg", (2, 2), (2, 2), pad=(1, 1))
        assert out[0, 0, 0, 0] == 0.25

    def test_add(self):
        np.testing.assert_array_equal(
            ops.add_elementwise(np.array([1.0, 2.0], np.float32),
                                np.array([3.0, 4.0], np.float32)), [4.0, 6.0])

    def test_concat(self):
        a = np.ones((1, 2, 3, 3), np.float32)
        b = np.zeros((1, 1, 3, 3), np.float32)
        out = ops.concat_channels(a, b)
        assert out.shape == (1, 3, 3, 3)
        assert np.all(out[:, :2] == 1) and np.all(out[:, 2] == 0)

    def test_add_shape_mismatch(self):
        add = LayerSpec("a1", "add", ["x", "h"], ["y"])
        with pytest.raises(GraphError, match=r"node a1: add operands differ: \(1, 2\) vs \(1, 3\)"):
            linear_graph("fc", (1, 2), (3, 2), 3, tail=[add])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_results_are_new_float32_arrays(self, dtype):
        # a float64 operand rounds once to float32; no result is a view of an input
        rng = np.random.default_rng(3)
        a, b = (rng.normal(size=(2, 3, 4, 4)).astype(dtype) for _ in range(2))
        kept = a.copy(), b.copy()
        for got, want in ((ops.relu(a), np.maximum(a, 0)), (ops.add_elementwise(a, b), a + b),
                          (ops.concat_channels(a, b), np.concatenate([a, b], axis=1))):
            assert got.dtype == np.float32
            assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
            np.testing.assert_array_equal(bits(got), bits(want.astype(np.float32)))
        assert a.tobytes() == kept[0].tobytes() and b.tobytes() == kept[1].tobytes()


# ---------------------------------------------------------------------------
# Correct rounding of the GEMM datapath
# ---------------------------------------------------------------------------

_BIG = 2.0**30  # +_BIG early and -_BIG last make a float64 sum drop low bits


def midpoint_lanes(rng, lanes, with_bias):
    """Inputs for ``lanes`` dot products of 8 terms whose exact sums lie on a
    float32 rounding midpoint, one float64 ulp beside it, or nearer.

    A lane's terms are v, the half step h from v to the float32 above it,
    d in {0, +-1/4, +-1/2, +-1} float64 ulps of v + h (a quarter or half ulp
    makes the float64 nearest the sum the midpoint itself), +_BIG, three
    zeros (shuffled),
    then -_BIG. Returns (x [lanes, 8], weights [8], bias, exact sums): the
    weights are powers of two and x * weights gives the terms exactly; with
    a bias, -_BIG moves from the last input into the bias.
    """
    v = (rng.uniform(1, 2, lanes) * 2.0 ** rng.integers(-6, 7, lanes)
         * rng.choice([-1, 1], lanes)).astype(np.float32)
    h = (np.nextafter(v, np.float32(np.inf)) - v) / np.float32(2)
    steps = rng.choice([-1, -0.5, -0.25, 0, 0.25, 0.5, 1], lanes)
    d = np.spacing(np.abs(v + h.astype(np.float64))) * steps
    zero = np.zeros(lanes)
    body = rng.permuted(np.stack([v, h, d, np.full(lanes, _BIG), zero, zero, zero], axis=1), axis=1)
    terms = np.concatenate([body, np.full((lanes, 1), -_BIG)], axis=1)
    exact = [sum(map(Fraction, row)) for row in terms.tolist()]
    bias = 0.0
    if with_bias:
        terms[:, -1], bias = 0.0, -_BIG
    pw = 2.0 ** rng.integers(-2, 3, 8)
    x = (terms / pw).astype(np.float32)
    assert (x.astype(np.float64) * pw == terms).all()
    return x, pw.astype(np.float32), bias, exact


def as_windows(x, c):
    """[N*C*A*B, 8] lane inputs as an [N, C, 2A, 4B] image of 2x4 windows, stride (2, 4)."""
    return x.reshape(-1, c, 5, 6, 2, 4).transpose(0, 1, 2, 4, 3, 5).reshape(-1, c, 10, 24)


def bits(a):
    return np.asarray(a, dtype=np.float32).view(np.int32)


class TestCorrectRounding:
    """Each output is the float32 nearest the exact sum of products plus bias."""

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
    def test_fc_on_and_beside_midpoints(self, with_bias):
        x, pw, b, exact = midpoint_lanes(np.random.default_rng(20), 300, with_bias)
        # the second unit doubles and negates every term
        out = ops.fully_connected(x, np.stack([pw, -2 * pw]), np.array([b, -2 * b]))
        want = [[exact_f32(q), exact_f32(-2 * q)] for q in exact]
        np.testing.assert_array_equal(bits(out), bits(want))
        assert (bits(float64_fc(x, np.stack([pw, -2 * pw]), np.array([b, -2 * b])))
                != bits(want)).any()

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
    def test_conv_on_and_beside_midpoints(self, with_bias):
        x, pw, b, exact = midpoint_lanes(np.random.default_rng(21), 300, with_bias)
        kernel = np.stack([pw, -2 * pw]).reshape(2, 1, 2, 4)
        out = ops.conv2d(as_windows(x, 1), kernel, np.array([b, -2 * b]), stride=(2, 4))
        q = np.array(exact, dtype=object).reshape(-1, 1, 5, 6)
        want = np.concatenate([np.vectorize(exact_f32)(q), np.vectorize(exact_f32)(-2 * q)], axis=1)
        np.testing.assert_array_equal(bits(out), bits(want))

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
    def test_depthwise_on_and_beside_midpoints(self, with_bias):
        x, pw, b, exact = midpoint_lanes(np.random.default_rng(22), 360, with_bias)
        kernel = np.tile(pw.reshape(1, 1, 2, 4), (3, 1, 1, 1))
        out = ops.conv2d(as_windows(x, 3), kernel, np.full(3, b), stride=(2, 4))
        want = np.vectorize(exact_f32)(np.array(exact, dtype=object).reshape(-1, 3, 5, 6))
        np.testing.assert_array_equal(bits(out), bits(want))
        assert (bits(einsum_depthwise(as_windows(x, 3), kernel, np.full(3, b), stride=(2, 4)))
                != bits(want)).any()

    def test_fixup_settles_a_lane_float64_rounds_onto_a_tie(self):
        # float64 drops the 2**-60 in any order and lands on the midpoint
        # 1 + 2**-24, which ties to 1.0; the exact sum lies above it
        x, w = t([1.0, 2.0**-24, 2.0**-60], (1, 3)), np.ones((1, 3), np.float32)
        assert float64_fc(x, w, np.zeros(1))[0, 0] == 1.0
        assert ops.fully_connected(x, w, np.zeros(1))[0, 0] == np.float32(1 + 2.0**-23)
        k = t([1.0, 1.0, 1.0], (1, 3, 1, 1))
        assert ops.conv2d(x.reshape(1, 3, 1, 1), k, np.zeros(1)).item() == np.float32(1 + 2.0**-23)
        # the same sum with 1.0 as the bias: the products alone are exact, the bias add is not
        out = ops.fully_connected(x[:, 1:], w[:, 1:], np.ones(1))
        assert out[0, 0] == np.float32(1 + 2.0**-23)


    def test_only_unsettled_lanes_take_the_exact_sum(self, monkeypatch):
        calls = []
        nearest = ops._nearest_f32
        monkeypatch.setattr(ops, "_nearest_f32", lambda *a: calls.append(a) or nearest(*a))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        kernel = rng.normal(size=(5, 3, 3, 3)).astype(np.float32)
        ops.conv2d(x, kernel, rng.normal(size=5).astype(np.float32))
        assert calls == []  # every lane of every block settled
        self.test_fixup_settles_a_lane_float64_rounds_onto_a_tie()
        assert len(calls) == 3  # the one lane of each of its three engine calls


_F32 = st.floats(-2.0**20, 2.0**20, width=32)


@settings(max_examples=400, deadline=None)
@given(c=arrays(np.float32, st.integers(1, 10), elements=_F32), data=st.data())
def test_lanes_the_bound_settles_are_exact(c, data):
    w = data.draw(arrays(np.float32, len(c), elements=_F32))
    b = np.float32(data.draw(_F32))
    # three more terms put the sum on the float32 midpoint above it, within
    # 2**-72 of the gap; a fourth optionally steps a fraction of a float64 ulp off
    s = exact_sum(c, w, b)
    f = exact_f32(s)
    gap = (Fraction(float(f)) + Fraction(float(np.nextafter(f, np.float32(np.inf))))) / 2 - s
    nudge = []
    for _ in range(3):
        nudge.append(np.float32(float(gap - sum(map(Fraction, map(float, nudge)), Fraction(0)))))
    step = data.draw(st.sampled_from([0, -1, -0.5, -0.25, 0.25, 0.5, 1]))
    nudge.append(np.float32(step * np.spacing(abs(float(s + gap)))))
    c = np.append(c, np.array(nudge, np.float32) * data.draw(st.sampled_from([0, 1])))
    w = np.append(w, np.ones(4, np.float32))
    want = exact_f32(exact_sum(c, w, b))
    p = c.astype(np.float64) * w
    mag = np.abs(p).sum()
    for order in (p, p[::-1], np.sort(p), p[np.argsort(np.abs(p))[::-1]]):
        y = np.array([np.cumsum(order)[-1] + float(b), order.sum() + float(b)])
        settled = ~ops._unsettled(y, np.full(2, mag), float(b), len(p))
        assert (bits(y[settled]) == bits(want)).all()


class TestLayoutAndOrder:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_einsum_oracles_agree_on_every_arch(self, arch):
        spec = SynthSpec(arch=arch, channels=8, image_size=12, samples=32, seed=4,
                         scale_span_bits=4.0, input_scale_span_bits=4.0)
        g = build_graph(spec)
        x, _ = gen_dataset(g, spec)
        _, acts = execute_float(g, x, capture=g.activation_names())
        checked = set()
        for node in g.nodes:
            xin = acts[node.inputs[0]]
            p = [g.params[node.params[r]] for r in ("weight", "bias")] if node.params else []
            geometry = (node.attr_pair("stride", 1), node.attr_pair("pad", 0))
            if node.kind == "conv":
                want = einsum_conv2d(xin, *p, *geometry)
            elif node.kind == "depthwise_conv":
                want = einsum_depthwise(xin, *p, *geometry)
            elif node.kind == "fc":
                want = float64_fc(xin, *p)
            elif node.kind in ("maxpool", "avgpool"):
                want = window_pool(xin, node.kind[:3], node.attr_pair("window"),
                                   node.pool_stride(), node.attr_pair("pad", 0))
            else:
                continue
            got = acts[node.outputs[0]]
            assert got.flags.c_contiguous, node.name
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=node.name)
            checked.add(node.kind)
        assert {"conv", "fc"} <= checked

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_pool_bits_do_not_depend_on_layout(self, kind):
        x = np.random.default_rng(9).normal(size=(4, 8, 12, 12)).astype(np.float32)
        want = ops.pool(x, kind, (3, 3), (3, 3))
        assert want.tobytes() == window_pool(x, kind, (3, 3)).tobytes()
        fortran = np.asfortranarray(x)
        transposed = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        for y in (fortran, transposed):
            assert ops.pool(y, kind, (3, 3), (3, 3)).tobytes() == want.tobytes()


def test_bits_do_not_depend_on_blas_threads():
    script = (
        "import hashlib\n"
        "from chanq.graph import execute_float\n"
        "from chanq.synthetic import SynthSpec, build_graph, gen_dataset\n"
        "h = hashlib.sha256()\n"
        "for arch in ('classifier', 'residual', 'depthwise'):\n"
        "    spec = SynthSpec(arch=arch, channels=16, image_size=16, samples=32, seed=7)\n"
        "    g = build_graph(spec)\n"
        "    x, _ = gen_dataset(g, spec)\n"
        "    _, acts = execute_float(g, x, capture=g.activation_names())\n"
        "    for name in sorted(acts):\n"
        "        h.update(acts[name].tobytes())\n"
        "print(h.hexdigest())\n"
    )
    src = str(Path(ops.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env=env)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
