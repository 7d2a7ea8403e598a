"""Float reference operation tests: worked examples and oracle equivalences."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

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
        out = ops.conv2d(t([2.0], (1, 1, 1, 1)), t([3.0], (1, 1, 1, 1)), np.array([1.0]),
                         (1, 1), (0, 0))
        assert out.reshape(()) == 7.0

    def test_sum_of_ones(self):
        out = ops.conv2d(np.ones((1, 1, 2, 2), np.float32), np.ones((1, 1, 2, 2), np.float32),
                         np.zeros(1), (1, 1), (0, 0))
        assert out.reshape(()) == 4.0

    def test_zero_kernel_gives_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        out = ops.conv2d(x, np.zeros((4, 3, 3, 3), np.float32), np.array([1.5, -2.0, 0.0, 3.0]),
                         (1, 1), (0, 0))
        for j, b in enumerate([1.5, -2.0, 0.0, 3.0]):
            assert np.all(out[:, j] == b)

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 6, 6)).astype(np.float32)
        out = ops.conv2d(x, np.ones((1, 1, 1, 1), np.float32), np.zeros(1), (1, 1), (0, 0))
        np.testing.assert_array_equal(out, x)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        # scale in float64 so alpha*x itself carries no rounding
        a = ops.conv2d(3.0 * x.astype(np.float64), k, np.zeros(3), (1, 1), (0, 0))
        b = 3.0 * ops.conv2d(x, k, np.zeros(3), (1, 1), (0, 0))
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
        got = ops.conv2d(x, k, b, (1, 1), (0, 0))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


class TestDepthwise:
    def test_per_channel_scaling(self):
        x = t([5.0, 7.0], (1, 2, 1, 1))
        k = t([1.0, 2.0], (2, 1, 1, 1))
        out = ops.conv2d(x, k, np.zeros(2), (1, 1), (0, 0))
        np.testing.assert_array_equal(out.ravel(), [5.0, 14.0])

    def test_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        k = np.ones((3, 1, 1, 1), np.float32)
        np.testing.assert_array_equal(ops.conv2d(x, k, np.zeros(3), (1, 1), (0, 0)), x)

    def test_zero_kernel_constant_channels(self):
        x = np.ones((1, 2, 3, 3), np.float32)
        out = ops.conv2d(x, np.zeros((2, 1, 1, 1), np.float32), np.array([1.0, 2.0]),
                         (1, 1), (0, 0))
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
        out = ops.pool(x, "max", (2, 2), (2, 2), (0, 0))
        assert out.reshape(()) == 4.0

    def test_avgpool_full_window_divisor(self):
        x = t([1.0, 2.0, 3.0, 4.0], (1, 1, 2, 2))
        out = ops.pool(x, "avg", (2, 2), (2, 2), (0, 0))
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
        out = ops.conv2d(as_windows(x, 1), kernel, np.array([b, -2 * b]), stride=(2, 4),
                         pad=(0, 0))
        q = np.array(exact, dtype=object).reshape(-1, 1, 5, 6)
        want = np.concatenate([np.vectorize(exact_f32)(q), np.vectorize(exact_f32)(-2 * q)], axis=1)
        np.testing.assert_array_equal(bits(out), bits(want))

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
    def test_depthwise_on_and_beside_midpoints(self, with_bias):
        x, pw, b, exact = midpoint_lanes(np.random.default_rng(22), 360, with_bias)
        kernel = np.tile(pw.reshape(1, 1, 2, 4), (3, 1, 1, 1))
        out = ops.conv2d(as_windows(x, 3), kernel, np.full(3, b), stride=(2, 4), pad=(0, 0))
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
        out = ops.conv2d(x.reshape(1, 3, 1, 1), k, np.zeros(1), (1, 1), (0, 0))
        assert out.item() == np.float32(1 + 2.0**-23)
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
        ops.conv2d(x, kernel, rng.normal(size=5).astype(np.float32), (1, 1), (0, 0))
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


# ---------------------------------------------------------------------------
# The row bound against the per-block bound it replaced
# ---------------------------------------------------------------------------

def _lane(c, w, b):
    return np.asarray(c, np.float64).tobytes(), w.tobytes(), float(b)


def block_bound_lanes(x, kernel, bias, stride=(1, 1), pad=(0, 0)):
    """The lanes the per-block bound sends to the exact sum, as the sorted
    ``_nearest_f32`` arguments: each block of columns gets its own bound
    c_K * (|w| @ |x|) + 3u * |b|, as every block did before the row bound.
    A 4-D ``kernel`` is a conv or depthwise, a 2-D one an fc."""
    if kernel.ndim == 4:
        _, ck, kh, kw = kernel.shape
        w, cols, axis = (kernel.reshape(x.shape[1] // ck, -1, ck * kh * kw),
                         ops._conv_cols(x, kh, kw, stride, pad), 3)
    else:
        w, cols, axis = kernel[None], x.reshape(len(x), -1).T, 1
    g, o, k = w.shape
    w64 = w.astype(np.float64)
    b = np.asarray(bias, np.float64).reshape(g, o, 1)
    lanes = []
    for _, block in ops._col_blocks(cols, axis, g * max(k, o), np.float64):
        block = block.reshape(g, k, -1)
        y = np.matmul(w64, block) + b
        unsettled = ops._unsettled(y, np.matmul(np.abs(w64), np.abs(block)), b, k)
        for i, j, r in zip(*np.nonzero(unsettled & np.isfinite(y))):
            lanes.append(_lane(block[i, :, r], w64[i, j], b[i, j, 0]))
    return sorted(lanes)


def exact_linear(x, kernel, bias, stride=(1, 1), pad=(0, 0)):
    """The float32 nearest each exact sum of products plus bias, lane by lane."""
    if kernel.ndim == 2:
        x = x.reshape(len(x), -1)
        return np.array([[exact_f32(exact_sum(row, wo, bo)) for wo, bo in zip(kernel, bias)]
                         for row in x], np.float32)
    win = ops._windows(x, kernel.shape[2], kernel.shape[3], stride, pad)
    ck = kernel.shape[1]
    out = np.empty((len(x), len(kernel), *win.shape[2:4]), np.float32)
    for n, oc, h, v in np.ndindex(out.shape):
        c0 = oc // (len(kernel) // (x.shape[1] // ck)) * ck  # first input channel of the group
        out[n, oc, h, v] = exact_f32(exact_sum(win[n, c0:c0 + ck, h, v].ravel(),
                                               kernel[oc].ravel(), bias[oc]))
    return out


def engine_lanes(layer, *args):
    """Run ``layer``; returns its output and the sorted arguments of its ``_nearest_f32`` calls."""
    calls, nearest = [], ops._nearest_f32

    def record(c, w, b):
        calls.append(_lane(c, w, b))
        return nearest(c, w, b)

    with mock.patch.object(ops, "_nearest_f32", record):
        return layer(*args), sorted(calls)


# operands that put many exact sums on or beside a float32 rounding midpoint
_TIES = [0.0, 1.0, -1.0, 2.0**-24, -(2.0**-24), 3 * 2.0**-25, 2.0**-60, -(2.0**-60), 2.0**30,
         -(2.0**30), 0.75]


@st.composite
def linear_layers(draw):
    """(kind, x, kernel, bias, geometry) of a small conv, depthwise or fc layer."""
    kind = draw(st.sampled_from(["conv", "depthwise", "fc"]))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    side, kh, kw = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pad = draw(st.sampled_from([(0, 0), (1, 1), (1, 0)]))
    stride = draw(st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    kh, kw = min(kh, side + 2 * pad[0]), min(kw, side + 2 * pad[1])
    elements = st.sampled_from(_TIES)
    if draw(st.booleans()):
        elements |= st.floats(-4, 4, width=32)
    x = draw(arrays(np.float32, (n, c, side, side), elements=elements))
    if kind == "fc":
        shape = (draw(st.integers(1, 4)), c * side * side)
    else:
        shape = (c, 1, kh, kw) if kind == "depthwise" else (draw(st.integers(1, 4)), c, kh, kw)
    kernel = draw(arrays(np.float32, shape, elements=st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0])
                         | st.floats(-2, 2, width=32)))
    bias = draw(arrays(np.float32, len(kernel), elements=st.sampled_from(_TIES)))
    edit = draw(st.sampled_from(["none", "outlier", "zero_channel", "zero_sample"]))
    if edit == "outlier":  # one value 2**20 times its neighbours
        x[0, 0, 0, 0] = np.float32(2.0**20) * max(1.0, float(np.abs(x[0, 0]).max()))
    elif edit == "zero_channel":
        x[:, 0] = 0
    elif edit == "zero_sample":
        x[0] = 0
    return kind, x, kernel, bias, (stride, pad)


def _layer_call(kind, x, kernel, bias, geometry):
    """The engine's (output, exact-sum lanes), the exact output and the per-block lanes."""
    args = (x, kernel, bias) if kind == "fc" else (x, kernel, bias, *geometry)
    layer = ops.fully_connected if kind == "fc" else ops.conv2d
    return engine_lanes(layer, *args), exact_linear(*args), block_bound_lanes(*args)


@settings(max_examples=150, deadline=None)
@given(layer=linear_layers(), block_elems=st.sampled_from([ops._BLOCK_ELEMS, 7, 40]),
       run_blocks=st.sampled_from([1, 2, 4]))
def test_row_bound_sends_the_per_block_lanes_to_the_exact_sum(layer, block_elems, run_blocks):
    # small blocks and runs split layers into several runs and chunks of flagged columns
    with mock.patch.object(ops, "_BLOCK_ELEMS", block_elems), \
            mock.patch.object(ops, "_RUN_ELEMS", run_blocks * block_elems):
        (got, lanes), want, block_lanes = _layer_call(*layer)
    np.testing.assert_array_equal(bits(got), bits(want))
    assert lanes == block_lanes


@pytest.mark.parametrize("kind", ["conv", "depthwise", "fc", "fc_by_sample"])
@pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
def test_midpoint_lanes_reach_the_exact_sum_as_per_block(kind, with_bias):
    # fed one sample at a time, an fc's peaks are its operands' own magnitudes:
    # the row bound is then the per-block bound, with no slack to spare
    x, pw, b, _ = midpoint_lanes(np.random.default_rng(23), 180, with_bias)
    kernel, bias = np.stack([pw, -2 * pw]), np.array([b, -2 * b], np.float32)
    if kind == "conv":
        layers = [(kind, as_windows(x, 1), kernel.reshape(2, 1, 2, 4), bias, ((2, 4), (0, 0)))]
    elif kind == "depthwise":
        layers = [(kind, as_windows(x, 3), np.tile(pw.reshape(1, 1, 2, 4), (3, 1, 1, 1)),
                   np.full(3, b, np.float32), ((2, 4), (0, 0)))]
    else:
        samples = [x] if kind == "fc" else np.split(x, len(x))
        layers = [("fc", sample, kernel, bias, None) for sample in samples]
    exact = 0
    for layer in layers:
        (got, lanes), want, block_lanes = _layer_call(*layer)
        np.testing.assert_array_equal(bits(got), bits(want))
        assert lanes == block_lanes
        exact += len(lanes)
    assert exact > 0


@pytest.mark.parametrize("kind", ["conv", "fc"])
def test_row_bound_is_the_per_block_bound_when_operands_sit_at_their_peaks(kind):
    # one sample whose operands all sit at their channel's peak; the kernel
    # weighs the taps of the two channels unequally. The exact sum lies t
    # bounds above the float32 midpoint v + 2**-17 (the bias carries the
    # offset): the bound settles the lane exactly when t > 1, and a row bound
    # smaller than the per-block bound would settle some t < 1 too
    big, v = 2.0**30, 2.0**7 + 3 * 2.0**-16  # float32, whose step at v is 2**-16
    x = np.array([[[[big, -big]], [[1024 * v, 1024 * v]]]], np.float32)
    kernel = np.array([[[[1, 1]], [[2.0**-10, 0]]]], np.float32)
    n = 6 * 2.0**-53  # (K + 2) u for K = 4
    bound = (2 * big + v) * n / (1 - 2 * n)
    for t in np.arange(0.1, 2, 0.2):
        bias = np.array([2.0**-17 + round(t * bound / 2.0**-40) * 2.0**-40], np.float32)
        layer = ((kind, x, kernel, bias, ((1, 1), (0, 0))) if kind == "conv" else
                 (kind, x.reshape(1, -1), kernel.reshape(1, -1), bias, None))
        (got, lanes), want, block_lanes = _layer_call(*layer)
        np.testing.assert_array_equal(bits(got), bits(want))
        assert lanes == block_lanes and len(lanes) == (t < 1)


@pytest.mark.parametrize("case", ["outlier_conv", "plan_sweep_model"])
def test_conv_memory_stays_near_its_output(case):
    """The float64 sums are settled in runs of bounded size and flagged lanes
    are checked a block of columns at a time, so a conv's transient memory
    does not grow with the batch, even when one outlier flags most lanes."""
    rng = np.random.default_rng(11)
    if case == "outlier_conv":
        x = rng.normal(size=(256, 8, 16, 16)).astype(np.float32)
        x[0, 0, 0, 0] = 2.0**20  # the row bound flags nearly every lane
        layers = [(x, rng.normal(size=(16, 8, 3, 3)).astype(np.float32),
                   rng.normal(size=16).astype(np.float32), (1, 1), (1, 1))]
    else:
        spec = SynthSpec(arch="hetero_conv", channels=16, image_size=12, samples=1024,
                         input_family="heavy", scale_span_bits=4.0, input_scale_span_bits=4.0)
        g = build_graph(spec)
        x, _ = gen_dataset(g, spec)
        _, acts = execute_float(g, x, capture=g.activation_names())
        layers = [(acts[node.inputs[0]], g.params[node.params["weight"]],
                   g.params[node.params["bias"]], node.attr_pair("stride"), node.attr_pair("pad"))
                  for node in g.nodes if node.kind == "conv"]
    tracemalloc.start()
    try:
        for args in layers:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(*args)
            assert tracemalloc.get_traced_memory()[1] - held < 4 * out.nbytes
    finally:
        tracemalloc.stop()


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
            geometry = (node.attr_pair("stride"), node.attr_pair("pad"))
            if node.kind == "conv":
                want = einsum_conv2d(xin, *p, *geometry)
            elif node.kind == "depthwise_conv":
                want = einsum_depthwise(xin, *p, *geometry)
            elif node.kind == "fc":
                want = float64_fc(xin, *p)
            elif node.kind in ("maxpool", "avgpool"):
                want = window_pool(xin, node.kind[:3], node.attr_pair("window"),
                                   node.attr_pair("stride"), node.attr_pair("pad"))
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
        want = ops.pool(x, kind, (3, 3), (3, 3), (0, 0))
        assert want.tobytes() == window_pool(x, kind, (3, 3)).tobytes()
        fortran = np.asfortranarray(x)
        transposed = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        for y in (fortran, transposed):
            assert ops.pool(y, kind, (3, 3), (3, 3), (0, 0)).tobytes() == want.tobytes()


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
