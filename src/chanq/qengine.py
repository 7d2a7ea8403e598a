"""Bit-exact 2- to 16-bit execution: quantized parameters, 32-bit
accumulation, and the per-output-channel shift schedule from the plan.

Integer codes travel between nodes as float64, from the quantized input
to the output: every code, product and sum the engine forms is an
integer below 2**53, so float64 holds it exactly and numpy's BLAS and
ufuncs run on it without casts. Each step keeps that exactness:

- A linear layer's MAC runs over the float engine's im2col column blocks
  (:func:`tensorops._col_blocks`): one grouped GEMM per block, exact under
  :func:`planner.check_plan`'s fan-in bound, which also bounds the bias
  add. Products of compensated pairs are rounded half-even one by one,
  in float32 lanes while max|x| * max|ker| * (T + 1) < 2**24.
- The epilogue is one fused pass: add the bias, count and clip to the
  int32 range, multiply by 2**-shift (a power of two: exact), ``np.rint``
  (half to even), clip to the output range (Jacob et al., arXiv
  1712.05877, with power-of-two scales).
- Average pooling is ``np.rint(sum / (wh * ww))``, addition aligns its
  operands with ``np.rint(v * 2**-s)``; ReLU, max pooling and
  concatenation need no rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# rounding_shift is not called here; perfbench/layers.py wraps qengine.rounding_shift
from .fixedpoint import INT32_MAX, INT32_MIN, rounding_shift  # noqa: F401
from .graph import Graph, GraphError
from .planner import (LayerPlan, PlanError, QuantPlan, TensorFormat, _check_range, check_plan,
                      plan_from_json, plan_to_json)
from .tensorops import _col_blocks, _conv_cols, _tap_reduce, _windows

# Integers below this magnitude, and sums of them, are exact in float32.
_FLOAT32_EXACT = 2**24


@dataclass
class QuantizedGraph:
    graph: Graph
    plan: QuantPlan
    kernels: dict  # node name -> int64 kernel codes, same dims as the float kernel
    biases: dict  # node name -> int64 bias codes [Co]


@dataclass
class QuantRunResult:
    output: np.ndarray  # float32, dequantized final tensor
    captured: dict  # tensor name -> integer codes (compact dtype)
    saturation: dict = field(default_factory=dict)  # node name -> clipped lanes


def _code_bounds(fmt: TensorFormat, bit_width: int):
    lo = np.where(fmt.signed, -(2 ** (bit_width - 1)), 0).astype(np.int64)
    hi = np.where(fmt.signed, 2 ** (bit_width - 1) - 1, 2**bit_width - 1).astype(np.int64)
    return lo, hi


def _channel_shape(arr_ndim: int):
    # broadcast shape placing the channel axis of [C] vectors
    return (1, -1) + (1,) * (arr_ndim - 2)


def quantize_tensor(x: np.ndarray, fmt: TensorFormat, bit_width: int) -> np.ndarray:
    """Quantize a float activation tensor with its per-channel formats;
    the integer codes come as float64."""
    x = np.asarray(x, dtype=np.float64)
    cshape = _channel_shape(x.ndim)
    scale = (2.0 ** fmt.fls.astype(np.float64)).reshape(cshape)
    lo, hi = _code_bounds(fmt, bit_width)
    codes = np.rint(x * scale)
    return np.clip(codes, lo.reshape(cshape), hi.reshape(cshape), out=codes)


def dequantize_tensor(codes: np.ndarray, fmt: TensorFormat) -> np.ndarray:
    cshape = _channel_shape(codes.ndim)
    inv = (2.0 ** -fmt.fls.astype(np.float64)).reshape(cshape)
    return (codes.astype(np.float64) * inv).astype(np.float32)


def compact_codes(codes: np.ndarray, fmt: TensorFormat, bit_width: int) -> np.ndarray:
    """Cast integer codes to the narrowest dump dtype (i8/u8/i32)."""
    if bit_width <= 8:
        return codes.astype(np.int8) if fmt.signed.all() else codes.astype(np.uint8)
    return codes.astype(np.int32)


def quantize_params(g: Graph, plan: QuantPlan) -> QuantizedGraph:
    """Quantize kernels at their adjusted per-channel fls and biases at the
    adder fl (32-bit). Raises PlanError where :func:`check_plan` does."""
    check_plan(g, plan)
    kernels, biases = {}, {}
    bw = plan.bit_width
    kq_lo, kq_hi = -(2 ** (bw - 1)), 2 ** (bw - 1) - 1
    for node in g.nodes:
        if node.kind not in ("conv", "depthwise_conv", "fc"):
            continue
        lp = plan.layers[node.name]
        w = np.asarray(g.params[node.params["weight"]], dtype=np.float64)
        b = np.asarray(g.params[node.params["bias"]], dtype=np.float64)
        if node.kind in ("conv", "depthwise_conv"):
            # ker_fl is [Co, Ci] (conv) or [C, 1] (depthwise)
            scale = 2.0 ** lp.ker_fl.astype(np.float64)
            kcodes = np.rint(w * scale[:, :, None, None])
        else:
            _fc_group_size(node.name, lp, w.shape[1])
            fl_per_elem = lp.ker_fl[:, lp.in_groups]  # [U, D]
            kcodes = np.rint(w * 2.0 ** fl_per_elem.astype(np.float64))
        kernels[node.name] = np.clip(kcodes, kq_lo, kq_hi).astype(np.int64)
        bscale = 2.0 ** lp.bias_fl.astype(np.float64)
        bcodes = np.rint(b * bscale)
        biases[node.name] = np.clip(bcodes, -(2**31), 2**31 - 1).astype(np.int64)
    return QuantizedGraph(graph=g, plan=plan, kernels=kernels, biases=biases)


def _fc_group_size(node_name: str, lp: LayerPlan, d: int) -> int:
    """Elements per input group of an fc plan, whose ``in_groups`` must map
    the D inputs onto its G groups as contiguous blocks of equal size."""
    g_n = lp.comp_shift.shape[1]
    if (g_n == 0 or lp.in_groups is None or d % g_n
            or not np.array_equal(lp.in_groups, np.repeat(np.arange(g_n), d // g_n))):
        raise GraphError(f"plan layer {node_name!r}: fc input groups are not "
                         f"{g_n} contiguous blocks of equal size over {d} inputs")
    return d // g_n


def _finish_accumulator(acc, bias_codes, lp: LayerPlan, out_fmt: TensorFormat, bit_width: int):
    """Add the bias, saturate to int32 (counting clipped lanes), shift into
    the output format with half-even rounding and clip to its range.

    One fused pass over the float64 accumulator: multiplying by 2**-shift
    is exact (|shift| <= 93 keeps it a normal number) and ``np.rint``
    rounds half to even. Returns the float64 codes and the clip count.
    """
    cshape = _channel_shape(acc.ndim)
    lo, hi = _code_bounds(out_fmt, bit_width)
    acc = acc + bias_codes.reshape(cshape)
    clipped = 0
    if acc.min(initial=0) < INT32_MIN or acc.max(initial=0) > INT32_MAX:
        clipped = int(np.count_nonzero((acc < INT32_MIN) | (acc > INT32_MAX)))
        np.clip(acc, INT32_MIN, INT32_MAX, out=acc)
    acc *= (2.0 ** -lp.shift).reshape(cshape)
    np.rint(acc, out=acc)
    return np.clip(acc, lo.reshape(cshape), hi.reshape(cshape), out=acc), clipped


def _abs_max(codes: np.ndarray) -> int:
    return max(int(codes.max(initial=0)), -int(codes.min(initial=0)))


def _grouped_mac(cols: np.ndarray, batch_axis: int, ker: np.ndarray, comp: np.ndarray,
                 x_max: int) -> np.ndarray:
    """Exact grouped integer MAC.

    ``cols`` is a column view of the input codes (see
    :func:`tensorops._col_blocks`) whose operands are I inputs of T taps
    each, for the M output positions at and after ``batch_axis``. ``ker`` is
    [O, I, T] and ``comp`` [O, I] the right shift applied to each product of
    a pair. Returns the accumulator [O, *positions] with

        acc[o, m] = sum_i sum_t round_half_even(x[i, t, m] * ker[o, i, t] / 2**comp[o, i]).

    Unshifted pairs run as one GEMM, with the kernels of shifted pairs
    zeroed. For each tap, the products of the shifted pairs are rounded one
    by one; a one-hot GEMM then adds each pair's sum into its output.
    Under :func:`planner.check_plan`'s fan-in bound every product and
    partial sum, and the bias added later, is an exact integer in the
    float64 accumulator. The shifted products are rounded in float32
    lanes, half the traffic, when max|x| * max|ker| * (T + 1) < 2**24
    bounds each pair's sum.
    """
    o_n, i_n, t_n = ker.shape
    pos = cols.shape[batch_axis:]
    po, pi = np.nonzero(comp)
    p_n = len(po)
    k_gemm = np.where(comp[:, :, None] == 0, ker, 0.0).reshape(o_n, -1)
    scatter = (np.arange(o_n)[:, None] == po).astype(np.float64)  # [O, P] one-hot
    lane_dt = _pair_lane_dtype(x_max, _abs_max(ker), t_n)
    # [T, P, 1]; scaling by 2**-shift is exact, a power of two
    k_pairs = (ker[po, pi].T[:, :, None] * 2.0 ** -comp[po, pi][:, None]).astype(lane_dt)
    acc = np.empty((o_n, int(np.prod(pos))))
    for at, x in _col_blocks(cols, batch_axis, max(i_n * t_n, p_n, o_n), np.float64):
        block = acc[:, at]
        np.matmul(k_gemm, x, out=block)
        if not p_n:
            continue
        xl = x.reshape(i_n, t_n, -1).astype(lane_dt, copy=False)
        part, lane = np.empty((2, p_n, xl.shape[-1]), dtype=lane_dt)
        for t in range(t_n):
            dst = lane if t else part
            np.take(xl[:, t], pi, axis=0, out=dst, mode="clip")
            dst *= k_pairs[t]
            np.rint(dst, out=dst)  # half-even
            if t:
                part += lane
        block += scatter @ part
    return acc.reshape(o_n, *pos)


def _pair_lane_dtype(x_max: int, k_max: int, taps: int):
    """float32 when a pair's rounded products and their sum over ``taps``
    stay exact integers in it, else float64."""
    return np.float32 if x_max * k_max * (taps + 1) < _FLOAT32_EXACT else np.float64


def _run_conv(node, codes_in, qg: QuantizedGraph):
    lp = qg.plan.layers[node.name]
    ker = qg.kernels[node.name]
    co, ci, kh, kw = ker.shape
    cols = _conv_cols(codes_in, kh, kw, node.attr_pair("stride", 1), node.attr_pair("pad", 0))
    if node.kind == "conv":
        acc = _grouped_mac(cols, 3, ker.reshape(co, ci, kh * kw), lp.comp_shift,
                           _abs_max(codes_in))
    else:  # depthwise: no compensation can arise (tight fls never clamp)
        k = ker.reshape(co, 1, kh * kw).astype(np.float64)
        acc = np.empty((co, 1, int(np.prod(cols.shape[3:]))))
        for at, x in _col_blocks(cols, 3, co * kh * kw, np.float64):
            np.matmul(k, x.reshape(co, kh * kw, -1), out=acc[..., at])
    acc = acc.reshape(co, *cols.shape[3:]).transpose(1, 0, 2, 3)  # [N, Co, H', W']
    out_fmt = qg.plan.tensors[node.outputs[0]]
    return _finish_accumulator(acc, qg.biases[node.name], lp, out_fmt, qg.plan.bit_width)


def _run_fc(node, codes_in, qg: QuantizedGraph):
    lp = qg.plan.layers[node.name]
    ker = qg.kernels[node.name]  # [U, D]
    x = codes_in.reshape(codes_in.shape[0], -1)  # NCHW row-major flatten
    u, d = ker.shape
    t = _fc_group_size(node.name, lp, d)
    cols = x.reshape(len(x), d // t, t).transpose(1, 2, 0)  # [G, T, N], a view
    acc = _grouped_mac(cols, 2, ker.reshape(u, d // t, t), lp.comp_shift, _abs_max(x)).T
    out_fmt = qg.plan.tensors[node.outputs[0]]
    return _finish_accumulator(acc, qg.biases[node.name], lp, out_fmt, qg.plan.bit_width)


def _run_pool(node, codes_in):
    wh, ww = node.attr_pair("window")
    win = _windows(codes_in, wh, ww, node.pool_stride(), node.attr_pair("pad", 0))
    if node.kind == "maxpool":
        return _tap_reduce(win, np.maximum)
    total = _tap_reduce(win, np.add)
    # 16-bit codes keep window sums below 2**52, where the float64 quotient
    # lies on the same side of every half as the exact one (a non-tie is at
    # least 1/(2*wh*ww) from it), and a true tie is exact, so rint rounds
    # the mean half to even
    return np.rint(np.divide(total, wh * ww, out=total), out=total)


def _run_add(node, a, b, qg: QuantizedGraph):
    """Align both operands to the finer common fl of each channel, add, and
    shift into the output format. Codes below 2**53 make every step exact in
    float64: a power-of-two scale, then ``np.rint`` (half to even)."""
    fa = qg.plan.tensors[node.inputs[0]].fls
    fb = qg.plan.tensors[node.inputs[1]].fls
    out_fmt = qg.plan.tensors[node.outputs[0]]
    common = np.minimum(fa, fb)  # per-channel alignment target
    cshape = _channel_shape(a.ndim)

    def shifted(v, shift):
        return np.rint(v * (2.0 ** -shift).reshape(cshape))

    total = shifted(a, fa - common) + shifted(b, fb - common)
    lo, hi = _code_bounds(out_fmt, qg.plan.bit_width)
    return np.clip(shifted(total, common - out_fmt.fls), lo.reshape(cshape), hi.reshape(cshape))


def execute_quantized(qg: QuantizedGraph, x: np.ndarray, capture=()) -> QuantRunResult:
    """Integer forward pass; fully deterministic for identical inputs."""
    g, plan = qg.graph, qg.plan
    capture = set(capture)
    codes = {g.input_name: quantize_tensor(x, plan.tensors[g.input_name], plan.bit_width)}
    saturation = {}
    for node in g.nodes:
        ins = [codes[t] for t in node.inputs]
        if node.kind in ("conv", "depthwise_conv"):
            out, clipped = _run_conv(node, ins[0], qg)
            saturation[node.name] = clipped
        elif node.kind == "fc":
            out, clipped = _run_fc(node, ins[0], qg)
            saturation[node.name] = clipped
        elif node.kind == "relu":
            out = np.maximum(ins[0], 0)
        elif node.kind in ("maxpool", "avgpool"):
            out = _run_pool(node, ins[0])
        elif node.kind == "add":
            out = _run_add(node, ins[0], ins[1], qg)
        elif node.kind == "concat":
            out = np.concatenate(ins, axis=1)
        else:
            raise GraphError(f"node {node.name}: kind {node.kind!r} not executable quantized")
        codes[node.outputs[0]] = out
    captured = {
        name: compact_codes(codes[name], plan.tensors[name], plan.bit_width)
        for name in capture
        if name in codes
    }
    # + 0.0 turns the -0.0 that rint leaves on small negatives into 0.0
    out_f = dequantize_tensor(codes[g.output_name] + 0.0, plan.tensors[g.output_name])
    return QuantRunResult(output=out_f, captured=captured, saturation=saturation)


# ---------------------------------------------------------------------------
# Quantized model files
# ---------------------------------------------------------------------------

def _kernel_dtype(bit_width: int) -> np.dtype:
    """Narrowest little-endian integer that holds kernel codes of the width."""
    return np.dtype("i1" if bit_width <= 8 else "<i2")


def save_quantized(qg: QuantizedGraph, plan_path, blob_path) -> None:
    """Write the plan JSON (with a quantized-parameter index) plus the code blob.

    Kernel codes are stored as int8 up to 8 bits and int16 up to 16 (see
    :func:`_kernel_dtype`), bias codes as int32, little-endian, addressed
    by byte offsets recorded in the plan document.
    """
    kdtype = _kernel_dtype(qg.plan.bit_width)
    blob = bytearray()
    index = {}
    for name in sorted(qg.kernels):
        k = np.ascontiguousarray(qg.kernels[name].astype(kdtype))
        b = np.ascontiguousarray(qg.biases[name].astype("<i4"))
        index[name] = {
            "kernel": {"offset": len(blob), "len": k.nbytes, "dims": list(k.shape)},
        }
        blob.extend(k.tobytes())
        index[name]["bias"] = {"offset": len(blob), "len": b.nbytes, "dims": list(b.shape)}
        blob.extend(b.tobytes())
    doc = plan_to_json(qg.plan)
    doc["qparams"] = index
    Path(plan_path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    Path(blob_path).write_bytes(bytes(blob))


def _read_codes(blob: bytes, ref: dict, dtype, dims: list, what: str) -> np.ndarray:
    dtype = np.dtype(dtype)
    if ref["dims"] != dims:
        raise PlanError(f"{what}: plan stores dims {ref['dims']}, the graph has {dims}")
    n = int(np.prod(dims))
    if ref["len"] != n * dtype.itemsize or ref["offset"] + ref["len"] > len(blob):
        raise PlanError(f"{what}: {ref['len']} bytes at offset {ref['offset']} do not hold "
                        f"{n} {dtype.name} codes in a {len(blob)}-byte blob")
    return np.frombuffer(blob, dtype, count=n, offset=ref["offset"]).reshape(dims).astype(np.int64)


def load_quantized(g: Graph, plan_path, blob_path) -> QuantizedGraph:
    """Reload a quantized model; inverse of :func:`save_quantized`.

    Raises PlanError when the plan or the blob does not fit the graph, or
    a kernel code lies outside the plan's signed bit width.
    """
    doc = json.loads(Path(plan_path).read_text())
    plan = plan_from_json(doc)
    check_plan(g, plan)
    blob = Path(blob_path).read_bytes()
    qparams = doc.get("qparams", {})
    if not isinstance(qparams, dict):
        raise PlanError(f"plan qparams must be an object, got {qparams!r}")
    kernels, biases = {}, {}
    half = 2 ** (plan.bit_width - 1)
    for node in g.nodes:
        if node.kind not in ("conv", "depthwise_conv", "fc"):
            continue
        if node.name not in qparams:
            raise PlanError(f"plan has no quantized parameters for node {node.name!r}")
        dims = list(g.params[node.params["weight"]].shape)
        try:
            ref = qparams[node.name]
            kernels[node.name] = _read_codes(blob, ref["kernel"], _kernel_dtype(plan.bit_width),
                                             dims, f"node {node.name!r} kernel")
            biases[node.name] = _read_codes(blob, ref["bias"], "<i4", dims[:1],
                                            f"node {node.name!r} bias")
        except KeyError as e:
            raise PlanError(f"quantized parameters of node {node.name!r}: "
                            f"missing key {e.args[0]!r}") from None
        except TypeError as e:
            raise PlanError(f"quantized parameters of node {node.name!r}: "
                            f"malformed value ({e})") from None
        # the plan's fan-in bound holds only for codes of its width
        _check_range(f"node {node.name!r}", kernel=(kernels[node.name], -half, half - 1))
    return QuantizedGraph(graph=g, plan=plan, kernels=kernels, biases=biases)


# ---------------------------------------------------------------------------
# Fidelity reporting
# ---------------------------------------------------------------------------

def _db(sig, noise):
    """10*log10(sig / noise); inf where noise is 0, NaN where sig is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 10.0 * np.log10(sig / noise)
    out = np.where(noise == 0, np.inf, out)
    return np.where(sig == 0, np.nan, out)


def sqnr_report(float_acts: dict, quant_acts: dict, plan: QuantPlan) -> dict:
    """Per-tensor, per-channel SQNR in dB for matching capture sets."""
    acc = SqnrAccumulator(plan)
    for name, x in float_acts.items():
        if name in quant_acts:
            acc.update(name, x, quant_acts[name])
    return acc.report()


class SqnrAccumulator:
    """Streaming per-tensor, per-channel signal/noise sums across batches."""

    def __init__(self, plan: QuantPlan):
        self.plan = plan
        self._sig: dict[str, np.ndarray] = {}
        self._noise: dict[str, np.ndarray] = {}

    def update(self, name: str, x: np.ndarray, codes: np.ndarray) -> None:
        xhat = dequantize_tensor(np.asarray(codes), self.plan.tensors[name])
        x = np.asarray(x, dtype=np.float64)
        err = x - xhat
        axes = tuple(i for i in range(x.ndim) if i != 1)
        sig = np.sum(x * x, axis=axes)
        noise = np.sum(err * err, axis=axes)
        if name not in self._sig:
            self._sig[name] = np.zeros_like(sig)
            self._noise[name] = np.zeros_like(noise)
        self._sig[name] += sig
        self._noise[name] += noise

    def report(self) -> dict:
        """``{name: {"per_channel": dB [C], "pooled": dB}}`` over all updates."""
        return {
            name: {"per_channel": _db(sig, self._noise[name]),
                   "pooled": float(_db(sig.sum(), self._noise[name].sum()))}
            for name, sig in self._sig.items()
        }
