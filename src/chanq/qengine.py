"""Bit-exact 2- to 16-bit execution: quantized parameters, 32-bit
accumulation, and the per-output-channel shift schedule from the plan.

Integer codes travel between nodes as float64, from the quantized input
to the output: every code, product and sum the engine forms is an
integer below 2**53, so float64 holds it exactly and numpy's BLAS and
ufuncs run on it without casts. Each step keeps that exactness:

- Conv, depthwise and fc layers take one path (:func:`_run_linear`): one
  grouped GEMM per block of the float engine's im2col columns
  (:func:`tensorops._col_blocks`), one group per channel on depthwise,
  exact under :func:`planner.check_plan`'s fan-in bound, which also
  bounds the bias add. A compensated product splits into a part that
  joins that GEMM and a row rounded once per (input row, fraction),
  which every output that reads it shares (:func:`_grouped_mac`).
- The epilogue is one fused pass: add the bias, count and clip to the
  int32 range, multiply by 2**-shift (a power of two: exact), ``np.rint``
  (half to even), clip to the output range (Jacob et al., arXiv
  1712.05877, with power-of-two scales).
- Average pooling is ``np.rint(sum / (wh * ww))``, addition aligns its
  operands with ``np.rint(v * 2**-s)``; ReLU, max pooling and
  concatenation need no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# rounding_shift is not called here; perfbench/layers.py wraps qengine.rounding_shift
from .fixedpoint import INT32_MAX, INT32_MIN, code_range, rounding_shift  # noqa: F401
from .graph import LINEAR_KINDS, Graph, GraphError, forward
from .planner import (LayerPlan, PlanError, QuantPlan, TensorFormat, _check_range, check_plan,
                      plan_from_json, plan_to_json)
from .tensorfile import append_array, located, read_array, read_json, write_json
from .tensorops import _col_blocks, _conv_cols, _tap_reduce, _windows


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


def _channel_shape(arr_ndim: int):
    # broadcast shape placing the channel axis of [C] vectors
    return (1, -1) + (1,) * (arr_ndim - 2)


def quantize_tensor(x: np.ndarray, fmt: TensorFormat, bit_width: int) -> np.ndarray:
    """Quantize a float activation tensor with its per-channel formats;
    the integer codes come as float64."""
    x = np.asarray(x, dtype=np.float64)
    cshape = _channel_shape(x.ndim)
    scale = (2.0 ** fmt.fls.astype(np.float64)).reshape(cshape)
    lo, hi = code_range(bit_width, fmt.signed)
    codes = np.rint(x * scale)
    return np.clip(codes, lo.reshape(cshape), hi.reshape(cshape), out=codes)


def dequantize_tensor(codes: np.ndarray, fmt: TensorFormat) -> np.ndarray:
    cshape = _channel_shape(codes.ndim)
    inv = (2.0 ** -fmt.fls.astype(np.float64)).reshape(cshape)
    return (codes.astype(np.float64) * inv).astype(np.float32)


def compact_codes(codes: np.ndarray, fmt: TensorFormat, bit_width: int) -> np.ndarray:
    """Cast integer codes to the narrowest dump dtype: int8 or uint8 up to 8 bits
    when all channels or none are signed, otherwise int32 (tensor files have no int16)."""
    if bit_width <= 8 and fmt.signed.all():
        return codes.astype(np.int8)
    if bit_width <= 8 and not fmt.signed.any():
        return codes.astype(np.uint8)
    return codes.astype(np.int32)


def quantize_params(g: Graph, plan: QuantPlan) -> QuantizedGraph:
    """Quantize kernels at their adjusted per-channel fls and biases at the
    adder fl (32-bit). Raises PlanError where :func:`check_plan` does."""
    check_plan(g, plan)
    kernels, biases = {}, {}
    kq_lo, kq_hi = code_range(plan.bit_width)
    for node in g.nodes:
        if node.kind not in LINEAR_KINDS:
            continue
        lp = plan.layers[node.name]
        w = np.asarray(g.params[node.params["weight"]], dtype=np.float64)
        b = np.asarray(g.params[node.params["bias"]], dtype=np.float64)
        # ker_fl [O, I] scales the kernel's [O, I, T] view (see _run_linear)
        scale = 2.0 ** lp.ker_fl.astype(np.float64)
        kcodes = np.rint(w.reshape(*scale.shape, -1) * scale[:, :, None]).reshape(w.shape)
        kernels[node.name] = np.clip(kcodes, kq_lo, kq_hi).astype(np.int64)
        bscale = 2.0 ** lp.bias_fl.astype(np.float64)
        bcodes = np.rint(b * bscale)
        biases[node.name] = np.clip(bcodes, INT32_MIN, INT32_MAX).astype(np.int64)
    return QuantizedGraph(graph=g, plan=plan, kernels=kernels, biases=biases)


def _finish_accumulator(acc, bias_codes, lp: LayerPlan, out_fmt: TensorFormat, bit_width: int):
    """Add the bias, saturate to int32 (counting clipped lanes), shift into
    the output format with half-even rounding and clip to its range.

    One fused pass over the float64 accumulator: multiplying by 2**-shift
    is exact (|shift| <= 93 keeps it a normal number) and ``np.rint``
    rounds half to even. Returns the float64 codes and the clip count.
    """
    cshape = _channel_shape(acc.ndim)
    lo, hi = code_range(bit_width, out_fmt.signed)
    acc = acc + bias_codes.reshape(cshape)
    clipped = 0
    if acc.min(initial=0) < INT32_MIN or acc.max(initial=0) > INT32_MAX:
        clipped = int(np.count_nonzero((acc < INT32_MIN) | (acc > INT32_MAX)))
        np.clip(acc, INT32_MIN, INT32_MAX, out=acc)
    acc *= (2.0 ** -lp.shift).reshape(cshape)
    np.rint(acc, out=acc)
    return np.clip(acc, lo.reshape(cshape), hi.reshape(cshape), out=acc), clipped


def _split_kernel(ker: np.ndarray, comp: np.ndarray):
    """The operands of :func:`_grouped_mac`: the GEMM kernel [O, I, T] and
    the L rounded rows, as their input rows i * T + t [L], fractions [L]
    and signs [O, L]."""
    k_gemm = ker.astype(np.float64)
    po, pi = np.nonzero(comp)
    s = np.minimum(comp[po, pi], 32)[:, None]  # [P, 1]
    k = ker[po, pi]  # [P, T]
    r = k & ((2 << s) - 1)
    r -= (r > 1 << s) << (s + 1)  # into (-2**s, 2**s]
    r[r == 1 << s] = 0  # an exact product: x * k / 2**s = x * (q + 1)
    k_gemm[po, pi] = (k - r) >> s
    # one row per distinct (i * T + t, |r| * 2**(32 - s)), the fraction's numerator over 2**32
    rp, rt = np.nonzero(r)  # the pair and tap of each rounded product
    key, row = np.unique(((pi[rp] * ker.shape[2] + rt) << 32)
                         | (np.abs(r[rp, rt]) << (32 - s[rp, 0])), return_inverse=True)
    signs = np.zeros((len(ker), len(key)))
    signs[po[rp], row] = np.sign(r[rp, rt])
    return k_gemm, key >> 32, (key & (2**32 - 1)) * 2.0**-32, signs


def _grouped_mac(cols: np.ndarray, batch_axis: int, ker: np.ndarray,
                 comp: np.ndarray) -> np.ndarray:
    """Exact grouped integer MAC.

    ``cols`` is a column view of the input codes (see
    :func:`tensorops._col_blocks`) whose operands are G groups of I inputs
    of T taps each, for the M output positions at and after ``batch_axis``.
    ``ker`` is [O, I, T], output o reading group o // (O/G), and ``comp``
    [O, I] the right shift applied to each product of a pair. The operand
    count gives G: one on conv and fc layers, C on a depthwise layer.
    Returns the accumulator [O, *positions] with

        acc[o, m] = sum_i sum_t round_half_even(x[g, i, t, m] * ker[o, i, t] / 2**comp[o, i]).

    One grouped GEMM, [G, O/G, I*T] @ [G, I*T, m], takes every product
    that needs no rounding; shifted pairs take one group, as
    :func:`planner.check_plan` rejects them on depthwise layers. A shifted
    pair's code k at shift s splits (:func:`_split_kernel`) as
    k = 2**s * q + r with r in (-2**s, 2**s], so q is even and

        rint(x * k / 2**s) = x * q + sign(r) * rint(x * |r| / 2**s):

    half-even rounding commutes with adding an even integer and with
    negation. Where r is 0 or 2**s, x * (k >> s) joins the GEMM whole;
    elsewhere x * q does, and each distinct row rint(x[i, t] * |r| / 2**s)
    is rounded once per block, then added by a second GEMM with an [O, L]
    matrix of signs. Products of 16-bit codes are below 2**31, so shifts
    past 32 are clamped to 32, where every product rounds to 0.
    Where a row exists |q| + 1 <= |k|, so no term exceeds |x * k|: under
    :func:`planner.check_plan`'s fan-in bound every partial sum, and the
    bias added later, is an exact integer in the float64 accumulator.
    """
    o_n, i_n, t_n = ker.shape
    g_n = int(np.prod(cols.shape[:batch_axis])) // (i_n * t_n)
    pos = cols.shape[batch_axis:]
    k_gemm, rows, frac, signs = _split_kernel(ker, comp)
    k_gemm = k_gemm.reshape(g_n, o_n // g_n, -1)
    acc = np.empty((o_n, int(np.prod(pos))))
    grouped = acc.reshape(g_n, o_n // g_n, -1)
    for at, x in _col_blocks(cols, batch_axis, max(g_n * i_n * t_n, len(rows), o_n), np.float64):
        np.matmul(k_gemm, x.reshape(g_n, i_n * t_n, -1), out=grouped[..., at])
        if len(rows):
            xl = x.take(rows, axis=0)
            xl *= frac[:, None]  # exact: a power of two times an integer below 2**48
            acc[:, at] += signs @ np.rint(xl, out=xl)  # half-even
    return acc.reshape(o_n, *pos)


def _run_linear(node, codes_in, qg: QuantizedGraph):
    """A conv, depthwise or fc layer's output codes and clipped lanes: one
    grouped MAC over its column view, then the accumulator's epilogue."""
    lp = qg.plan.layers[node.name]
    ker = qg.kernels[node.name]
    if node.kind == "fc":
        # NCHW row-major flatten; check_plan makes the G input groups contiguous blocks
        x = codes_in.reshape(len(codes_in), lp.comp_shift.shape[1], -1)
        cols, batch_axis = x.transpose(1, 2, 0), 2  # [G, D/G, N], a view
    else:
        cols, batch_axis = _conv_cols(codes_in, *ker.shape[2:], node.attr_pair("stride", 1),
                                      node.attr_pair("pad", 0)), 3
    # [O, I, T]: conv [Co, Ci, Kh*Kw], depthwise [C, 1, Kh*Kw], fc [U, G, D/G]
    acc = _grouped_mac(cols, batch_axis, ker.reshape(*lp.comp_shift.shape, -1), lp.comp_shift)
    return _finish_accumulator(np.moveaxis(acc, 0, 1), qg.biases[node.name], lp,
                               qg.plan.tensors[node.outputs[0]], qg.plan.bit_width)


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
    lo, hi = code_range(qg.plan.bit_width, out_fmt.signed)
    return np.clip(shifted(total, common - out_fmt.fls), lo.reshape(cshape), hi.reshape(cshape))


def _run_node(node, ins: list, qg: QuantizedGraph, saturation: dict) -> np.ndarray:
    """One node's output codes from its inputs'; a linear layer also
    records its clipped accumulator lanes in ``saturation``."""
    if node.kind in LINEAR_KINDS:
        out, saturation[node.name] = _run_linear(node, ins[0], qg)
        return out
    if node.kind == "relu":
        return np.maximum(ins[0], 0)
    if node.kind in ("maxpool", "avgpool"):
        return _run_pool(node, ins[0])
    if node.kind == "add":
        return _run_add(node, ins[0], ins[1], qg)
    if node.kind == "concat":
        return np.concatenate(ins, axis=1)
    raise GraphError(f"node {node.name}: kind {node.kind!r} not executable quantized")


def execute_quantized(qg: QuantizedGraph, x: np.ndarray, capture=()) -> QuantRunResult:
    """Integer forward pass; fully deterministic for identical inputs."""
    g, plan, saturation = qg.graph, qg.plan, {}
    bits, fmt = plan.bit_width, plan.tensors
    # _run_node is looked up at each call, so a wrapper set on the module sees every node
    out, captured = forward(g, x, lambda x: quantize_tensor(x, fmt[g.input_name], bits),
                            lambda node, ins: _run_node(node, ins, qg, saturation), capture)
    # + 0.0 turns the -0.0 that rint leaves on small negatives into 0.0
    return QuantRunResult(output=dequantize_tensor(out + 0.0, fmt[g.output_name]),
                          captured={t: compact_codes(c, fmt[t], bits) for t, c in captured.items()},
                          saturation=saturation)


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
    index = {name: {"kernel": append_array(blob, qg.kernels[name].astype(kdtype)),
                    "bias": append_array(blob, qg.biases[name].astype("<i4"))}
             for name in sorted(qg.kernels)}
    doc = plan_to_json(qg.plan)
    doc["qparams"] = index
    write_json(plan_path, doc)
    Path(blob_path).write_bytes(bytes(blob))


def _read_codes(blob: bytes, ref: dict, dtype, dims: list, what: str) -> np.ndarray:
    if ref["dims"] != dims:
        raise PlanError(f"{what}: plan stores dims {ref['dims']}, the graph has {dims}")
    return read_array(blob, ref, dtype, what).astype(np.int64)


def load_quantized(g: Graph, plan_path, blob_path) -> QuantizedGraph:
    """Reload a quantized model; inverse of :func:`save_quantized`.

    Raises PlanError when the plan or the blob does not fit the graph, or
    a kernel code lies outside the plan's signed bit width.
    """
    doc = read_json(plan_path, PlanError)
    plan = plan_from_json(doc)
    check_plan(g, plan)
    blob = Path(blob_path).read_bytes()
    qparams = doc.get("qparams", {})
    if not isinstance(qparams, dict):
        raise PlanError(f"plan qparams must be an object, got {qparams!r}")
    kernels, biases = {}, {}
    kq_lo, kq_hi = code_range(plan.bit_width)
    for node in g.nodes:
        if node.kind not in LINEAR_KINDS:
            continue
        if node.name not in qparams:
            raise PlanError(f"plan has no quantized parameters for node {node.name!r}")
        dims = list(g.params[node.params["weight"]].shape)
        with located(PlanError, f"quantized parameters of node {node.name!r}"):
            ref = qparams[node.name]
            kernels[node.name] = _read_codes(blob, ref["kernel"], _kernel_dtype(plan.bit_width),
                                             dims, f"node {node.name!r} kernel")
            biases[node.name] = _read_codes(blob, ref["bias"], "<i4", dims[:1],
                                            f"node {node.name!r} bias")
        # the plan's fan-in bound holds only for codes of its width
        _check_range(f"node {node.name!r}", kernel=(kernels[node.name], kq_lo, kq_hi))
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
