"""Bit-exact 8-bit execution: quantized parameters, 32-bit accumulation,
and the per-output-channel shift schedule from the plan.

Products of input and kernel codes accumulate exactly: as one grouped
GEMM in float64 while every sum stays below 2**53, in int64 otherwise;
products of compensated pairs are rounded half-even one by one. The
accumulator is checked against the 32-bit range (clips are counted,
not fatal), shifted into the output format with half-even rounding, and
saturated to the per-channel 8-bit range. ReLU, pooling, addition and
concatenation all run in the integer domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fixedpoint import rounding_shift, saturate_accumulator
from .graph import Graph, GraphError
from .planner import (LayerPlan, PlanError, QuantPlan, TensorFormat, check_plan,
                      plan_from_json)
from .tensorops import _BLOCK_ELEMS, _tap_mac, _tap_reduce, _windows

# Integers below this magnitude, and sums of them, are exact in float64.
_FLOAT_EXACT = 2**53


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
    """Quantize a float activation tensor with its per-channel formats."""
    x = np.asarray(x, dtype=np.float64)
    cshape = _channel_shape(x.ndim)
    scale = (2.0 ** fmt.fls.astype(np.float64)).reshape(cshape)
    lo, hi = _code_bounds(fmt, bit_width)
    codes = np.rint(x * scale)
    codes = np.clip(codes, lo.reshape(cshape), hi.reshape(cshape))
    return codes.astype(np.int64)


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
    adder fl (32-bit)."""
    kernels, biases = {}, {}
    bw = plan.bit_width
    kq_lo, kq_hi = -(2 ** (bw - 1)), 2 ** (bw - 1) - 1
    for node in g.nodes:
        if node.kind not in ("conv", "depthwise_conv", "fc"):
            continue
        if node.name not in plan.layers:
            raise GraphError(f"plan has no layer entry for node {node.name!r}")
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
    if (lp.in_groups is None or d % g_n
            or not np.array_equal(lp.in_groups, np.repeat(np.arange(g_n), d // g_n))):
        raise GraphError(f"plan layer {node_name!r}: fc input groups are not "
                         f"{g_n} contiguous blocks of equal size over {d} inputs")
    return d // g_n


def _finish_accumulator(acc, bias_codes, lp: LayerPlan, out_fmt: TensorFormat,
                        bit_width: int, channel_axis: int = 1):
    cshape = [1] * acc.ndim
    cshape[channel_axis] = -1
    acc = acc + bias_codes.reshape(cshape)
    acc, clipped = saturate_accumulator(acc)
    shifted = rounding_shift(acc, lp.shift.reshape(cshape))
    lo, hi = _code_bounds(out_fmt, bit_width)
    out = np.clip(shifted, lo.reshape(cshape), hi.reshape(cshape))
    return out, clipped


def _abs_max(codes: np.ndarray) -> int:
    return max(int(codes.max(initial=0)), -int(codes.min(initial=0)))


def _grouped_mac(src: np.ndarray, row_ndim: int, ker: np.ndarray, comp: np.ndarray,
                 x_max: int) -> np.ndarray:
    """Exact grouped integer MAC.

    ``src`` is a [*taps, I, *rows] view of the input codes: T taps (in one
    or more axes) and I inputs for each of the M rows indexed by its last
    ``row_ndim`` axes. ``ker`` is [O, I, T] and ``comp`` [O, I] the right
    shift applied to each product of a pair. Returns the int64 accumulator
    [O, M] with

        acc[o, m] = sum_i sum_t round_half_even(x[t, i, m] * ker[o, i, t] / 2**comp[o, i]).

    Unshifted pairs run as one GEMM, with the kernels of shifted pairs
    zeroed. For each tap, the products of the shifted pairs are rounded one
    by one; a one-hot GEMM then adds each pair's sum into its output.
    Both run in float64 when max|x| * max|ker| * I * T < 2**53, so that
    every product and partial sum is an exact integer, and in int64 otherwise.
    Rows go in blocks so that no temporary exceeds ``_BLOCK_ELEMS``.
    """
    o_n, i_n, t_n = ker.shape
    lead = src.shape[src.ndim - row_ndim:]
    n_rows = int(np.prod(lead))
    po, pi = np.nonzero(comp)
    shifts = comp[po, pi][:, None]
    in_float = x_max * _abs_max(ker) * i_n * t_n < _FLOAT_EXACT
    dt = np.float64 if in_float else np.int64
    k_gemm = np.where(comp[:, :, None] == 0, ker, 0).transpose(0, 2, 1).reshape(o_n, -1).astype(dt)
    k_pairs = ker[po, pi].T[:, :, None]  # [T, P, 1]
    if in_float:
        k_pairs = k_pairs * 2.0 ** -shifts  # a power of two: exact

        def rounded(prods):
            return np.rint(prods, out=prods)  # half-even
    else:
        def rounded(prods):
            return rounding_shift(prods, shifts)
    scatter = (np.arange(o_n)[:, None] == po).astype(dt)  # [O, P] one-hot
    rows = max(1, _BLOCK_ELEMS // max(i_n * t_n, len(po), o_n))
    acc = np.empty((o_n, n_rows), dtype=np.int64)
    for r0 in range(0, n_rows, rows):
        r1 = min(r0 + rows, n_rows)
        x = src[(...,) + np.unravel_index(np.arange(r0, r1), lead)]
        x = x.reshape(t_n, i_n, r1 - r0).astype(dt, copy=False)
        block = k_gemm @ x.reshape(t_n * i_n, -1)
        if len(po):
            part = np.zeros((len(po), r1 - r0), dtype=dt)
            for t in range(t_n):
                part += rounded(x[t, pi] * k_pairs[t])
            block += scatter @ part
        acc[:, r0:r1] = block
    return acc


def _run_conv(node, codes_in, qg: QuantizedGraph):
    lp = qg.plan.layers[node.name]
    ker = qg.kernels[node.name]
    co, ci, kh, kw = ker.shape
    win = _windows(codes_in, kh, kw, node.attr_pair("stride", 1), node.attr_pair("pad", 0))
    if node.kind == "conv":
        n, _, oh, ow = win.shape[:4]
        src = win.transpose(4, 5, 1, 0, 2, 3)  # [Kh, Kw, Ci, N, H', W'], a view
        acc = _grouped_mac(src, 3, ker.reshape(co, ci, kh * kw), lp.comp_shift,
                           _abs_max(codes_in))
        acc = acc.reshape(co, n, oh, ow).transpose(1, 0, 2, 3)
    else:  # depthwise: no compensation can arise (tight fls never clamp)
        acc = _tap_mac(win, ker[:, 0])
    out_fmt = qg.plan.tensors[node.outputs[0]]
    return _finish_accumulator(acc, qg.biases[node.name], lp, out_fmt, qg.plan.bit_width)


def _run_fc(node, codes_in, qg: QuantizedGraph):
    lp = qg.plan.layers[node.name]
    ker = qg.kernels[node.name]  # [U, D]
    x = codes_in.reshape(codes_in.shape[0], -1)  # NCHW row-major flatten
    u, d = ker.shape
    t = _fc_group_size(node.name, lp, d)
    src = x.reshape(len(x), d // t, t).transpose(2, 1, 0)  # [T, G, N], a view
    acc = _grouped_mac(src, 1, ker.reshape(u, d // t, t), lp.comp_shift, _abs_max(x)).T
    out_fmt = qg.plan.tensors[node.outputs[0]]
    return _finish_accumulator(acc, qg.biases[node.name], lp, out_fmt, qg.plan.bit_width)


def _div_half_even(acc: np.ndarray, divisor: int) -> np.ndarray:
    # floor division, then round up past the half and on odd ties
    q = acc // divisor
    r = acc - q * divisor
    q = q + (2 * r > divisor)
    ties = 2 * r == divisor
    return q + (ties & ((q & 1) == 1))


def _run_pool(node, codes_in):
    wh, ww = node.attr_pair("window")
    win = _windows(codes_in, wh, ww, node.pool_stride(), node.attr_pair("pad", 0))
    if node.kind == "maxpool":
        return _tap_reduce(win, np.maximum)
    return _div_half_even(_tap_reduce(win, np.add), wh * ww)


def _run_add(node, a, b, qg: QuantizedGraph):
    fa = qg.plan.tensors[node.inputs[0]].fls
    fb = qg.plan.tensors[node.inputs[1]].fls
    out_fmt = qg.plan.tensors[node.outputs[0]]
    common = np.minimum(fa, fb)  # per-channel alignment target
    cshape = _channel_shape(a.ndim)
    a = rounding_shift(a, (fa - common).reshape(cshape))
    b = rounding_shift(b, (fb - common).reshape(cshape))
    total = a + b
    shifted = rounding_shift(total, (common - out_fmt.fls).reshape(cshape))
    lo, hi = _code_bounds(out_fmt, qg.plan.bit_width)
    return np.clip(shifted, lo.reshape(cshape), hi.reshape(cshape))


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
    out_f = dequantize_tensor(codes[g.output_name], plan.tensors[g.output_name])
    return QuantRunResult(output=out_f, captured=captured, saturation=saturation)


# ---------------------------------------------------------------------------
# Quantized model files
# ---------------------------------------------------------------------------

def _kernel_dtype(bit_width: int) -> np.dtype:
    """Narrowest little-endian integer that holds kernel codes of the width."""
    return np.dtype("i1" if bit_width <= 8 else "<i2" if bit_width <= 16 else "<i4")


def save_quantized(qg: QuantizedGraph, plan_path, blob_path) -> None:
    """Write the plan JSON (with a quantized-parameter index) plus the code blob.

    Kernel codes are stored as int8 up to 8 bits, int16 up to 16 and int32
    above (see :func:`_kernel_dtype`), bias codes as int32, little-endian,
    addressed by byte offsets recorded in the plan document.
    """
    import json
    from pathlib import Path

    from .planner import plan_to_json

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

    Raises PlanError when the plan or the blob does not fit the graph.
    """
    doc = json.loads(Path(plan_path).read_text())
    plan = plan_from_json(doc)
    check_plan(g, plan)
    blob = Path(blob_path).read_bytes()
    qparams = doc.get("qparams", {})
    if not isinstance(qparams, dict):
        raise PlanError(f"plan qparams must be an object, got {qparams!r}")
    kernels, biases = {}, {}
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
        xhat = dequantize_tensor(np.asarray(codes, dtype=np.int64), self.plan.tensors[name])
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
