"""Quantization plan solving: per-channel formats and kernel coordination.

For each linear layer the partial-sum fractional lengths (kernel fl +
input-channel fl) are aligned to their per-output minimum by adjusting
kernel fls at compile time, so the accumulator needs no runtime shifters.
Kernel fls never drop below the layer-wise value; channels that would are
clamped and compensated by a constant right shift of their partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flsolver
from .fixedpoint import FL_MAX, FL_MIN, fl_from_max
from .graph import LINEAR_KINDS, POOL_KINDS, Graph, walk
from .profiling import ChannelStats, fold_records, standardized_moments
from .tensorfile import json_array, located

MODES = ("layerwise_max", "cw_max", "cw_laplace", "cw_scauchy", "cw_pdf_aware")
# A bias fl is a kernel fl plus an input fl, and a shift a bias fl less an output fl.
SHIFT_MAX = 3 * FL_MAX
_MODE_FAMILY = {"cw_laplace": "laplace", "cw_scauchy": "super_cauchy"}
_STATS_BASED = LINEAR_KINDS + ("add",)  # the kinds whose output format comes from stats


class PlanError(ValueError):
    """Plan solving failed (missing stats, unsupported node, bad mode)."""


@dataclass
class TensorFormat:
    """Per-channel activation format of one tensor."""

    fls: np.ndarray  # int64 [C]
    signed: np.ndarray  # bool [C]
    layer_wide: bool = False  # single fl spans the tensor (FC outputs, layerwise mode)


@dataclass
class LayerPlan:
    """Coordinated kernel/bias formats and shift schedule of a linear layer."""

    ker_fl: np.ndarray  # int64 [Co, G] adjusted kernel fls per input-channel group
    bias_fl: np.ndarray  # int64 [Co], equals the per-output adder fl
    shift: np.ndarray  # int64 [Co], bias_fl - ofm_fl
    comp_shift: np.ndarray  # int64 [Co, G] >= 0, partial-sum right shifts
    ker_fl_layerwise: int  # layer-wise kernel fl (the clamp floor)
    in_groups: np.ndarray | None = None  # fc only: flattened element -> group


@dataclass
class QuantPlan:
    mode: str
    bit_width: int
    tensors: dict = field(default_factory=dict)  # tensor name -> TensorFormat
    layers: dict = field(default_factory=dict)  # node name -> LayerPlan


def coordinate_layer(fl_ifm, fl_ker_tight, fl_ofm, fl_ker_layerwise: int):
    """Align partial sums of one layer to their per-output minimum fl.

    fl_ker_tight is [Co, G]; fl_ifm broadcasts against it ([G] or [1, G]
    shared across outputs, [Co, 1] on depthwise pairing); fl_ofm is [Co].
    Returns (adjusted kernel fls, bias fls, ofm shifts, compensation shifts).
    """
    tight = np.atleast_2d(np.asarray(fl_ker_tight, dtype=np.int64))
    ifm = np.asarray(fl_ifm, dtype=np.int64)
    ofm = np.asarray(fl_ofm, dtype=np.int64)
    floor = int(fl_ker_layerwise)

    bias_fl = (tight + ifm).min(axis=1)  # the per-output adder fl
    adjusted = bias_fl[:, None] - ifm
    comp = np.maximum(floor - adjusted, 0)
    adjusted = np.maximum(adjusted, floor)
    shift = bias_fl - ofm
    return adjusted, bias_fl, shift, comp


class _PlanBuilder:
    def __init__(self, g: Graph, stats: dict, mode: str, bit_width: int):
        self.g = g
        self.stats = stats
        self.mode = mode
        self.bit_width = bit_width
        self.knn = flsolver.default_classifier(bit_width) if mode == "cw_pdf_aware" else None
        self.plan = QuantPlan(mode=mode, bit_width=bit_width)

    def _fls(self, cs: ChannelStats, signed: bool) -> np.ndarray:
        """Per-channel fls of one stats record under the plan's mode."""
        if self.mode in ("layerwise_max", "cw_max"):
            return fl_from_max(cs.max_abs, self.bit_width, signed)
        family = _MODE_FAMILY.get(self.mode) or flsolver.classify_pdf(
            standardized_moments(cs), self.knn)
        return flsolver.optimal_fl(cs, family, self.bit_width, signed)

    def _record(self, name: str) -> tuple[ChannelStats, bool]:
        """The stats record a tensor's format reads, and whether it is layer-wide."""
        layer_wide = self.mode == "layerwise_max" or getattr(self.g.producer(name), "kind", None) == "fc"
        return (self.stats[name].pooled if layer_wide else self.stats[name].per_channel), layer_wide

    def _stats_based_format(self, name: str) -> TensorFormat:
        if name not in self.stats:
            raise PlanError(f"missing profiling stats for tensor {name!r}")
        channels = self.g.channels(name)
        signed = not self.g.feeds_only_relu(name)
        cs, layer_wide = self._record(name)
        if cs.n_channels != (1 if layer_wide else channels):
            raise PlanError(f"stats for tensor {name!r} have {cs.n_channels} channels, "
                            f"the graph has {channels}")
        try:
            fls = self._fls(cs, signed)
        except ValueError as e:
            raise PlanError(f"tensor {name!r}: {e}") from None
        return TensorFormat(fls=np.broadcast_to(fls, channels).copy(),
                            signed=np.full(channels, signed), layer_wide=layer_wide)

    def _input_groups(self, node, fmt: TensorFormat, w) -> tuple[np.ndarray, np.ndarray | None]:
        """Input fls shaped for :func:`coordinate_layer`, plus the fc element
        -> group map. A kernel [Co, I, Kh, Kw] takes them as [Ci / I, I]:
        conv [1, Ci], depthwise [C, 1] (output c reads channel c); fc [G]."""
        if node.kind != "fc":
            return fmt.fls.reshape(-1, w.shape[1]), None
        # fc: group by source channel; layer-wide paths collapse to one group
        ifm, d = (fmt.fls[:1] if fmt.layer_wide else fmt.fls), w.shape[1]
        return ifm, np.arange(d) // (d // len(ifm))  # the map check_plan requires

    def build(self) -> QuantPlan:
        g = self.g
        # every record the plan reads, asked for at once: one pass over the
        # profiling batches, and a second for the kNN features
        stats_based = [g.input_name] + [n.outputs[0] for n in g.nodes if n.kind in _STATS_BASED]
        fold_records([self._record(t)[0] for t in stats_based if t in self.stats],
                     higher=self.mode == "cw_pdf_aware")
        self.plan.tensors = walk(g, self._stats_based_format(g.input_name), self._format)
        return self.plan

    def _format(self, node, ins: list[TensorFormat]) -> TensorFormat:
        """A node's output format from its inputs'; a linear layer is
        coordinated on the way."""
        src = ins[0]
        if node.kind in _STATS_BASED:
            out = self._stats_based_format(node.outputs[0])
            if node.kind in LINEAR_KINDS:
                self._coordinate(node, src, out)
            return out
        if node.kind == "relu":
            return TensorFormat(src.fls.copy(), np.zeros_like(src.signed), src.layer_wide)
        if node.kind in POOL_KINDS:
            return TensorFormat(src.fls.copy(), src.signed.copy(), src.layer_wide)
        if node.kind == "batchnorm":
            raise PlanError(f"node {node.name}: fold batchnorm before solving a plan")
        # concat, the last kind graph.validate admits
        return TensorFormat(fls=np.concatenate([src.fls, ins[1].fls]),
                            signed=np.concatenate([src.signed, ins[1].signed]))

    def _coordinate(self, node, in_fmt: TensorFormat, out_fmt: TensorFormat) -> None:
        w = self.g.params[node.params["weight"]]
        absw = np.abs(w)
        ifm, in_groups = self._input_groups(node, in_fmt, w)
        floor = fl_from_max(absw.max(), self.bit_width, True)
        # tight kernel fls: one per layer on a layer-wise path, else per
        # (out, in) pair of a conv kernel and per output of fc
        if self.mode == "layerwise_max" or (node.kind == "fc" and in_fmt.layer_wide):
            maxes = absw.max()
        elif node.kind == "fc":
            maxes = absw.max(axis=1)[:, None]
        else:
            maxes = absw.max(axis=(2, 3))
        tight = np.broadcast_to(fl_from_max(maxes, self.bit_width, True), (len(w), ifm.shape[-1]))
        ker, bias_fl, shift, comp = coordinate_layer(ifm, tight, out_fmt.fls, floor)
        self.plan.layers[node.name] = LayerPlan(ker_fl=ker, bias_fl=bias_fl, shift=shift,
                                                comp_shift=comp, ker_fl_layerwise=floor,
                                                in_groups=in_groups)


def solve_plan(g: Graph, stats: dict, mode: str, bit_width: int = 8) -> QuantPlan:
    """Produce the complete quantization recipe for a (batchnorm-free) graph."""
    if mode not in MODES:
        raise PlanError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not 2 <= bit_width <= 16:
        raise PlanError(f"bit width {bit_width} outside [2, 16]")
    return _PlanBuilder(g, stats, mode, bit_width).build()


def check_plan(g: Graph, plan: QuantPlan) -> None:
    """Raise PlanError at the first place where a plan does not fit the
    graph: a linear node without a layer entry or with arrays of other
    shapes, an fc layer whose ``in_groups`` do not map its D inputs onto
    its G kernel fl columns as contiguous blocks of equal size (the
    engine's [G, D/G] view), a tensor whose format is missing or has
    another channel count, or a number out of its range (a bit width
    outside [2, 16], fls outside [FL_MIN, FL_MAX], bias fls outside twice
    that, shifts outside [-SHIFT_MAX, SHIFT_MAX], a negative compensation
    shift, or a nonzero one on a depthwise layer, whose engine has none).

    It also rejects a linear layer whose fan-in F (conv Ci*Kh*Kw, depthwise
    Kh*Kw, fc D) fails (2**bw - 1) * 2**(bw - 1) * F + 2**31 < 2**53, the
    bound that keeps the integer engine's float64 sums exact."""
    if not 2 <= plan.bit_width <= 16:
        raise PlanError(f"plan bit width {plan.bit_width} outside [2, 16]")
    max_fan_in = (2**53 - 2**31 - 1) // ((2**plan.bit_width - 1) * 2 ** (plan.bit_width - 1))
    for node in g.nodes:
        if node.kind not in LINEAR_KINDS:
            continue
        if node.name not in plan.layers:
            raise PlanError(f"plan has no layer entry for node {node.name!r}")
        w = g.params[node.params["weight"]]
        fan_in = w[0].size  # the weights of one output
        if fan_in > max_fan_in:
            raise PlanError(f"plan layer {node.name!r}: fan-in {fan_in} exceeds {max_fan_in}, "
                            f"the most whose {plan.bit_width}-bit sums stay exact")
        lp = plan.layers[node.name]
        co = g.channels(node.outputs[0])
        # kernel fl columns: a conv kernel's inputs per output (1 on depthwise); an
        # fc layer may have any count G whose in_groups split its D inputs evenly
        groups = w.shape[1] if node.kind != "fc" else (lp.ker_fl.shape[-1] if lp.ker_fl.ndim else 0)
        if (lp.ker_fl.shape != (co, groups) or lp.comp_shift.shape != (co, groups)
                or lp.bias_fl.shape != (co,) or lp.shift.shape != (co,)):
            raise PlanError(f"plan layer {node.name!r}: array shapes do not fit the graph's "
                            f"{co} output channels")
        d = w.shape[1]
        if node.kind == "fc" and (not groups or d % groups or lp.in_groups is None or not
                                  np.array_equal(lp.in_groups, np.arange(d) // (d // groups))):
            raise PlanError(f"plan layer {node.name!r}: fc input groups are not {groups} "
                            f"contiguous blocks of equal size over {d} inputs")
        _check_range(f"plan layer {node.name!r}", ker_fl=(lp.ker_fl, FL_MIN, FL_MAX),
                     ker_fl_layerwise=(lp.ker_fl_layerwise, FL_MIN, FL_MAX),
                     bias_fl=(lp.bias_fl, 2 * FL_MIN, 2 * FL_MAX),
                     shift=(lp.shift, -SHIFT_MAX, SHIFT_MAX),
                     comp_shift=(lp.comp_shift, 0, 0 if node.kind == "depthwise_conv" else np.inf))
    for name in g.activation_names():
        if name not in plan.tensors:
            raise PlanError(f"plan has no format for tensor {name!r}")
        fmt = plan.tensors[name]
        if fmt.fls.ndim != 1 or fmt.signed.shape != fmt.fls.shape:
            raise PlanError(f"plan format of tensor {name!r}: fl and signed are not "
                            f"two lists of one length")
        channels = len(fmt.fls)
        if channels != g.channels(name):
            raise PlanError(f"plan format of tensor {name!r} has {channels} channels, "
                            f"the graph has {g.channels(name)}")
        _check_range(f"plan format of tensor {name!r}", fl=(fmt.fls, FL_MIN, FL_MAX))


def _check_range(where: str, **arrays) -> None:
    for key, (values, lo, hi) in arrays.items():
        values = np.asarray(values)
        if values.size and not (lo <= values.min() and values.max() <= hi):
            bad = values[(values < lo) | (values > hi)].flat[0]
            raise PlanError(f"{where}: {key} {bad} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Plan serialization
# ---------------------------------------------------------------------------

def plan_to_json(plan: QuantPlan) -> dict:
    return {
        "version": 1,
        "mode": plan.mode,
        "bit_width": plan.bit_width,
        "tensors": {
            name: {
                "fl": [int(v) for v in fmt.fls],
                "signed": [bool(v) for v in fmt.signed],
                "layer_wide": bool(fmt.layer_wide),
            }
            for name, fmt in plan.tensors.items()
        },
        "layers": {
            name: {
                "ker_fl": lp.ker_fl.tolist(),
                "bias_fl": lp.bias_fl.tolist(),
                "shift": lp.shift.tolist(),
                "comp_shift": lp.comp_shift.tolist(),
                "ker_fl_layerwise": int(lp.ker_fl_layerwise),
                "in_groups": None if lp.in_groups is None else lp.in_groups.tolist(),
            }
            for name, lp in plan.layers.items()
        },
    }


def plan_from_json(doc: dict) -> QuantPlan:
    """Inverse of :func:`plan_to_json`; a missing key or a value of the
    wrong type (a fraction or a boolean where an integer belongs, too)
    raises PlanError naming where it is."""
    with located(PlanError, "plan"):
        if doc.get("version") != 1:
            raise PlanError(f"unsupported plan version {doc.get('version')}")
        if doc["mode"] not in MODES:
            raise PlanError(f"unknown plan mode {doc['mode']!r}")
        plan = QuantPlan(doc["mode"], json_array(doc["bit_width"], np.int64, "bit_width", 0).item())
        for name, td in json_array(doc["tensors"], dict, "tensors", 0).item().items():
            with located(PlanError, f"plan tensor {name!r}"):
                td = json_array(td, dict, "entry", 0).item()
                plan.tensors[name] = TensorFormat(
                    fls=json_array(td["fl"], np.int64, "fl"),
                    signed=json_array(td["signed"], bool, "signed"),
                    layer_wide=json_array(td["layer_wide"], bool, "layer_wide", 0).item(),
                )
        for name, ld in json_array(doc["layers"], dict, "layers", 0).item().items():
            with located(PlanError, f"plan layer {name!r}"):
                ld = json_array(ld, dict, "entry", 0).item()
                ints = {key: json_array(ld[key], np.int64, key)
                        for key in ("ker_fl", "bias_fl", "shift", "comp_shift")}
                plan.layers[name] = LayerPlan(
                    **ints,
                    ker_fl_layerwise=json_array(ld["ker_fl_layerwise"], np.int64,
                                                "ker_fl_layerwise", 0).item(),
                    in_groups=None if ld["in_groups"] is None
                    else json_array(ld["in_groups"], np.int64, "in_groups"),
                )
    return plan
