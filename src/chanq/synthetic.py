"""Seeded synthetic models and toy datasets for desk-scale experiments.

Networks are built with per-output-channel kernel scalings spread over a
configurable log2 range, so activation channels genuinely differ in
dynamic range; that spread is what separates channel-wise from layer-wise
behavior. Dataset labels come from the generated float network itself
acting as a frozen teacher (argmax of its logits).

An arch names only each layer's output width. Every tensor's shape comes
from the rule that loading a model runs (``graph._infer_shape``), so a
layer reads its input size from its source; a depthwise conv is the conv
draw with one input channel per group. A size that empties a layer is
refused naming that node, before the layers after it are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, LayerSpec, _infer_shape, execute_float, save_model, validate
from .pdfs import PdfModel, sample
from .tensorfile import write_tensor

ARCHS = ("classifier", "hetero_conv", "homogeneous", "residual", "concat", "depthwise")


INPUT_FAMILIES = ("gaussian", "laplace", "heavy")


@dataclass
class SynthSpec:
    arch: str = "classifier"
    in_channels: int = 3
    image_size: int = 12
    channels: int = 8
    classes: int = 10
    samples: int = 1000
    scale_span_bits: float = 4.0
    input_scale_span_bits: float = 0.0  # per-channel input scale ladder
    input_family: str = "gaussian"  # activation tails follow the input tails
    seed: int = 1

    def validate(self) -> "SynthSpec":
        if self.arch not in ARCHS:
            raise ValueError(f"unknown arch {self.arch!r}; expected one of {ARCHS}")
        if self.input_family not in INPUT_FAMILIES:
            raise ValueError(
                f"unknown input family {self.input_family!r}; expected one of {INPUT_FAMILIES}"
            )
        least = {"in_channels": 1, "image_size": 6, "channels": 2, "classes": 2, "samples": 1}
        small = [f"{k} >= {v}" for k, v in least.items() if getattr(self, k) < v]
        if small:
            raise ValueError(f"inconsistent synthetic spec: needs {', '.join(small)}")
        if not np.isfinite([self.scale_span_bits, self.input_scale_span_bits]).all():
            raise ValueError("scale spans must be finite")
        return self


def _float32(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` cast to float32, or a ValueError "``what`` past float32's range"."""
    with np.errstate(over="ignore"):
        x = x.astype(np.float32)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} past float32's range")
    return x


def channel_scale_ladder(n: int, span_bits: float) -> np.ndarray:
    """Deterministic log2-spaced per-channel factors spanning span_bits octaves."""
    if n == 1 or span_bits == 0:
        return np.ones(n)
    exponents = np.linspace(-span_bits / 2.0, span_bits / 2.0, n)
    return 2.0**exponents


class _Builder:
    """Appends seeded layers to a graph, each new tensor's shape from
    graph._infer_shape as its node is added."""

    def __init__(self, spec: SynthSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self.nodes: list[LayerSpec] = []
        self.params: dict[str, np.ndarray] = {}
        self.shapes = {"input": (1, spec.in_channels, spec.image_size, spec.image_size)}

    def _add(self, name: str, kind: str, inputs: list[str], attrs=None, params=None) -> str:
        out = f"t{len(self.nodes) + 1}"
        node = LayerSpec(name, kind, inputs, [out], attrs=attrs or {}, params=params or {})
        self.shapes[out] = _infer_shape(node, [self.shapes[t] for t in inputs], self.params)
        self.nodes.append(node)
        return out

    def _linear(self, name: str, kind: str, src: str, w, b, attrs=None) -> str:
        self.params[f"{name}.weight"] = _float32(
            w, f"scale span {self.spec.scale_span_bits} bits puts node {name}'s weights")
        self.params[f"{name}.bias"] = b.astype(np.float32)
        return self._add(name, kind, [src], attrs,
                         {"weight": f"{name}.weight", "bias": f"{name}.bias"})

    def conv(self, src: str, co: int, k: int = 3, pad: int = 0, span_bits: float = 0.0,
             name: str | None = None, depthwise: bool = False) -> str:
        # a depthwise kernel is [C, 1, k, k]: C groups of one input channel
        ci = 1 if depthwise else self.shapes[src][1]
        w = self.rng.normal(0.0, 1.0 / np.sqrt(ci * k * k), size=(co, ci, k, k))
        w *= channel_scale_ladder(co, span_bits)[:, None, None, None]
        kind, prefix = ("depthwise_conv", "dwconv") if depthwise else ("conv", "conv")
        return self._linear(name or f"{prefix}{len(self.nodes)}", kind, src, w,
                            self.rng.normal(0.0, 0.05, size=co),
                            {"stride": [1, 1], "pad": [pad, pad]})

    def fc(self, src: str, units: int) -> str:
        d = int(np.prod(self.shapes[src][1:]))
        w = self.rng.normal(0.0, 1.0 / np.sqrt(d), size=(units, d))
        return self._linear(f"fc{len(self.nodes)}", "fc", src, w,
                            self.rng.normal(0.0, 0.05, size=units))

    def simple(self, kind: str, src: str, **attrs) -> str:
        return self._add(f"{kind}{len(self.nodes)}", kind, [src], attrs)

    def join(self, kind: str, a: str, b: str) -> str:
        return self._add(f"{kind}{len(self.nodes)}", kind, [a, b])


def build_graph(spec: SynthSpec) -> Graph:
    """Deterministically construct the float network for the given settings."""
    spec.validate()
    b = _Builder(spec, np.random.default_rng(spec.seed))
    c = spec.channels
    span = spec.scale_span_bits
    x = "input"

    if spec.arch == "classifier":
        t = b.conv(x, c, pad=1)
        t = b.simple("relu", t)
        t = b.simple("maxpool", t, window=[2, 2], stride=[2, 2])
        t = b.conv(t, 2 * c, span_bits=span)
        t = b.simple("relu", t)
        t = b.simple("avgpool", t, window=[2, 2], stride=[2, 2])
    elif spec.arch in ("hetero_conv", "homogeneous"):
        eff = 0.0 if spec.arch == "homogeneous" else span
        t = b.conv(x, c, pad=1, span_bits=eff)
        t = b.simple("relu", t)
        t = b.conv(t, c, span_bits=eff)
        t = b.simple("relu", t)
    elif spec.arch == "residual":
        t1 = b.conv(x, c, pad=1, span_bits=span)
        r1 = b.simple("relu", t1)
        t2 = b.conv(r1, c, pad=1)
        t3 = b.join("add", t2, r1)
        t = b.simple("relu", t3)
    elif spec.arch == "concat":
        a = b.conv(x, c, pad=1, span_bits=span, name="branch_a")
        a = b.simple("relu", a)
        d = b.conv(x, c, pad=1, name="branch_b")
        d = b.simple("relu", d)
        t = b.join("concat", a, d)
        t = b.conv(t, c)
        t = b.simple("relu", t)
    else:  # depthwise
        t = b.conv(x, c, pad=1)
        t = b.simple("relu", t)
        t = b.conv(t, c, pad=1, span_bits=span, depthwise=True)
        t = b.simple("relu", t)
    b.fc(t, spec.classes)

    g = Graph(
        input_name="input",
        input_dims=b.shapes["input"],
        nodes=b.nodes,
        params=b.params,
    )
    return validate(g)


def _draw_inputs(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    shape = (spec.samples, spec.in_channels, spec.image_size, spec.image_size)
    if spec.input_family == "gaussian":
        x = rng.normal(0.0, 1.0, size=shape)
    elif spec.input_family == "laplace":
        x = rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=shape)
    else:  # heavy: gaussian core with sparse quartic-tail outliers
        x = rng.normal(0.0, 1.0, size=shape)
        n = int(np.prod(shape))
        mask = rng.random(n) < 0.02
        tails = sample(PdfModel("super_cauchy", 0.0, 3.0), int(mask.sum()), rng)
        flat = x.reshape(-1)
        flat[mask] = tails
        x = flat.reshape(shape)
    if spec.input_scale_span_bits:
        ladder = channel_scale_ladder(spec.in_channels, spec.input_scale_span_bits)
        x = x * ladder[None, :, None, None]
    return _float32(x, f"input scale span {spec.input_scale_span_bits} bits puts the inputs")


def gen_dataset(g: Graph, spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Inputs plus frozen-teacher labels (argmax of the float network)."""
    rng = np.random.default_rng(spec.seed + 1)
    x = _draw_inputs(spec, rng)
    labels = np.empty(spec.samples, dtype=np.int32)
    for start in range(0, spec.samples, 64):
        chunk = x[start : start + 64]
        logits, _ = execute_float(g, chunk)
        labels[start : start + len(chunk)] = np.argmax(logits, axis=1)
    return x, labels


def write_bundle(spec: SynthSpec, out_dir) -> dict:
    """Generate model + dataset files under out_dir; byte-identical per seed."""
    g = build_graph(spec)
    x, labels = gen_dataset(g, spec)  # before any file, so a refused spec writes none
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "manifest": out_dir / "model.json",
        "weights": out_dir / "weights.bin",
        "dataset": out_dir / "data.qtsr",
        "labels": out_dir / "labels.qtsr",
    }
    save_model(g, paths["manifest"], paths["weights"])
    write_tensor(paths["dataset"], x)
    write_tensor(paths["labels"], labels)
    return paths
