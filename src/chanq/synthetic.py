"""Seeded synthetic models and toy datasets for desk-scale experiments.

Networks are built with per-output-channel kernel scalings spread over a
configurable log2 range, so activation channels genuinely differ in
dynamic range; that spread is what separates channel-wise from layer-wise
behavior. Dataset labels come from the generated float network itself
acting as a frozen teacher (argmax of its logits).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, LayerSpec, execute_float, save_model, validate
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
        if self.image_size < 6 or self.channels < 2 or self.classes < 2 or self.samples < 1:
            raise ValueError("inconsistent synthetic spec (sizes too small)")
        if not np.isfinite([self.scale_span_bits, self.input_scale_span_bits]).all():
            raise ValueError("scale spans must be finite")
        return self


def channel_scale_ladder(n: int, span_bits: float) -> np.ndarray:
    """Deterministic log2-spaced per-channel factors spanning span_bits octaves."""
    if n == 1 or span_bits == 0:
        return np.ones(n)
    exponents = np.linspace(-span_bits / 2.0, span_bits / 2.0, n)
    return 2.0**exponents


class _Builder:
    def __init__(self, spec: SynthSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self.nodes: list[LayerSpec] = []
        self.params: dict[str, np.ndarray] = {}
        self.counter = 0

    def _tname(self) -> str:
        self.counter += 1
        return f"t{self.counter}"

    def _linear(self, name: str, kind: str, src: str, w, b, attrs=None) -> str:
        out = self._tname()
        self.params[f"{name}.weight"] = w.astype(np.float32)
        self.params[f"{name}.bias"] = b.astype(np.float32)
        self.nodes.append(LayerSpec(name, kind, [src], [out], attrs=attrs or {},
                                    params={"weight": f"{name}.weight", "bias": f"{name}.bias"}))
        return out

    def conv(self, src: str, ci: int, co: int, k: int = 3, pad: int = 0,
             span_bits: float = 0.0, name: str | None = None) -> str:
        w = self.rng.normal(0.0, 1.0 / np.sqrt(ci * k * k), size=(co, ci, k, k))
        w *= channel_scale_ladder(co, span_bits)[:, None, None, None]
        return self._linear(name or f"conv{len(self.nodes)}", "conv", src, w,
                            self.rng.normal(0.0, 0.05, size=co),
                            {"stride": [1, 1], "pad": [pad, pad]})

    def depthwise(self, src: str, c: int, k: int = 3, pad: int = 0,
                  span_bits: float = 0.0) -> str:
        w = self.rng.normal(0.0, 1.0 / k, size=(c, 1, k, k))
        w *= channel_scale_ladder(c, span_bits)[:, None, None, None]
        return self._linear(f"dwconv{len(self.nodes)}", "depthwise_conv", src, w,
                            self.rng.normal(0.0, 0.05, size=c),
                            {"stride": [1, 1], "pad": [pad, pad]})

    def fc(self, src: str, d: int, units: int, name: str | None = None) -> str:
        w = self.rng.normal(0.0, 1.0 / np.sqrt(d), size=(units, d))
        return self._linear(name or f"fc{len(self.nodes)}", "fc", src, w,
                            self.rng.normal(0.0, 0.05, size=units))

    def simple(self, kind: str, src: str, **attrs) -> str:
        out = self._tname()
        self.nodes.append(LayerSpec(f"{kind}{len(self.nodes)}", kind, [src], [out], attrs=attrs))
        return out

    def join(self, kind: str, a: str, b: str) -> str:
        out = self._tname()
        self.nodes.append(LayerSpec(f"{kind}{len(self.nodes)}", kind, [a, b], [out]))
        return out


def build_graph(spec: SynthSpec) -> Graph:
    """Deterministically construct the float network for the given settings."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    b = _Builder(spec, rng)
    s = spec.image_size
    c = spec.channels
    span = spec.scale_span_bits
    x = "input"

    if spec.arch in ("classifier",):
        t = b.conv(x, spec.in_channels, c, pad=1)
        t = b.simple("relu", t)
        t = b.simple("maxpool", t, window=[2, 2], stride=[2, 2])
        t = b.conv(t, c, 2 * c, span_bits=span)
        t = b.simple("relu", t)
        t = b.simple("avgpool", t, window=[2, 2], stride=[2, 2])
        side = (s // 2 - 2) // 2
        t = b.fc(t, 2 * c * side * side, spec.classes)
    elif spec.arch in ("hetero_conv", "homogeneous"):
        eff = 0.0 if spec.arch == "homogeneous" else span
        t = b.conv(x, spec.in_channels, c, pad=1, span_bits=eff)
        t = b.simple("relu", t)
        t = b.conv(t, c, c, span_bits=eff)
        t = b.simple("relu", t)
        side = s - 2
        t = b.fc(t, c * side * side, spec.classes)
    elif spec.arch == "residual":
        t1 = b.conv(x, spec.in_channels, c, pad=1, span_bits=span)
        r1 = b.simple("relu", t1)
        t2 = b.conv(r1, c, c, pad=1)
        t3 = b.join("add", t2, r1)
        t = b.simple("relu", t3)
        t = b.fc(t, c * s * s, spec.classes)
    elif spec.arch == "concat":
        a = b.conv(x, spec.in_channels, c, pad=1, span_bits=span, name="branch_a")
        a = b.simple("relu", a)
        d = b.conv(x, spec.in_channels, c, pad=1, name="branch_b")
        d = b.simple("relu", d)
        t = b.join("concat", a, d)
        t = b.conv(t, 2 * c, c)
        t = b.simple("relu", t)
        side = s - 2
        t = b.fc(t, c * side * side, spec.classes)
    else:  # depthwise
        t = b.conv(x, spec.in_channels, c, pad=1)
        t = b.simple("relu", t)
        t = b.depthwise(t, c, pad=1, span_bits=span)
        t = b.simple("relu", t)
        t = b.fc(t, c * s * s, spec.classes)

    g = Graph(
        input_name="input",
        input_dims=(1, spec.in_channels, s, s),
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
    return x.astype(np.float32)


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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    g = build_graph(spec)
    paths = {
        "manifest": out_dir / "model.json",
        "weights": out_dir / "weights.bin",
        "dataset": out_dir / "data.qtsr",
        "labels": out_dir / "labels.qtsr",
    }
    save_model(g, paths["manifest"], paths["weights"])
    x, labels = gen_dataset(g, spec)
    write_tensor(paths["dataset"], x)
    write_tensor(paths["labels"], labels)
    return paths
