"""Network graph IR: loading, validation, batch-norm folding, float execution.

A model on disk is a JSON manifest plus a raw little-endian float32 blob;
each parameter is a blob entry (:func:`tensorfile.read_array`). In
memory a :class:`Graph` holds validated, topologically ordered nodes and
memory-resident parameter arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensorops as ops
from .tensorfile import _is_int, append_array, located, read_array, read_json, write_json

LINEAR_KINDS = ("conv", "depthwise_conv", "fc")
KINDS = LINEAR_KINDS + ("batchnorm", "relu", "maxpool", "avgpool", "add", "concat")
_SPATIAL_KINDS = ("conv", "depthwise_conv", "batchnorm", "maxpool", "avgpool")  # [N, C, H, W] in

_PARAM_ROLES = {
    "conv": ("weight", "bias"),
    "depthwise_conv": ("weight", "bias"),
    "fc": ("weight", "bias"),
    "batchnorm": ("gamma", "beta", "mean", "var"),
}


class GraphError(ValueError):
    """Invalid manifest, weights, or graph structure."""


@dataclass
class LayerSpec:
    name: str
    kind: str
    inputs: list[str]
    outputs: list[str]
    attrs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)  # role -> parameter tensor name

    def attr_pair(self, key, default=None):
        """An integer or [h, w] attribute as a pair: pads >= 0, the rest >= 1."""
        v = self.attrs.get(key, default)
        if v is None:
            raise GraphError(f"node {self.name}: missing attribute {key!r}")
        pair = list(v) if isinstance(v, (list, tuple)) else [v, v]
        low = 0 if key == "pad" else 1
        if len(pair) != 2 or not all(_is_int(x) and x >= low for x in pair):
            raise GraphError(f"node {self.name}: attribute {key!r} must be an integer >= {low} "
                             f"or a pair of them, got {v!r}")
        return int(pair[0]), int(pair[1])

    def pool_stride(self):
        """Pooling stride; defaults to the window."""
        return self.attr_pair("stride", self.attrs.get("window"))


@dataclass
class Graph:
    input_name: str
    input_dims: tuple
    nodes: list[LayerSpec]
    params: dict  # parameter tensor name -> np.ndarray (float32)
    shapes: dict = field(default_factory=dict)  # tensor name -> shape (from input_dims)
    output_name: str = ""

    def producer(self, tensor: str) -> LayerSpec | None:
        for node in self.nodes:
            if tensor in node.outputs:
                return node
        return None

    def consumers(self, tensor: str) -> list[LayerSpec]:
        return [n for n in self.nodes if tensor in n.inputs]

    def feeds_only_relu(self, tensor: str) -> bool:
        """True when the tensor has consumers and every one is a relu."""
        consumers = self.consumers(tensor)
        return bool(consumers) and all(c.kind == "relu" for c in consumers)

    def activation_names(self) -> list[str]:
        names = [self.input_name]
        for node in self.nodes:
            names.extend(node.outputs)
        return names

    def check_input(self, shape: tuple) -> None:
        """GraphError unless ``shape`` is that of a batch of the graph's input."""
        expect = self.shapes[self.input_name]
        if tuple(shape[1:]) != tuple(expect[1:]):
            raise GraphError(f"input shape {tuple(shape)} incompatible with graph input {expect}")

    def channels(self, tensor: str) -> int:
        return self.shapes[tensor][1]


def topological_order(nodes: list[LayerSpec], available: set) -> list[LayerSpec]:
    """Kahn ordering by tensor dependencies; raises on cycles naming a node."""
    pending = list(nodes)
    have = set(available)
    ordered = []
    while pending:
        ready = [n for n in pending if all(t in have for t in n.inputs)]
        if not ready:
            stuck = ", ".join(n.name for n in pending)
            raise GraphError(f"cycle or unresolvable dependency among nodes: {stuck}")
        for n in ready:
            ordered.append(n)
            have.update(n.outputs)
            pending.remove(n)
    return ordered


def walk(g: Graph, first, step) -> dict:
    """``{tensor: value}`` in production order: the input's value is
    ``first``, each node output's is ``step(node, [its inputs' values])``."""
    values = {g.input_name: first}
    for node in g.nodes:
        values[node.outputs[0]] = step(node, [values[t] for t in node.inputs])
    return values


def _output_hw(node: LayerSpec, in_shape: tuple, window: tuple, stride: tuple) -> tuple:
    """[N, C, H', W'] of a window op over [N, C, H, W]; GraphError when empty."""
    (n, c, h, w), (kh, kw), (sh, sw) = in_shape, window, stride
    ph, pw = node.attr_pair("pad", 0)
    oh, ow = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise GraphError(f"node {node.name}: empty output: input {h}x{w}, window {kh}x{kw}, "
                         f"stride {sh},{sw}, pad {ph},{pw}")
    return (n, c, oh, ow)


def _infer_shape(node: LayerSpec, in_shapes: list[tuple], params: dict) -> tuple:
    kind, s = node.kind, in_shapes[0]
    if kind in _SPATIAL_KINDS and len(s) != 4:
        raise GraphError(f"node {node.name}: {kind} needs a 4-D [N, C, H, W] input, got {s}")
    if kind in ("conv", "depthwise_conv"):
        c, kshape, dw = s[1], params[node.params["weight"]].shape, kind == "depthwise_conv"
        # a depthwise kernel is [C, 1, Kh, Kw]: C groups of one channel
        if len(kshape) != 4 or kshape[:2] != ((c, 1) if dw else (kshape[0], c)):
            raise GraphError(f"node {node.name}: {kind} kernel {kshape} does not fit {c} input "
                             f"channels; expected [{c if dw else 'Co'}, {1 if dw else c}, Kh, Kw]")
        co = kshape[0]
        if params[node.params["bias"]].shape != (co,):
            raise GraphError(f"node {node.name}: bias length != {co} output channels")
        n, _, oh, ow = _output_hw(node, s, kshape[2:], node.attr_pair("stride", 1))
        return (n, co, oh, ow)
    if kind == "fc":
        d = int(np.prod(s[1:]))
        wshape = params[node.params["weight"]].shape
        if len(wshape) != 2 or wshape[1] != d:
            raise GraphError(f"node {node.name}: fc weights {wshape} do not fit the {d} inputs "
                             f"the tensor flattens to; expected [U, {d}]")
        if params[node.params["bias"]].shape != wshape[:1]:
            raise GraphError(f"node {node.name}: bias length != {wshape[0]} units")
        return (s[0], wshape[0])
    if kind == "batchnorm":
        for role in _PARAM_ROLES["batchnorm"]:
            if params[node.params[role]].shape != (s[1],):
                raise GraphError(f"node {node.name}: {role} length != {s[1]} channels")
        return s
    if kind == "relu":
        return s
    if kind in ("maxpool", "avgpool"):
        return _output_hw(node, s, node.attr_pair("window"), node.pool_stride())
    if kind == "add":
        a, b = in_shapes
        if a != b:
            raise GraphError(f"node {node.name}: add operands differ: {a} vs {b}")
        return a
    a, b = in_shapes  # concat, the last kind validate admits
    if a[0] != b[0] or a[2:] != b[2:]:
        raise GraphError(f"node {node.name}: concat operands differ: {a} vs {b}")
    return (a[0], a[1] + b[1]) + a[2:]


def validate(g: Graph) -> Graph:
    """Order nodes, check names, infer every tensor's shape and find the output."""
    if not isinstance(g.input_name, str):
        raise GraphError(f"input name must be a string, got {g.input_name!r}")
    if len(g.input_dims) not in (2, 4) or not all(_is_int(d) and d >= 1 for d in g.input_dims):
        raise GraphError(f"input dims must be [N, D] or [N, C, H, W], positive integers, "
                         f"got {list(g.input_dims)}")
    seen = {g.input_name}
    for node in g.nodes:
        if not all(isinstance(t, str) for t in [node.name, *node.inputs, *node.outputs]):
            raise GraphError(f"node {node.name!r}: node and tensor names must be strings")
        if node.kind not in KINDS:
            raise GraphError(f"node {node.name}: unknown kind {node.kind!r}")
        arity = 2 if node.kind in ("add", "concat") else 1
        if len(node.inputs) != arity:
            raise GraphError(f"node {node.name}: {node.kind} takes {arity} input(s), "
                             f"got {len(node.inputs)}")
        if len(node.outputs) != 1:
            raise GraphError(f"node {node.name}: exactly one output tensor required")
        if node.outputs[0] in seen:
            raise GraphError(f"tensor {node.outputs[0]!r} produced more than once "
                             f"(node {node.name})")
        seen.add(node.outputs[0])
        for role in _PARAM_ROLES.get(node.kind, ()):
            if role not in node.params:
                raise GraphError(f"node {node.name}: missing parameter {role!r}")
            if node.params[role] not in g.params:
                raise GraphError(f"node {node.name}: parameter tensor {node.params[role]!r} not loaded")
    for node in g.nodes:
        for t in node.inputs:
            if t not in seen:
                raise GraphError(f"node {node.name}: input tensor {t!r} is not produced anywhere")
    g.nodes = topological_order(g.nodes, {g.input_name})

    g.shapes = walk(g, tuple(g.input_dims), lambda node, ins: _infer_shape(node, ins, g.params))

    consumed = {t for n in g.nodes for t in n.inputs}
    terminals = [t for n in g.nodes for t in n.outputs if t not in consumed]
    if len(terminals) != 1:
        raise GraphError(f"expected exactly one terminal tensor, found {terminals}")
    g.output_name = terminals[0]
    return g


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def load_model(manifest_path, weights_path=None) -> Graph:
    """Load and validate a model from its manifest + weights blob.

    A missing key, a wrongly typed value, a bad blob entry or a non-finite
    parameter raises GraphError naming where it is.
    """
    manifest_path = Path(manifest_path)
    doc = read_json(manifest_path, GraphError)
    params = {}
    nodes = []
    with located(GraphError, str(manifest_path)):
        if doc.get("version") != 1:
            raise GraphError(f"{manifest_path}: unsupported manifest version {doc.get('version')}")
        if weights_path is None:
            rel = doc.get("weights")
            if rel is None:
                raise GraphError(f"{manifest_path}: no weights file given or referenced")
            weights_path = manifest_path.parent / rel
        blob = Path(weights_path).read_bytes()
        for i, nd in enumerate(doc["nodes"]):
            with located(GraphError, f"{manifest_path}: nodes[{i}]"):
                spec = LayerSpec(
                    name=nd["name"],
                    kind=nd["kind"],
                    inputs=list(nd["inputs"]),
                    outputs=list(nd["outputs"]),
                    attrs=dict(nd.get("attrs", {})),
                )
                for role, ref in nd.get("params", {}).items():
                    what = f"node {spec.name!r} {role}"
                    arr = read_array(blob, ref, "<f4", what)
                    if not np.isfinite(arr).all():
                        raise GraphError(f"{what}: non-finite parameter values")
                    pname = f"{spec.name}.{role}"
                    params[pname] = arr
                    spec.params[role] = pname
            nodes.append(spec)
        g = Graph(
            input_name=doc["input"]["name"],
            input_dims=tuple(doc["input"]["dims"]),
            nodes=nodes,
            params=params,
        )
    return validate(g)


def save_model(g: Graph, manifest_path, weights_path) -> None:
    """Write the manifest + weights blob pair; inverse of :func:`load_model`."""
    manifest_path, weights_path = Path(manifest_path), Path(weights_path)
    blob = bytearray()
    node_docs = []
    for node in g.nodes:
        # canonical blob order
        refs = {role: append_array(blob, np.asarray(g.params[pname], dtype="<f4"))
                for role, pname in sorted(node.params.items())}
        node_docs.append(
            {
                "name": node.name,
                "kind": node.kind,
                "inputs": node.inputs,
                "outputs": node.outputs,
                "attrs": node.attrs,
                "params": refs,
            }
        )
    doc = {
        "version": 1,
        "input": {"name": g.input_name, "dims": list(g.input_dims)},
        "weights": weights_path.name,
        "nodes": node_docs,
    }
    write_json(manifest_path, doc, indent=2)
    weights_path.write_bytes(bytes(blob))


# ---------------------------------------------------------------------------
# Transformations and execution
# ---------------------------------------------------------------------------

def fold_batchnorm(g: Graph) -> Graph:
    """Fuse each batchnorm into the preceding linear layer.

    w' = w * g/sqrt(var+eps) per output channel, b' = (b-mean)*g/sqrt(var+eps) + beta.
    The folded graph's float outputs match the original within 1e-5 relative.
    """
    params = dict(g.params)
    nodes = []
    for node in g.nodes:
        if node.kind != "batchnorm":
            nodes.append(replace(node, inputs=list(node.inputs), outputs=list(node.outputs),
                                 attrs=dict(node.attrs), params=dict(node.params)))
            continue
        src = g.producer(node.inputs[0])
        if src is None or src.kind not in LINEAR_KINDS:
            raise GraphError(
                f"node {node.name}: batchnorm must directly follow a conv/depthwise/fc layer"
            )
        if len(g.consumers(src.outputs[0])) != 1:
            raise GraphError(
                f"node {node.name}: cannot fold, {src.outputs[0]!r} has other consumers"
            )
        gamma = params[node.params["gamma"]]
        beta = params[node.params["beta"]]
        mean = params[node.params["mean"]]
        var = params[node.params["var"]]
        eps = float(node.attrs.get("epsilon", 0.0))
        scale = gamma / np.sqrt(var + eps)

        target = next(n for n in nodes if n.name == src.name)
        w = params[target.params["weight"]]
        b = params[target.params["bias"]]
        shape = (-1,) + (1,) * (w.ndim - 1)
        params[target.params["weight"]] = (w * scale.reshape(shape)).astype(np.float32)
        params[target.params["bias"]] = ((b - mean) * scale + beta).astype(np.float32)
        # The folded layer takes over the bn's output tensor name.
        target.outputs = list(node.outputs)

    folded = Graph(input_name=g.input_name, input_dims=g.input_dims, nodes=nodes, params=params)
    # Drop parameter tensors belonging to removed bn nodes.
    live = {p for n in nodes for p in n.params.values()}
    folded.params = {k: v for k, v in params.items() if k in live}
    return validate(folded)


def _run_node(node: LayerSpec, inputs: list[np.ndarray], params: dict) -> np.ndarray:
    kind = node.kind
    if kind in ("conv", "depthwise_conv"):
        return ops.conv2d(inputs[0], params[node.params["weight"]], params[node.params["bias"]],
                          node.attr_pair("stride", 1), node.attr_pair("pad", 0))
    if kind == "fc":
        return ops.fully_connected(inputs[0], params[node.params["weight"]], params[node.params["bias"]])
    if kind == "batchnorm":
        return ops.batchnorm(inputs[0], params[node.params["gamma"]], params[node.params["beta"]],
                             params[node.params["mean"]], params[node.params["var"]],
                             float(node.attrs.get("epsilon", 0.0)))
    if kind == "relu":
        return ops.relu(inputs[0])
    if kind in ("maxpool", "avgpool"):
        return ops.pool(inputs[0], kind[:3], node.attr_pair("window"), node.pool_stride(),
                        node.attr_pair("pad", 0))
    if kind == "add":
        return ops.add_elementwise(inputs[0], inputs[1])
    return ops.concat_channels(inputs[0], inputs[1])  # concat, the last kind validate admits


def effective_output(g: Graph, node: LayerSpec) -> str:
    """A layer's output as it feeds forward: the relu output when the layer
    is solely consumed by a relu (fused view), else the layer's own tensor."""
    out = node.outputs[0]
    return g.consumers(out)[0].outputs[0] if g.feeds_only_relu(out) else out


def forward(g: Graph, x, first, step, capture) -> tuple:
    """One engine pass: GraphError unless batch ``x`` fits the graph's input,
    else the output's value and the captured tensors' (unknown names skipped)
    of the :func:`walk` from ``first(x)``."""
    g.check_input(np.shape(x))
    capture = set(capture)
    values = walk(g, first(x), step)
    return values[g.output_name], {t: v for t, v in values.items() if t in capture}


def execute_float(g: Graph, x: np.ndarray, capture=()) -> tuple[np.ndarray, dict]:
    """Float32 forward pass; captures the requested tensors as produced.

    Captured values are pre-activation: a tensor feeding a relu node is
    recorded before the relu applies (the relu output is a separate name).
    """
    # _run_node is looked up at each call, so a wrapper set on the module sees every node
    return forward(g, x, lambda x: np.asarray(x, dtype=np.float32),
                   lambda node, ins: _run_node(node, ins, g.params), capture)
