"""Command-line driver: profiling, plan solving, quantized evaluation,
mode comparisons, profiling-size sweeps, and synthetic data generation.

Every command is deterministic given its flags and seed; reports are
plain-text tables with JSON twins. Exit codes: 0 success, 1 usage error,
2 data/format error, 3 any unexpected error, reported in one line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .graph import (LINEAR_KINDS, Graph, GraphError, effective_output, execute_float,
                    fold_batchnorm, load_model)
from .planner import MODES, solve_plan
from .profiling import collect_stats, dump_stats, load_stats
from .qengine import (
    SqnrAccumulator,
    execute_quantized,
    load_quantized,
    quantize_params,
    save_quantized,
)
from .reports import render_table, write_report
from .synthetic import ARCHS, INPUT_FAMILIES, SynthSpec, write_bundle
from .tensorfile import TensorFileError, read_tensor, write_tensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_graph(args) -> Graph:
    g = load_model(args.model, args.weights)
    if any(n.kind == "batchnorm" for n in g.nodes):
        g = fold_batchnorm(g)
    return g


def _load_dataset(path) -> np.ndarray:
    data = read_tensor(path)
    if data.ndim == 3:
        data = data[None]
    if data.ndim not in (2, 4) or data.size == 0:
        raise TensorFileError(f"{path}: expected a non-empty batch of inputs, got {data.shape}")
    data = data.astype(np.float32)
    if not np.isfinite(data).all():
        raise TensorFileError(f"{path}: dataset holds non-finite values")
    return data


def _load_labels(path, g: Graph, n: int) -> np.ndarray:
    """Class labels of an ``n``-sample dataset: one whole number per sample,
    for a model whose output is [N, K] class scores."""
    if len(g.shapes[g.output_name]) != 2:
        raise GraphError(f"--labels needs [N, K] class scores, but output tensor "
                         f"{g.output_name!r} has shape {list(g.shapes[g.output_name])}")
    labels = read_tensor(path)
    if labels.shape != (n,) or not (np.isfinite(labels) & (labels == np.rint(labels))).all():
        raise TensorFileError(f"{path}: expected {n} whole-number labels, one per sample; "
                              f"got {labels.size} {labels.dtype} values of shape {labels.shape}")
    return labels.astype(np.int64)


def _profile_subset(data: np.ndarray, n: int | None, seed: int) -> np.ndarray:
    if n is None or n >= len(data):
        return data
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(data))[:n]
    return data[idx]


def _batches(data: np.ndarray, batch: int) -> list[np.ndarray]:
    return [data[start : start + batch] for start in range(0, len(data), batch)]


def _solve_modes(g: Graph, data: np.ndarray, modes, args) -> dict:
    """``{mode: plan}`` from one profile of ``data``. The stats are dropped on
    return: kept through an evaluation, their small arrays split the heap
    that its large temporaries reuse (5-8 MB more peak RSS, measured)."""
    stats = collect_stats(g, _batches(data, args.batch))
    return {mode: solve_plan(g, stats, mode, bit_width=args.bitwidth) for mode in modes}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_profile(args) -> int:
    g = _load_graph(args)
    data = _profile_subset(_load_dataset(args.dataset), args.profile_samples, args.seed)
    stats = collect_stats(g, _batches(data, args.batch))
    dump_stats(stats, args.out)
    print(f"profiled {len(data)} samples -> {args.out}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    g = _load_graph(args)
    stats = load_stats(args.stats)
    plan = solve_plan(g, stats, args.mode, bit_width=args.bitwidth)
    qg = quantize_params(g, plan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_quantized(qg, out / "plan.json", out / "qweights.bin")
    print(f"plan ({args.mode}, {args.bitwidth}-bit) -> {out / 'plan.json'}")
    return EXIT_OK


def _evaluate(g, qgs: dict, data, labels, capture, batch, traces: bool = False) -> dict:
    """Shared float-vs-quantized evaluation loop over ``{mode: qg}``.

    The float reference runs once per batch for every quantized model;
    returns ``{mode: result}``. Only with ``traces`` does a result keep the
    captured integer codes, every batch's, under ``"traces"``.
    """
    accs = {mode: SqnrAccumulator(qg.plan) for mode, qg in qgs.items()}
    agree, positions = dict.fromkeys(qgs, 0), 0
    quant_correct = dict.fromkeys(qgs, 0)
    float_correct = 0
    saturation: dict[str, dict[str, int]] = {mode: {} for mode in qgs}
    codes = {mode: {name: [] for name in capture} for mode in qgs}

    for start in range(0, len(data), batch):
        chunk = data[start : start + batch]
        ref, ref_acts = execute_float(g, chunk, capture=capture)
        fa = np.argmax(ref, axis=1)
        positions += fa.size  # top-1 agreement is over N argmax positions, N*H*W on a map
        lab = None if labels is None else labels[start : start + len(chunk)]
        if lab is not None:
            float_correct += int(np.sum(fa == lab))
        for mode, qg in qgs.items():
            res = execute_quantized(qg, chunk, capture=capture)
            for name in capture:
                accs[mode].update(name, ref_acts[name], res.captured[name])
                if traces:
                    codes[mode][name].append(res.captured[name])
            for k, v in res.saturation.items():
                saturation[mode][k] = saturation[mode].get(k, 0) + v
            qa = np.argmax(res.output, axis=1)
            agree[mode] += int(np.sum(fa == qa))
            if lab is not None:
                quant_correct[mode] += int(np.sum(qa == lab))
    n = len(data)
    results = {}
    for mode in qgs:
        result = {
            "samples": n,
            "top1_agreement": agree[mode] / positions,
            "saturation": saturation[mode],
            "sqnr": accs[mode].report(),
        }
        if labels is not None:
            result["float_top1"] = float_correct / n
            result["quant_top1"] = quant_correct[mode] / n
        if traces:
            result["traces"] = {name: np.concatenate(chunks)
                                for name, chunks in codes[mode].items()}
        results[mode] = result
    return results


def cmd_eval(args) -> int:
    g = _load_graph(args)
    data = _load_dataset(args.dataset)
    labels = _load_labels(args.labels, g, len(data)) if args.labels else None
    qg = load_quantized(g, args.plan, args.qweights or Path(args.plan).parent / "qweights.bin")
    capture = set(g.activation_names()) if args.capture == "all" else set(args.capture.split(","))
    unknown = sorted(capture - set(g.activation_names()))
    if unknown:
        raise GraphError(f"--capture: the model has no tensor {unknown[0]!r}")
    res = _evaluate(g, {qg.plan.mode: qg}, data, labels, capture, args.batch,
                    traces=bool(args.trace_out))[qg.plan.mode]

    rows = []
    for name in sorted(res["sqnr"]):
        entry = res["sqnr"][name]
        rows.append([name, len(entry["per_channel"]), entry["pooled"],
                     float(np.min(entry["per_channel"]))])
    text = render_table(["tensor", "channels", "pooled_dB", "min_channel_dB"], rows,
                        title=f"eval: mode={qg.plan.mode} bitwidth={qg.plan.bit_width}")
    text += f"\ntop-1 agreement (quant vs float): {res['top1_agreement']:.4f}\n"
    if labels is not None:
        text += f"float top-1: {res['float_top1']:.4f}\nquant top-1: {res['quant_top1']:.4f}\n"
    text += f"accumulator saturations: {sum(res['saturation'].values())}\n"

    doc = {k: v for k, v in res.items() if k != "traces"}
    doc["mode"] = qg.plan.mode
    doc["bit_width"] = qg.plan.bit_width
    write_report(args.out, text, doc)
    if args.trace_out:
        tdir = Path(args.trace_out)
        tdir.mkdir(parents=True, exist_ok=True)
        for name, codes in sorted(res["traces"].items()):
            write_tensor(tdir / f"{name}.qtsr", codes)
    print(text)
    return EXIT_OK


def cmd_compare(args) -> int:
    g = _load_graph(args)
    data = _load_dataset(args.dataset)
    labels = _load_labels(args.labels, g, len(data)) if args.labels else None
    profile = _profile_subset(data, args.profile_samples, args.seed)
    qgs = {mode: quantize_params(g, plan)
           for mode, plan in _solve_modes(g, profile, MODES, args).items()}

    layer_nodes = [n for n in g.nodes if n.kind in LINEAR_KINDS]
    ofm = {n.name: effective_output(g, n) for n in layer_nodes}
    capture = set(ofm.values())
    per_mode = _evaluate(g, qgs, data, labels, capture, args.batch)

    rows = []
    for node in layer_nodes:
        row = [node.name]
        for mode in MODES:
            row.append(per_mode[mode]["sqnr"][ofm[node.name]]["pooled"])
        rows.append(row)
    rows.append(["top1_agreement"] + [per_mode[m]["top1_agreement"] for m in MODES])
    if labels is not None:
        rows.append(["quant_top1"] + [per_mode[m]["quant_top1"] for m in MODES])
    text = render_table(["layer"] + list(MODES), rows,
                        title=f"mode comparison (pooled OFM SQNR dB, {args.bitwidth}-bit)")
    doc = {
        "bit_width": args.bitwidth,
        "profile_samples": len(profile),
        "layers": {n.name: {m: per_mode[m]["sqnr"][ofm[n.name]]["pooled"] for m in MODES}
                   for n in layer_nodes},
        "top1_agreement": {m: per_mode[m]["top1_agreement"] for m in MODES},
    }
    if labels is not None:
        doc["quant_top1"] = {m: per_mode[m]["quant_top1"] for m in MODES}
        doc["float_top1"] = per_mode[MODES[0]]["float_top1"]
    write_report(args.out, text, doc)
    print(text)
    return EXIT_OK


def _activation_fls(g, plan):
    return np.concatenate([plan.tensors[t].fls for t in g.activation_names()])


def cmd_sweep_profile_size(args) -> int:
    g = _load_graph(args)
    data = _load_dataset(args.dataset)
    labels = _load_labels(args.labels, g, len(data)) if args.labels else None
    sweep_modes = ("cw_max", "cw_laplace")
    if max(args.sizes) > len(data):
        raise ValueError(f"--sizes {max(args.sizes)} exceeds the dataset's {len(data)} samples")

    ref_fls = {m: _activation_fls(g, plan)
               for m, plan in _solve_modes(g, data, sweep_modes, args).items()}

    rows = []
    doc = {"sizes": args.sizes, "draws": args.draws, "modes": {m: [] for m in sweep_modes}}
    for size in args.sizes:
        # both modes see the same profiling draws
        plans = {m: [] for m in sweep_modes}
        for d in range(args.draws):
            draw = _profile_subset(data, size, args.seed + 1000 * d)
            for mode, plan in _solve_modes(g, draw, sweep_modes, args).items():
                plans[mode].append(plan)
        qgs = {mode: quantize_params(g, plans[mode][0]) for mode in sweep_modes}
        per_mode = _evaluate(g, qgs, data, labels, set(), args.batch)
        for mode in sweep_modes:
            fls_draws = np.array([_activation_fls(g, plan) for plan in plans[mode]])
            match = float(np.mean(fls_draws == ref_fls[mode][None, :]))
            variance = float(np.mean(np.var(fls_draws, axis=0)))
            agreement = per_mode[mode]["top1_agreement"]
            rows.append([mode, size, match, variance, agreement])
            doc["modes"][mode].append(
                {
                    "size": size,
                    "fl_match_fraction": match,
                    "fl_variance": variance,
                    "top1_agreement": agreement,
                }
            )
    text = render_table(
        ["mode", "profile_samples", "fl_match_fraction", "fl_variance", "top1_agreement"],
        rows,
        title=f"profiling-size sweep ({args.draws} draws per size)",
    )
    write_report(args.out, text, doc)
    print(text)
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    spec = SynthSpec(
        arch=args.arch,
        in_channels=args.in_channels,
        image_size=args.image_size,
        channels=args.channels,
        classes=args.classes,
        samples=args.samples,
        scale_span_bits=args.scale_span,
        input_scale_span_bits=args.input_scale_span,
        input_family=args.input_family,
        seed=args.seed,
    )
    paths = write_bundle(spec, args.out)
    for k, p in paths.items():
        print(f"{k}: {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def _count(text: str) -> int:
    """argparse type of a positive integer count."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _seed(text: str) -> int:
    """argparse type of a non-negative integer seed."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _add_model_args(p):
    p.add_argument("--model", required=True, help="model manifest (JSON)")
    p.add_argument("--weights", default=None, help="weights blob (defaults to manifest reference)")


_COMMON = {
    "seed": dict(type=_seed, default=0),
    "bitwidth": dict(type=int, default=8),
    "batch": dict(type=_count, default=32),
}


def _add_common(p, *names):
    # each command takes only the shared flags it reads
    for name in names:
        p.add_argument(f"--{name}", **_COMMON[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chanq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="collect per-channel stats over a dataset")
    _add_model_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--profile-samples", type=_count, default=None)
    p.add_argument("--out", required=True)
    _add_common(p, "seed", "batch")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("quantize", help="solve a plan and quantize parameters")
    _add_model_args(p)
    p.add_argument("--stats", required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--out", required=True, help="output directory for plan.json + qweights.bin")
    _add_common(p, "bitwidth")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("eval", help="evaluate a quantized model against float")
    _add_model_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--plan", required=True)
    p.add_argument("--qweights", default=None)
    p.add_argument("--capture", default="all", help="comma-separated tensor names or 'all'")
    p.add_argument("--trace-out", default=None, help="directory for integer activation dumps")
    p.add_argument("--out", required=True, help="report prefix (.txt/.json)")
    _add_common(p, "batch")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="side-by-side report across all plan modes")
    _add_model_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--profile-samples", type=_count, default=None)
    p.add_argument("--out", required=True)
    _add_common(p, "seed", "bitwidth", "batch")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-profile-size", help="fl stability vs profiling sample count")
    _add_model_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--sizes", required=True, type=lambda v: [_count(s) for s in v.split(",")],
                   help="comma-separated sample counts")
    p.add_argument("--draws", type=_count, default=10)
    p.add_argument("--out", required=True)
    _add_common(p, "seed", "bitwidth", "batch")
    p.set_defaults(func=cmd_sweep_profile_size)

    p = sub.add_parser("gen-synthetic", help="generate a seeded model + toy dataset")
    p.add_argument("--arch", default="classifier", choices=ARCHS)
    p.add_argument("--in-channels", type=int, default=3)
    p.add_argument("--image-size", type=int, default=12)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--scale-span", type=float, default=4.0)
    p.add_argument("--input-scale-span", type=float, default=0.0)
    p.add_argument("--input-family", default="gaussian", choices=INPUT_FAMILIES)
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synthetic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # every chanq error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # a bug: one line, not a traceback
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
