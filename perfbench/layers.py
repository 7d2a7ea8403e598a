"""Where the traced run wraps chanq, and the per-module metrics it derives.

Each wrapper replaces a public function at the place another module
reaches it as a module attribute (``chanq.cli.solve_plan`` is the name the
CLI binds at import, ``chanq.planner.solve_plan`` the one the benchmark
calls), so the program's own code is never edited. Counts that need no
clock, such as MACs and shifted product lanes, are computed from the
plan and the tensor shapes the call received.
"""

from __future__ import annotations

import os
import resource
import statistics

import numpy as np

from chanq import cli, flsolver, graph, pdfs, planner, profiling, qengine, reports, synthetic
from chanq import tensorfile, tensorops

MODES = planner.MODES
FAMILIES = ("laplace", "super_cauchy")
CLI_COMMANDS = ("gen-synthetic", "profile", "compare", "quantize", "eval")


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def int_work(qg, batch: int) -> tuple[int, int]:
    """(MACs, product lanes on the compensation-shift path) of one
    ``execute_quantized`` call on ``batch`` samples."""
    g, plan = qg.graph, qg.plan
    macs = lanes = 0
    for node in g.nodes:
        if node.name not in qg.kernels:
            continue
        ker = qg.kernels[node.name]
        comp = plan.layers[node.name].comp_shift
        out = g.shapes[node.outputs[0]]
        if node.kind == "fc":
            macs += batch * ker.size
            shifted = comp[:, plan.layers[node.name].in_groups] > 0
            lanes += batch * int(shifted.sum())
            continue
        positions = batch * out[2] * out[3]
        macs += positions * ker.size
        if node.kind == "conv":
            lanes += positions * ker.shape[2] * ker.shape[3] * int((comp > 0).sum())
    return macs, lanes


def _after_collect(tracer, result, args, kwargs, rss_before):
    tracer.counts["profiling.values"] += sum(int(ts.per_channel.count.sum()) for ts in result.values())
    tracer.counts["profiling.rss_growth_mb"] += maxrss_mb() - rss_before


def _after_solve(tracer, plan, args, kwargs, _):
    comp = [lp.comp_shift for lp in plan.layers.values()]
    tracer.gauges[f"planner.comp_shift_pairs.{plan.mode}"] = sum(int((c > 0).sum()) for c in comp)
    tracer.gauges[f"planner.pairs.{plan.mode}"] = sum(c.size for c in comp)


def _after_quantized(tracer, res, args, kwargs, _):
    qg, x = args[0], _arg(args, kwargs, 1, "x")
    macs, lanes = int_work(qg, len(x))
    tracer.counts["qengine.int_macs"] += macs
    tracer.counts[f"qengine.comp_shift_lanes.{qg.plan.mode}"] += lanes
    tracer.counts[f"qengine.acc_clipped.{qg.plan.mode}"] += sum(res.saturation.values())


def _after_float_op(tracer, out, args, kwargs, _):
    # every output element of a conv or fc is one dot product over the kernel's fan-in
    weights = args[1]
    tracer.counts["tensorops.float_macs"] += out.size * int(np.prod(weights.shape[1:]))


def _after_file(tracer, result, args, kwargs, _):
    tracer.counts["tensorfile.bytes"] += os.path.getsize(args[0])


def install(tracer) -> None:
    """Wrap every traced entry point; ``tracer.unwrap_all()`` undoes it."""
    w = tracer.wrap
    w(synthetic, "build_graph", "synthetic.build_graph")
    w(synthetic, "gen_dataset", "synthetic.gen_dataset")
    for owner in (profiling, cli):
        w(owner, "collect_stats", "profiling.collect_stats",
          before=lambda a, k: maxrss_mb(), after=_after_collect)
    w(flsolver, "optimal_fl",
      lambda *a, **k: f"flsolver.optimal_fl.{_arg(a, k, 1, 'family')}")
    w(flsolver, "classify_pdf", "flsolver.classify_pdf")
    w(flsolver, "default_classifier", "flsolver.default_classifier")
    w(pdfs, "fit_pdf", "pdfs.fit_pdf")
    for owner in (planner, cli):
        w(owner, "solve_plan", lambda *a, **k: f"planner.solve_plan.{_arg(a, k, 2, 'mode')}",
          after=_after_solve)
    for owner in (graph, profiling):
        w(owner, "execute_float", "graph.execute_float")
    for name in ("conv2d", "fully_connected"):
        w(tensorops, name, f"tensorops.{name}", after=_after_float_op)
    w(tensorops, "pool", "tensorops.pool")
    for owner in (qengine, cli):
        w(owner, "execute_quantized",
          lambda *a, **k: f"qengine.execute_quantized.{a[0].plan.mode}", after=_after_quantized)
        w(owner, "quantize_params", "qengine.quantize_params")
    w(qengine, "rounding_shift", "fixedpoint.rounding_shift")
    w(qengine.SqnrAccumulator, "update", "qengine.sqnr_update")
    for owner in (tensorfile, cli):
        w(owner, "read_tensor", "tensorfile.read", after=_after_file)
    for owner in (tensorfile, cli, synthetic):
        w(owner, "write_tensor", "tensorfile.write", after=_after_file)
    for owner in (reports, cli):
        w(owner, "write_report", "reports.write_report")
    w(cli, "main", lambda *a, **k: cli_span(_arg(a, k, 0, "argv")[0]))


def cli_span(command: str) -> str:
    return "cli." + command.replace("-", "_")


# name -> unit, in the order of the output; BENCHMARK.json lists the same.
PER_LAYER = {
    "synthetic.build_graph_s": "s",
    "synthetic.gen_dataset_s": "s",
    "profiling.collect_stats_s": "s",
    "profiling.collect_stats_self_s": "s",
    "profiling.values": "count",
    "profiling.rss_growth_mb": "MB",
    "flsolver.optimal_fl_calls": "count",
    "flsolver.optimal_fl_s": "s",
    "flsolver.optimal_fl_self_s": "s",
    **{f"flsolver.optimal_fl_ms_p50.{f}": "ms" for f in FAMILIES},
    "flsolver.classify_pdf_calls": "count",
    "flsolver.classify_pdf_s": "s",
    "flsolver.default_classifier_s": "s",
    "pdfs.fit_pdf_s": "s",
    **{f"planner.solve_plan_s.{m}": "s" for m in MODES},
    **{f"planner.self_s.{m}": "s" for m in MODES},
    **{f"planner.comp_shift_pairs.{m}": "count" for m in MODES},
    **{f"planner.pairs.{m}": "count" for m in MODES},
    **{f"planner.comp_shift_pair_ratio.{m}": "ratio" for m in MODES},
    "graph.execute_float_s": "s",
    "graph.execute_float_self_s": "s",
    "tensorops.conv2d_s": "s",
    "tensorops.fully_connected_s": "s",
    "tensorops.pool_s": "s",
    "tensorops.float_macs": "count",
    "tensorops.float_gmacs_per_s": "GMAC/s",
    **{f"qengine.execute_quantized_s.{m}": "s" for m in MODES},
    "qengine.execute_quantized_self_s": "s",
    "qengine.int_macs": "count",
    **{f"qengine.comp_shift_lanes.{m}": "count" for m in MODES},
    **{f"qengine.acc_clipped.{m}": "count" for m in MODES},
    "fixedpoint.rounding_shift_calls": "count",
    "fixedpoint.rounding_shift_s": "s",
    "qengine.quantize_params_s": "s",
    "qengine.sqnr_update_s": "s",
    "tensorfile.read_s": "s",
    "tensorfile.write_s": "s",
    "tensorfile.bytes": "B",
    "reports.write_report_s": "s",
    **{f"{cli_span(c)}_s": "s" for c in CLI_COMMANDS},
    "trace.overhead_ratio": "ratio",
}


def per_layer_metrics(tracer, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from the spans and counters of a traced run."""
    total, own, calls = tracer.busy()

    def summed(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m = {
        "synthetic.build_graph_s": total["synthetic.build_graph"],
        "synthetic.gen_dataset_s": total["synthetic.gen_dataset"],
        "profiling.collect_stats_s": total["profiling.collect_stats"],
        "profiling.collect_stats_self_s": own["profiling.collect_stats"],
        "profiling.values": tracer.counts["profiling.values"],
        "profiling.rss_growth_mb": tracer.counts["profiling.rss_growth_mb"],
        "flsolver.optimal_fl_calls": summed("flsolver.optimal_fl.", calls),
        "flsolver.optimal_fl_s": summed("flsolver.optimal_fl.", total),
        "flsolver.optimal_fl_self_s": summed("flsolver.optimal_fl.", own),
        "flsolver.classify_pdf_calls": calls["flsolver.classify_pdf"],
        "flsolver.classify_pdf_s": total["flsolver.classify_pdf"],
        "flsolver.default_classifier_s": total["flsolver.default_classifier"],
        "pdfs.fit_pdf_s": total["pdfs.fit_pdf"],
        "graph.execute_float_s": total["graph.execute_float"],
        "graph.execute_float_self_s": own["graph.execute_float"],
        "tensorops.conv2d_s": total["tensorops.conv2d"],
        "tensorops.fully_connected_s": total["tensorops.fully_connected"],
        "tensorops.pool_s": total["tensorops.pool"],
        "tensorops.float_macs": tracer.counts["tensorops.float_macs"],
        "qengine.execute_quantized_self_s": summed("qengine.execute_quantized.", own),
        "qengine.int_macs": tracer.counts["qengine.int_macs"],
        "fixedpoint.rounding_shift_calls": calls["fixedpoint.rounding_shift"],
        "fixedpoint.rounding_shift_s": total["fixedpoint.rounding_shift"],
        "qengine.quantize_params_s": total["qengine.quantize_params"],
        "qengine.sqnr_update_s": total["qengine.sqnr_update"],
        "tensorfile.read_s": total["tensorfile.read"],
        "tensorfile.write_s": total["tensorfile.write"],
        "tensorfile.bytes": tracer.counts["tensorfile.bytes"],
        "reports.write_report_s": total["reports.write_report"],
        "trace.overhead_ratio": overhead_ratio,
    }
    for f in FAMILIES:
        d = tracer.durations(f"flsolver.optimal_fl.{f}")
        m[f"flsolver.optimal_fl_ms_p50.{f}"] = 1000.0 * statistics.median(d) if d else 0.0
    gemm_s = total["tensorops.conv2d"] + total["tensorops.fully_connected"]
    m["tensorops.float_gmacs_per_s"] = m["tensorops.float_macs"] / gemm_s / 1e9 if gemm_s else 0.0
    for mode in MODES:
        m[f"planner.solve_plan_s.{mode}"] = total[f"planner.solve_plan.{mode}"]
        m[f"planner.self_s.{mode}"] = own[f"planner.solve_plan.{mode}"]
        shifted = tracer.gauges.get(f"planner.comp_shift_pairs.{mode}", 0)
        pairs = tracer.gauges.get(f"planner.pairs.{mode}", 0)
        m[f"planner.comp_shift_pairs.{mode}"] = shifted
        m[f"planner.pairs.{mode}"] = pairs
        m[f"planner.comp_shift_pair_ratio.{mode}"] = shifted / pairs if pairs else 0.0
        m[f"qengine.execute_quantized_s.{mode}"] = total[f"qengine.execute_quantized.{mode}"]
        m[f"qengine.comp_shift_lanes.{mode}"] = tracer.counts[f"qengine.comp_shift_lanes.{mode}"]
        m[f"qengine.acc_clipped.{mode}"] = tracer.counts[f"qengine.acc_clipped.{mode}"]
    for c in CLI_COMMANDS:
        m[f"{cli_span(c)}_s"] = total[cli_span(c)]
    return {name: float(m[name]) for name in PER_LAYER}
