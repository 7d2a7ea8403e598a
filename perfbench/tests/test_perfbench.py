"""Tests of the benchmark itself: quick workloads, fingerprint checks, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics each workload names in its detail line.
NAMED = {
    "plan_sweep": {"plan_s_p50": "s", "plan_s_tail": "s", "plans_per_s": "1/s"},
    "infer_classifier": {"int_cw_samples_per_s": "1/s", "int_lw_samples_per_s": "1/s",
                         "int_batch_s_p50": "s", "int_batch_s_tail": "s",
                         "float_samples_per_s": "1/s"},
    "compare_residual": {"compare_s": "s", "eval_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "ops_failed_ratio": "ratio"}


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the benchmark's scratch files go to the working directory


def quick(name, trace=False, expected=None):
    return bench.run_workload(name, seed=3, seconds=0.01, trace=trace, size="quick",
                              expected=expected, setups=(1, 1))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_run_emits_every_metric_with_its_unit(name):
    result, detail = quick(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = {k: v["unit"] for k, v in detail["named_metrics"].items()}
    assert named.items() >= {**NAMED[name], **COMMON}.items()
    assert os.listdir(".") == []  # scratch directory removed


def test_result_times_are_wall_times_at_reference_speed():
    result, detail = quick("plan_sweep")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    named = {k: v["value"] for k, v in detail["named_metrics"].items()}
    op_scale = bench.REF_NOMINAL_S / (named["reference_ms.timed"] / 1e3)
    setup_scale = bench.REF_NOMINAL_S / (named["reference_ms.setup"] / 1e3)
    assert m["op_s_p50"] == pytest.approx(named["wall.op_s_p50"] * op_scale)
    assert m["op_s_tail"] == pytest.approx(named["wall.op_s_tail"] * op_scale)
    assert m["ops_per_s"] == pytest.approx(named["wall.ops_per_s"] / op_scale)
    assert m["setup_s"] == pytest.approx(named["setup_s"] * setup_scale)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_quick_run_emits_every_per_layer_metric(name):
    from chanq import planner

    original = planner.solve_plan
    result, _ = quick(name, trace=True)
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["synthetic.build_graph_s"] > 0 and m["graph.execute_float_s"] > 0
    assert m["trace.overhead_ratio"] > 0
    assert m["planner.comp_shift_pairs.layerwise_max"] == 0
    assert m["planner.self_s.cw_laplace"] < m["planner.solve_plan_s.cw_laplace"]
    assert planner.solve_plan is original  # wrappers removed


def test_named_metrics_number_thirteen():
    names = set(COMMON).union(*NAMED.values())
    assert len(names) == 13


def test_corrupted_expected_fingerprint_is_a_failure():
    _, detail = quick("infer_classifier")
    expected = dict(detail["fingerprints"])
    result, _ = quick("infer_classifier", expected=expected)
    assert result["correct"] and result["failed"] == 0

    key = sorted(k for k in expected if k.startswith("codes."))[0]
    expected[key] = "0" * 64
    result, detail = quick("infer_classifier", expected=expected)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any(key in f for f in detail["failures"])


def test_memo_tables_exist_and_are_emptied_before_each_set_up():
    from chanq import flsolver

    assert all(hasattr(module, name) for module, name in workloads.MEMO_TABLES)
    flsolver.default_classifier(8)
    workloads.clear_memo_tables()
    assert not flsolver._DEFAULT_KNN


def test_repetition_that_differs_from_the_first_is_a_failure():
    rec = workloads.Record()
    rec.fingerprint("plan.cw_max", "a")
    rec.fingerprint("plan.cw_max", "a")
    assert not rec.failures
    rec.fingerprint("plan.cw_max", "b")
    assert rec.failures and rec.attempted == 3


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union counts once
        Span("c", 8.0, 12.0, parent=0),  # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])


def test_tracer_totals_nested_spans():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    total, own, calls = tracer.busy()
    assert calls == {"outer": 1, "inner": 2}
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert workloads.percentile_tail(list(range(15)))[0] == 50
    assert workloads.percentile_tail(list(range(40)))[0] == 75
    assert workloads.percentile_tail(list(range(100)))[0] == 90
    assert workloads.percentile_tail(list(range(1000)))[0] == 99
