"""Run one benchmark workload and print its result as the last stdout line.

Start it through the launcher, which caps BLAS threads and puts ``src``
first on the import path:

    python3 perfbench/run.py --workload plan_sweep --seed 1 --seconds 18 --trace 0

The time metrics of the result line are calibrated: wall seconds scaled
by ``REF_NOMINAL_S`` over the median time of a fixed reference computation
timed before every operation of the same phase (see ``workloads.reference_s``).
They read as seconds on a host where the reference takes ``REF_NOMINAL_S``.
The line before the result, ``perfbench-detail {...}``, carries the
wall-clock values, the workload's named metrics (wall-clock), the
reference times, the environment and the output fingerprints.
Exit codes: 0 all outputs correct, 1 a result was printed but some
operation failed or an output differed, 2 usage error or no program found,
3 no operation completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
# Set-up repeats at least three times and until it has taken SETUP_MIN_S,
# so that a set-up of a fraction of a second still gets a steady median.
SETUP_REPEATS = (3, 25)
SETUP_MIN_S = 4.0
# Calibrated seconds are seconds on a host where workloads.reference_s()
# takes this long, near its median on the 2-vCPU Xeon of baseline.json.
REF_NOMINAL_S = 0.020


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _cycles(wl, rec, seconds: float, start: int = 0) -> list[float]:
    """Durations of whole cycles run until ``seconds`` have passed.

    The first cycle warms caches and lazy initialisation; its outputs are
    checked but its timings are dropped. It counts toward ``seconds``.
    Durations leave out the reference timings in between.
    """
    t0 = time.perf_counter()
    wl.cycle(rec, start)
    rec.durations.clear()
    rec.reference.clear()
    durations = []
    while True:
        c0, refs = time.perf_counter(), sum(rec.reference)
        wl.cycle(rec, start + 1 + len(durations))
        durations.append(time.perf_counter() - c0 - (sum(rec.reference) - refs))
        if time.perf_counter() - t0 >= seconds and len(durations) >= wl.min_cycles:
            return durations


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 expected: dict | None = None, setups: tuple[int, int] = SETUP_REPEATS
                 ) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, detail).

    ``expected`` holds committed fingerprints to compare with, or None to
    check only that repetitions reproduce the run's first outputs.
    """
    import layers
    import workloads
    from spans import Tracer

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd()))
    rec = workloads.Record()
    wl = workloads.WORKLOADS[name](workloads.SIZES[size][name], seed, workdir)
    tracer = Tracer()
    try:
        if trace:
            layers.install(tracer)
            tracer.enabled = True
            wl.setup(rec)
            tracer.enabled = False
            plain = _cycles(wl, rec, seconds / 2)
            tracer.enabled = True
            traced = _cycles(wl, rec, seconds / 2, start=len(plain) + 1)
            wl.check(rec)
            tracer.enabled = False
        else:
            setup_times = []
            while len(setup_times) < setups[1] and (
                    len(setup_times) < setups[0] or sum(setup_times) < SETUP_MIN_S):
                workloads.clear_memo_tables()
                rec.time_reference()
                t0 = time.perf_counter()
                wl.setup(rec)
                setup_times.append(time.perf_counter() - t0)
            rec.time_reference()
            setup_reference = statistics.median(rec.reference)
            rec.calibrate = True
            cycles = _cycles(wl, rec, seconds)
            rec.calibrate = False
            reference = statistics.median(rec.reference)
            wl.check(rec)
    finally:
        tracer.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)
    if expected is not None:
        rec.check_expected(expected)

    ops = wl.op_durations(rec)
    if not ops:
        raise RuntimeError("no operation completed: " + "; ".join(rec.failures[:5]))
    peak_rss_mb = layers.maxrss_mb()
    if trace:
        overhead = statistics.mean(traced) / statistics.mean(plain)
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k]}
                   for k, v in layers.per_layer_metrics(tracer, overhead).items()}
        named = {}
    else:
        setup_s = statistics.median(setup_times)
        pct, tail = workloads.percentile_tail(ops)
        # ops over the whole timed phase: a median of ops that mix modes of
        # unequal cost jumps between modes from run to run, a mean does not
        ops_per_s = len(ops) / sum(cycles)
        # calibrated: wall seconds at the speed the reference had meanwhile
        setup_scale, op_scale = REF_NOMINAL_S / setup_reference, REF_NOMINAL_S / reference
        values = {
            "setup_s": (setup_s * setup_scale, "s"),
            "op_s_p50": (statistics.median(ops) * op_scale, "s"),
            "op_s_tail": (tail * op_scale, "s"),
            "ops_per_s": (ops_per_s / op_scale, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        named = {
            "wall.op_s_p50": (statistics.median(ops), "s"),
            "wall.op_s_tail": (tail, "s"),
            "wall.ops_per_s": (ops_per_s, "1/s"),
            "reference_ms.setup": (setup_reference * 1e3, "ms"),
            "reference_ms.timed": (reference * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            **wl.named_metrics(rec, sum(cycles)),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_failed_ratio": (len(rec.failures) / rec.attempted, "ratio"),
        }
        named = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        named["op_s_tail_percentile"] = {"value": pct, "unit": "%"}
        named["setup_repeats"] = {"value": len(setup_times), "unit": "count"}
        named["cycles"] = {"value": len(cycles), "unit": "count"}
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": trace,
        "environment": environment(),
        "named_metrics": named,
        "fingerprints": rec.fingerprints,
        "failures": rec.failures,
    }
    return result, detail


def committed_fingerprints(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text())["workloads"].get(name)


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description="chanq benchmark: one workload per run")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-expected", action="store_true",
                   help="store this run's fingerprints as the committed ones (default seed only)")
    args = p.parse_args(argv)
    if args.write_expected and args.seed != DEFAULT_SEED:
        p.error(f"--write-expected needs --seed {DEFAULT_SEED}")

    expected = None if args.write_expected else committed_fingerprints(args.workload, args.seed)
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                      expected=expected)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    for failure in detail["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.write_expected and result["correct"]:
        doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {"seed": DEFAULT_SEED, "workloads": {}}
        doc["workloads"][args.workload] = detail["fingerprints"]
        EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _check_program() -> None:
    """Refuse to measure any chanq other than the one in this checkout."""
    import chanq

    if Path(chanq.__file__).resolve().parent != ROOT / "src" / "chanq":
        raise ImportError(f"chanq imported from {chanq.__file__}, not from {ROOT / 'src'}")


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the scratch directory is removed


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        _check_program()
    except ImportError as e:
        print(f"error: cannot import chanq from this checkout: {e}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
