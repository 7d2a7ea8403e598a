"""Repeat the benchmark over seeds and summarise every metric.

One checkout: the spread of each metric over the seeds,

    python3 perfbench/repeat.py --workload plan_sweep --seeds 1-10

Two checkouts (parent first, change second): alternating pairs. The i-th seed runs
the parent first when i is even and the change first when i is odd; the
summary gives each side's median and quartiles, the share of pairs the
change wins, and the parent's own spread.

    python3 perfbench/repeat.py --workload plan_sweep --seeds 1-10 \\
        --checkout ../parent --checkout .

Spread is (Q3 - Q1) / median with quartiles from ``statistics.quantiles(n=4)``.
Runs go one after another; nothing else should run on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns the result line with the named metrics merged in."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=200)
    except BaseException:  # timeout, SIGTERM or interrupt: the launcher stops its child
        proc.terminate()
        proc.wait()
        raise
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout} {workload} seed {seed}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("perfbench-detail "):
            detail = json.loads(line[len("perfbench-detail "):])
            result["named_metrics"] = detail["named_metrics"]
            result["fingerprints"] = detail["fingerprints"]
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def summarise(results: list[dict], key: str = "metrics") -> dict:
    names = results[0][key].keys()
    return {name: {"unit": results[0][key][name]["unit"],
                   **summary([r[key][name]["value"] for r in results])} for name in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", action="append", type=Path,
                   help="checkout to run in; give two for parent/change pairs")
    args = p.parse_args(argv)
    checkouts = args.checkout or [HERE.parent]
    if len(checkouts) > 2:
        p.error("at most two checkouts")

    runs: list[list[dict]] = [[] for _ in checkouts]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = list(range(len(checkouts)))
        if i % 2:
            order.reverse()
        for side in order:
            r = run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
            runs[side].append(r)
            print(f"seed {seed} {checkouts[side]}: correct={r['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  file=sys.stderr)

    out = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "sides": []}
    for checkout, results in zip(checkouts, runs):
        side = {"checkout": str(checkout), "runs": len(results),
                "all_correct": all(r["correct"] for r in results),
                "metrics": summarise(results)}
        if not args.trace:
            side["named_metrics"] = summarise(results, "named_metrics")
        out["sides"].append(side)
    if len(checkouts) == 2:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
        wins = {}
        for name in out["sides"][0]["metrics"]:
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in zip(*runs)]
            won = sum((b < a) if better.get(name, "lower") == "lower" else (b > a) for a, b in pairs)
            wins[name] = won / len(pairs)
        out["change_win_share"] = wins
    print(json.dumps(out, indent=1))
    return 0


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
