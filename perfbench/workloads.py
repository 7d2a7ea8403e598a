"""The benchmark's seeded workloads: set-up, one timed cycle, output checks.

Every workload is a closed loop with one caller. A cycle is the smallest
unit that repeats the same work, so cycles can be compared: all five plan
modes for ``plan_sweep``, one batch through the float engine and all five
integer plans for ``infer_classifier``, one pass of the CLI commands for
``compare_residual``. Inputs come only from the seed; the program sees the
generated model files and tensors, nothing else.

Before each operation the record times a fixed reference computation of
the benchmark's own (``reference_s``). The host's speed drifts by a fifth
within seconds; the reference drifts with it, so times scaled by the
reference's median depend far less on the host (README, Calibrated seconds).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from chanq import cli, flsolver, graph, pdfs, planner, profiling, qengine, synthetic, tensorfile

MODES = planner.MODES

# chanq's module-level memo tables. A new process starts with them empty, so
# every set-up repeat empties them and pays again for the kNN load and the
# tables the solver fills. A table a later version drops is skipped.
MEMO_TABLES = ((flsolver, "_DEFAULT_KNN"), (pdfs, "_Z_CACHE"), (pdfs, "_V_CACHE"),
               (pdfs, "_SC_INVCDF_CACHE"))

# Workload sizes. The benchmark measures "full"; "quick" keeps every code path
# but finishes in seconds, for the benchmark's own tests.
SIZES = {
    "full": {
        "plan_sweep": dict(arch="hetero_conv", channels=16, image_size=12, samples=1024,
                           input_family="heavy", scale_span=4.0, input_scale_span=4.0,
                           model_seed=1, profile=128, big_profile=1024, batch=64),
        "infer_classifier": dict(arch="classifier", channels=32, image_size=12, samples=128,
                                 input_scale_span=4.0, profile=64, batch=64),
        "compare_residual": dict(arch="residual", channels=16, image_size=16, samples=32,
                                 profile=32, batch=32),
    },
    "quick": {
        "plan_sweep": dict(arch="hetero_conv", channels=4, image_size=8, samples=64,
                           input_family="heavy", scale_span=4.0, input_scale_span=4.0,
                           model_seed=1, profile=16, big_profile=64, batch=16),
        "infer_classifier": dict(arch="classifier", channels=4, image_size=8, samples=32,
                                 input_scale_span=4.0, profile=16, batch=16),
        "compare_residual": dict(arch="residual", channels=4, image_size=8, samples=16,
                                 profile=16, batch=16),
    },
}


_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((128, 128))
_REF_VECTOR = _REF_RNG.standard_normal(1_000_000)
_REF_SORT = _REF_RNG.standard_normal(100_000)
_REF_WINDOWS = np.lib.stride_tricks.sliding_window_view(
    _REF_RNG.standard_normal((64, 16, 14, 14)), (3, 3), axis=(2, 3))
_REF_KERNEL = _REF_RNG.standard_normal((16, 16, 3, 3))


def reference_s() -> float:
    """Seconds taken by a fixed computation of about 20 ms.

    It mixes the kinds of work chanq does: an interpreter loop, small BLAS
    products, a streaming elementwise pass, a sort and a windowed einsum.
    A host's slow spells slow these kinds unequally; any one kind alone
    followed the workloads' times from run to run less well than the mix.
    It never calls chanq, so it does the same work on every commit."""
    t0 = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    for _ in range(10):
        _REF_MATRIX @ _REF_MATRIX
    for _ in range(2):
        np.exp(_REF_VECTOR).sum()
    for _ in range(3):
        np.sort(_REF_SORT)
    np.einsum("nchwij,ocij->nohw", _REF_WINDOWS, _REF_KERNEL, optimize=True)
    return time.perf_counter() - t0


def clear_memo_tables() -> None:
    for module, name in MEMO_TABLES:
        getattr(module, name, {}).clear()


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def plan_sha(plan) -> str:
    return sha256(json.dumps(planner.plan_to_json(plan), sort_keys=True).encode())


def files_sha(*paths) -> str:
    return sha256(*(Path(p).read_bytes() for p in paths))


def percentile_tail(values) -> tuple[float, float]:
    """(percentile, value): the highest of p50/p75/p90/p95/p99 that leaves at
    least ten samples beyond it, or p50 when there are fewer samples.

    A fixed ladder keeps the reported percentile the same from run to run
    when the sample count moves a little."""
    n = len(values)
    p = next((p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10), 50)
    return float(p), float(np.percentile(values, p))


class Record:
    """Operation timings, failures and output fingerprints of one run."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.fingerprints: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrate = False  # time the reference before each operation
        self.reference: list[float] = []

    def time_reference(self) -> None:
        self.reference.append(reference_s())

    def op(self, kind: str, fn, *args):
        """Run one operation and time it; an exception counts as a failure."""
        if self.calibrate:
            self.time_reference()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # the loop must keep measuring; the failure is reported
            self.failures.append(f"{kind}: {type(e).__name__}: {e}")
            return None
        self.durations[kind].append(time.perf_counter() - t0)
        return result

    def fingerprint(self, key: str, value: str) -> None:
        """Record an output; a repetition must reproduce the first value."""
        self.attempted += 1
        first = self.fingerprints.setdefault(key, value)
        if first != value:
            self.failures.append(f"fingerprint {key}: {value} != first {first}")

    def check_expected(self, expected: dict) -> None:
        """Compare fingerprints with the committed ones; each key is one check."""
        for key in sorted(set(expected) | set(self.fingerprints)):
            self.attempted += 1
            got, want = self.fingerprints.get(key), expected.get(key)
            if got != want:
                self.failures.append(f"expected {key}: got {got}, committed {want}")


def _spec(size: dict, seed: int) -> synthetic.SynthSpec:
    return synthetic.SynthSpec(
        arch=size["arch"], channels=size["channels"], image_size=size["image_size"],
        samples=size["samples"], input_family=size.get("input_family", "gaussian"),
        scale_span_bits=size.get("scale_span", 4.0),
        input_scale_span_bits=size.get("input_scale_span", 0.0), seed=seed)


def _batches(x: np.ndarray, batch: int) -> list[np.ndarray]:
    return [x[i:i + batch] for i in range(0, len(x), batch)]


def _codes_and_top1(qg, x, ref_logits) -> tuple[str, str]:
    out = qg.graph.output_name
    res = qengine.execute_quantized(qg, x, capture=[out])
    agree = int(np.sum(np.argmax(res.output, 1) == np.argmax(ref_logits, 1)))
    return sha256(res.captured[out].tobytes()), f"{agree}/{len(x)}"


class Workload:
    name = ""
    min_cycles = 1

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = Path(workdir)

    def _bundle(self, rec: Record):
        """Write the model and the seed's dataset as files, then load them back.

        Where the size names a ``model_seed``, the model comes from it and
        only the data from the run's seed, so the work a run does depends
        on the seed through its data alone."""
        spec = _spec(self.size, self.seed)
        model_seed = self.size.get("model_seed", self.seed)
        g = synthetic.build_graph(dataclasses.replace(spec, seed=model_seed))
        x, labels = synthetic.gen_dataset(g, spec)
        d = self.workdir / "model"
        d.mkdir(exist_ok=True)
        paths = [d / "model.json", d / "weights.bin", d / "data.qtsr", d / "labels.qtsr"]
        graph.save_model(g, paths[0], paths[1])
        tensorfile.write_tensor(paths[2], x)
        tensorfile.write_tensor(paths[3], labels)
        rec.fingerprint("inputs", files_sha(*paths))
        return graph.load_model(paths[0]), tensorfile.read_tensor(paths[2])

    def setup(self, rec: Record) -> None:
        raise NotImplementedError

    def cycle(self, rec: Record, index: int) -> None:
        raise NotImplementedError

    def check(self, rec: Record) -> None:
        """Output checks after the timed phase."""

    def named_metrics(self, rec: Record, wall: float) -> dict:
        """The workload's own end-to-end metrics, by the names its doc uses."""
        raise NotImplementedError

    def op_durations(self, rec: Record) -> list[float]:
        """Durations of the workload's unit operation, for op_s_* and ops_per_s."""
        raise NotImplementedError


class PlanSweep(Workload):
    """Compile: draw a profiling subset, collect stats, solve, quantize."""

    name = "plan_sweep"
    min_cycles = 4

    def setup(self, rec):
        self.g, self.x = self._bundle(rec)
        flsolver.default_classifier(8)
        self.qgs = {}

    def _compile(self, mode):
        rng = np.random.default_rng([self.seed, 7])
        subset = self.x[rng.permutation(len(self.x))[: self.size["profile"]]]
        stats = profiling.collect_stats(self.g, _batches(subset, self.size["batch"]))
        plan = planner.solve_plan(self.g, stats, mode)
        return qengine.quantize_params(self.g, plan)

    def cycle(self, rec, index):
        done = 0
        for mode in MODES:
            qg = rec.op("compile", self._compile, mode)
            if qg is not None:
                rec.fingerprint(f"plan.{mode}", plan_sha(qg.plan))
                self.qgs[mode] = qg
                done += 1
        if done == len(MODES):
            rec.durations["sweep"].append(sum(rec.durations["compile"][-done:]))

    def check(self, rec):
        big = self.x[: self.size["big_profile"]]
        rec.op("profile_big", profiling.collect_stats, self.g, _batches(big, self.size["batch"]))
        x = self.x[: self.size["batch"]]
        ref, _ = graph.execute_float(self.g, x)
        for mode, qg in self.qgs.items():
            codes = rec.op("check", _codes_and_top1, qg, x, ref)
            if codes is not None:
                rec.fingerprint(f"codes.{mode}", codes[0])
                rec.fingerprint(f"top1.{mode}", codes[1])

    def op_durations(self, rec):
        # a sweep (one compile per mode), not a compile: compiles of the five
        # modes differ up to threefold, and a median over them lands on
        # whichever mode sits in the middle in that run
        return rec.durations["sweep"]

    def named_metrics(self, rec, wall):
        d = rec.durations["compile"]
        pct, tail = percentile_tail(d)
        return {
            "plan_s_p50": (float(np.median(d)), "s"),
            "plan_s_tail": (tail, "s"),
            "plan_s_tail_percentile": (pct, "%"),
            "plan_s_n": (len(d), "count"),
            "plans_per_s": (len(d) / wall, "1/s"),
            "profile_big_s": (sum(rec.durations["profile_big"]), "s"),
        }


class InferClassifier(Workload):
    """Fixed batches through the float engine and every integer plan."""

    name = "infer_classifier"
    # At least 40 integer batches, so the tail is always p75 with ten beyond
    # it, however slow the machine; eight cycles also cover both batches.
    min_cycles = 8

    def setup(self, rec):
        self.g, x = self._bundle(rec)
        stats = profiling.collect_stats(self.g, _batches(x[: self.size["profile"]], self.size["batch"]))
        self.qgs = {}
        for mode in MODES:
            plan = planner.solve_plan(self.g, stats, mode)
            rec.fingerprint(f"plan.{mode}", plan_sha(plan))
            self.qgs[mode] = qengine.quantize_params(self.g, plan)
        self.batches = _batches(x, self.size["batch"])

    def cycle(self, rec, index):
        b = index % len(self.batches)
        x = self.batches[b]
        out = rec.op("float", graph.execute_float, self.g, x)
        if out is None:
            return
        for mode, qg in self.qgs.items():
            kind = "int_lw" if mode == "layerwise_max" else "int_cw"
            codes = rec.op(kind, _codes_and_top1, qg, x, out[0])
            if codes is not None:
                rec.fingerprint(f"codes.{mode}.b{b}", codes[0])
                rec.fingerprint(f"top1.{mode}.b{b}", codes[1])

    def op_durations(self, rec):
        return rec.durations["int_lw"] + rec.durations["int_cw"]

    def named_metrics(self, rec, wall):
        n = self.size["batch"]
        lw, cw, fl = rec.durations["int_lw"], rec.durations["int_cw"], rec.durations["float"]
        pct, tail = percentile_tail(lw + cw)
        return {
            "int_cw_samples_per_s": (n * len(cw) / sum(cw), "1/s"),
            "int_lw_samples_per_s": (n * len(lw) / sum(lw), "1/s"),
            "int_batch_s_p50": (float(np.median(lw + cw)), "s"),
            "int_batch_s_tail": (tail, "s"),
            "int_batch_s_tail_percentile": (pct, "%"),
            "int_batch_s_n": (len(lw + cw), "count"),
            "float_samples_per_s": (n * len(fl) / sum(fl), "1/s"),
        }


class CompareResidual(Workload):
    """The CLI path a user runs: profile, compare, quantize, eval."""

    name = "compare_residual"
    min_cycles = 2
    COMMANDS = ("profile", "compare", "quantize", "eval")

    def _cli(self, *argv) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"chanq {argv[0]} exited with {rc}")
        return True

    def setup(self, rec):
        s, d = self.size, self.workdir
        self._cli("gen-synthetic", "--arch", s["arch"], "--channels", s["channels"],
                  "--image-size", s["image_size"], "--samples", s["samples"],
                  "--seed", self.seed, "--out", d / "m")
        rec.fingerprint("inputs", files_sha(*(d / "m" / f for f in
                                              ("model.json", "weights.bin", "data.qtsr", "labels.qtsr"))))
        flsolver.default_classifier(8)

    def _args(self):
        s, d = self.size, self.workdir
        model = ["--model", d / "m" / "model.json"]
        data = ["--dataset", d / "m" / "data.qtsr"]
        sample = ["--profile-samples", s["profile"], "--seed", self.seed, "--batch", s["batch"]]
        return {
            "profile": ["profile", *model, *data, *sample, "--out", d / "stats.json"],
            "compare": ["compare", *model, *data, "--labels", d / "m" / "labels.qtsr", *sample,
                        "--out", d / "cmp"],
            "quantize": ["quantize", *model, "--stats", d / "stats.json", "--mode", "cw_pdf_aware",
                         "--out", d / "q"],
            "eval": ["eval", *model, *data, "--labels", d / "m" / "labels.qtsr", "--plan",
                     d / "q" / "plan.json", "--capture", "all", "--trace-out", d / "traces",
                     "--batch", s["batch"], "--out", d / "rep"],
        }

    def cycle(self, rec, index):
        d, args = self.workdir, self._args()
        outputs = {
            "profile": [d / "stats.json"],
            "compare": [d / "cmp.json", d / "cmp.txt"],
            "quantize": [d / "q" / "plan.json", d / "q" / "qweights.bin"],
            "eval": [d / "rep.json", d / "rep.txt"],
        }
        for command in self.COMMANDS:
            if rec.op(command, self._cli, *args[command]) is None:
                return
            if command == "eval":
                outputs["eval"] += sorted((d / "traces").glob("*.qtsr"))
            rec.fingerprint(f"{command}.out", files_sha(*outputs[command]))
        rec.durations["sequence"].append(sum(rec.durations[c][-1] for c in self.COMMANDS))

    def check(self, rec):
        d = self.workdir
        for mode in MODES:
            out = d / f"plan_{mode}"
            if rec.op("check", self._cli, "quantize", "--model", d / "m" / "model.json",
                      "--stats", d / "stats.json", "--mode", mode, "--out", out):
                rec.fingerprint(f"plan.{mode}", files_sha(out / "plan.json"))
        if (d / "cmp.json").exists():
            doc = json.loads((d / "cmp.json").read_text())
            for mode in MODES:
                rec.fingerprint(f"top1.{mode}", str(doc["top1_agreement"][mode]))

    def op_durations(self, rec):
        return rec.durations["sequence"]

    def named_metrics(self, rec, wall):
        return {
            "compare_s": (float(np.median(rec.durations["compare"])), "s"),
            "eval_s": (float(np.median(rec.durations["eval"])), "s"),
        }


WORKLOADS = {w.name: w for w in (PlanSweep, InferClassifier, CompareResidual)}
