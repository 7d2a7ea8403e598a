"""Hash every output file of a fixed CLI corpus, and check the hashes
against a committed manifest, so that a change can be shown to write the
same bytes as its parent.

    PYTHONPATH=src python tools/bits_audit.py OUT.json
    PYTHONPATH=src python tools/bits_audit.py --check tools/bits_audit.json

In a temporary directory, for each of the 6 synthetic archs with heavy and
with gaussian inputs (40 samples of 8 x 8), it profiles the dataset at
``--batch`` 7 and 64 (six batches and one), solves and quantizes each of
the 5 modes at 8 and 16 bits from each profile, evaluates each plan with
its integer traces, and compares the modes at each bit width and batch.
With heavy inputs it also sweeps the profiling size (8 and 16 samples, two
draws each) at 8 bits.

The manifest holds the sha256 of each file in the corpus under its path
(the generated models and data, the stats, plans, weight blobs, eval
reports, traces, compare and sweep reports), beside the environment that
wrote them: the Python and numpy versions and numpy's enabled CPU
features and dispatch targets. The solver's and the data generator's
``exp``, ``log`` and ``power`` calls may round differently on another
SIMD path, so hashes are compared only in the environment that wrote
them.

``--check`` exits 0 when every hash matches; 1 naming every file whose
hash moved, or that appeared or vanished; 2 naming the environment fields
that differ from the manifest's, without building the corpus.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

from chanq.cli import main
from chanq.planner import MODES
from chanq.synthetic import ARCHS

FAMILIES = ("heavy", "gaussian")
BATCHES = (7, 64)
BIT_WIDTHS = (8, 16)


def _run(*argv) -> None:
    argv = [str(a) for a in argv]
    with redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"chanq {' '.join(argv)} exited {rc}")


def build_corpus(root: Path) -> None:
    for arch in ARCHS:
        for family in FAMILIES:
            d = root / f"{arch}-{family}"
            # 8 x 8 images: the classifier's avgpool output is [N, C, 1, 1],
            # which channel_major copies to one C-contiguous [C, N] chunk
            _run("gen-synthetic", "--arch", arch, "--image-size", 8, "--samples", 40,
                 "--input-family", family, "--input-scale-span", 3.0, "--seed", 7, "--out", d)
            inputs = ["--model", d / "model.json", "--dataset", d / "data.qtsr",
                      "--labels", d / "labels.qtsr"]
            for batch in BATCHES:
                b = d / f"batch{batch}"
                b.mkdir()
                _run("profile", *inputs[:4], "--batch", batch, "--out", b / "stats.json")
                for bits in BIT_WIDTHS:
                    _run("compare", *inputs, "--batch", batch, "--bitwidth", bits,
                         "--out", b / f"compare{bits}")
                    for mode in MODES:
                        q = b / f"{mode}-{bits}"
                        _run("quantize", *inputs[:2], "--stats", b / "stats.json", "--mode", mode,
                             "--bitwidth", bits, "--out", q)
                        _run("eval", *inputs, "--plan", q / "plan.json",
                             "--trace-out", q / "traces", "--out", q / "eval")
            if family == "heavy":
                _run("sweep-profile-size", *inputs, "--bitwidth", 8, "--sizes", "8,16",
                     "--draws", 2, "--out", d / "sweep")


def environment() -> dict:
    """What decides the bits of the corpus besides the code."""
    features = _multiarray_umath.__cpu_features__
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_features": sorted(k for k, on in features.items() if on),
            "cpu_dispatch": list(_multiarray_umath.__cpu_dispatch__)}


def corpus_hashes() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_corpus(root)
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}


def environment_mismatch(manifest: dict) -> list[str]:
    """One line per environment field that differs from the manifest's."""
    now = environment()
    return [f"environment {key}: manifest {manifest['environment'].get(key)!r}, here {now[key]!r}"
            for key in now if manifest["environment"].get(key) != now[key]]


def hash_mismatch(manifest: dict) -> list[str]:
    """Rebuild the corpus; one line per file whose hash moved, or that
    appeared or vanished."""
    want, have = manifest["files"], corpus_hashes()
    return ([f"moved: {p}" for p in sorted(want.keys() & have.keys()) if want[p] != have[p]]
            + [f"new: {p}" for p in sorted(have.keys() - want.keys())]
            + [f"gone: {p}" for p in sorted(want.keys() - have.keys())])


def write(out: str) -> None:
    hashes = corpus_hashes()
    doc = {"environment": environment(), "files": hashes}
    Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(hashes)} files hashed -> {out}")


def check(path: str) -> int:
    manifest = json.loads(Path(path).read_text())
    problems = environment_mismatch(manifest)
    if problems:
        print("\n".join(problems + [f"not checked: the environment differs from {path}'s"]))
        return 2
    problems = hash_mismatch(manifest)
    if problems:
        print("\n".join(problems + [f"{len(problems)} of {len(manifest['files'])} files "
                                    f"differ from {path}"]))
        return 1
    print(f"{len(manifest['files'])} files match {path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--check":
        sys.exit(check(sys.argv[2]))
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        raise SystemExit("usage: python tools/bits_audit.py OUT.json\n"
                         "       python tools/bits_audit.py --check MANIFEST.json")
    write(sys.argv[1])
