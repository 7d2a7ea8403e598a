"""Hash every output file of a fixed CLI corpus, so that two commits can be
shown to write the same bytes.

    PYTHONPATH=src python tools/bits_audit.py OUT.json

In a temporary directory, for each of the 6 synthetic archs with heavy and
with gaussian inputs (40 samples of 8 x 8), it profiles the dataset at
``--batch`` 7 and 64 (six batches and one), solves and quantizes each of
the 5 modes at 8 and 16 bits from each profile, evaluates each plan with
its integer traces, and compares the modes at each bit width and batch.
OUT.json maps each file's path in the corpus to its sha256: the generated
models and data, the stats, plans, weight blobs, eval reports, traces and
compare reports. Run it at both commits, with ``src`` of each on the path,
and compare the two files.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

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
            # whose channel-major chunks are strided views
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


def audit(out: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_corpus(root)
        hashes = {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(root.rglob("*")) if p.is_file()}
    Path(out).write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"{len(hashes)} files hashed -> {out}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        raise SystemExit("usage: python tools/bits_audit.py OUT.json")
    audit(sys.argv[1])
