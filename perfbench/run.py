"""Benchmark launcher: runs one workload in a child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The child (``bench.py``) starts with its BLAS thread pools capped at the
CPUs this process may use, and it is the only process measured, so
``peak_rss_mb`` is the workload's own. The child's output is passed through
only when it printed a result; otherwise it goes to stderr and the exit
code is not 0.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROGRAM = HERE.parent / "src" / "chanq" / "__init__.py"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 175


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(threads, nproc))
    return env


def main(argv: list[str]) -> int:
    if not PROGRAM.is_file():
        print(f"error: no chanq sources at {PROGRAM.parent}", file=sys.stderr)
        return 2
    proc = subprocess.Popen([sys.executable, str(HERE / "bench.py"), *argv], env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except BaseException as e:  # timeout, SIGTERM or interrupt: stop the child, then leave
        proc.terminate()  # the child removes its scratch directory on SIGTERM
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
            return 3
        raise
    lines = out.splitlines()
    if proc.returncode in (0, 1) and lines and lines[-1].startswith("{"):
        sys.stdout.write(out)
        return proc.returncode
    sys.stderr.write(out)
    return proc.returncode or 3


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main(sys.argv[1:]))
