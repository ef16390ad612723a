"""Benchmark entry point: one workload, one seed, one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload alexnet-w1a2 --seed 1 --seconds 15 --trace 0

Workloads: ``alexnet-w1a2``, ``resnet18-w2a4``, ``serve-poisson`` (see
``perfbench/README.md``).  This launcher imports nothing from the
project.  It pins BLAS threads to the CPUs this process may use, keeps
the cffi build cache inside the checkout (``.bench_build/cffi``), warms
that cache in a separate process so no timed process compiles C, then
runs ``bench.py`` in a fresh interpreter and passes its output and exit
code through.  Results and traces land in ``.bench_build/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Wall-clock limits for the cache warm-up (may compile) and the run.
WARM_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170

_WARM = (
    "from repro.core import backends\n"
    "b = backends.get_backend()\n"
    "print(f'kernel backend {b.name}: {sorted(b.capabilities)}')\n"
)


def bench_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["REPRO_CFFI_CACHE"] = str(ROOT / ".bench_build" / "cffi")
    # the C compiler's temporary files stay in the checkout too
    env["TMPDIR"] = str(ROOT / ".bench_build" / "tmp")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no project sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = bench_env()
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    warm = subprocess.run(
        [sys.executable, "-c", _WARM], env=env, cwd=ROOT,
        stdout=sys.stderr, timeout=WARM_TIMEOUT_S,
    )
    if warm.returncode != 0:
        print("perfbench: kernel backend warm-up failed", file=sys.stderr)
        return 2
    env["PERFBENCH_SPAWNED_AT"] = repr(time.monotonic())
    try:
        run = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), *argv],
            env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
