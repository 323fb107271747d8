"""Repository benchmark: diagnosis sessions and the diagnosis service.

Run from the repository root::

    python3 perfbench/run.py --workload diagnose-small --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

``diagnose-small``
    Closed-loop arena diagnosis sessions at N = 6 and 8, one thread.
``service-mix``
    ``python -m repro serve --workers 2`` on localhost, driven over HTTP
    by fixed-rate open-loop arrivals of a seeded mixed job stream.

Every run prints human-readable tables and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the program's layer
entry points and reports the per-layer metrics instead.  The program
under test is imported from ``src/`` of the same checkout; the BLAS and
OpenMP pools are pinned to one thread for every process the run starts.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

#: Threads per BLAS/OpenMP pool, pinned before numpy is first imported so
#: that two service workers plus the client stay within two cores.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# numpy asks for transparent huge pages on large arrays by default, which
# makes peak RSS depend on the state of the host's memory.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark inside the checkout (ignored by git).
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("diagnose-small", "service-mix")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one repeated set-up in a fresh process (see diagnose.py).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one workload; return the exit code."""
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    WORKDIR.mkdir(exist_ok=True)
    # Byte-compile the program first, in a child process, so that the first
    # run in a fresh checkout does not time the compilation in its set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True)
    # Turn a polite kill into SystemExit so that cleanup code runs and no
    # server or worker process outlives the run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} blas_threads={BLAS_THREADS} nproc={os.cpu_count()}"
    )
    if args.workload == "service-mix":
        import service_mix

        return service_mix.run(args, WORKDIR, ROOT)
    import diagnose

    return diagnose.run(args, WORKDIR)


if __name__ == "__main__":
    sys.exit(main())
