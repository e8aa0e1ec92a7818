"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload {fill,learn} --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` next to
this directory; without it the run fails with exit code 3 and no result.
With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer metrics of a traced run (spans are written to
``.perfbench_out/``). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One caller on one CPU: a second BLAS thread would compete with whatever else
# the machine runs and made run-to-run spread wider in trials on a 2-CPU host.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin the BLAS thread count; must run before numpy is imported."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fill", "learn"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    threads = pin_blas_threads()
    # setup_s imports the package from cached bytecode, as an installed
    # package is; compiling the source on every import would make it mostly
    # compile time. The cache lives in the ignored output directory.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(ROOT / ".perfbench_out" / "pycache")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import snakedqn
    except ImportError as exc:
        print(f"error: cannot import snakedqn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    if Path(snakedqn.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: snakedqn imported from {snakedqn.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 3

    import workloads

    env = workloads.environment(threads)
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result = run.execute()
    print(json.dumps({"environment": env, "notes": run.notes, "check_failures": run.checks.notes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
