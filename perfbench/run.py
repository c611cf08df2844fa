"""patrolopt benchmark: one workload, one seed, timed passes, output checks, metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload loose-exact --seed 1 --seconds 10 --trace 0

The package is imported from ./src; nothing is installed.  With --trace 0 the
run repeats whole passes of the workload until --seconds have elapsed (at
least one pass) and reports the end-to-end metrics named in BENCHMARK.json.
With --trace 1 it makes one untraced pass and one pass through the traced
loop, and reports the per-layer metrics.  Either way the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Any failed
output check makes the exit status 1; a checkout without the package makes it
2, with no result line.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package() -> None:
    """Import patrolopt from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import patrolopt
    except ImportError as exc:
        print(f"perfbench: cannot import patrolopt from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    origin = os.path.dirname(os.path.abspath(patrolopt.__file__))
    if origin != os.path.join(SRC, "patrolopt"):
        print(f"perfbench: patrolopt imported from {origin}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 1:
        parser.error("--seed must be >= 1")
    import_package()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    work = os.path.join(ROOT, ".perfbench", "work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return harness.run(wl, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
