"""One digest over the 600 files of the default benchmark suite.

    PYTHONPATH=src python3 tools/suite_identity.py [--repeat 5]

The script writes the default suite (BenchmarkConfig(), seeds 1-120 by
horizons 2, 4, 6, 8 and 10) with benchgen.generate_suite into a new
temporary directory named default, --repeat times, as `gen` does.  It prints
the sha256 of every file's path relative to the temporary root followed by
its bytes, in generate_suite's order (the scheme of
tests/test_benchgen.py::test_suite_bytes_are_pinned, which covers seeds 1-5
only), and the best of the --repeat generate_suite times.  Two checkouts
write the same suite exactly when their digests match.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import tempfile
import time

from patrolopt.benchgen import BenchmarkConfig, generate_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of generate_suite; its time is the best")
    args = parser.parse_args()

    config = BenchmarkConfig()
    best = float("inf")
    for _ in range(max(args.repeat, 1)):
        with tempfile.TemporaryDirectory() as root:
            t0 = time.perf_counter()
            paths = generate_suite(config, os.path.join(root, "default"))
            best = min(best, time.perf_counter() - t0)
            digest = hashlib.sha256()
            for path in paths:
                digest.update(os.path.relpath(path, root).replace(os.sep, "/").encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())

    print(f"files: {len(paths)}")
    print(f"sha256: {digest.hexdigest()}")
    print(f"generate_suite: best of {max(args.repeat, 1)}, {best:.3f} s")


if __name__ == "__main__":
    main()
