"""One digest over top's cycle covers on a fixed set of 240 round-1 structures.

    PYTHONPATH=src python3 tools/cover_identity.py [--repeat 3]

The structures are the round-1 top structures of default seeds 1-120 and
tight-law seeds 1-120 (the tight-exact workload's law), each with the drawn
fleet and must-visit set.  A structure's record is its cover_walks: the
walks of the vertex-disjoint cycle cover, or None when the search finds
none.  The infeasibility proof and the DP are not consulted, so every
structure runs the cover search.

The script prints the sha256 of all records, the count of certified
structures and the total cover_walks time, each structure timed as the
best of --repeat runs on a fresh Structure (the graph's distances are
computed once, outside the timing), and the five slowest searches.  Two
checkouts find the same covers exactly when their digests match.
"""

from __future__ import annotations

import argparse
import hashlib
import time

from patrolopt.benchgen import BenchmarkConfig, generate_instance
from patrolopt.certify import Structure
from patrolopt.graph import all_pairs_shortest
from patrolopt.instance_io import instance_graph

TIGHT_LAW = {"budget_base": 12.0, "budget_span_per_vertex": 0.5, "vertex_choices": (10, 12, 14)}
LAWS = (("default", {}, range(1, 121)), ("tight", TIGHT_LAW, range(1, 121)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of each cover search; its time is the best")
    args = parser.parse_args()

    digest = hashlib.sha256()
    times = {}
    certified = 0
    for law_name, law, seeds in LAWS:
        config = BenchmarkConfig(**law)
        for seed in seeds:
            instance = generate_instance(config, seed, 1)
            graph = instance_graph(instance)
            dist = all_pairs_shortest(graph)
            label = f"{law_name} {seed}"
            best = float("inf")
            for _ in range(max(args.repeat, 1)):
                structure = Structure(graph, dist, instance.num_agents, instance.l_max,
                                      instance.must_visit, "top")
                t0 = time.perf_counter()
                walks = structure.cover_walks
                best = min(best, time.perf_counter() - t0)
            times[label] = best
            certified += walks is not None
            digest.update(f"{label}: {walks}\n".encode())

    print(f"structures: {len(times)} ({certified} certified)")
    print(f"sha256: {digest.hexdigest()}")
    print(f"cover_walks: best of {max(args.repeat, 1)}, {sum(times.values()):.3f} s in total; "
          f"slowest:")
    for label, seconds in sorted(times.items(), key=lambda item: -item[1])[:5]:
        print(f"  {seconds * 1000:8.1f} ms  {label}")


if __name__ == "__main__":
    main()
