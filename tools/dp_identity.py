"""One digest over the exact DP's answers on a fixed set of 3,348 rounds.

    PYTHONPATH=src python3 tools/dp_identity.py [--repeat 3]

The rounds are the round-1 structures of default seeds 1-60 and tight-law
seeds 1-40 (the tight-exact workload's law), under tocp and top, each with
M = 1, M = 3 and the drawn fleet size (duplicates dropped), and each with
the drawn must-visit set and a random 3-vertex one.  Every such structure
answers three predictions: the untrained estimator's, uniform random ones,
and the random ones with 40% of the entries set to zero.  A round's record
is the DP's value and walks (heldkarp.best_round), the proof that no union
covers the must-visit vertices, or None above heldkarp.MAX_WORK; the
structure's infeasibility proof and certificates are not consulted, so
every round reaches the table.

The script prints the sha256 of all records, the counts of optima, proofs
and Nones, the heldkarp.best_round and heldkarp.fleet_table times in total
and per variant, and the five slowest fleet_table calls, each call timed as
the best of --repeat runs.  Two checkouts compute the same answers exactly
when their digests match.
"""

from __future__ import annotations

import argparse
import hashlib
import time

import numpy as np

from patrolopt import heldkarp
from patrolopt.benchgen import BenchmarkConfig, generate_instance
from patrolopt.certify import Structure
from patrolopt.estimator import EstimatorState
from patrolopt.graph import all_pairs_shortest
from patrolopt.instance_io import instance_graph

TIGHT_LAW = {"budget_base": 12.0, "budget_span_per_vertex": 0.5, "vertex_choices": (10, 12, 14)}
LAWS = (("default", {}, range(1, 61)), ("tight", TIGHT_LAW, range(1, 41)))


def rounds():
    """(label, structure arguments, predictions) for every structure of the set."""
    for law_index, (law_name, law, seeds) in enumerate(LAWS):
        config = BenchmarkConfig(**law)
        for seed in seeds:
            instance = generate_instance(config, seed, 1)
            graph = instance_graph(instance)
            dist = all_pairs_shortest(graph)
            n = instance.num_vertices
            rng = np.random.default_rng([law_index, seed])
            random_c = rng.random(n + 1)
            laced = np.where(rng.random(n + 1) < 0.4, 0.0, random_c)
            predictions = (("untrained", EstimatorState(n, instance.mu_default).predicted_cost(1)),
                           ("random", random_c), ("laced", laced))
            musts = (("drawn", list(instance.must_visit)),
                     ("random", sorted(rng.choice(np.arange(2, n + 1), 3, replace=False).tolist())))
            for variant in ("tocp", "top"):
                for agents in sorted({1, 3, instance.num_agents}):
                    for must_name, must in musts:
                        label = f"{law_name} {seed} {variant} M={agents} must={must_name}"
                        yield (label, (graph, dist, agents, instance.l_max, must, variant),
                               predictions)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of each fleet_table and best_round call; its time is the best")
    args = parser.parse_args()

    real = heldkarp.fleet_table
    times = {}
    round_times = {"tocp": 0.0, "top": 0.0}
    current = [""]

    def best_of(call, *call_args):
        best = float("inf")
        for _ in range(max(args.repeat, 1)):
            t0 = time.perf_counter()
            out = call(*call_args)
            best = min(best, time.perf_counter() - t0)
        return out, best

    def timed(*table_args):
        table, times[current[0]] = best_of(real, *table_args)
        return table

    heldkarp.fleet_table = timed
    digest = hashlib.sha256()
    counts = {"optima": 0, "proofs": 0, "none": 0}
    for label, structure_args, predictions in rounds():
        current[0] = label
        table = Structure(*structure_args).table
        for c_name, c_hat in predictions:
            if table is None:
                record, kind = "None", "none"
            elif isinstance(table, str):
                record, kind = table, "proofs"
            else:
                answer, seconds = best_of(heldkarp.best_round, table, c_hat)
                round_times[label.split()[2]] += seconds
                record, kind = f"{answer.value!r} {answer.walks}", "optima"
            counts[kind] += 1
            digest.update(f"{label} c={c_name}: {record}\n".encode())

    print(f"rounds: {sum(counts.values())} ({counts['optima']} optima, "
          f"{counts['proofs']} proofs, {counts['none']} above the cap)")
    print(f"sha256: {digest.hexdigest()}")
    print(f"best_round: {counts['optima']} optima, {sum(round_times.values()):.3f} s in total "
          f"(tocp {round_times['tocp']:.3f} s, top {round_times['top']:.3f} s)")
    per_variant = ", ".join(
        f"{v} {sum(t for label, t in times.items() if label.split()[2] == v):.3f} s"
        for v in ("tocp", "top"))
    print(f"fleet_table: {len(times)} tables, {sum(times.values()):.3f} s in total "
          f"({per_variant}); slowest:")
    for label, seconds in sorted(times.items(), key=lambda item: -item[1])[:5]:
        print(f"  {seconds * 1000:8.1f} ms  {label}")


if __name__ == "__main__":
    main()
