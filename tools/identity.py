"""Seven digests that pin the program's outputs, with the times of the code they cover.

    PYTHONPATH=src python3 tools/identity.py [--repeat 3]

Suite: the default suite (BenchmarkConfig(), 120 seeds by 5 horizons) as
benchgen.generate_suite writes it into a new temporary directory named
default.  The digest reads each file's path relative to the temporary root,
then its bytes, in generate_suite's order (the scheme of
tests/test_benchgen.py::test_suite_bytes_are_pinned, which covers seeds 1-5).
Both generate_suite and reading every file back with read_instance are
timed; together they are the set-up a suite workload pays.

Greedy: greedy_plan's answer in every round of the 600 greedy episodes
simulator.run_episode runs on that suite, file by file in the suite's
order: each round's routes and lengths, or the UnreachableMustVisitError
it raised.  Only greedy_plan is timed, its total over the episodes.

DP: the exact DP's answers on 3,348 rounds: the round-1 structures of
default seeds 1-60 and tight-law seeds 1-40 under tocp and top, with M = 1,
3 and the drawn fleet size, and with the drawn must-visit set and a random
3-vertex one, each answering the untrained estimator's prediction, a
uniform random one and that one with 40% of its entries zeroed.  A record
is heldkarp.best_round's value and walks, the proof that no union covers
the must-visit vertices, or None above heldkarp.MAX_WORK.  Certificates
and the infeasibility proof are not consulted, so every round reaches the
table.  Only heldkarp.fleet_table and best_round are timed; the slowest
tables are printed with their live rows, the masks the table keeps.

Cover: top's Structure.certified_walks, its cycle cover (the walks, or
None), on the round-1 structures of default and tight-law seeds 1-120 with
the drawn fleet and must-visit set.  Each search runs on a fresh Structure,
the distances computed outside the timing.  The search time and the
certify._insertion_cover attempts are also printed apart for the certified
and the uncertified structures: an uncertified one tries every start set,
unless certify._far_apart finds M + 1 targets no two of which fit one walk.
Per law, the count of uncertified structures and of those _far_apart
settled without a search follows.  No proof is consulted, so proven
structures count among the uncertified.

Kept: tocp's Structure.certified_walks (the walks, or None) on the same 240
structures, as the cover digest reads top's: greedy's plan on unit
predictions, repaired, or farthest insertion's walks where greedy misses a
target and _far_apart does not rule a certificate out; the same per-law
counts follow.

Proof: infeasibility_proof (the proof string, or None) on the same 240
structures under tocp and top, with the drawn must-visit set and 8 random
ones of 1-4 vertices, seeded by law and seed: 4,320 proofs.  Each runs on
a fresh Structure, built outside the timing.

Bench: the rows `patrolopt bench --planners tocp,top,greedy --jobs 1`
writes for default seeds 1-10 at H = 2, 4, 6, 8 and 10 (150 rows, no HiGHS
round), each row's cells with iter_seconds masked, the header first.  The
whole bench command is timed.

The tight law is benchgen.TIGHT_LAW, the tight-exact workload's.  Each
timed call takes the best of --repeat runs.  Two checkouts write the same
suite, compute the same DP answers, covers, kept certificates, proofs and
bench rows exactly when the digests match.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import itertools
import operator
import os
import shutil
import tempfile
import time

import numpy as np

from patrolopt import certify, cli, heldkarp, simulator
from patrolopt.benchgen import TIGHT_LAW, BenchmarkConfig, generate_instance, generate_suite
from patrolopt.certify import Structure, infeasibility_proof
from patrolopt.estimator import EstimatorState
from patrolopt.graph import all_pairs_shortest
from patrolopt.greedy import UnreachableMustVisitError
from patrolopt.instance_io import instance_graph, read_instance

LAWS = (("default", {}), ("tight", TIGHT_LAW))
VARIANTS = ("tocp", "top")


def best_of(repeat, call, setup=tuple):
    """call(*setup()) run repeat times, setup outside the timing: (output, best seconds)."""
    best = float("inf")
    for _ in range(repeat):
        args = setup()
        t0 = time.perf_counter()
        out = call(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def round_one(seed_counts):
    """(law index, law name, seed, instance, graph, distances) of seeds 1..count per law."""
    for law_index, ((law_name, law), count) in enumerate(zip(LAWS, seed_counts)):
        config = BenchmarkConfig(**law)
        for seed in range(1, count + 1):
            instance = generate_instance(config, seed, 1)
            graph = instance_graph(instance)
            yield law_index, law_name, seed, instance, graph, all_pairs_shortest(graph)


def print_slowest(times, notes=None):
    """The five slowest labels with their times, each followed by its note if notes has one."""
    for label, seconds in sorted(times.items(), key=lambda item: -item[1])[:5]:
        note = f", {notes[label]}" if notes and label in notes else ""
        print(f"  {seconds * 1000:8.1f} ms  {label}{note}")


@contextlib.contextmanager
def default_suite(repeat=1):
    """(temporary root, file paths, best generate_suite seconds) of the default suite."""
    with tempfile.TemporaryDirectory() as root:
        suite_dir = os.path.join(root, "default")

        def new_suite_dir():  # generate_suite refuses a directory with content
            shutil.rmtree(suite_dir, ignore_errors=True)
            return BenchmarkConfig(), suite_dir

        paths, seconds = best_of(repeat, generate_suite, new_suite_dir)
        yield root, paths, seconds


def relative_name(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


def suite_digest(root, paths):
    """sha256 of the suite files' names under root and their bytes."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(relative_name(root, path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def greedy_digest(root, paths, repeat=1):
    """(sha256, round count, best total greedy_plan seconds) of greedy's episodes on the suite."""
    real = simulator.greedy_plan
    records = []
    seconds = 0.0

    def recorded(*args):
        nonlocal seconds
        t0 = time.perf_counter()
        try:
            plan = real(*args)
        except UnreachableMustVisitError as exc:
            records.append(repr(exc))
            raise
        finally:
            seconds += time.perf_counter() - t0
        records.append(f"{plan.routes} {plan.lengths!r}")
        return plan

    instances = [(relative_name(root, path), read_instance(path)) for path in paths]
    best = float("inf")
    simulator.greedy_plan = recorded
    try:
        for _ in range(repeat):
            digest = hashlib.sha256()
            rounds = 0
            seconds = 0.0
            for name, instance in instances:
                records.clear()
                simulator.run_episode(instance, "greedy")
                for t, record in enumerate(records, 1):
                    digest.update(f"{name} t={t}: {record}\n".encode())
                rounds += len(records)
            best = min(best, seconds)
    finally:
        simulator.greedy_plan = real
    return digest.hexdigest(), rounds, best


def dp_digest(repeat=1):
    """(sha256, counts of optima, proofs and None, best_round seconds per variant,
    fleet_table seconds and live-row counts per structure label) of the DP's answers.

    A table's live rows are the masks its layers keep; a label above the cap
    has no count.
    """
    real = heldkarp.fleet_table
    table_times = {}
    live_rows = {}
    round_times = dict.fromkeys(VARIANTS, 0.0)
    counts = {"optima": 0, "proofs": 0, "none": 0}
    digest = hashlib.sha256()

    def timed(*table_args):
        table, table_times[label] = best_of(repeat, real, lambda: table_args)
        if table is not None:
            live_rows[label] = f"{sum(masks.size for masks, _ in table.layers):,} live rows"
        return table

    heldkarp.fleet_table = timed
    try:
        for law_index, law_name, seed, instance, graph, dist in round_one((60, 40)):
            n = instance.num_vertices
            rng = np.random.default_rng([law_index, seed])
            random_c = rng.random(n + 1)
            laced = np.where(rng.random(n + 1) < 0.4, 0.0, random_c)
            predictions = (("untrained", EstimatorState(n, instance.mu_default).predicted_cost(1)),
                           ("random", random_c), ("laced", laced))
            musts = (("drawn", list(instance.must_visit)),
                     ("random", sorted(rng.choice(np.arange(2, n + 1), 3, replace=False).tolist())))
            for variant, agents, (must_name, must) in itertools.product(
                    VARIANTS, sorted({1, 3, instance.num_agents}), musts):
                label = f"{law_name} {seed} {variant} M={agents} must={must_name}"
                table = Structure(graph, dist, agents, instance.l_max, must, variant).table
                for c_name, c_hat in predictions:
                    if table is None:
                        record, kind = "None", "none"
                    elif isinstance(table, str):
                        record, kind = table, "proofs"
                    else:
                        answer, took = best_of(repeat, heldkarp.best_round, lambda: (table, c_hat))
                        round_times[variant] += took
                        record, kind = f"{answer.value!r} {answer.walks}", "optima"
                    counts[kind] += 1
                    digest.update(f"{label} c={c_name}: {record}\n".encode())
    finally:
        heldkarp.fleet_table = real
    return digest.hexdigest(), counts, round_times, table_times, live_rows


def certificate_digest(variant, repeat=1):
    """(sha256, certified count, seconds per structure label, searches) of a
    variant's Structure.certified_walks.

    searches maps each label to (certified or not, the _insertion_cover
    attempts of one search, whether certify._far_apart settled it without a
    search); only top's cover makes any attempts.
    """
    real_cover, real_far = certify._insertion_cover, certify._far_apart
    attempts = 0
    settled = False

    def counted(*args):
        nonlocal attempts
        attempts += 1
        return real_cover(*args)

    def far_apart(structure):
        nonlocal settled
        settled = real_far(structure)
        return settled

    digest = hashlib.sha256()
    times = {}
    searches = {}
    certify._insertion_cover, certify._far_apart = counted, far_apart
    try:
        for _, law_name, seed, instance, graph, dist in round_one((120, 120)):
            label = f"{law_name} {seed}"
            args = (graph, dist, instance.num_agents, instance.l_max, instance.must_visit,
                    variant)
            attempts = 0
            settled = False
            walks, times[label] = best_of(repeat, operator.attrgetter("certified_walks"),
                                          lambda: (Structure(*args),))
            searches[label] = (walks is not None, attempts // repeat, settled)
            digest.update(f"{label}: {walks}\n".encode())
    finally:
        certify._insertion_cover, certify._far_apart = real_cover, real_far
    certified = sum(found for found, _, _ in searches.values())
    return digest.hexdigest(), certified, times, searches


def proof_digest(repeat=1):
    """(sha256, calls, proofs found, best infeasibility_proof seconds per variant)."""
    digest = hashlib.sha256()
    times = dict.fromkeys(VARIANTS, 0.0)
    calls = proven = 0
    for law_index, law_name, seed, instance, graph, dist in round_one((120, 120)):
        rng = np.random.default_rng([law_index, seed])
        musts = [("drawn", list(instance.must_visit))] + [
            (f"random{k}", sorted(rng.choice(np.arange(2, instance.num_vertices + 1),
                                             1 + k % 4, replace=False).tolist()))
            for k in range(8)]
        for variant, (must_name, must) in itertools.product(VARIANTS, musts):
            args = (graph, dist, instance.num_agents, instance.l_max, must, variant)
            proof, took = best_of(repeat, infeasibility_proof, lambda: (Structure(*args),))
            times[variant] += took
            calls += 1
            proven += proof is not None
            digest.update(f"{law_name} {seed} {variant} must={must_name}: {proof}\n".encode())
    return digest.hexdigest(), calls, proven, times


def bench_digest(repeat=1):
    """(sha256, row count, best bench seconds) of bench's rows on default seeds 1-10."""
    with tempfile.TemporaryDirectory() as root:
        suite_dir = os.path.join(root, "suite")
        generate_suite(BenchmarkConfig(seeds=tuple(range(1, 11))), suite_dir)
        out = os.path.join(root, "results.csv")
        argv = ["bench", "--suite", suite_dir, "--planners", "tocp,top,greedy", "--jobs", "1",
                "--out", out]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code, seconds = best_of(repeat, cli.main, lambda: (argv,))
        if code != 0:
            raise RuntimeError(f"bench exited {code}")
        digest = hashlib.sha256()
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            masked = header.index("iter_seconds")
            digest.update(f"{header}\n".encode())
            rows = 0
            for row in reader:
                row[masked] = ""
                digest.update(f"{row}\n".encode())
                rows += 1
    return digest.hexdigest(), rows, seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of each timed call; its time is the best")
    repeat = max(parser.parse_args().repeat, 1)

    with default_suite(repeat) as (root, paths, seconds):
        print(f"files: {len(paths)}")
        print(f"sha256: {suite_digest(root, paths)}")
        print(f"generate_suite: best of {repeat}, {seconds:.3f} s")
        _, seconds = best_of(repeat, lambda: [read_instance(path) for path in paths])
        print(f"read_instance: best of {repeat}, {seconds:.3f} s over {len(paths)} files")

        digest, rounds, seconds = greedy_digest(root, paths, repeat)
        print(f"greedy rounds: {rounds} in {len(paths)} episodes")
        print(f"sha256: {digest}")
        print(f"greedy_plan: best of {repeat}, {seconds:.3f} s in total")

    digest, counts, round_times, table_times, live_rows = dp_digest(repeat)
    print(f"rounds: {sum(counts.values())} ({counts['optima']} optima, "
          f"{counts['proofs']} proofs, {counts['none']} above the cap)")
    print(f"sha256: {digest}")
    print(f"best_round: {counts['optima']} optima, {sum(round_times.values()):.3f} s in total "
          f"(tocp {round_times['tocp']:.3f} s, top {round_times['top']:.3f} s)")
    per_variant = ", ".join(
        f"{v} {sum(t for label, t in table_times.items() if label.split()[2] == v):.3f} s"
        for v in VARIANTS)
    print(f"fleet_table: {len(table_times)} tables, {sum(table_times.values()):.3f} s in total "
          f"({per_variant}); slowest:")
    print_slowest(table_times, live_rows)

    for variant in ("top", "tocp"):
        digest, certified, times, searches = certificate_digest(variant, repeat)
        print(f"{variant} structures: {len(times)} ({certified} certified)")
        print(f"sha256: {digest}")
        print(f"certified_walks: best of {repeat}, {sum(times.values()):.3f} s in total; "
              "slowest:")
        print_slowest(times)
        if variant == "top":
            for found, kind in ((True, "certified"), (False, "uncertified")):
                labels = [label for label, (ok, _, _) in searches.items() if ok == found]
                print(f"  {kind}: {len(labels)} structures, "
                      f"{sum(times[label] for label in labels):.3f} s, "
                      f"{sum(searches[label][1] for label in labels)} _insertion_cover attempts")
        for law_name, _ in LAWS:
            outcomes = [(ok, settled) for label, (ok, _, settled) in searches.items()
                        if label.split()[0] == law_name]
            print(f"  {law_name}: {sum(not ok for ok, _ in outcomes)} uncertified, "
                  f"{sum(settled for _, settled in outcomes)} settled by _far_apart "
                  "without a search")

    digest, calls, proven, times = proof_digest(repeat)
    print(f"proof calls: {calls} ({proven} proofs)")
    print(f"sha256: {digest}")
    print(f"infeasibility_proof: best of {repeat}, {sum(times.values()):.3f} s in total "
          f"(tocp {times['tocp']:.3f} s, top {times['top']:.3f} s)")

    digest, rows, seconds = bench_digest(repeat)
    print(f"bench rows: {rows}")
    print(f"sha256: {digest}")
    print(f"bench: best of {repeat}, {seconds:.3f} s")


if __name__ == "__main__":
    main()
