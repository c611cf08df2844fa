"""Seeded random benchmark instances: 120 seeds by 5 horizons by default.

Layout of one instance: the depot sits at the origin, the other vertices fall
uniformly in a square, each vertex points at its few nearest neighbors, and
the edge set is symmetrized.  Budget, fleet size, growth rates, required
vertices and the whole growth table are then drawn from fixed laws.  All
draws come from named streams keyed by (seed, tag), so a (config, seed, H)
triple always produces a byte-identical file.

BenchmarkConfig holds the knobs a caller turns.  The rest of the law is
fixed here: positions in a square of half-width SQUARE_HALF_WIDTH, rates
mu_star ~ U(RATE_LOW, RATE_HIGH), growth noise NOISE_STDDEV, the prior rate
MU_DEFAULT every file carries, and at most MAX_ESCALATIONS re-rolls, each
SEED_ESCALATION_STEP seeds on.

No structural draw reads the horizon, and growth column t has its own stream,
so a suite draws and renders each seed once, at the longest horizon, and cuts
every horizon's file text from that one rendering.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .cost_process import GrowthParams, materialize_kappa
from .graph import DEPOT, Graph, all_pairs_shortest, reachable_round_trip, symmetrize
from .instance_io import Instance, instance_texts

# Stream tag for the structural draws; growth draws use (seed, t) with t <= H,
# so any tag above the largest horizon keeps the streams disjoint.
_STRUCTURE_TAG = 101
SQUARE_HALF_WIDTH = 5.0
SEED_ESCALATION_STEP = 1_000_000
RATE_LOW = 0.1
RATE_HIGH = 0.9
NOISE_STDDEV = 0.1
MU_DEFAULT = 0.5
MAX_ESCALATIONS = 50
# The tight budget law, as BenchmarkConfig overrides: a base of 12, 0.5 per
# vertex and N in {10, 12, 14}.  Greedy often misses the round-trip bound
# under it, and top fails whole episodes.
TIGHT_LAW = {"budget_base": 12.0, "budget_span_per_vertex": 0.5, "vertex_choices": (10, 12, 14)}


@dataclass
class BenchmarkConfig:
    seeds: Tuple[int, ...] = tuple(range(1, 121))
    horizons: Tuple[int, ...] = (2, 4, 6, 8, 10)
    vertex_choices: Tuple[int, ...] = (10, 12, 14, 16, 18, 20)
    out_degree_choices: Tuple[int, ...] = (3, 4, 5)
    budget_base: float = 20.0
    budget_span_per_vertex: float = 2.0  # l_max ~ budget_base + U(0, this * N)
    agent_choices: Tuple[int, ...] = (2, 3, 4, 5)
    required_draw_choices: Tuple[int, ...] = (1, 2, 3)  # count = min(draw, M)


@dataclass
class StructureDraw:
    """Intermediate record of one attempt, before growth materialization.

    Kept separate so tests can look at quantities the instance file does not
    retain, like the nearest-neighbor out-degrees before symmetrization.
    """

    num_vertices: int
    positions: List[Tuple[float, float]]
    out_degrees: List[int]
    edges: List[Tuple[int, int, float]]  # symmetrized, unordered pairs once
    l_max: float
    num_agents: int
    required_draw: int
    mu_star: List[float]


def draw_structure(config: BenchmarkConfig, effective_seed: int) -> StructureDraw:
    """All structural draws for one attempt, in a fixed documented order.

    Order: N, positions, per-vertex out-degrees, l_max, M, required-count
    draw, mu_star.  Changing this order changes every suite, so don't.
    """
    rng = np.random.Generator(np.random.PCG64((effective_seed, _STRUCTURE_TAG)))
    n = int(rng.choice(np.asarray(config.vertex_choices)))
    others = rng.uniform(-SQUARE_HALF_WIDTH, SQUARE_HALF_WIDTH, size=(n - 1, 2))
    positions: List[Tuple[float, float]] = [(0.0, 0.0)]
    positions += [(x, y) for x, y in others.tolist()]
    out_degrees = rng.choice(np.asarray(config.out_degree_choices), size=n).tolist()
    l_max = float(config.budget_base + rng.uniform(0.0, config.budget_span_per_vertex * n))
    num_agents = int(rng.choice(np.asarray(config.agent_choices)))
    required_draw = int(rng.choice(np.asarray(config.required_draw_choices)))
    mu_star = rng.uniform(RATE_LOW, RATE_HIGH, size=n).tolist()

    # Pairwise Euclidean lengths, computed once per unordered pair, lower
    # index first, so both directions carry the identical float.
    pair_len = [[0.0] * (n + 1) for _ in range(n + 1)]
    for a in range(1, n + 1):
        xa, ya = positions[a - 1]
        for b in range(a + 1, n + 1):
            xb, yb = positions[b - 1]
            pair_len[a][b] = pair_len[b][a] = math.hypot(xa - xb, ya - yb)

    chosen_pairs = set()
    for i in range(1, n + 1):
        # a stable sort over ascending j breaks length ties to the lower index
        ranked = sorted((j for j in range(1, n + 1) if j != i), key=pair_len[i].__getitem__)
        for j in ranked[: out_degrees[i - 1]]:
            chosen_pairs.add((min(i, j), max(i, j)))
    edges = [(i, j, pair_len[i][j]) for (i, j) in sorted(chosen_pairs)]
    return StructureDraw(
        num_vertices=n,
        positions=positions,
        out_degrees=out_degrees,
        edges=edges,
        l_max=l_max,
        num_agents=num_agents,
        required_draw=required_draw,
        mu_star=mu_star,
    )


def _check(config: BenchmarkConfig, seeds: Sequence[int], horizons: Sequence[int]) -> None:
    if any(seed < 1 for seed in seeds):
        raise ValueError("seed must be >= 1")
    if any(horizon < 1 for horizon in horizons):
        raise ValueError("horizon must be >= 1")
    if min(config.agent_choices) < 1:
        raise ValueError("agent_choices must all be >= 1")
    if min(config.vertex_choices) < 2:
        raise ValueError("vertex_choices must all be >= 2")


def generate_instance(config: BenchmarkConfig, seed: int, horizon: int) -> Instance:
    """One instance, escalating the seed when the draw cannot host its required vertices.

    Escalation re-rolls everything with seed + k * SEED_ESCALATION_STEP and
    records k in the file, so a reader can reproduce the exact draw without
    searching.  Growth column t comes from the stream (effective seed, t)
    alone, so the instance at a shorter horizon is this one with its first H
    columns.
    """
    _check(config, (seed,), (horizon,))
    for escalations in range(MAX_ESCALATIONS + 1):
        effective_seed = seed + escalations * SEED_ESCALATION_STEP
        structure = draw_structure(config, effective_seed)
        required_count = min(structure.required_draw, structure.num_agents)
        graph = Graph(structure.num_vertices, symmetrize(structure.edges))
        dm = all_pairs_shortest(graph)
        pool = sorted(reachable_round_trip(graph, dm, structure.l_max) - {DEPOT})
        if len(pool) < required_count:
            continue
        # Separate stream for the required-vertex pick: it can only be drawn
        # after shortest paths exist, so it gets its own tag instead of
        # continuing the structure stream.
        rng = np.random.Generator(np.random.PCG64((effective_seed, _STRUCTURE_TAG, 1)))
        must_visit = sorted(
            int(v) for v in rng.choice(np.asarray(pool), size=required_count, replace=False)
        )
        params = GrowthParams(
            mu_star=np.concatenate([[0.0], structure.mu_star]),
            noise_stddev=NOISE_STDDEV,
        )
        return Instance(
            seed=seed,
            horizon=horizon,
            num_vertices=structure.num_vertices,
            num_agents=structure.num_agents,
            l_max=structure.l_max,
            positions=structure.positions,
            edges=structure.edges,
            must_visit=must_visit,
            mu_star=structure.mu_star,
            mu_default=MU_DEFAULT,
            noise_stddev=NOISE_STDDEV,
            kappa=materialize_kappa(params, effective_seed, horizon)[1:, 1:].tolist(),
            seed_escalations=escalations,
        )
    raise ValueError(
        f"seed {seed}: gave up after {MAX_ESCALATIONS} escalations; "
        "the config cannot host its required vertices"
    )


def suite_paths(config: BenchmarkConfig, out_dir: str) -> List[Tuple[str, int, int]]:
    """Planned (path, seed, horizon) triples in generation order."""
    return [(_instance_path(out_dir, seed, horizon), seed, horizon)
            for horizon in config.horizons for seed in config.seeds]


def _instance_path(out_dir: str, seed: int, horizon: int) -> str:
    return os.path.join(out_dir, f"H{horizon}", f"seed{seed}.json")


def generate_suite(config: BenchmarkConfig, out_dir: str, force: bool = False) -> List[str]:
    """Write the whole suite under out_dir/H{H}/seed{seed}.json; paths in suite_paths order.

    Each seed is drawn and rendered once, at the longest horizon, and every
    horizon's file text is cut from that rendering, so the files match
    generate_instance's byte for byte.  Only one seed's instance is held at a
    time.  Refuses a repeated seed or horizon, which would name one file
    twice, and a directory that already has content unless forced.
    """
    for name, values in (("seed", config.seeds), ("horizon", config.horizons)):
        if len(set(values)) < len(values):
            raise ValueError(f"repeated {name} in {tuple(values)}")
    _check(config, config.seeds, config.horizons)
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise FileExistsError(
            f"{out_dir} already has content; pass force=True to overwrite"
        )
    for k, seed in enumerate(config.seeds if config.horizons else ()):
        instance = generate_instance(config, seed, max(config.horizons))
        for horizon, text in zip(config.horizons, instance_texts(instance, config.horizons)):
            path = _instance_path(out_dir, seed, horizon)
            if k == 0:  # each H{H} directory once, after the first seed's draw succeeds
                os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
    return [path for path, _, _ in suite_paths(config, out_dir)]
