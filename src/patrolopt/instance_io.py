"""Problem instance files: a JSON snapshot of one benchmark scenario.

An instance pins down everything an episode needs: the graph (positions plus
undirected edges stored once and mirrored on load), the fleet size and travel
budget, required vertices, the true growth rates, and the full pre-drawn
growth table so that every planner sees the very same randomness.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .cost_process import CLIP_RANGE
from .graph import Graph, symmetrize

FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """Instance file missing fields, out-of-range references, or bad shapes."""


@dataclass
class Instance:
    seed: int
    horizon: int
    num_vertices: int
    num_agents: int
    l_max: float
    positions: List[Tuple[float, float]]  # row v-1 holds vertex v
    edges: List[Tuple[int, int, float]]  # (i, j, length) with i < j, once
    must_visit: List[int]
    mu_star: List[float]
    mu_default: float
    noise_stddev: float
    kappa: List[List[float]]  # N rows by H columns
    seed_escalations: int = 0
    version: int = FORMAT_VERSION


def instance_id(instance: Instance) -> str:
    return f"H{instance.horizon}_seed{instance.seed}"


def instance_graph(instance: Instance) -> Graph:
    positions = [(0.0, 0.0)] + [tuple(p) for p in instance.positions]
    return Graph(
        instance.num_vertices,
        symmetrize(instance.edges),
        positions=positions,
    )


def kappa_table(instance: Instance) -> np.ndarray:
    """The pre-drawn growth table as an (N+1, H+1) array; row 0 and column 0 zero."""
    table = np.zeros((instance.num_vertices + 1, instance.horizon + 1))
    table[1:, 1:] = np.asarray(instance.kappa, dtype=float)
    return table


def write_instance(instance: Instance, path: str) -> None:
    payload = {
        "version": instance.version,
        "seed": instance.seed,
        "H": instance.horizon,
        "N": instance.num_vertices,
        "M": instance.num_agents,
        "l_max": instance.l_max,
        "positions": [[float(x), float(y)] for (x, y) in instance.positions],
        "edges": [[int(i), int(j), float(l)] for (i, j, l) in instance.edges],
        "must_visit": [int(v) for v in instance.must_visit],
        "mu_star": [float(v) for v in instance.mu_star],
        "mu_default": float(instance.mu_default),
        "noise_stddev": float(instance.noise_stddev),
        "kappa": [[float(v) for v in row] for row in instance.kappa],
        "seed_escalations": int(instance.seed_escalations),
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_instance(path: str) -> Instance:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc
    return instance_from_payload(payload, origin=path)


def instance_from_payload(payload: Dict, origin: str = "<payload>") -> Instance:
    def fail(msg: str) -> None:
        raise InstanceFormatError(f"{origin}: {msg}")

    required_keys = [
        "version", "seed", "H", "N", "M", "l_max", "positions", "edges",
        "must_visit", "mu_star", "mu_default", "noise_stddev", "kappa",
    ]
    for key in required_keys:
        if key not in payload:
            fail(f"missing field {key!r}")
    for key in ("positions", "edges", "must_visit", "mu_star", "kappa"):
        if not isinstance(payload[key], list):
            fail(f"{key} is not a list")
    if payload["version"] != FORMAT_VERSION:
        fail(f"unsupported version {payload['version']!r}")
    n = int(payload["N"])
    h = int(payload["H"])
    m = int(payload["M"])
    if n < 1:
        fail("N must be >= 1")
    if h < 1:
        fail("H must be >= 1")
    if m < 1:
        fail("M must be >= 1")
    l_max = float(payload["l_max"])
    if not (math.isfinite(l_max) and l_max > 0):
        fail("l_max must be positive and finite")
    positions = payload["positions"]
    if len(positions) != n:
        fail(f"positions has {len(positions)} rows, want N={n}")
    for row in positions:
        if not isinstance(row, list) or len(row) != 2:
            fail(f"position row {row} is not [x, y]")
    edges: List[Tuple[int, int, float]] = []
    seen_pairs = set()
    for row in payload["edges"]:
        if not isinstance(row, list) or len(row) != 3:
            fail(f"edge row {row} is not [i, j, length]")
        i, j, l = int(row[0]), int(row[1]), float(row[2])
        if not (1 <= i <= n and 1 <= j <= n):
            fail(f"edge ({i},{j}) references an unknown vertex")
        if i >= j:
            fail(f"edge ({i},{j}) must be stored with i < j")
        if (i, j) in seen_pairs:
            fail(f"edge ({i},{j}) listed twice")
        if not (math.isfinite(l) and l > 0):
            fail(f"edge ({i},{j}) has nonpositive length")
        seen_pairs.add((i, j))
        edges.append((i, j, l))
    must_visit = [int(v) for v in payload["must_visit"]]
    if len(set(must_visit)) != len(must_visit):
        fail("must_visit has duplicates")
    for v in must_visit:
        if not 2 <= v <= n:
            fail(f"must_visit vertex {v} out of range (depot excluded)")
    mu_star = [float(v) for v in payload["mu_star"]]
    if len(mu_star) != n:
        fail(f"mu_star has {len(mu_star)} entries, want N={n}")
    for v in mu_star:
        if not (math.isfinite(v) and v >= 0):
            fail("mu_star entries must be finite and nonnegative")
    noise = float(payload["noise_stddev"])
    if noise < 0 or not math.isfinite(noise):
        fail("noise_stddev must be nonnegative")
    kappa = payload["kappa"]
    if len(kappa) != n:
        fail(f"kappa has {len(kappa)} rows, want N={n}")
    lo, hi = CLIP_RANGE
    for r, row in enumerate(kappa):
        if not isinstance(row, list):
            fail(f"kappa row {r} is not a list")
        if len(row) != h:
            fail(f"kappa row {r} has {len(row)} columns, want H={h}")
        for v in row:
            fv = float(v)
            if not (lo <= fv <= hi):
                fail(f"kappa value {fv} outside clip range [{lo}, {hi}]")
    return Instance(
        seed=int(payload["seed"]),
        horizon=h,
        num_vertices=n,
        num_agents=m,
        l_max=l_max,
        positions=[(float(p[0]), float(p[1])) for p in positions],
        edges=edges,
        must_visit=must_visit,
        mu_star=mu_star,
        mu_default=float(payload["mu_default"]),
        noise_stddev=noise,
        kappa=[[float(v) for v in row] for row in kappa],
        seed_escalations=int(payload.get("seed_escalations", 0)),
    )
