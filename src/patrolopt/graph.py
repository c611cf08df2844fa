"""Symmetric directed graphs with a distinguished depot vertex.

Vertices are 1-indexed and vertex 1 is always the depot.  Arrays keyed by
vertex are sized N+1 with slot 0 unused so that code can write ``dist[i, j]``
with the same indices that appear in route lists.  FleetPlan is the plan
every planner returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

DEPOT = 1
INF = math.inf


class Graph:
    """Directed graph with per-edge lengths.

    A well-formed graph contains every edge in both directions with identical
    lengths (two-way traffic on every road).  ``validate`` checks that; the
    constructor itself is permissive so malformed inputs can be inspected.
    """

    def __init__(self, num_vertices: int, edges: Dict[Tuple[int, int], float]):
        self.num_vertices = int(num_vertices)
        self.lengths: Dict[Tuple[int, int], float] = dict(edges)
        self._out: Dict[int, List[int]] = {i: [] for i in range(1, self.num_vertices + 1)}
        for (i, j) in sorted(self.lengths):
            if 1 <= i <= self.num_vertices:
                self._out[i].append(j)

    def out_neighbors(self, i: int) -> List[int]:
        """Ascending list of j with (i, j) an edge."""
        return self._out[i]

    def edge_items(self) -> List[Tuple[Tuple[int, int], float]]:
        """All directed edges with lengths, sorted for deterministic iteration."""
        return sorted(self.lengths.items())


def symmetrize(edges: Iterable[Tuple[int, int, float]]) -> Dict[Tuple[int, int], float]:
    """Mirror each (i, j, length) into both directions with the same length."""
    out: Dict[Tuple[int, int], float] = {}
    for i, j, l in edges:
        out[(i, j)] = l
        out[(j, i)] = l
    return out


def validate(graph: Graph) -> Optional[str]:
    """Return a description of the first violated invariant, or None if well formed.

    Checked per directed edge in sorted order: vertex references in range,
    no self-loops, strictly positive finite lengths, reverse edge present,
    reverse length identical.
    """
    n = graph.num_vertices
    if n < 1:
        return "graph has no vertices"
    for (i, j) in sorted(graph.lengths):
        if not (1 <= i <= n and 1 <= j <= n):
            return f"edge ({i},{j}) references an unknown vertex"
        if i == j:
            return f"self-loop ({i},{j})"
        lij = graph.lengths[(i, j)]
        if not math.isfinite(lij) or lij <= 0:
            return f"nonpositive length on ({i},{j})"
        if (j, i) not in graph.lengths:
            return f"missing reverse edge ({j},{i})"
        if graph.lengths[(j, i)] != lij:
            return f"asymmetric length on ({i},{j})/({j},{i})"
    return None


@dataclass
class DistanceMatrix:
    """All-pairs shortest path distances with next-hop route reconstruction.

    ``dist[i, j]`` is inf when j is unreachable from i.  ``next_hop[i][j]``,
    a nested list, is the successor of i on a shortest i->j path, or -1 when
    there is none.  ``rows`` is ``dist`` as nested lists of floats, for loops
    that read it one entry at a time.
    """

    dist: np.ndarray
    next_hop: List[List[int]]

    @cached_property
    def rows(self) -> List[List[float]]:
        return self.dist.tolist()

    def shortest_path(self, i: int, j: int) -> Optional[List[int]]:
        """Vertex list i..j along a shortest path, or None if unreachable."""
        if i == j:
            return [i]
        nxt = self.next_hop
        if nxt[i][j] < 0:
            return None
        path = [i]
        cur = i
        while cur != j:
            cur = nxt[cur][j]
            path.append(cur)
            if len(path) > len(nxt):
                raise RuntimeError("next-hop table is cyclic")
        return path


def all_pairs_shortest(graph: Graph) -> DistanceMatrix:
    """Floyd-Warshall over all vertices.

    Ties between equal-length paths resolve to the smallest intermediate
    vertex index because relaxation only replaces on strict improvement and
    pivots are scanned in ascending order.  Each pivot writes in place
    through two buffers all pivots share.  Pivot k never improves row k or
    column k, as dist[k, k] is 0, so the column it copies next hops from is
    never written while it is read.
    """
    n = graph.num_vertices
    dist = np.full((n + 1, n + 1), INF)
    nxt = np.full((n + 1, n + 1), -1, dtype=np.int64)
    vertices = np.arange(1, n + 1)
    dist[vertices, vertices] = 0.0
    nxt[vertices, vertices] = vertices
    if graph.lengths:  # each edge once, so no edge reads another's write
        i, j = np.array(list(graph.lengths), dtype=np.int64).T
        lengths = np.array(list(graph.lengths.values()), dtype=float)
        kept = lengths < dist[i, j]
        i, j = i[kept], j[kept]
        dist[i, j] = lengths[kept]
        nxt[i, j] = j
    via = np.empty_like(dist)
    better = np.empty(dist.shape, dtype=bool)
    for k in range(1, n + 1):
        np.add(dist[:, k : k + 1], dist[k : k + 1, :], out=via)
        np.less(via, dist, out=better)
        np.copyto(dist, via, where=better)
        np.copyto(nxt, nxt[:, k : k + 1], where=better)
    return DistanceMatrix(dist=dist, next_hop=nxt.tolist())


def reachable_round_trip(graph: Graph, dm: DistanceMatrix, l_max: float) -> Set[int]:
    """Vertices that can be visited and returned from within the budget.

    The depot is always a member (round trip of length zero).
    """
    n = graph.num_vertices
    return {v for v in range(1, n + 1) if dm.dist[DEPOT, v] + dm.dist[v, DEPOT] <= l_max}


def walk_length(graph: Graph, route: List[int]) -> float:
    """Sum of edge lengths along a route, in traversal order.

    Raises KeyError if a consecutive pair is not an edge.
    """
    total = 0.0
    for a, b in zip(route, route[1:]):
        total += graph.lengths[(a, b)]
    return total


@dataclass
class FleetPlan:
    """One closed walk per agent, depot to depot; [1] alone means the agent stays home."""

    routes: List[List[int]]
    lengths: List[float]

    @property
    def num_agents(self) -> int:
        return len(self.routes)

    def visited(self) -> Set[int]:
        out: Set[int] = {DEPOT}
        for route in self.routes:
            out.update(route)
        return out

    def reward(self, c_hat: np.ndarray) -> float:
        return float(sum(c_hat[v] for v in sorted(self.visited()) if v != DEPOT))
