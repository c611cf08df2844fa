"""Graph container, validation, and all-pairs shortest paths."""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolopt.graph import (
    DEPOT,
    DistanceMatrix,
    Graph,
    all_pairs_shortest,
    reachable_round_trip,
    symmetrize,
    validate,
    walk_length,
)

from conftest import make_graph


def random_graph(rng, n):
    """Connected-ish random symmetric graph with float lengths."""
    edges = []
    for i in range(1, n):
        j = int(rng.integers(i + 1, n + 1))
        edges.append((i, j, float(rng.uniform(0.5, 3.0))))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i = int(rng.integers(1, n + 1))
        j = int(rng.integers(1, n + 1))
        if i != j:
            edges.append((min(i, j), max(i, j), float(rng.uniform(0.5, 3.0))))
    return make_graph(n, edges)


def dijkstra(graph, source):
    dist = {v: math.inf for v in range(1, graph.num_vertices + 1)}
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w in graph.out_neighbors(v):
            nd = d + graph.lengths[(v, w)]
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def test_symmetrize_mirrors_and_is_idempotent():
    e = symmetrize([(1, 2, 1.5), (2, 3, 0.5)])
    assert e[(1, 2)] == e[(2, 1)] == 1.5
    assert e[(3, 2)] == 0.5
    assert symmetrize((i, j, l) for (i, j), l in e.items()) == e


def test_validate_accepts_clean_graph():
    g = make_graph(3, [(1, 2, 1.0), (2, 3, 2.0)])
    assert validate(g) is None


def test_validate_rejects_bad_graphs():
    g = Graph(3, {(1, 2): 1.0, (2, 1): 1.0, (2, 5): 1.0, (5, 2): 1.0})
    assert "vertex" in validate(g)
    g = Graph(3, {(2, 2): 1.0})
    assert "self-loop" in validate(g)
    g = Graph(3, {(1, 2): 0.0, (2, 1): 0.0})
    assert "positive" in validate(g)
    g = Graph(3, {(1, 2): 1.0})
    assert "reverse" in validate(g)
    g = Graph(3, {(1, 2): 1.0, (2, 1): 2.0})
    assert "asymmetric" in validate(g) or "length" in validate(g)


def test_all_pairs_matches_dijkstra_on_random_graphs():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        g = random_graph(rng, n)
        dm = all_pairs_shortest(g)
        for s in range(1, n + 1):
            ref = dijkstra(g, s)
            for v in range(1, n + 1):
                assert abs(dm.dist[s][v] - ref[v]) < 1e-12 or (
                    math.isinf(dm.dist[s][v]) and math.isinf(ref[v])
                )


def reference_all_pairs_shortest(graph):
    """Floyd-Warshall with masked gathers, before the in-place pivots, kept
    verbatim as the reference: (dist, next_hop as nested lists)."""
    n = graph.num_vertices
    dist = np.full((n + 1, n + 1), math.inf)
    nxt = np.full((n + 1, n + 1), -1, dtype=np.int64)
    for i in range(1, n + 1):
        dist[i, i] = 0.0
        nxt[i, i] = i
    for (i, j), l in graph.edge_items():
        if l < dist[i, j]:
            dist[i, j] = l
            nxt[i, j] = j
    for k in range(1, n + 1):
        via = dist[:, k : k + 1] + dist[k : k + 1, :]
        better = via < dist
        if better.any():
            dist[better] = via[better]
            nxt[better] = np.broadcast_to(nxt[:, k : k + 1], nxt.shape)[better]
    return dist, nxt.tolist()


@st.composite
def tied_split_graphs(draw):
    """Symmetric graphs on 1-12 vertices with lengths 1-3, so many shortest
    paths tie, cut into up to three blocks with no edge between them."""
    n = draw(st.integers(1, 12))
    cuts = draw(st.sets(st.integers(2, max(n, 2)), max_size=2))

    def block(v):
        return sum(v >= c for c in cuts)

    edges = [(i, j, float(draw(st.integers(1, 3))))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if block(i) == block(j) and draw(st.booleans())]
    return make_graph(n, edges)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph=tied_split_graphs())
def test_distances_and_next_hops_match_the_masked_reference(graph):
    dm = all_pairs_shortest(graph)
    dist, next_hop = reference_all_pairs_shortest(graph)
    assert dm.dist.dtype == dist.dtype
    assert dm.dist.tobytes() == dist.tobytes()
    assert dm.next_hop == next_hop


def test_shortest_path_reconstruction_is_consistent():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        g = random_graph(rng, int(rng.integers(4, 10)))
        dm = all_pairs_shortest(g)
        for s in range(1, g.num_vertices + 1):
            for v in range(1, g.num_vertices + 1):
                path = dm.shortest_path(s, v)
                if math.isinf(dm.dist[s][v]):
                    assert path is None
                    continue
                assert path[0] == s and path[-1] == v
                total = sum(g.lengths[(a, b)] for a, b in zip(path, path[1:]))
                assert abs(total - dm.dist[s][v]) < 1e-12


def test_paths_hold_python_ints_and_rows_mirror_the_distances():
    # routes are written to JSON, which takes no numpy integer
    rng = np.random.default_rng(7)
    g = random_graph(rng, 8)
    dm = all_pairs_shortest(g)
    assert dm.rows == dm.dist.tolist()
    assert dm.rows is dm.rows  # computed once, then shared
    for s in range(1, 9):
        for v in range(1, 9):
            path = dm.shortest_path(s, v)
            assert path is not None and all(type(w) is int for w in path)


def test_a_cyclic_next_hop_table_raises():
    # 1 -> 3 goes through 2, and 2 -> 3 back through 1
    nxt = [[-1] * 4 for _ in range(4)]
    nxt[1][3], nxt[2][3] = 2, 1
    dm = DistanceMatrix(dist=np.ones((4, 4)), next_hop=nxt)
    with pytest.raises(RuntimeError, match="cyclic"):
        dm.shortest_path(1, 3)


def test_unreachable_vertices_report_infinity():
    g = make_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])
    dm = all_pairs_shortest(g)
    assert math.isinf(dm.dist[1][3])
    assert dm.shortest_path(1, 4) is None


def test_reachable_round_trip_uses_out_and_back_budget():
    g = make_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    dm = all_pairs_shortest(g)
    # round trips: v2 = 2, v3 = 4, v4 = 6
    assert reachable_round_trip(g, dm, 2.0) == {1, 2}
    assert reachable_round_trip(g, dm, 5.9) == {1, 2, 3}
    assert reachable_round_trip(g, dm, 6.0) == {1, 2, 3, 4}


def test_walk_length_sums_edges_and_rejects_non_edges():
    g = make_graph(3, [(1, 2, 1.0), (2, 3, 2.0)])
    assert walk_length(g, [1, 2, 3, 2, 1]) == 6.0
    assert walk_length(g, [1]) == 0.0
    with pytest.raises(KeyError):
        walk_length(g, [1, 3])


def test_out_neighbors_sorted_ascending():
    g = make_graph(4, [(1, 4, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    assert g.out_neighbors(1) == [2, 3, 4]
    assert DEPOT == 1
