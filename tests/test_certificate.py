"""What lets milp.solve skip HiGHS: certificates of optimality and proofs of infeasibility.

A certified round must be a real optimum: feasible for the model as built,
and worth the round-trip bound that no plan can beat.  Anything short of
that has to fall through to HiGHS, which is checked here by spying on the
HiGHS call, and the property tests hold both paths to the brute-force
oracle on random tiny graphs.  An infeasibility proof must only ever name
rounds that both the oracle and HiGHS find infeasible.  Tests of the path
to HiGHS put every round above the exact DP's cost cap (no_dp), as a large
round is; test_heldkarp.py covers the DP.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from patrolopt import certify, heldkarp, milp
from patrolopt.benchgen import BenchmarkConfig, generate_instance
from patrolopt.estimator import EstimatorState
from patrolopt.graph import DEPOT, all_pairs_shortest, walk_length
from patrolopt.greedy import UnreachableMustVisitError, greedy_plan
from patrolopt.instance_io import instance_graph
from patrolopt.milp import INFEASIBLE, OPTIMAL, check_assignment, solve
from patrolopt.simulator import run_episode
from patrolopt.certify import (
    Structure,
    _cover_walks,
    _disjoint_pair_length,
    _farthest_insertion,
    _greedy_walks,
    _insertion_cover,
    _paths_through,
    _tree_path,
    fleet_walks,
    infeasibility_proof,
    repair_walk,
)
from patrolopt.tocp import (
    answer_round,
    audit_solution,
    build_top,
    build_tocp,
    extract_routes,
    plan_round,
    plan_to_assignment,
)

from conftest import TIGHT_LAW, DrawnRng, distinct, make_graph, tiny_rounds
from oracle import brute_force_single_iteration


@pytest.mark.parametrize("fixture", ("bridge", "star"))
def test_certified_round_skips_highs_and_is_the_optimum(fixture, request, highs_calls):
    graph, dist, c_hat, l_max = request.getfixturevalue(fixture)
    model, handles = build_tocp(graph, c_hat, 1, l_max, dist=dist)
    assert model.certificate is not None
    sol = solve(model)
    assert highs_calls == []
    assert sol.status == OPTIMAL
    assert sol.node_count == 0
    assert sol.gap == 0.0
    ref = brute_force_single_iteration(graph, c_hat, 1, l_max, dist=dist)
    assert abs(sol.objective_value - ref.reward) < 1e-9
    assert audit_solution(graph, sol, handles) == []
    assert extract_routes(sol, handles, graph).visited() == set(range(1, graph.num_vertices + 1))


def test_candidate_with_a_violated_row_falls_through(bridge, highs_calls):
    graph, dist, c_hat, l_max = bridge
    model, handles = build_tocp(graph, c_hat, 1, l_max, dist=dist)
    forged, bound = model.certificate
    forged = forged.copy()
    forged[handles.x[(3, 2, 1)]] = 0.0  # vertex 3 is entered but never left
    assert len(check_assignment(model, forged)) >= 1
    model.certificate = (forged, bound)
    sol = solve(model)
    assert highs_calls == ["tocp"]
    assert sol.status == OPTIMAL
    assert check_assignment(model, sol.assignment) == []
    assert abs(sol.objective_value - 10.1) < 1e-9


def test_candidate_below_the_bound_falls_through(bridge, highs_calls):
    graph, dist, c_hat, l_max = bridge
    model, handles = build_tocp(graph, c_hat, 1, l_max, dist=dist)
    short = plan_to_assignment([[1, 2, 1]], model, handles)
    assert check_assignment(model, short) == []
    model.certificate = (short, model.certificate[1])
    sol = solve(model)
    assert highs_calls == ["tocp"]
    assert abs(sol.objective_value - 10.1) < 1e-9
    assert extract_routes(sol, handles, graph).routes == [[1, 2, 3, 2, 1]]


def test_mid_walk_depot_passes_are_bypassed():
    # loose-exact structure 9's greedy route had this shape: two loops glued
    # at the depot, which the model's single depot departure cannot encode
    g = make_graph(13, [(1, 9, 1.0), (9, 6, 1.0), (6, 1, 1.0), (1, 13, 1.0),
                        (13, 10, 1.0), (10, 1, 1.0), (6, 7, 1.0), (7, 13, 1.0)])
    walk = [1, 9, 6, 1, 13, 10, 1]
    repaired = repair_walk(walk, Structure(g, None, 1, 6.0, (), "tocp"))
    assert repaired == [1, 9, 6, 7, 13, 10, 1]
    assert repaired.count(DEPOT) == 2
    assert set(walk) <= set(repaired)
    # a bounce through the depot collapses onto the vertex it left from
    bounce = make_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)])
    repaired = repair_walk([1, 2, 3, 1, 3, 4, 1], Structure(bounce, None, 1, 6.0, (), "tocp"))
    assert repaired == [1, 2, 3, 4, 1]
    # with the depot as a cut vertex there is no way around it
    spokes = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
    assert repair_walk([1, 2, 1, 3, 1], Structure(spokes, None, 1, 4.0, (), "tocp")) is None


def test_bypass_over_budget_falls_back_to_highs(highs_calls, no_dp):
    # greedy reaches 3 from 2 through the depot; the depot-free way is 10 long
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 10.0)])
    dist = all_pairs_shortest(g)
    c_hat = np.array([0.0, 0.0, 1.0, 1.0])
    model, handles = build_tocp(g, c_hat, 1, 4.0, dist=dist)
    assert model.certificate is None
    sol = solve(model)
    assert highs_calls == ["tocp"]
    ref = brute_force_single_iteration(g, c_hat, 1, 4.0, dist=dist)
    assert abs(sol.objective_value - ref.reward) < 1e-9
    assert audit_solution(g, sol, handles) == []


def test_zero_valued_reachable_vertex_blocks_the_certificate(highs_calls, no_dp):
    # greedy never chases a vertex worth nothing, so it cannot certify the
    # round; the tie rule says a certified round visits everything reachable
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
    c_hat = np.array([0.0, 0.0, 1.0, 0.0])
    model, _ = build_tocp(g, c_hat, 1, 4.0)
    assert model.certificate is None
    assert abs(solve(model).objective_value - 1.0) < 1e-9
    assert highs_calls == ["tocp"]


def test_idle_agents_take_the_cheapest_out_and_back(bridge, highs_calls):
    graph, dist, c_hat, l_max = bridge
    model, handles = build_tocp(graph, c_hat, 2, l_max, dist=dist)
    sol = solve(model)
    assert highs_calls == []
    assert extract_routes(sol, handles, graph).routes == [[1, 2, 1], [1, 2, 3, 2, 1]]


def test_single_visit_model_never_carries_a_candidate(bridge, star, no_dp):
    for graph, dist, c_hat, l_max in (bridge, star):
        model, _ = build_top(graph, c_hat, 1, l_max, dist=dist)
        assert model.certificate is None


def assert_disjoint_simple_cycles(routes):
    for route in routes:
        assert route[0] == route[-1] == DEPOT
        assert len(set(route[1:-1])) == len(route) - 2 and DEPOT not in route[1:-1]
    inner = [v for route in routes for v in route[1:-1]]
    assert len(set(inner)) == len(inner)


def test_cycle_cover_certifies_top_and_is_the_optimum(highs_calls):
    # two depot triangles, one per agent; vertex 3 is worth nothing but is
    # reachable, so the tie rule still has the cover visit it
    g = make_graph(5, [(1, 2, 1.0), (1, 4, 1.0), (1, 3, 1.5), (1, 5, 1.5),
                       (2, 3, 1.0), (4, 5, 1.0)])
    dist = all_pairs_shortest(g)
    c_hat = np.array([0.0, 0.0, 1.0, 0.0, 2.0, 3.0])
    model, handles = build_top(g, c_hat, 2, 3.5, dist=dist)
    assert model.certificate is not None
    sol = solve(model)
    assert highs_calls == []
    assert sol.status == OPTIMAL
    assert sol.node_count == 0
    ref = brute_force_single_iteration(g, c_hat, 2, 3.5, variant="top", dist=dist)
    assert abs(sol.objective_value - ref.reward) < 1e-9
    assert audit_solution(g, sol, handles) == []
    plan = extract_routes(sol, handles, g)
    assert_disjoint_simple_cycles(plan.routes)
    assert plan.visited() == {1, 2, 3, 4, 5}
    assert all(length <= 3.5 for length in plan.lengths)


def test_cycle_cover_swaps_a_start_vertex(highs_calls):
    # the two nearest depot neighbours 2 and 3 leave the leaf 4 stranded;
    # swapping 3 for 4 lets 3 join agent 1's cycle instead
    g = make_graph(4, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (1, 4, 2.0)])
    dist = all_pairs_shortest(g)
    c_hat = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    model, handles = build_top(g, c_hat, 2, 4.0, dist=dist)
    assert model.certificate is not None
    sol = solve(model)
    assert highs_calls == []
    assert extract_routes(sol, handles, g).routes == [[1, 3, 2, 1], [1, 4, 1]]
    ref = brute_force_single_iteration(g, c_hat, 2, 4.0, variant="top", dist=dist)
    assert abs(sol.objective_value - ref.reward) < 1e-9


def test_detour_back_avoids_the_way_out(highs_calls):
    # 5's shortest ways from 2 and back to 1 both run through 3; the way
    # back must then take 4 instead, or the cycle would enter 3 twice
    g = make_graph(5, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.5), (2, 3, 1.0), (2, 4, 2.0),
                       (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.5)])
    dist = all_pairs_shortest(g)
    c_hat = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    model, handles = build_top(g, c_hat, 1, 8.0, dist=dist)
    sol = solve(model)
    assert highs_calls == []
    assert extract_routes(sol, handles, g).routes == [[1, 2, 3, 5, 4, 1]]


def reference_paths_through(graph, source, through):
    """_paths_through before parent pointers, kept verbatim as the reference.

    It copies the path on every relaxation and reads each edge's length from
    graph.lengths; _paths_through must find the same lengths and paths.
    """
    best = {source: (0.0, [source])}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        path = best[v][1]
        for u in graph.out_neighbors(v):
            nd = d + graph.lengths[(v, u)]
            if u not in best or nd < best[u][0]:
                best[u] = (nd, path + [u])
                if u in through:
                    heapq.heappush(heap, (nd, u))
    return best


def reference_insertion_cover(graph, targets, starts, l_max, ties=None):
    """_insertion_cover before the bound check, kept as the reference.

    It builds both paths of every candidate and searches off the first path
    whenever they cross; _insertion_cover must grow the same routes.  When
    ties is a set, it gains "slot" if in some step the chosen vertex has two
    insertions at its cheapest cost, and "vertex" if two vertices' cheapest
    insertions tie at the chosen cost (the chosen vertex is the lowest).
    """
    routes = [[DEPOT, v, DEPOT] for v in starts]
    lengths = [walk_length(graph, route) for route in routes]
    uncovered = set(targets) - set(starts)
    while uncovered:
        on_routes = {a for route in routes for a in route}
        trees = {a: reference_paths_through(graph, a, uncovered) for a in on_routes}
        choice = None
        costs = {}
        for w in sorted(uncovered):
            cheapest = None
            costs[w] = []
            for m, route in enumerate(routes):
                for p, (a, b) in enumerate(zip(route, route[1:])):
                    if w not in trees[a] or w not in trees[b]:
                        continue
                    to_w, path_in = trees[a][w]
                    from_w, path_back = trees[b][w]
                    path_out = path_back[::-1]
                    if set(path_in[1:-1]) & set(path_out[1:-1]):
                        off = reference_paths_through(graph, w, uncovered - set(path_in))
                        if b not in off:
                            continue
                        from_w, path_out = off[b]
                    cost = to_w + from_w - graph.lengths[(a, b)]
                    if lengths[m] + cost <= l_max:
                        costs[w].append(cost)
                        if cheapest is None or cost < cheapest[0]:
                            cheapest = (cost, m, p, path_in + path_out[1:])
            if cheapest is None:
                return None
            if choice is None or cheapest[0] > choice[0]:
                choice = cheapest
        _, m, p, detour = choice
        if ties is not None:
            dearest = [w for w, found in costs.items() if min(found) == choice[0]]
            if costs[dearest[0]].count(choice[0]) > 1:
                ties.add("slot")
            if len(dearest) > 1:
                ties.add("vertex")
        routes[m] = routes[m][:p] + detour + routes[m][p + 2:]
        lengths[m] = walk_length(graph, routes[m])
        uncovered -= set(detour)
    return routes


def cover_search(rng):
    """A symmetric graph on 2-10 vertices with a depot edge, 1-3 start vertices
    among the depot's neighbours, targets that hold them and all but at most
    two other vertices, and a budget, drawn from rng (see DrawnRng).

    Half the graphs have integer lengths and budgets, so equal paths, equal
    insertion costs and routes exactly at the budget are common; the other
    half have random float lengths and budgets.  Each other pair of vertices
    is joined with chance 1/2 or 3/4: the dense graphs offer each vertex many
    insertions, whose order the bound check must not change.
    """
    n = int(rng.integers(2, 11))
    integral = rng.integers(0, 2) == 1

    def length():
        return float(rng.integers(1, 5)) if integral else float(rng.uniform(0.05, 4.0))

    joined = int(rng.integers(2, 4))
    edges = [(1, 2, length())] + [
        (i, j, length()) for i in range(1, n + 1) for j in range(max(i + 1, 3), n + 1)
        if rng.integers(0, 4) < joined]
    graph = make_graph(n, edges)
    starts = distinct(rng, graph.out_neighbors(DEPOT), 1, 3)
    dropped = set(distinct(rng, range(2, n + 1), 0, 2))
    targets = sorted(set(starts) | (set(range(2, n + 1)) - dropped))
    l_max = float(rng.integers(3, 41)) if integral else float(rng.uniform(3.0, 40.0))
    return graph, targets, starts, l_max


@st.composite
def cover_searches(draw):
    return cover_search(DrawnRng(draw))


def adjacency_of(graph):
    """The graph's out-edges as Structure.adjacency lists them, slot 0 unused."""
    return [[]] + [[(u, graph.lengths[(v, u)]) for u in graph.out_neighbors(v)]
                   for v in range(1, graph.num_vertices + 1)]


def through_list(graph, vertices):
    through = [False] * (graph.num_vertices + 1)
    for v in vertices:
        through[v] = True
    return through


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cover_searches())
def test_trees_match_the_path_copying_search(case):
    # the cover's trees pass through the uncovered targets; its searches off
    # a path, and the proof's, through every non-depot vertex but those on
    # it (the whole path, or its inner vertices)
    graph, targets, _, _ = case
    n = graph.num_vertices
    adjacency = adjacency_of(graph)
    others = set(range(2, n + 1))
    for source in range(1, n + 1):
        paths = [path for _, path in reference_paths_through(graph, source, others).values()]
        throughs = [set(targets)] + [others - set(path) for path in paths] + [
            others - set(path[1:-1]) for path in paths]
        for through in throughs:
            dist, parent = _paths_through(adjacency, source, through_list(graph, through))
            expected = reference_paths_through(graph, source, through)
            assert dist == [expected[v][0] if v in expected else np.inf for v in range(n + 1)]
            assert {v: _tree_path(parent, v) for v in expected} == {
                v: path for v, (_, path) in expected.items()}
            assert all(parent[v] == 0 for v in range(n + 1) if v not in expected)


def test_cover_matches_the_path_copying_search():
    # 1,000 searches, search k drawn from default_rng(k), so they and the
    # tie counts are the same whatever else ran; the counts come from the
    # reference alone and show that equal insertion costs are drawn often
    # enough for the tie rules to be compared
    drawn = Counter()
    for k in range(1000):
        graph, targets, starts, l_max = cover_search(np.random.default_rng(k))
        ties = set()
        expected = reference_insertion_cover(graph, targets, starts, l_max, ties)
        assert _insertion_cover(graph, adjacency_of(graph), targets, starts, l_max) == expected, k
        drawn.update(ties)
    # the reference draws 362 slot ties and 117 vertex ties
    assert drawn["slot"] >= 300 and drawn["vertex"] >= 100, drawn


def cover_of(edges, n, targets, starts, l_max=10.0):
    graph = make_graph(n, edges)
    routes = _insertion_cover(graph, adjacency_of(graph), targets, starts, l_max)
    assert routes == reference_insertion_cover(graph, targets, starts, l_max)
    return routes


def test_equal_insertions_take_the_earliest_slot():
    # 4 is one unit from the depot, 2 and 3: each of the four slots of the
    # two out-and-backs inserts it at cost 1, and route 0's first slot wins
    edges = [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0)]
    assert cover_of(edges, 4, [2, 3, 4], [2, 3]) == [[1, 4, 2, 1], [1, 3, 1]]
    # on one route the first of its two slots wins
    edges = [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
    assert cover_of(edges, 3, [2, 3], [2]) == [[1, 3, 2, 1]]


def test_equally_dear_vertices_take_the_lowest():
    # 3 and 4 both cost 1 to insert before 2; 3 goes first, and 4, which
    # cannot reach 3 through uncovered vertices, then goes after 2
    edges = [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (1, 4, 1.0), (2, 4, 1.0)]
    assert cover_of(edges, 4, [2, 3, 4], [2]) == [[1, 3, 2, 4, 1]]


def test_a_crossed_cheapest_slot_gives_way_to_a_later_one():
    # 5's ways from 1 and from 2 both run through 4, so route 0's slots,
    # whose floors are 3, have no way back off the first path; route 1's
    # first slot, floor and cost 4, inserts 5 by 4
    edges = [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 4, 1.0), (4, 5, 1.0), (3, 5, 3.0)]
    assert cover_of(edges, 5, [2, 3, 4, 5], [2, 3]) == [[1, 2, 1], [1, 4, 5, 3, 1]]


def test_cut_vertex_without_a_cover_falls_back_to_highs(highs_calls, no_dp):
    # the triangle 2-3-4 hangs off the depot at vertex 2: its only cycle
    # through the depot enters 2 twice, which the single-visit rule forbids
    g = make_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0)])
    dist = all_pairs_shortest(g)
    c_hat = np.array([0.0, 0.0, 1.0, 5.0, 5.0])
    model, handles = build_top(g, c_hat, 1, 6.0, dist=dist)
    assert model.certificate is None
    sol = solve(model)
    assert highs_calls == ["top"]
    ref = brute_force_single_iteration(g, c_hat, 1, 6.0, variant="top", dist=dist)
    assert abs(sol.objective_value - ref.reward) < 1e-9
    assert audit_solution(g, sol, handles) == []


def test_fewer_depot_neighbours_than_agents_gives_no_cover(highs_calls, no_dp):
    # the out-and-back to 3 is over budget, so only 2 can start a cycle; one
    # agent alone could take the whole bound by [1, 2, 3, 1], but the cover
    # needs a first vertex per agent, and so does every plan: the round is
    # infeasible, which only HiGHS proves here
    g = make_graph(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 2.5)])
    dist = all_pairs_shortest(g)
    c_hat = np.array([0.0, 0.0, 1.0, 2.0])
    model, _ = build_top(g, c_hat, 2, 4.5, dist=dist)
    assert model.certificate is None
    sol = solve(model)
    assert highs_calls == ["top"]
    ref = brute_force_single_iteration(g, c_hat, 2, 4.5, variant="top", dist=dist)
    assert not ref.feasible
    assert sol.status == INFEASIBLE


@pytest.mark.parametrize("far_value", (0.0, 5.0))
def test_bound_covers_walks_within_the_solver_tolerance(far_value, highs_calls, no_dp):
    # vertex 3's round trip is l_max + 5e-7: over budget for greedy, inside
    # the slack HiGHS and the oracle grant a budget row
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 2.0 + 2.5e-7)])
    dist = all_pairs_shortest(g)
    assert dist.dist[1, 3] + dist.dist[3, 1] == pytest.approx(4.0 + 5e-7, abs=1e-12)
    c_hat = np.array([0.0, 0.0, 1.0, far_value])
    model, handles = build_tocp(g, c_hat, 1, 4.0, dist=dist)
    # greedy visits everything within the exact budget, yet must not certify
    assert model.certificate is None
    sol = solve(model)
    assert highs_calls == ["tocp"]
    assert sol.status == OPTIMAL
    ref = brute_force_single_iteration(g, c_hat, 1, 4.0, dist=dist)
    assert abs(sol.objective_value - ref.reward) < 1e-9
    assert ref.reward == max(1.0, far_value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tiny_rounds())
def test_tocp_matches_brute_force_with_and_without_its_certificate(case):
    graph, c_hat, agents, l_max, must = case
    dist = all_pairs_shortest(graph)
    oracle = brute_force_single_iteration(graph, c_hat, agents, l_max, must, dist=dist)
    model, handles = build_tocp(graph, c_hat, agents, l_max, must, dist=dist)
    certificate = model.certificate
    sol = solve(model)
    if not oracle.feasible:
        assert certificate is None
        assert sol.status == INFEASIBLE
        return
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - oracle.reward) <= 1e-6
    assert audit_solution(graph, sol, handles) == []
    if certificate is None:
        return
    certified = handles.structure.certified_walks
    if certified is not None and np.array_equal(sol.assignment,
                                                plan_to_assignment(certified, model, handles)):
        plan = extract_routes(sol, handles, graph)
        reachable = {v for v in range(1, graph.num_vertices + 1)
                     if dist.dist[1, v] + dist.dist[v, 1] <= l_max}
        assert reachable <= plan.visited()
        assert all(walk_length(graph, r) <= l_max for r in plan.routes)
    model.certificate = None
    plain = solve(model)
    assert plain.status == OPTIMAL
    assert abs(plain.objective_value - oracle.reward) <= 1e-6


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tiny_rounds())
def test_kept_certificate_visits_every_target_and_rounds_reach_the_optimum(case):
    graph, c_hat, agents, l_max, must = case
    dist = all_pairs_shortest(graph)
    structure = Structure(graph, dist, agents, l_max, must, "tocp")
    oracle = brute_force_single_iteration(graph, c_hat, agents, l_max, must, dist=dist)
    kept = structure.certified_walks
    event("kept" if kept is not None else "none")
    if kept is not None:
        assert certify.broken_rules(structure, kept) == []
        assert all(walk_length(graph, walk) <= l_max for walk in kept)
        assert set(structure.targets) <= {v for walk in kept for v in walk}
    plan, status = plan_round(structure, c_hat, None)
    if not oracle.feasible:
        assert status == INFEASIBLE
        return
    assert status == OPTIMAL
    assert abs(plan.reward(c_hat) - oracle.reward) <= 1e-9


def test_loose_exact_structure_1_builds_no_table(monkeypatch):
    # default seed 1's first round predicts the same cost everywhere, so
    # greedy misses a target; the only union the DP could choose is all 17
    tables = []
    monkeypatch.setattr(heldkarp, "fleet_table", lambda *args: tables.append(args))
    instance = generate_instance(BenchmarkConfig(), 1, 1)
    structure = Structure(instance_graph(instance), None, instance.num_agents, instance.l_max,
                          instance.must_visit, "tocp")
    c_hat = EstimatorState(instance.num_vertices, instance.mu_default).predicted_cost(1)
    assert _greedy_walks(structure) is None
    plan, status = plan_round(structure, c_hat, None)
    assert tables == []
    assert status == OPTIMAL
    assert len(structure.targets) == 17
    assert plan.visited() >= set(structure.targets)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tiny_rounds())
def test_top_matches_brute_force_with_and_without_its_certificate(case):
    graph, c_hat, agents, l_max, must = case
    dist = all_pairs_shortest(graph)
    oracle = brute_force_single_iteration(graph, c_hat, agents, l_max, must, variant="top",
                                          dist=dist)
    model, handles = build_top(graph, c_hat, agents, l_max, must, dist=dist)
    certificate = model.certificate
    sol = solve(model)
    if not oracle.feasible:
        assert certificate is None
        assert sol.status == INFEASIBLE
        return
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - oracle.reward) <= 1e-6
    assert audit_solution(graph, sol, handles) == []
    model.certificate = None
    plain = solve(model)
    assert plain.status == OPTIMAL
    assert abs(plain.objective_value - oracle.reward) <= 1e-6


@pytest.mark.parametrize("build", (build_tocp, build_top), ids=("tocp", "top"))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=tiny_rounds())
def test_infeasibility_proofs_agree_with_brute_force_and_highs(build, case):
    graph, c_hat, agents, l_max, must = case
    dist = all_pairs_shortest(graph)
    model, handles = build(graph, c_hat, agents, l_max, must, dist=dist)
    oracle = brute_force_single_iteration(graph, c_hat, agents, l_max, must,
                                          variant=handles.structure.variant, dist=dist)
    proof = model.infeasibility_proof
    if proof is None:
        event("feasible" if oracle.feasible else "infeasible, no proof")
        return
    event("proof")
    assert not oracle.feasible
    assert model.certificate is None
    sol = solve(model)
    assert (sol.status, sol.node_count, sol.gap) == (INFEASIBLE, 0, np.inf)
    model.infeasibility_proof = None
    assert solve(model).status == INFEASIBLE


def test_proofs_grant_the_solver_tolerance(highs_calls):
    # the required vertex 3's round trip is l_max + 5e-7, over budget for the
    # oracle but inside the slack HiGHS grants a budget row: no proof
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 2.0 + 2.5e-7)])
    for build in (build_tocp, build_top):
        model, _ = build(g, np.array([0.0, 0.0, 1.0, 1.0]), 1, 4.0, [3])
        assert model.infeasibility_proof is None
        assert solve(model).status == OPTIMAL
    assert highs_calls == ["tocp", "top"]


def first_round_top(law, seed, build=build_top):
    instance = generate_instance(BenchmarkConfig(**law), seed, 1)
    graph = instance_graph(instance)
    c_hat = EstimatorState(instance.num_vertices, instance.mu_default).predicted_cost(1)
    return build(graph, c_hat, instance.num_agents, instance.l_max, instance.must_visit,
                 dist=all_pairs_shortest(graph))


@pytest.mark.parametrize("law, seed, vertex", [
    ({}, 7, 5), (TIGHT_LAW, 8, 2), (TIGHT_LAW, 10, 5), (TIGHT_LAW, 12, 2), (TIGHT_LAW, 27, 4),
], ids=("default-7", "tight-8", "tight-10", "tight-12", "tight-27"))
def test_benchmark_rounds_without_a_simple_cycle_are_proven_without_highs(
        law, seed, vertex, highs_calls):
    # round-1 top models that HiGHS proves infeasible at 0 nodes in 0.5-14 s:
    # the named must-visit vertex lies on no simple depot cycle within l_max
    model, _ = first_round_top(law, seed)
    assert model.infeasibility_proof.startswith(
        f"must-visit vertex {vertex} lies on no simple depot cycle")
    sol = solve(model)
    assert (sol.status, sol.node_count, sol.assignment) == (INFEASIBLE, 0, None)
    assert highs_calls == []


def test_proven_top_round_skips_the_cover_search(monkeypatch):
    # the proof comes before the cover: with the cover first, this round
    # made 21 failed _insertion_cover attempts before the proof settled it
    calls = []
    real = certify._insertion_cover
    monkeypatch.setattr(certify, "_insertion_cover", lambda *args: calls.append(1) or real(*args))
    instance = generate_instance(BenchmarkConfig(**TIGHT_LAW), 8, 1)
    structure = Structure(instance_graph(instance), None, instance.num_agents, instance.l_max,
                          instance.must_visit, "top")
    c_hat = EstimatorState(instance.num_vertices, instance.mu_default).predicted_cost(1)
    answer = answer_round(structure, c_hat)
    assert answer == structure.proof
    assert answer.startswith("must-visit vertex 2 lies on no simple depot cycle")
    assert calls == []


@pytest.mark.parametrize("leaves, agents, far", [
    (2, 1, True),  # two leaves 2 apart from the depot, l_max 5: one walk cannot take both
    (3, 2, True),  # three such leaves for two agents
    (2, 2, False),  # two for two
], ids=("two-leaves-one-agent", "three-leaves-two-agents", "two-leaves-two-agents"))
def test_more_far_apart_targets_than_agents_rule_out_the_certificate(leaves, agents, far):
    # the leaves hang 2 from the depot with l_max 5, so no walk takes two of
    # them; the last vertex is 1 from the depot and from leaf 2, so it shares
    # the walk 1 - v - 2 - 1 of length 4 with leaf 2 and adds no clique vertex
    near = 2 + leaves
    g = make_graph(near, [(1, v, 2.0) for v in range(2, near)] + [(1, near, 1.0),
                                                                  (2, near, 1.0)])
    for variant in ("tocp", "top"):
        structure = Structure(g, None, agents, 5.0, (), variant)
        assert structure.targets == tuple(range(2, near + 1))
        assert certify._far_apart(structure) is far
        assert (structure.certified_walks is None) is far


def test_far_apart_top_structure_makes_no_cover_search(monkeypatch):
    # tight-law seed 9 (M = 2) has three targets no two of which fit one
    # walk; before _far_apart its top episode made 11 failed cover attempts
    calls = []
    real = certify._insertion_cover
    monkeypatch.setattr(certify, "_insertion_cover", lambda *args: calls.append(1) or real(*args))
    result = run_episode(generate_instance(BenchmarkConfig(**TIGHT_LAW), 9, 2), "top")
    assert result.statuses == [OPTIMAL, OPTIMAL]
    assert calls == []


def test_far_apart_structures_have_no_covering_union():
    # wherever _far_apart fires on a tight-law round-1 structure (R <= 13),
    # the exact DP finds no union of M fitting sets holding every target,
    # or proves the round infeasible
    fired = dict.fromkeys(("tocp", "top"), 0)
    for seed in range(1, 121):
        instance = generate_instance(BenchmarkConfig(**TIGHT_LAW), seed, 1)
        graph = instance_graph(instance)
        dist = all_pairs_shortest(graph)
        for variant in fired:
            structure = Structure(graph, dist, instance.num_agents, instance.l_max,
                                  instance.must_visit, variant)
            if not certify._far_apart(structure):
                continue
            fired[variant] += 1
            table = structure.table
            assert isinstance(table, str) or not table.unions[-1][-1]  # the full target mask
    assert fired == {"tocp": 41, "top": 41}


def test_clique_search_matches_every_subset():
    # 300 seeded random graphs on up to 9 vertices, of random density, every
    # clique size asked
    sizes = Counter()
    for case in range(300):
        rng = np.random.default_rng(case)
        n = int(rng.integers(1, 10))
        density = rng.uniform(0.2, 1.0)
        edges = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density}
        neighbours = [sum(1 << b for b in range(n) if (a, b) in edges or (b, a) in edges)
                      for a in range(n)]
        largest = max(k for k in range(1, n + 1) for group in combinations(range(n), k)
                      if all(pair in edges for pair in combinations(group, 2)))
        sizes[largest] += 1
        for size in range(1, n + 2):
            assert certify._has_clique(neighbours, size) is (size <= largest)
    assert min(sizes[k] for k in range(1, 7)) >= 15  # largest cliques of 1 to 6


def test_proven_structures_have_no_certificate():
    # answer_round reads the proof first; that changes no answer only if no
    # structure with a proof has greedy's walks or a cover.  Round 1 predicts
    # the same cost everywhere, so where greedy's repaired plan on it visits
    # every target and keeps the walk rules, tocp's certificate is that plan
    proven = dict.fromkeys(("tocp", "top"), 0)
    greedy_certified = 0
    for law in ({}, TIGHT_LAW):
        for seed in range(1, 121):
            instance = generate_instance(BenchmarkConfig(**law), seed, 1)
            graph = instance_graph(instance)
            dist = all_pairs_shortest(graph)
            c_hat = EstimatorState(instance.num_vertices, instance.mu_default).predicted_cost(1)
            for variant in proven:
                structure = Structure(graph, dist, instance.num_agents, instance.l_max,
                                      instance.must_visit, variant)
                if variant == "tocp":
                    try:
                        plan = greedy_plan(graph, dist, c_hat, instance.num_agents,
                                           instance.l_max, instance.must_visit)
                    except UnreachableMustVisitError:
                        plan = None
                    if plan is not None and plan.visited() >= set(structure.targets):
                        repaired = [repair_walk(route, structure) for route in plan.routes]
                        walks = None if None in repaired else fleet_walks(structure, repaired)
                        if walks is not None:
                            assert structure.certified_walks == walks
                            greedy_certified += 1
                if structure.proof is None:
                    continue
                proven[variant] += 1
                assert structure.certified_walks is None
                assert _greedy_walks(structure) is None
    # no drawn must-visit set gives tocp a proof; the property test below
    # holds tocp's proofs to the same rule
    assert proven == {"tocp": 0, "top": 11}
    assert greedy_certified == 107 + 36  # default, tight


def reference_infeasibility_proof(structure):
    """infeasibility_proof before its cheap clears, kept verbatim as the reference.

    It runs Suurballe's search on every must-visit vertex under top;
    infeasibility_proof must give the same string.
    """
    graph, l_max, limit = structure.graph, structure.l_max, structure.limit
    d = structure.dist.dist
    for v in structure.must:
        if d[DEPOT, v] + d[v, DEPOT] > limit:
            return (f"must-visit vertex {v} has no depot round trip within l_max: "
                    f"{d[DEPOT, v] + d[v, DEPOT]} > {l_max}")
    single_visit = structure.variant == "top"
    need = structure.num_agents if single_visit else 1
    firsts = [w for w in graph.out_neighbors(DEPOT)
              if graph.lengths[(DEPOT, w)] + d[w, DEPOT] <= limit]
    if len(firsts) < need:
        return (f"{len(firsts)} depot neighbours can start a walk within l_max "
                f"{l_max}; the agents need {need}")
    if single_visit:
        for v in structure.must:
            cycle = _disjoint_pair_length(graph, v)
            if (DEPOT, v) in graph.lengths:
                cycle = min(cycle, 2 * graph.lengths[(DEPOT, v)])
            if cycle > limit:
                return (f"must-visit vertex {v} lies on no simple depot cycle within "
                        f"l_max: {cycle} > {l_max}")
    return None


@st.composite
def proof_rounds(draw):
    """Structure arguments: a symmetric graph on 2-9 vertices, 1-3 agents, a
    budget, 1-3 must-visit vertices and the planner, top twice as often as
    tocp.

    A random tree joins the vertices, so many edges are bridges, and each
    other pair is joined with chance 1/3.  Half the graphs have integer
    lengths and budgets, so tied paths and cycles exactly at the budget are
    common.  In half of them one depot edge is made longer than half the
    budget and its far end made a must-visit vertex: its out-and-back does
    not fit, and it may or may not lie on a longer cycle that does.
    """
    n = draw(st.integers(2, 9))
    integral = draw(st.booleans())
    length = (st.integers(1, 4).map(float) if integral
              else st.floats(0.05, 4.0, allow_nan=False, allow_infinity=False))
    edges = {(draw(st.integers(1, v - 1)), v): draw(length) for v in range(2, n + 1)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and draw(st.integers(0, 2)) == 0:
                edges[(i, j)] = draw(length)
    l_max = draw(st.integers(3, 20).map(float) if integral
                 else st.floats(3.0, 20.0, allow_nan=False, allow_infinity=False))
    must = set(draw(st.lists(st.integers(2, n), min_size=1, max_size=3)))
    if draw(st.booleans()):
        far = draw(st.sampled_from(sorted(j for i, j in edges if i == DEPOT)))
        edges[(DEPOT, far)] = l_max / 2 + draw(st.sampled_from([0.5, 1.0, 2.0]))
        must.add(far)
    graph = make_graph(n, [(a, b, l) for (a, b), l in sorted(edges.items())])
    return (graph, None, draw(st.integers(1, 3)), l_max, sorted(must),
            draw(st.sampled_from(("tocp", "top", "top"))))


# Suurballe's trap: the shortest depot -> 4 path, 1-2-3-4, blocks every
# other, yet 1-2-4 and 1-3-4 form a cycle of length 8
TRAP = make_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 3.0), (2, 4, 3.0)])


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(case=proof_rounds())
@example(case=(TRAP, None, 1, 8.0, [4], "top"))
@example(case=(TRAP, None, 1, 7.5, [4], "top"))
def test_proof_matches_suurballe_on_every_must_visit_vertex(case):
    structure = Structure(*case)
    expected = reference_infeasibility_proof(structure)
    event("no proof" if expected is None else expected.split(" within")[0].split(" ", 3)[-1])
    assert infeasibility_proof(structure) == expected
    if expected is not None:
        # so answer_round may read the proof before any certificate
        assert _cover_walks(structure) is None
        assert _farthest_insertion(structure) is None
        assert _greedy_walks(structure) is None


@pytest.mark.parametrize("law, seed", [
    pytest.param(TIGHT_LAW, seed, id=f"tight-{seed}") for seed in (7, 9)
] + [pytest.param({}, seed, id=f"default-{seed}") for seed in (1, 2, 3, 4, 5, 6, 8, 9, 10)])
def test_feasible_benchmark_rounds_carry_no_proof(law, seed):
    model, _ = first_round_top(law, seed)
    assert model.infeasibility_proof is None


@pytest.mark.parametrize("answer", ("greedy", "cover", "dp", "proof"))
def test_answered_rounds_never_call_scipy(answer, bridge, monkeypatch):
    # neither building nor solving a round that a certificate, the DP or a
    # proof answers may reach scipy.optimize.milp, not even to fill in the flow
    calls = []
    real = milp._scipy_milp

    def spy(*args, **kwargs):
        calls.append(answer)
        return real(*args, **kwargs)

    monkeypatch.setattr(milp, "_scipy_milp", spy)
    graph, dist, c_hat, l_max = bridge
    if answer == "greedy":
        model, _ = build_tocp(graph, c_hat, 1, l_max, dist=dist)
        assert Structure(graph, dist, 1, l_max, (), "tocp").certified_walks is not None
    elif answer == "cover":
        g = make_graph(5, [(1, 2, 1.0), (1, 4, 1.0), (1, 3, 1.5), (1, 5, 1.5),
                           (2, 3, 1.0), (4, 5, 1.0)])
        model, _ = build_top(g, np.array([0.0, 0.0, 1.0, 0.0, 2.0, 3.0]), 2, 3.5)
    elif answer == "dp":
        model, _ = first_round_top(TIGHT_LAW, 9, build_tocp)
        assert model.certificate is not None
    else:
        model, _ = first_round_top(TIGHT_LAW, 8)
        assert model.infeasibility_proof is not None
    sol = solve(model)
    assert sol.status == (INFEASIBLE if answer == "proof" else OPTIMAL)
    assert sol.node_count == 0
    assert calls == []
    # the spy does see a round that reaches HiGHS
    model, _ = build_tocp(graph, c_hat, 1, l_max, dist=dist)
    model.certificate = None
    solve(model)
    assert calls == [answer]
