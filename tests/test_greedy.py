"""Nearest-must-visit-then-best-ratio heuristic routing."""

from __future__ import annotations

from collections import Counter
from typing import List, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolopt.benchgen import generate_instance
from patrolopt.graph import DEPOT, FleetPlan, all_pairs_shortest, walk_length
from patrolopt.greedy import UnreachableMustVisitError, greedy_plan
from patrolopt.instance_io import instance_graph, kappa_table

from oracle import brute_force_single_iteration
from conftest import DrawnRng, distinct, make_graph, tiny_config


def reference_greedy_plan(graph, dist, c_hat, num_agents, l_max, must_visit=(), seen=None):
    """The loop before the depot-component pool, kept verbatim as the reference.

    It tests every candidate leg for finiteness and has a claim-in-place
    branch; greedy_plan drops both and must plan exactly as this does.  The
    one addition is seen: when given a set, it records the moves of two or
    more hops that matter to a loop which walks its paths itself, "claim"
    for a move out that claims a vertex predicting a positive cost and
    "home" for a way home that passes one.
    """
    d = dist.dist
    n = graph.num_vertices
    for v in must_visit:
        if d[DEPOT, v] + d[v, DEPOT] > l_max:
            raise UnreachableMustVisitError(
                f"must-visit vertex {v} has no round trip within budget {l_max}"
            )
    required: Set[int] = set(int(v) for v in must_visit)
    optional: Set[int] = set(range(1, n + 1)) - required
    optional.discard(DEPOT)

    routes: List[List[int]] = [[DEPOT] for _ in range(num_agents)]
    spent = [0.0 for _ in range(num_agents)]
    position = [DEPOT for _ in range(num_agents)]
    finished = [False for _ in range(num_agents)]

    def within_budget(m: int, v: int) -> bool:
        # Same association order as the spent updates, so the final walk
        # length compares against l_max exactly as it was accumulated.
        return (spent[m] + d[position[m], v]) + d[v, DEPOT] <= l_max

    def move_to(m: int, v: int) -> None:
        path = dist.shortest_path(position[m], v)
        if path is None:
            raise RuntimeError(f"no path {position[m]} -> {v} despite finite distance")
        if seen is not None and len(path) > 2:
            if v == DEPOT and any(c_hat[w] > 0.0 for w in path[1:-1]):
                seen.add("home")
            if v != DEPOT and any(c_hat[w] > 0.0 and (w in optional or w in required)
                                  for w in path[1:]):
                seen.add("claim")
        spent[m] += d[position[m], v]
        routes[m].extend(path[1:])
        for w in path:
            required.discard(w)
            optional.discard(w)
        position[m] = v

    while not all(finished):
        for m in range(num_agents):
            if finished[m]:
                continue
            here = position[m]
            reachable_required = [v for v in sorted(required) if within_budget(m, v)]
            if reachable_required:
                target = min(reachable_required, key=lambda v: (d[here, v], v))
                move_to(m, target)
                continue
            if here in optional:
                # Standing on it already: claim without moving.
                optional.discard(here)
                continue
            best = None
            best_ratio = -np.inf
            for v in sorted(optional):
                dv = d[here, v]
                if not np.isfinite(dv) or not within_budget(m, v):
                    continue
                if c_hat[v] <= 0.0:
                    continue
                ratio = c_hat[v] / dv
                if ratio > best_ratio:
                    best = v
                    best_ratio = ratio
            if best is not None:
                move_to(m, best)
                continue
            move_to(m, DEPOT)
            finished[m] = True

    return FleetPlan(routes=routes, lengths=[float(s) for s in spent])


def test_ratio_rule_prefers_value_per_distance():
    # v3 pays 5 at distance 2 (ratio 2.5) and beats v4's 4 at distance 3;
    # after that detour nothing else fits the budget
    g = make_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (1, 4, 3.0)])
    dist = all_pairs_shortest(g)
    c = np.array([0.0, 0.0, 1.0, 5.0, 4.0])
    plan = greedy_plan(g, dist, c, 1, 8.0)
    assert plan.routes == [[1, 2, 3, 2, 1]]
    assert plan.lengths == [4.0]
    assert plan.reward(c) == 6.0  # v2 collected in passing


def test_must_visit_comes_first_and_work_splits_round_robin():
    g = make_graph(5, [(1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 5, 1.0)])
    dist = all_pairs_shortest(g)
    c = np.array([0.0, 0.0, 9.0, 0.0, 9.0, 0.0])
    plan = greedy_plan(g, dist, c, 2, 4.0, must_visit=[5])
    assert plan.routes == [[1, 3, 5, 3, 1], [1, 2, 4, 2, 1]]
    assert plan.lengths == [4.0, 4.0]
    assert plan.visited() == {1, 2, 3, 4, 5}


def test_must_visit_wins_even_with_zero_reward():
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
    dist = all_pairs_shortest(g)
    c = np.array([0.0, 0.0, 100.0, 0.0])
    plan = greedy_plan(g, dist, c, 1, 2.0, must_visit=[3])
    # budget only fits one leaf; the required one is taken, the valuable one dropped
    assert plan.routes == [[1, 3, 1]]
    assert plan.visited() == {1, 3}


def test_all_zero_rewards_stay_home():
    g = make_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    dist = all_pairs_shortest(g)
    plan = greedy_plan(g, dist, np.zeros(4), 2, 10.0)
    assert plan.routes == [[1], [1]]
    assert plan.lengths == [0.0, 0.0]


def test_ratio_ties_go_to_the_lower_index():
    g = make_graph(3, [(1, 2, 2.0), (1, 3, 2.0)])
    dist = all_pairs_shortest(g)
    c = np.array([0.0, 0.0, 4.0, 4.0])
    plan = greedy_plan(g, dist, c, 1, 4.0)
    assert plan.routes == [[1, 2, 1]]


def test_unreachable_must_visit_raises():
    g = make_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])
    dist = all_pairs_shortest(g)
    with pytest.raises(UnreachableMustVisitError):
        greedy_plan(g, dist, np.zeros(5), 1, 10.0, must_visit=[3])
    # reachable in principle but not within budget: same refusal
    g2 = make_graph(3, [(1, 2, 3.0), (2, 3, 3.0)])
    with pytest.raises(UnreachableMustVisitError):
        greedy_plan(g2, all_pairs_shortest(g2), np.zeros(4), 1, 5.0, must_visit=[3])


def test_unreachable_must_visit_raises_under_an_infinite_budget():
    g = make_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])
    with pytest.raises(UnreachableMustVisitError):
        greedy_plan(g, all_pairs_shortest(g), np.zeros(5), 1, np.inf, must_visit=[3])


def test_a_required_vertex_left_unserved_raises():
    # one agent can afford the trip to 2 or to 3, not both
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
    with pytest.raises(UnreachableMustVisitError, match=r"\[3\] left unserved"):
        greedy_plan(g, all_pairs_shortest(g), np.zeros(4), 1, 2.0, must_visit=[2, 3])
    # a second agent serves both
    plan = greedy_plan(g, all_pairs_shortest(g), np.zeros(4), 2, 2.0, must_visit=[2, 3])
    assert plan.routes == [[1, 2, 1], [1, 3, 1]]


def test_a_vertex_passed_on_the_way_home_is_not_chased_again():
    # agent 1 takes 2 and then 3, agent 2 takes 5 and then 6; at 3, agent 1
    # cannot afford 4, as (0.4 + 0.7 + 0.1) + 0.3 rounds above 1.5, yet its
    # way home, (0.4 + 0.7) + 0.4, fits and passes 4.  Agent 2, at 6, could
    # afford 4 but finds it claimed and heads home.  With exact sums a vertex
    # on a shortest way home always fits, so only a rounding sets this up.
    g = make_graph(6, [(1, 2, 0.4), (2, 3, 0.7), (3, 4, 0.1), (1, 4, 0.3), (1, 5, 0.1),
                       (5, 6, 0.2)])
    c = np.array([0.0, 0.0, 5.0, 3.0, 2.0, 1.0, 2.0])
    assert ((0.4 + 0.7) + 0.1) + 0.3 > 1.5
    plan = greedy_plan(g, all_pairs_shortest(g), c, 2, 1.5)
    assert plan.routes == [[1, 2, 3, 4, 1], [1, 5, 6, 5, 1]]
    assert plan.lengths == [(0.4 + 0.7) + 0.4, (0.1 + 0.2) + 0.3]


def test_a_required_vertex_passed_on_the_way_to_another_is_served():
    # from 2 the nearer required vertex 3 does not fit, as (0.4 + 0.7) + 0.8
    # rounds above 1.9, but 4 does, (0.4 + 0.9) + 0.6, and the way to 4
    # passes 3, which is then served and not visited again.  As above, only a
    # rounding can leave the nearer vertex of such a path out of budget.
    g = make_graph(4, [(1, 2, 0.4), (2, 3, 0.7), (3, 4, 0.2), (1, 4, 0.6)])
    assert (0.4 + 0.7) + 0.8 > 1.9
    plan = greedy_plan(g, all_pairs_shortest(g), np.zeros(5), 1, 1.9, must_visit=[2, 3, 4])
    assert plan.routes == [[1, 2, 3, 4, 1]]
    assert plan.lengths == [1.9]


def test_unaffordable_rewards_are_skipped():
    g = make_graph(3, [(1, 2, 1.0), (2, 3, 10.0)])
    dist = all_pairs_shortest(g)
    c = np.array([0.0, 0.0, 1.0, 1000.0])
    plan = greedy_plan(g, dist, c, 1, 4.0)
    assert plan.routes == [[1, 2, 1]]
    assert plan.reward(c) == 1.0


def test_routes_respect_budget_on_random_instances():
    cfg = tiny_config(seeds=tuple(range(1, 31)))
    for seed in cfg.seeds:
        inst = generate_instance(cfg, seed, 1)
        graph = instance_graph(inst)
        dist = all_pairs_shortest(graph)
        c_hat = kappa_table(inst)[:, 1]
        plan = greedy_plan(graph, dist, c_hat, inst.num_agents, inst.l_max, inst.must_visit)
        for route, spent in zip(plan.routes, plan.lengths):
            assert spent <= inst.l_max  # the planner's own ledger is exact
            assert abs(walk_length(graph, route) - spent) < 1e-9
            assert route[0] == route[-1] == 1
        assert set(inst.must_visit) <= plan.visited()


def test_greedy_never_beats_exhaustive_search():
    cfg = tiny_config(seeds=tuple(range(1, 16)))
    checked = 0
    for seed in cfg.seeds:
        inst = generate_instance(cfg, seed, 1)
        graph = instance_graph(inst)
        dist = all_pairs_shortest(graph)
        c_hat = kappa_table(inst)[:, 1]
        plan = greedy_plan(graph, dist, c_hat, inst.num_agents, inst.l_max, inst.must_visit)
        ref = brute_force_single_iteration(
            graph, c_hat, inst.num_agents, inst.l_max, inst.must_visit, dist=dist
        )
        if ref.feasible:
            assert plan.reward(c_hat) <= ref.reward + 1e-9
            checked += 1
        else:
            assert plan.reward(c_hat) == 0.0
    assert checked >= 5


def split_round(rng):
    """A round whose graph has vertices the depot cannot reach, drawn from rng (see DrawnRng).

    Vertices 1..k are joined only among themselves and k+1..n only among
    themselves, so at least one vertex lies outside the depot's component.
    The depot's side, of four or more vertices, hangs on a random tree
    whose links are each kept three times in four, plus chance chords, so
    it is usually one component but may be split.  Predictions are laced
    with zeros, must-visit vertices lie in the depot's component, up to one
    more of them than agents, so an agent may weigh a required vertex after
    its first leg, and a third of the budgets are infinite.  A third of the
    rounds whose component outnumbers the agents crowd them instead: more
    required vertices than agents under a budget of the longest of their
    depot round trips, so each passes the entry check but the agents may
    head home with one unserved.  Lengths and rewards mix dyadic values
    with ones like 0.1 and 2.9, whose sums round.
    """
    def pick(values):
        return values[int(rng.integers(0, len(values)))]

    n = int(rng.integers(5, 11))
    k = int(rng.integers(4, n))
    lengths = [1.0, 1.5, 2.0, 3.0, 0.1, 0.7, 1.3, 2.9]
    links = {(int(rng.integers(1, v)), v): pick(lengths)
             for v in range(2, k + 1) if rng.integers(0, 4) > 0}
    links.update(((i, j), pick(lengths)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if (i <= k) == (j <= k) and rng.integers(0, 2) == 1)
    edges = [(i, j, l) for (i, j), l in sorted(links.items())]
    graph = make_graph(n, edges)
    dist = all_pairs_shortest(graph)
    rewards = [pick([0.0, 0.0, 0.5, 1.0, 3.0, 0.1, 0.7, 1.3, 2.9]) for _ in range(n)]
    c_hat = np.array([0.0] + rewards)
    agents = int(rng.integers(1, 4))
    l_max = np.inf if rng.integers(0, 3) == 0 else pick([0.0, 2.0, 3.0, 4.5, 6.0, 9.0, 14.0])
    component = [v for v in range(2, n + 1) if dist.dist[DEPOT, v] < np.inf]
    if len(component) > agents and rng.integers(0, 3) == 0:
        must = distinct(rng, component, agents + 1, len(component))
        l_max = max(float(dist.dist[DEPOT, v] + dist.dist[v, DEPOT]) for v in must)
    else:
        must = distinct(rng, component, 0, agents + 1)
    return graph, dist, c_hat, agents, l_max, must


@st.composite
def split_rounds(draw):
    return split_round(DrawnRng(draw))


def assert_plans_match(graph, dist, c_hat, agents, l_max, must, seen=None):
    try:
        expected = reference_greedy_plan(graph, dist, c_hat, agents, l_max, must, seen)
    except Exception as exc:
        with pytest.raises(type(exc)):
            greedy_plan(graph, dist, c_hat, agents, l_max, must)
        return
    if not expected.visited().issuperset(must):
        # the reference returns a plan that skips a required vertex; greedy_plan refuses
        with pytest.raises(UnreachableMustVisitError):
            greedy_plan(graph, dist, c_hat, agents, l_max, must)
        return
    plan = greedy_plan(graph, dist, c_hat, agents, l_max, must)
    assert plan.routes == expected.routes
    assert plan.lengths == expected.lengths


def test_plans_match_the_reference_loop():
    """400 drawn rounds, enough of them with moves of several hops through valued vertices.

    Round k is drawn from default_rng(k), so the rounds and their counts are
    the same whatever else ran.  The examples are counted from the
    reference's own moves: one that claims a vertex with a positive
    prediction on a move out of two or more hops, and one whose way home
    passes such a vertex.
    """
    examples = Counter()
    for k in range(400):
        seen = set()
        assert_plans_match(*split_round(np.random.default_rng(k)), seen=seen)
        examples.update(seen)
    # the reference makes 193 such claims and 197 such ways home
    assert examples["claim"] >= 100
    assert examples["home"] >= 100


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=split_rounds())
def test_plans_match_the_reference_loop_on_tour_budgets(case):
    """Budgets exactly the length of a depot -> a -> b -> depot tour.

    Each is summed in both association orders.  Where the two differ by
    rounding, a budget test that sums in another order than the walk's
    ledger, (spent + leg) + back, lands on the other side of one of them.
    """
    graph, dist, c_hat, agents, _, must = case
    d = dist.dist
    component = [v for v in range(2, graph.num_vertices + 1) if d[DEPOT, v] < np.inf]
    budgets = {total for a in component for b in component
               for total in ((d[DEPOT, a] + d[a, b]) + d[b, DEPOT],
                             d[DEPOT, a] + (d[a, b] + d[b, DEPOT]))}
    for l_max in sorted(budgets):
        assert_plans_match(graph, dist, c_hat, agents, l_max, must)
