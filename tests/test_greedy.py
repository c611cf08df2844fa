"""Nearest-must-visit-then-best-ratio heuristic routing."""

from __future__ import annotations

import numpy as np
import pytest

from patrolopt.benchgen import generate_instance
from patrolopt.graph import all_pairs_shortest, walk_length
from patrolopt.greedy import greedy_plan
from patrolopt.instance_io import instance_graph, kappa_table
from patrolopt.tocp import UnreachableMustVisitError

from oracle import brute_force_single_iteration
from conftest import make_graph, tiny_config


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
