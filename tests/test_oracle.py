"""Exhaustive-search reference optima for small instances."""

from __future__ import annotations

import numpy as np
import pytest

from patrolopt.benchgen import generate_instance
from patrolopt.graph import all_pairs_shortest
from patrolopt.instance_io import Instance, instance_graph, kappa_table

from oracle import (
    OracleSizeError,
    brute_force_horizon,
    brute_force_single_iteration,
    chained_per_iteration,
    enumerate_closed_walks,
)
from conftest import make_graph, tiny_config


def test_walk_enumeration_on_a_path():
    g = make_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    dist = all_pairs_shortest(g)
    walks = enumerate_closed_walks(g, dist, 4.0)
    assert walks[frozenset({1})] == (0.0, (1,))
    assert walks[frozenset({1, 2})] == (2.0, (1, 2, 1))
    assert walks[frozenset({1, 2, 3})] == (4.0, (1, 2, 3, 2, 1))
    assert len(walks) == 3
    # the full path needs a revisit of 2, so it vanishes under simple-cycle rules
    simple = enumerate_closed_walks(g, dist, 4.0, vertex_simple=True)
    assert set(simple) == {frozenset({1}), frozenset({1, 2})}


def test_walk_enumeration_respects_budget():
    g = make_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    dist = all_pairs_shortest(g)
    walks = enumerate_closed_walks(g, dist, 3.9)
    assert frozenset({1, 2, 3}) not in walks


def test_triangle_keeps_cheapest_witness_per_visited_set():
    g = make_graph(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 3.0)])
    dist = all_pairs_shortest(g)
    walks = enumerate_closed_walks(g, dist, 10.0)
    # {1,2,3} reachable as 1-2-3-1 (5.0) or 1-2-3-2-1 (4.0): keep the shorter
    assert walks[frozenset({1, 2, 3})][0] == 4.0


def test_single_round_picks_best_reward(bridge):
    graph, dist, c_hat, l_max = bridge
    res = brute_force_single_iteration(graph, c_hat, 1, l_max, dist=dist)
    assert res.feasible
    assert res.reward == 10.1
    assert res.plan.visited() == {1, 2, 3}


def test_single_visit_variant_blocks_revisits(star):
    graph, dist, c_hat, l_max = star
    top = brute_force_single_iteration(graph, c_hat, 1, l_max, variant="top", dist=dist)
    assert top.reward == 1.0
    both = brute_force_single_iteration(graph, c_hat, 1, l_max, dist=dist)
    assert both.reward == 11.0


def test_two_agents_split_disjointly_under_single_visit_rules():
    g = make_graph(5, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (1, 4, 1.0), (4, 5, 1.0), (5, 1, 1.0)])
    dist = all_pairs_shortest(g)
    c = np.array([0.0, 0.0, 2.0, 2.0, 2.0, 2.0])
    res = brute_force_single_iteration(g, c, 2, 3.0, variant="top", dist=dist)
    assert res.feasible
    assert res.reward == 8.0
    bodies = [set(r) - {1} for r in res.plan.routes]
    assert bodies[0] & bodies[1] == set()


def test_agents_may_not_stay_home_by_default():
    g = make_graph(2, [(1, 2, 2.0)])
    dist = all_pairs_shortest(g)
    c = np.array([0.0, 0.0, 1.0])
    strict = brute_force_single_iteration(g, c, 1, 3.0, dist=dist)
    assert not strict.feasible  # round trip costs 4


def test_size_guards():
    g = make_graph(7, [(i, i + 1, 1.0) for i in range(1, 7)])
    dist = all_pairs_shortest(g)
    with pytest.raises(OracleSizeError):
        brute_force_single_iteration(g, np.zeros(8), 1, 4.0, dist=dist)
    g6 = make_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    d6 = all_pairs_shortest(g6)
    with pytest.raises(OracleSizeError):
        brute_force_single_iteration(g6, np.zeros(4), 3, 4.0, dist=d6)


def test_horizon_guards(horizon_gap_instance):
    too_long = Instance(**{**horizon_gap_instance.__dict__, "horizon": 4,
                           "kappa": [[0.0] * 4 for _ in range(6)]})
    with pytest.raises(OracleSizeError):
        brute_force_horizon(too_long)
    crowded = Instance(**{**horizon_gap_instance.__dict__, "num_agents": 2})
    with pytest.raises(OracleSizeError):
        brute_force_horizon(crowded)


def test_chaining_single_round_optima_can_lose_over_the_horizon(horizon_gap_instance):
    chained_cost, chained_plans = chained_per_iteration(horizon_gap_instance)
    best_cost, best_plans = brute_force_horizon(horizon_gap_instance)
    assert chained_cost == 12.0
    assert best_cost == 9.0
    assert len(chained_plans) == len(best_plans) == 2
    # round one of the chained run grabs the biggest immediate haul
    assert chained_plans[0].visited() == {1, 2, 3, 4}
    assert best_plans[0].visited() == {1, 2, 3, 5}


def test_horizon_search_matches_single_round_at_h_equals_one():
    cfg = tiny_config(agent_choices=(1,), seeds=tuple(range(1, 9)))
    for seed in cfg.seeds:
        inst = generate_instance(cfg, seed, 1)
        graph = instance_graph(inst)
        dist = all_pairs_shortest(graph)
        col = kappa_table(inst)[:, 1]
        # the depot is toured (and collected) every round, so only the other
        # vertices can contribute leftover cost
        collectable = float(col[2:].sum())
        hz = brute_force_horizon(inst, dist=dist)
        single = brute_force_single_iteration(
            graph, col, inst.num_agents, inst.l_max, inst.must_visit, dist=dist
        )
        assert single.feasible
        assert abs(hz[0] - (collectable - single.reward)) < 1e-9
