"""The exact round DP: Held–Karp over the sets one tour covers, then unions of them.

The property test calls heldkarp.best_round directly, so no greedy or cover
certificate can answer first, and holds its value or its proof to the
brute-force oracle.  The other tests go through build_* and milp.solve and
check which rounds no longer reach HiGHS.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from patrolopt import heldkarp
from patrolopt.benchgen import BenchmarkConfig, generate_instance
from patrolopt.estimator import EstimatorState
from patrolopt.graph import DEPOT, all_pairs_shortest, walk_length
from patrolopt.instance_io import instance_graph
from patrolopt.milp import FEASIBILITY_TOL, INFEASIBLE, OPTIMAL, solve
from patrolopt.tocp import (
    audit_solution,
    build_top,
    build_tocp,
    cover_certificate,
    extract_routes,
    greedy_certificate,
)

from conftest import make_graph, tiny_rounds
from oracle import brute_force_single_iteration

TIGHT_LAW = dict(budget_base=12.0, budget_span_per_vertex=0.5, vertex_choices=(10, 12, 14))


@pytest.mark.parametrize("variant", ("tocp", "top"))
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=tiny_rounds())
def test_dp_matches_brute_force(variant, case):
    graph, c_hat, agents, l_max, must = case
    dist = all_pairs_shortest(graph)
    answer = heldkarp.best_round(graph, dist, c_hat, agents, l_max, must,
                                 single_visit=variant == "top")
    oracle = brute_force_single_iteration(graph, c_hat, agents, l_max, must, variant=variant,
                                          dist=dist)
    if not oracle.feasible:
        assert isinstance(answer, str)
        return
    assert isinstance(answer, heldkarp.RoundOptimum)
    assert answer.value == pytest.approx(oracle.reward, abs=1e-9)
    assert len(answer.walks) <= agents
    visited = {DEPOT}
    for walk in answer.walks:
        assert walk[0] == walk[-1] == DEPOT and DEPOT not in walk[1:-1]
        assert walk_length(graph, walk) <= l_max + FEASIBILITY_TOL
        visited.update(walk)
    if variant == "top":
        inner = [v for walk in answer.walks for v in walk[1:-1]]
        assert len(inner) == len(set(inner))
        assert len(answer.walks) == agents
    assert set(must) <= visited
    # the walks visit exactly the chosen union, so they collect its value
    assert sum(c_hat[v] for v in visited if v != DEPOT) == pytest.approx(answer.value)


@pytest.mark.parametrize("law, seed, build, optimum", [
    (TIGHT_LAW, 7, build_tocp, 3.5),
    (TIGHT_LAW, 9, build_tocp, 4.0),
    (TIGHT_LAW, 10, build_tocp, 4.0),
    ({}, 1, build_tocp, 8.5),
    ({}, 1, build_top, 8.0),
], ids=("tight-7", "tight-9", "tight-10", "default-1-tocp", "default-1-top"))
def test_benchmark_rounds_without_a_certificate_skip_highs(law, seed, build, optimum,
                                                          highs_calls):
    # round-1 models neither the greedy nor the cover certificate answers,
    # on which HiGHS took 0.2-12 s; default 1 has R = 17 targets and M = 2
    instance = generate_instance(BenchmarkConfig(**law), seed, 1)
    graph = instance_graph(instance)
    dist = all_pairs_shortest(graph)
    c_hat = EstimatorState(instance.num_vertices, instance.mu_default).predicted_cost(1)
    model, handles = build(graph, c_hat, instance.num_agents, instance.l_max,
                           instance.must_visit, dist=dist)
    certify = greedy_certificate if build is build_tocp else cover_certificate
    assert certify(graph, dist, c_hat, model, handles) is None
    sol = solve(model)
    assert highs_calls == []
    assert (sol.status, sol.node_count, sol.gap) == (OPTIMAL, 0, 0.0)
    assert sol.objective_value == pytest.approx(optimum, abs=1e-9)
    assert audit_solution(graph, sol, handles) == []


def test_must_visits_on_cycles_that_share_vertices_are_proven_infeasible(highs_calls):
    # 2 and 3 each lie on the 4-long depot cycles 1-4-x-5-1, so the
    # per-vertex cycle test passes, but every such cycle runs through both
    # 4 and 5: no cycle covers 2 and 3 together and no two are disjoint
    g = make_graph(5, [(1, 4, 1.0), (1, 5, 1.0), (2, 4, 1.0), (2, 5, 1.0),
                       (3, 4, 1.0), (3, 5, 1.0)])
    dist = all_pairs_shortest(g)
    c_hat = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    model, _ = build_top(g, c_hat, 2, 5.0, [2, 3], dist=dist)
    assert model.infeasibility_proof.startswith("no 2 vertex-disjoint simple depot cycles")
    sol = solve(model)
    assert (sol.status, sol.node_count, sol.assignment) == (INFEASIBLE, 0, None)
    assert highs_calls == []
    assert not brute_force_single_iteration(g, c_hat, 2, 5.0, [2, 3], variant="top",
                                            dist=dist).feasible
    model.infeasibility_proof = None
    assert solve(model).status == INFEASIBLE
    assert highs_calls == ["top"]
    # revisits let the agents share 4: [1, 4, 2, 5, 1] and [1, 4, 3, 4, 1]
    model, _ = build_tocp(g, c_hat, 2, 5.0, [2, 3], dist=dist)
    assert solve(model).objective_value == pytest.approx(4.0)


def test_tie_rule_takes_the_largest_union_then_the_lowest_mask(highs_calls):
    # two spokes that one tocp tour cannot join without passing the depot
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
    model, handles = build_tocp(g, np.array([0.0, 0.0, 1.0, 1.0]), 1, 4.0)
    assert extract_routes(solve(model), handles, g).routes == [[1, 2, 1]]
    # vertex 3 is worth nothing, but two agents can cover both spokes
    model, handles = build_tocp(g, np.array([0.0, 0.0, 1.0, 0.0]), 2, 4.0)
    assert extract_routes(solve(model), handles, g).routes == [[1, 2, 1], [1, 3, 1]]
    assert highs_calls == []


def test_optimum_over_l_max_within_the_slack_goes_to_highs(highs_calls):
    # vertex 3's out-and-back is l_max + 5e-7: the DP may count it, but the
    # certificate only takes walks within l_max, so HiGHS decides
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 2.0 + 2.5e-7)])
    model, _ = build_tocp(g, np.array([0.0, 0.0, 1.0, 5.0]), 1, 4.0)
    assert model.certificate is None and model.infeasibility_proof is None
    assert solve(model).objective_value == pytest.approx(5.0)
    assert highs_calls == ["tocp"]
