"""Route MIP construction, solving, route extraction, and the independent audit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from patrolopt.graph import DEPOT, all_pairs_shortest, walk_length
from patrolopt.greedy import greedy_plan
from patrolopt.milp import (
    INFEASIBLE,
    OPTIMAL,
    MilpSolution,
    ModelError,
    check_assignment,
    solve,
)
from patrolopt.certify import Structure, broken_rules, simplify_walk
from patrolopt.tocp import (
    FleetPlan,
    RouteIntegrityError,
    audit_solution,
    build_tocp,
    build_top,
    extract_routes,
    plan_round,
    plan_to_assignment,
)

from oracle import brute_force_single_iteration
from conftest import make_graph, tiny_rounds


def solved(build, graph, c_hat, m, l_max, must=(), **kw):
    dist = all_pairs_shortest(graph)
    model, handles = build(graph, c_hat, m, l_max, must, dist=dist, **kw)
    return model, handles, solve(model)


def test_bridge_revisit_beats_single_visit(bridge):
    graph, dist, c_hat, l_max = bridge
    model, handles, sol = solved(build_tocp, graph, c_hat, 1, l_max)
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - 10.1) < 1e-9
    assert audit_solution(graph, sol, handles) == []
    plan = extract_routes(sol, handles, graph)
    assert plan.routes == [[1, 2, 3, 2, 1]]
    assert plan.lengths == [4.0]

    model, handles, sol = solved(build_top, graph, c_hat, 1, l_max)
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - 0.1) < 1e-9
    assert audit_solution(graph, sol, handles) == []
    assert extract_routes(sol, handles, graph).routes == [[1, 2, 1]]


def test_bridge_agrees_with_exhaustive_search(bridge):
    graph, dist, c_hat, l_max = bridge
    for build, variant in ((build_tocp, "tocp"), (build_top, "top")):
        _, _, sol = solved(build, graph, c_hat, 1, l_max)
        ref = brute_force_single_iteration(graph, c_hat, 1, l_max, variant=variant, dist=dist)
        assert ref.feasible
        assert abs(sol.objective_value - ref.reward) < 1e-9


def test_hub_and_leaves_severely_limit_single_visit(star):
    graph, dist, c_hat, l_max = star
    _, handles, sol = solved(build_tocp, graph, c_hat, 1, l_max)
    assert abs(sol.objective_value - 11.0) < 1e-9
    assert audit_solution(graph, sol, handles) == []
    _, handles, sol = solved(build_top, graph, c_hat, 1, l_max)
    assert abs(sol.objective_value - 1.0) < 1e-9
    assert audit_solution(graph, sol, handles) == []


def test_variable_layout_on_complete_triangle():
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    c = np.array([0.0, 0.0, 1.0, 1.0])
    model, handles = build_tocp(g, c, 1, 10.0)
    assert len(handles.x) == 6  # directed edges
    assert len(handles.y) == 3
    assert len(handles.z) == 3
    assert len(handles.u) == 6
    assert model.num_variables == 18
    # two agents double everything except z
    model2, handles2 = build_tocp(g, c, 2, 10.0)
    assert model2.num_variables == 2 * 6 + 2 * 3 + 3 + 2 * 6


def test_big_m_and_flow_cap_values():
    g = make_graph(3, [(1, 2, 0.5), (2, 3, 2.0)])
    c = np.zeros(4)
    model, handles = build_tocp(g, c, 1, 7.0)
    assert handles.big_m == 7.0 / 0.5
    assert {model.variables[idx].ub for idx in handles.u.values()} == {3.0}


def test_agents_must_leave_the_depot_unless_idling_is_allowed(bridge):
    graph, dist, c_hat, _ = bridge
    # no closed walk fits in a budget below the shortest out-and-back
    _, _, sol = solved(build_tocp, graph, c_hat, 1, 1.5)
    assert sol.status == INFEASIBLE


def test_extra_agents_do_not_change_the_collectable_total(bridge):
    graph, dist, c_hat, l_max = bridge
    _, handles, sol = solved(build_tocp, graph, c_hat, 2, l_max)
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - 10.1) < 1e-9
    assert audit_solution(graph, sol, handles) == []


def test_must_visit_is_enforced_even_without_reward(bridge):
    graph, dist, c_hat, l_max = bridge
    zero = np.zeros_like(c_hat)
    _, handles, sol = solved(build_tocp, graph, zero, 1, l_max, must=[3])
    assert sol.status == OPTIMAL
    assert sol.objective_value == 0.0
    plan = extract_routes(sol, handles, graph)
    assert 3 in plan.visited()
    assert audit_solution(graph, sol, handles) == []


def test_must_visit_validation(bridge):
    graph, dist, c_hat, l_max = bridge
    with pytest.raises(ModelError):
        build_tocp(graph, c_hat, 1, l_max, [1])
    with pytest.raises(ModelError):
        build_tocp(graph, c_hat, 1, l_max, [7])
    # no round trip at all, or a finite one over budget: an infeasible round,
    # not a build error
    disconnected = make_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])
    model, _ = build_tocp(disconnected, np.zeros(5), 1, 10.0, [3])
    assert solve(model).status == INFEASIBLE
    model, _ = build_tocp(graph, c_hat, 1, 2.0, [3])
    assert solve(model).status == INFEASIBLE


@pytest.mark.parametrize("bad", (-1.0, float("nan"), float("inf")))
@pytest.mark.parametrize("variant, build", (("tocp", build_tocp), ("top", build_top)),
                         ids=("tocp", "top"))
def test_predictions_must_be_finite_and_nonnegative(bridge, variant, build, bad):
    # costs grow from zero, so a prediction below zero or not finite is a
    # caller's bug, whichever entry holds it
    graph, dist, c_hat, l_max = bridge
    structure = Structure(graph, dist, 1, l_max, (), variant)
    for v in (0, 3):
        wrong = c_hat.copy()
        wrong[v] = bad
        with pytest.raises(ModelError, match="finite and >= 0"):
            build(graph, wrong, 1, l_max, dist=dist)
        with pytest.raises(ModelError, match="finite and >= 0"):
            plan_round(structure, wrong, None)


def test_route_extraction_interleaves_two_loops():
    # the model itself never emits a depot figure-eight (one departure per
    # agent), but the stitcher must handle any closed trail it is handed
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
    model, handles = build_tocp(g, np.array([0.0, 0.0, 1.0, 1.0]), 1, 10.0)
    assign = np.zeros(model.num_variables)
    for key in ((1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 1, 1)):
        assign[handles.x[key]] = 1.0
    sol = MilpSolution(
        status=OPTIMAL, assignment=assign, objective_value=2.0, gap=0.0, solve_seconds=0.0
    )
    got = extract_routes(sol, handles, g)
    assert got.routes == [[1, 2, 1, 3, 1]]
    assert got.lengths == [4.0]


def test_route_extraction_rejects_detached_cycles():
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    model, handles = build_tocp(g, np.zeros(4), 1, 10.0)
    assign = np.zeros(model.num_variables)
    assign[handles.x[(2, 3, 1)]] = 1.0
    assign[handles.x[(3, 2, 1)]] = 1.0
    sol = MilpSolution(
        status=OPTIMAL, assignment=assign, objective_value=0.0, gap=0.0, solve_seconds=0.0
    )
    with pytest.raises(RouteIntegrityError):
        extract_routes(sol, handles, g)
    # depot loop plus a detached pair is caught by the used-edge count
    assign2 = np.zeros(model.num_variables)
    for key in ((1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1)):
        assign2[handles.x[key]] = 1.0
    sol2 = MilpSolution(
        status=OPTIMAL, assignment=assign2, objective_value=0.0, gap=0.0, solve_seconds=0.0
    )
    # this one is connected (2 links both loops), so it must stitch fine
    assert extract_routes(sol2, handles, g).routes == [[1, 2, 3, 2, 1]]
    assign3 = np.zeros(model.num_variables)
    assign3[handles.x[(1, 2, 1)]] = 1.0
    sol3 = MilpSolution(
        status=OPTIMAL, assignment=assign3, objective_value=0.0, gap=0.0, solve_seconds=0.0
    )
    with pytest.raises(RouteIntegrityError):
        extract_routes(sol3, handles, g)
    # an agent that never leaves the depot breaks its departure row
    idle = MilpSolution(status=OPTIMAL, assignment=np.zeros(model.num_variables),
                        objective_value=0.0, gap=0.0, solve_seconds=0.0)
    with pytest.raises(RouteIntegrityError, match="never leave vertex 1"):
        extract_routes(idle, handles, g)


def test_simplify_walk_drops_doubly_used_edges():
    g = make_graph(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
    walk = [1, 2, 3, 2, 3, 1]  # uses (2, 3) twice
    out = simplify_walk(walk)
    assert out == [1, 2, 3, 1]
    assert set(out) == set(walk)
    assert walk_length(g, out) < walk_length(g, walk)
    # already-simple walks come back unchanged
    assert simplify_walk([1, 2, 3, 1]) == [1, 2, 3, 1]
    assert simplify_walk([1]) == [1]


def test_simplify_walk_random_property():
    rng = np.random.default_rng(4)
    g = make_graph(
        5, [(1, 2, 1.0), (2, 3, 1.5), (3, 4, 1.0), (4, 1, 2.0), (2, 4, 1.0), (1, 5, 1.0)]
    )
    for _ in range(200):
        # random walk out and back, then force duplicates by replaying it
        route = [1]
        for _ in range(int(rng.integers(2, 9))):
            nxt = g.out_neighbors(route[-1])
            route.append(int(nxt[rng.integers(0, len(nxt))]))
        back = route[::-1]
        walk = route + back[1:]  # palindrome: returns to 1, reuses edges freely
        out = simplify_walk(walk)
        assert out[0] == out[-1] == 1
        assert set(out) == set(walk)
        assert walk_length(g, out) <= walk_length(g, walk) + 1e-12
        assert len(set(zip(out, out[1:]))) == len(out) - 1  # no directed edge reused


def test_audit_catches_tampering(star):
    graph, dist, c_hat, l_max = star
    model, handles, sol = solved(build_tocp, graph, c_hat, 1, l_max)
    assert audit_solution(graph, sol, handles) == []

    forged = sol.assignment.copy()
    forged[handles.z[3]] = 1.0 - forged[handles.z[3]]
    bad = MilpSolution(OPTIMAL, forged, sol.objective_value, 0.0, 0.0)
    assert any("z=" in msg for msg in audit_solution(graph, bad, handles))

    forged = sol.assignment.copy()
    forged[handles.x[(2, 3, 1)]] = 0.0
    bad = MilpSolution(OPTIMAL, forged, sol.objective_value, 0.0, 0.0)
    assert audit_solution(graph, bad, handles) != []


def test_audit_catches_budget_overrun():
    g = make_graph(2, [(1, 2, 3.0)])
    model, handles = build_tocp(g, np.array([0.0, 0.0, 1.0]), 1, 10.0)
    assign = plan_to_assignment([[1, 2, 1]], model, handles)
    assert assign is not None
    tight, tight_handles = build_tocp(g, np.array([0.0, 0.0, 1.0]), 1, 5.0)
    bad = MilpSolution(OPTIMAL, assign, 1.0, 0.0, 0.0)
    msgs = audit_solution(g, bad, tight_handles)
    assert any("budget" in msg for msg in msgs)


def test_plan_encoding_round_trip_and_rejections(bridge):
    graph, dist, c_hat, l_max = bridge
    model, handles = build_tocp(graph, c_hat, 1, l_max, dist=dist)
    plan = greedy_plan(graph, dist, c_hat, 1, l_max)
    assign = plan_to_assignment(plan.routes, model, handles)
    assert assign is not None
    assert check_assignment(model, assign) == []
    sol = MilpSolution(OPTIMAL, assign, plan.reward(c_hat), 0.0, 0.0)
    assert audit_solution(graph, sol, handles) == []

    # an idle agent breaks a row: departure is mandatory
    idle = [[1]]
    assert broken_rules(handles.structure, idle) == ["idle agent"]
    assert check_assignment(model, plan_to_assignment(idle, model, handles)) != []

    # walks that reuse a directed edge do not fit binary edge variables
    doubled = [[1, 2, 1, 2, 1]]
    assert "directed edge used twice" in broken_rules(handles.structure, doubled)
    assert check_assignment(model, plan_to_assignment(doubled, model, handles)) != []
    # walks over non-edges break a rule too
    assert broken_rules(handles.structure, [[1, 3, 1]]) == ["not on real edges"]


@st.composite
def walk_plans(draw):
    """A tiny round plus one drawn walk per agent; [1] parks the agent.

    A walk steps along real edges from the depot and then takes the shortest
    way home.  A loose walk may also step into the depot, reuse an edge or
    stop where it is; the others avoid all three until the way home.
    """
    graph, c_hat, agents, l_max, must = draw(tiny_rounds())
    dist = all_pairs_shortest(graph)
    routes = []
    for _ in range(agents):
        loose = draw(st.booleans())
        walk = [DEPOT]
        for _ in range(draw(st.integers(0, 5))):
            steps = [v for v in graph.out_neighbors(walk[-1])
                     if loose or (v != DEPOT and (walk[-1], v) not in zip(walk, walk[1:]))]
            if not steps:
                break
            walk.append(draw(st.sampled_from(steps)))
        if len(walk) > 1 and not (loose and draw(st.booleans())):
            walk += dist.shortest_path(walk[-1], DEPOT)[1:]
        routes.append(walk)
    return graph, c_hat, l_max, must, routes


@pytest.mark.parametrize("build", (build_tocp, build_top), ids=("tocp", "top"))
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=walk_plans())
def test_encoded_walks_satisfy_every_row_or_break_a_rule(build, case):
    graph, c_hat, l_max, must, routes = case
    model, handles = build(graph, c_hat, len(routes), l_max, must)
    plan = FleetPlan(routes, [walk_length(graph, r) for r in routes])
    assign = plan_to_assignment(routes, model, handles)
    broken = broken_rules(handles.structure, routes)
    violated = check_assignment(model, assign)
    if broken:
        event("rejected")
        assert violated
        return
    event("encoded")
    assert violated == []
    sol = MilpSolution(OPTIMAL, assign, plan.reward(c_hat), 0.0, 0.0)
    assert audit_solution(graph, sol, handles) == []
    for route, back in zip(routes, extract_routes(sol, handles, graph).routes):
        assert set(back) == set(route)
        assert set(zip(back, back[1:])) == set(zip(route, route[1:]))


def test_walks_off_the_real_edges_break_a_rule_and_do_not_encode(bridge):
    # the drawn walks above only step along real edges; 1 -> 3 is no road
    graph, dist, c_hat, l_max = bridge
    for build in (build_tocp, build_top):
        model, handles = build(graph, c_hat, 1, l_max, dist=dist)
        for route in ([1, 3, 1], [1, 2, 3, 1]):
            assert broken_rules(handles.structure, [route]) == ["not on real edges"]
        assert broken_rules(handles.structure, [[1, 2, 1]]) == []


def test_infeasibility_agreement_with_exhaustive_search():
    g = make_graph(3, [(1, 2, 2.0), (2, 3, 2.0)])
    dist = all_pairs_shortest(g)
    c = np.array([0.0, 0.0, 1.0, 1.0])
    for variant, build in (("tocp", build_tocp), ("top", build_top)):
        model, _ = build(g, c, 1, 3.0, dist=dist)  # shortest round trip is 4
        assert solve(model).status == INFEASIBLE
        ref = brute_force_single_iteration(g, c, 1, 3.0, variant=variant, dist=dist)
        assert not ref.feasible


def test_two_agent_optimum_splits_work():
    # two spurs from the depot; one agent cannot cover both in budget
    g = make_graph(5, [(1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0), (4, 5, 1.0)])
    dist = all_pairs_shortest(g)
    c = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    _, handles, sol = solved(build_tocp, g, c, 2, 4.0)
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - 4.0) < 1e-9
    assert audit_solution(g, sol, handles) == []
    ref = brute_force_single_iteration(g, c, 2, 4.0, dist=dist)
    assert abs(ref.reward - 4.0) < 1e-12
