"""Episode loop: per-round accounting, failure handling, and determinism."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings

from patrolopt import certify, greedy, heldkarp, milp, simulator, tocp
from patrolopt.cost_process import CostState
from patrolopt.estimator import EstimatorState
from patrolopt.benchgen import BenchmarkConfig, generate_instance
from patrolopt.graph import DEPOT, FleetPlan, all_pairs_shortest, validate
from patrolopt.instance_io import Instance, instance_graph, kappa_table
from patrolopt.simulator import (PLANNERS, STATUS_HEURISTIC, run_episode, run_episodes,
                                 solve_single_round)

from conftest import TIGHT_LAW, tiny_rounds
from oracle import brute_force_single_iteration


def make_instance(num_vertices, edges, l_max, horizon, kappa, num_agents=1,
                  must_visit=(), mu_star=None, noise_stddev=0.0):
    # positions are only cosmetic here; lengths come from the edge list
    return Instance(
        seed=1,
        horizon=horizon,
        num_vertices=num_vertices,
        num_agents=num_agents,
        l_max=l_max,
        positions=[(float(v), 0.0) for v in range(num_vertices)],
        edges=[tuple(e) for e in edges],
        must_visit=list(must_visit),
        mu_star=list(mu_star) if mu_star is not None else [0.5] * num_vertices,
        mu_default=0.5,
        noise_stddev=noise_stddev,
        kappa=[list(row) for row in kappa],
    )


def bench_instance(seed=3, horizon=3):
    config = BenchmarkConfig(
        seeds=range(seed, seed + 1),
        horizons=(horizon,),
        vertex_choices=(5, 6),
        out_degree_choices=(2, 3),
        budget_base=8.0,
        budget_span_per_vertex=0.5,
        agent_choices=(1, 2),
        required_draw_choices=(0, 1),
    )
    return generate_instance(config, seed, horizon)


def cut_seed_2():
    """Default seed 2 with the roads of its must-visit vertex 12 removed."""
    instance = generate_instance(BenchmarkConfig(), 2, 2)
    return replace(instance, edges=[e for e in instance.edges if 12 not in e[:2]])


def test_total_cost_is_sum_of_round_residuals():
    instance = bench_instance()
    for planner in PLANNERS:
        result = run_episode(instance, planner)
        assert result.horizon == instance.horizon
        assert len(result.residual_costs) == instance.horizon
        assert len(result.statuses) == instance.horizon
        assert len(result.compute_seconds) == instance.horizon
        assert result.total_cost == pytest.approx(
            sum(result.residual_costs), abs=1e-12
        )
        assert result.plans == []  # not kept unless asked


def test_kept_plans_replay_to_the_same_residuals():
    instance = bench_instance(seed=7)
    result = run_episode(instance, "tocp", keep_plans=True)
    assert len(result.plans) == instance.horizon
    cost = CostState(kappa_table(instance))
    for t in range(1, instance.horizon + 1):
        cost.advance()
        plan = result.plans[t - 1]
        visited = {1} if plan is None else plan.visited() | {1}
        cost.apply_visits(visited, t)
        assert cost.residual_cost() == pytest.approx(
            result.residual_costs[t - 1], abs=1e-12
        )
    assert not result.failed


def test_first_round_solve_is_optimal_for_the_predicted_costs():
    # Round one plans on the untrained estimator: every vertex at the default
    # rate.  The chosen visit set must then be a maximiser of that uniform
    # predicted reward, which the brute-force search certifies.
    instance = bench_instance(seed=11, horizon=1)
    if instance.num_agents > 2 or instance.num_vertices > 6:
        pytest.skip("oracle guard: draw too big for brute force")
    result = run_episode(instance, "tocp", keep_plans=True)
    assert result.statuses == ["optimal"]
    est = EstimatorState(instance.num_vertices, instance.mu_default)
    c_hat = est.predicted_cost(1)
    oracle = brute_force_single_iteration(
        instance_graph(instance), c_hat, instance.num_agents, instance.l_max,
        must_visit=instance.must_visit,
    )
    assert oracle.feasible
    plan = result.plans[0]
    got = sum(c_hat[v] for v in plan.visited() if v != 1)
    assert got == pytest.approx(oracle.reward, abs=1e-9)


def test_residual_identity_single_round():
    # With H = 1 the residual is exactly the grown cost left on the vertices
    # the fleet did not reach; the depot lump is always picked up.
    kappa = [[0.0], [0.25], [0.5], [0.75], [0.625]]
    instance = make_instance(
        5,
        [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (1, 5, 1.0)],
        l_max=3.0,
        horizon=1,
        kappa=kappa,
    )
    result = run_episode(instance, "tocp", keep_plans=True)
    visited = result.plans[0].visited()
    expected = sum(kappa[v - 1][0] for v in range(2, 6) if v not in visited)
    assert result.residual_costs[0] == pytest.approx(expected, abs=1e-12)


def test_uniform_growth_single_round_planner_ordering():
    # Every vertex grows by the same amount, so collecting more vertices is
    # strictly better and the exact planner can never lose to the heuristic.
    kappa = [[0.0]] + [[0.5]] * 5
    instance = make_instance(
        6,
        [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0),
         (1, 6, 1.0), (2, 5, 2.0)],
        l_max=4.0,
        horizon=1,
        kappa=kappa,
    )
    tocp = run_episode(instance, "tocp")
    greedy = run_episode(instance, "greedy")
    assert tocp.statuses == ["optimal"]
    assert greedy.statuses == [STATUS_HEURISTIC]
    assert tocp.total_cost <= greedy.total_cost + 1e-9


def test_revisit_freedom_beats_single_visit_routing():
    # Dead-end path: the high-value far vertex is only reachable by passing
    # the middle vertex twice, which the single-visit variant forbids.
    kappa = [[0.0], [0.1], [10.0]]
    instance = make_instance(
        3, [(1, 2, 1.0), (2, 3, 1.0)], l_max=4.0, horizon=1, kappa=kappa
    )
    tocp = run_episode(instance, "tocp")
    top = run_episode(instance, "top")
    assert tocp.total_cost == pytest.approx(0.0, abs=1e-9)
    assert top.total_cost == pytest.approx(10.0, abs=1e-9)


def test_unaffordable_required_vertex_fails_every_round():
    kappa = [
        [0.0, 0.0],
        [0.25, 0.5],
        [0.125, 0.25],
    ]
    instance = make_instance(
        3, [(1, 2, 1.0), (2, 3, 1.0)], l_max=2.0, horizon=2, kappa=kappa,
        must_visit=[3],
    )
    for planner in PLANNERS:
        result = run_episode(instance, planner, keep_plans=True)
        assert result.failed
        assert result.statuses == ["infeasible", "infeasible"]
        assert result.plans == [None, None]
        # nobody leaves the depot, so off-depot growth piles up untouched
        assert result.residual_costs[0] == pytest.approx(0.375, abs=1e-12)
        assert result.residual_costs[1] == pytest.approx(1.125, abs=1e-12)
        # depot lumps are still observed; everything else stays at the prior
        assert result.mu_hat_final == [0.0, 0.5, 0.5]


def test_must_visit_vertex_without_roads_fails_every_round_for_every_planner():
    # default seed 2 requires vertex 12; with its roads gone there is no round
    # trip to it at all, an infeasible round for the MIPs as for greedy
    cut = cut_seed_2()
    assert cut.must_visit == [12]
    for planner in PLANNERS:
        result = run_episode(cut, planner)
        assert result.failed
        assert result.statuses == ["infeasible", "infeasible"]
    for planner in ("tocp", "top"):
        plan, status, stats = solve_single_round(cut, planner)
        assert (plan, status, stats["node_count"]) == (None, "infeasible", 0)
        assert stats["infeasibility_proof"].startswith(
            "must-visit vertex 12 has no depot round trip within l_max: inf > ")


def test_infeasible_round_settles_the_rest_of_the_episode(monkeypatch):
    # top cannot reach vertex 3 without entering 2 twice; the rows never read
    # the predictions, so the first proof of infeasibility covers all rounds
    calls = []
    real = certify.infeasibility_proof

    def spy(structure):
        calls.append(structure.variant)
        return real(structure)

    monkeypatch.setattr(certify, "infeasibility_proof", spy)
    kappa = [[0.0, 0.0, 0.0], [0.25, 0.5, 0.75], [0.125, 0.25, 0.375]]
    instance = make_instance(
        3, [(1, 2, 1.0), (2, 3, 1.0)], l_max=4.0, horizon=3, kappa=kappa,
        must_visit=[3],
    )
    result = run_episode(instance, "top")
    assert calls == ["top"]
    assert result.failed
    assert result.statuses == ["infeasible", "infeasible", "infeasible"]
    assert result.residual_costs == [0.375, 1.125, 2.25]
    assert result.mu_hat_final == [0.0, 0.5, 0.5]


def test_noise_free_rates_are_recovered_exactly():
    # kappa rows are constant at the true rate, so each collected lump is an
    # exact multiple of it and the running average reproduces it bit for bit.
    mu_star = [0.0, 0.25, 0.5, 0.75]
    kappa = [[m] * 3 for m in mu_star]
    instance = make_instance(
        4,
        [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        l_max=10.0,
        horizon=3,
        kappa=kappa,
        mu_star=mu_star,
    )
    result = run_episode(instance, "greedy", keep_plans=True)
    for plan in result.plans:
        assert plan.visited() == {1, 2, 3, 4}
    assert result.mu_hat_final == mu_star
    assert result.total_cost == 0.0


def test_episode_is_deterministic_apart_from_wall_clock():
    instance = bench_instance(seed=9)
    a = run_episode(instance, "top")
    b = run_episode(instance, "top")
    assert a.instance_id == b.instance_id
    assert a.residual_costs == b.residual_costs
    assert a.total_cost == b.total_cost
    assert a.statuses == b.statuses
    assert a.mu_hat_final == b.mu_hat_final
    assert a.failed == b.failed


@pytest.mark.parametrize("planner", PLANNERS)
@pytest.mark.parametrize("l_max", (float("nan"), float("inf")), ids=("nan", "inf"))
def test_a_budget_that_is_not_finite_is_rejected(planner, l_max):
    # every planner plans on the same checked structure, so none of them can
    # answer such a round: a NaN budget fits no walk and an infinite one fits
    # every walk, yet the model cannot hold it as a coefficient
    kappa = [[0.0], [0.25], [0.125]]
    instance = make_instance(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)], l_max, 1, kappa)
    with pytest.raises(milp.ModelError, match="travel budget must be positive and finite"):
        run_episode(instance, planner)


def test_unknown_planner_is_rejected():
    instance = bench_instance()
    with pytest.raises(ValueError, match="unknown planner"):
        run_episode(instance, "simulated-annealing")


def test_single_round_reports_model_stats_without_timings():
    instance = bench_instance(seed=5)
    plan, status, stats = solve_single_round(instance, "tocp")
    assert status == "optimal"
    assert plan is not None
    assert stats["planner"] == "tocp"
    assert stats["num_variables"] > 0
    assert stats["num_constraints"] > 0
    assert stats["status"] == "optimal"
    assert stats["gap"] == 0.0
    assert not any("second" in key or "time" in key for key in stats)

    plan, status, stats = solve_single_round(instance, "greedy")
    assert status == STATUS_HEURISTIC
    assert stats == {"planner": "greedy"}

    with pytest.raises(ValueError, match="iteration"):
        solve_single_round(instance, "tocp", iteration=instance.horizon + 1)
    with pytest.raises(ValueError, match="unknown planner"):
        solve_single_round(instance, "lkh")


def test_single_round_is_the_first_round_of_an_episode():
    # solve answers through the model and simulate without it, from one
    # cascade: at t = 1 both plan on the untrained estimator's predictions,
    # so they must agree exactly, on rounds without roads, without a round
    # trip to a required vertex and under the tight budget law too
    instances = [
        bench_instance(seed=5),
        make_instance(3, [], 4.0, 1, [[0.5]] * 3),
        cut_seed_2(),
        generate_instance(BenchmarkConfig(**TIGHT_LAW), 3, 2),
    ]
    for instance in instances:
        for planner in PLANNERS:
            plan, status, _ = solve_single_round(instance, planner)
            result = run_episode(instance, planner, keep_plans=True)
            assert status == result.statuses[0]
            episode_plan = result.plans[0]
            assert (plan is None) == (episode_plan is None)
            if plan is not None:
                assert plan.routes == episode_plan.routes


def counted(calls, name, real):
    """real, appending name to calls on every call."""
    def spy(*args):
        calls.append(name)
        return real(*args)
    return spy


@pytest.fixture
def model_builds(monkeypatch):
    """Name the model of every round that builds one."""
    calls = []
    real = tocp._build_fleet_model

    def spy(structure, c_hat):
        calls.append(structure.variant)
        return real(structure, c_hat)

    monkeypatch.setattr(tocp, "_build_fleet_model", spy)
    return calls


def test_only_rounds_highs_must_answer_build_a_model(model_builds, highs_calls, no_dp):
    kappa = [[0.0, 0.0], [0.25, 0.5], [0.125, 0.25]]
    path = [(1, 2, 1.0), (2, 3, 1.0)]
    # greedy's [1, 2, 3, 2, 1] visits everything: certified every round
    result = run_episode(make_instance(3, path, 4.0, 2, kappa), "tocp")
    assert result.statuses == ["optimal", "optimal"]
    # top must enter 2 twice to reach the required 3: proven infeasible
    result = run_episode(make_instance(3, path, 4.0, 2, kappa, must_visit=[3]), "top")
    assert result.statuses == ["infeasible", "infeasible"]
    assert model_builds == []
    # 3's out-and-back is l_max + 5e-7, inside the slack but over l_max, so
    # no certificate holds, no proof exists and the DP is off: HiGHS answers
    spoke = make_instance(3, [(1, 2, 1.0), (1, 3, 2.0 + 2.5e-7)], 4.0, 1,
                          [row[:1] for row in kappa])
    assert run_episode(spoke, "tocp").statuses == ["optimal"]
    assert model_builds == ["tocp"]
    assert highs_calls == ["tocp"]


@pytest.mark.parametrize("variant", ("tocp", "top"))
@pytest.mark.parametrize("dp", (True, False), ids=("dp", "no_dp"))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=tiny_rounds())
def test_planned_round_matches_the_solved_model(variant, dp, case):
    # the episode loop answers rounds without the model; it must plan what
    # extract_routes(milp.solve(build_*)) plans, byte for byte
    graph, c_hat, agents, l_max, must = case
    dist = all_pairs_shortest(graph)
    build = tocp.build_tocp if variant == "tocp" else tocp.build_top
    with pytest.MonkeyPatch.context() as mp:
        if not dp:
            mp.setattr(heldkarp, "MAX_WORK", -1)
        structure = certify.Structure(graph, dist, agents, l_max, must, variant)
        plan, status = tocp.plan_round(structure, c_hat, None)
        model, handles = build(graph, c_hat, agents, l_max, must, dist=dist)
        solution = milp.solve(model)
    event("proof" if model.infeasibility_proof else
          "certificate" if model.certificate is not None else "highs")
    assert status == solution.status
    if solution.has_assignment:
        assert plan == tocp.extract_routes(solution, handles, graph)
    else:
        assert plan is None


@pytest.mark.parametrize("variant, edges", [
    # greedy reaches 3 from 2 through the depot, and no walk avoids it, so no
    # certificate holds
    ("tocp", [(1, 2, 1.0), (1, 3, 1.0)]),
    # 3 is reached only by entering 2 twice, so no cycle cover holds
    ("top", [(1, 2, 1.0), (2, 3, 1.0)]),
    # greedy needs the checked graph alone
    ("greedy", [(1, 2, 1.0), (1, 3, 1.0)]),
])
def test_structure_work_runs_once_per_episode(variant, edges, monkeypatch):
    # the graph check, the proof, the certificates and the DP's table read no
    # predictions: every round reaches them, in that order, yet an episode
    # computes each once, and a single-round solve does the same work once more
    calls = []
    for module in (tocp, certify):  # whichever of them checks the graph
        monkeypatch.setattr(module, "validate", counted(calls, "validate", validate),
                            raising=False)
    for module, name in ((certify, "_insertion_cover"), (certify, "_farthest_insertion"),
                         (certify, "infeasibility_proof"), (heldkarp, "_held_karp")):
        monkeypatch.setattr(module, name, counted(calls, name, getattr(module, name)))
    kappa = [[0.0] * 3, [0.25, 0.5, 0.75], [0.125, 0.25, 0.375]]
    instance = make_instance(3, edges, 4.0, 3, kappa)
    result = run_episode(instance, variant)
    status = STATUS_HEURISTIC if variant == "greedy" else "optimal"
    assert result.statuses == [status] * 3
    expected = {"tocp": ["validate", "infeasibility_proof", "_farthest_insertion", "_held_karp"],
                "top": ["validate", "infeasibility_proof", "_insertion_cover", "_held_karp"],
                "greedy": ["validate"]}[variant]
    assert calls == expected
    del calls[:]
    assert solve_single_round(instance, variant)[1] == status
    assert calls == expected


@pytest.mark.parametrize("planner", PLANNERS)
def test_episodes_on_a_shared_structure_match_episodes_run_alone(planner, monkeypatch):
    # default seed 1 at H = 2 and 4, then with one agent fewer, then at H = 6:
    # a structure for the first two, one for the smaller fleet, one for H = 6
    config = BenchmarkConfig()
    instances = [generate_instance(config, 1, h) for h in (2, 4, 6)]
    instances.insert(2, replace(instances[0], num_agents=instances[0].num_agents - 1))
    alone = [run_episode(instance, planner, keep_plans=True) for instance in instances]
    built = []
    real = certify.Structure.__init__

    def init(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(certify.Structure, "__init__", init)
    shared = list(run_episodes(instances, planner, keep_plans=True))
    assert [args[2] for args in built] == [2, 1, 2]  # num_agents
    for a, b in zip(alone, shared):
        a.compute_seconds = b.compute_seconds = []
        assert a == b


@pytest.mark.parametrize("law, seed, insertions, digest", [
    pytest.param({}, 1, ["_farthest_insertion"],
                 "56b2a421a6bf13f087e4d13be6b2d8442701ee8c81e8096f7a98b3188a0f8a3e",
                 id="default-1"),
    pytest.param(TIGHT_LAW, 9, [],
                 "1ed724b516e78a1106e08a7ca11933bc3535235cb705c7fbe1a4e4de64954e0d",
                 id="tight-9"),
])
def test_the_kept_certificate_is_built_once_per_structure(law, seed, insertions, digest,
                                                          monkeypatch):
    # greedy on unit predictions misses a target in default seed 1's
    # structure, so farthest insertion's walks answer every round.  Tight-law
    # seed 9 has no certificate: its DP optimum covers 8 of its 11 targets,
    # so its rows are those of the cascade without one, and three of its
    # targets pairwise fit no walk, so farthest insertion does not even run
    built = []
    monkeypatch.setattr(certify, "_farthest_insertion",
                        counted(built, "_farthest_insertion", certify._farthest_insertion))
    instance = generate_instance(BenchmarkConfig(**law), seed, 10)
    result = run_episode(instance, "tocp", keep_plans=True)
    assert built == insertions
    assert result.statuses == ["optimal"] * 10
    rows = "".join(f"{cost!r} {status} {plan.routes}\n" for cost, status, plan
                   in zip(result.residual_costs, result.statuses, result.plans))
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


@pytest.mark.parametrize("law, seed, by_greedy", [({}, 2, True), (TIGHT_LAW, 9, False)],
                         ids=("default-2", "tight-9"))
def test_greedy_runs_at_most_once_per_tocp_structure(law, seed, by_greedy, monkeypatch):
    # greedy's walks certify default seed 2's structure, so every round reads
    # them; tight-law seed 9 has no certificate and its rounds go to the DP.
    # Either way greedy reads no round's predictions
    instance = generate_instance(BenchmarkConfig(**law), seed, 10)
    walks = certify._greedy_walks(certify.Structure(
        instance_graph(instance), None, instance.num_agents, instance.l_max,
        instance.must_visit, "tocp"))
    assert (walks is not None) == by_greedy
    calls = []
    for module in (tocp, certify):  # whichever of them runs greedy
        monkeypatch.setattr(module, "greedy_plan",
                            counted(calls, "greedy_plan", greedy.greedy_plan), raising=False)
    result = run_episode(instance, "tocp", keep_plans=True)
    assert result.statuses == ["optimal"] * 10
    assert len(calls) <= 1
    if by_greedy:
        assert [plan.routes for plan in result.plans] == [walks] * 10


def path_instance():
    """The path 1 - 2 - 3 with unit roads, two agents, budget 6 and must-visit vertex 3."""
    return make_instance(3, [(1, 2, 1.0), (2, 3, 1.0)], l_max=6.0, horizon=2,
                         kappa=[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], num_agents=2,
                         must_visit=[3])


def planted(monkeypatch, routes, planner="greedy"):
    """Make the simulator's round call for planner return routes; the check reads no ledger."""
    plan = FleetPlan(routes, [0.0] * len(routes))
    if planner == "greedy":
        monkeypatch.setattr(simulator, "greedy_plan", lambda *args: plan)
    else:
        monkeypatch.setattr(simulator, "plan_round", lambda *args: (plan, milp.OPTIMAL))


@pytest.mark.parametrize("routes, rule", [
    ([[1, 2, 3, 2, 1]], "1 walks for 2 agents"),
    ([[1, 2, 3, 2, 1], [1, 2]], "not closed at the depot"),
    ([[1, 2, 3, 2, 1], [1, 3, 1]], "not on real edges"),
], ids=("walk-count", "open", "off-road"))
def test_a_greedy_plan_that_breaks_a_rule_is_not_charged(routes, rule, monkeypatch):
    # route extraction and the cascade's stitching give one closed walk per
    # agent on real edges, so greedy alone can break these three
    planted(monkeypatch, routes)
    with pytest.raises(RuntimeError, match=f"round 1: greedy's plan breaks {rule}$"):
        run_episode(path_instance(), "greedy")


@pytest.mark.parametrize("planner", PLANNERS)
@pytest.mark.parametrize("routes, rule", [
    ([[1, 2, 3, 2, 1, 2, 1, 2, 1], [1]], "over l_max"),
    ([[1, 2, 1], [1]], "must-visit vertex missed"),
], ids=("over-budget", "must-missed"))
def test_a_plan_that_breaks_a_rule_is_not_charged(routes, rule, planner, monkeypatch):
    # no stitching checks a walk's length or the must-visit set, so every
    # planner's plan is checked for both before its visits are charged
    planted(monkeypatch, routes, planner)
    with pytest.raises(RuntimeError, match=f"round 1: {planner}'s plan breaks {rule}$"):
        run_episode(path_instance(), planner)


@pytest.mark.parametrize("planner, name, routes, rule", [
    ("greedy", "greedy_plan", [[1, 2, 1], [1]], "must-visit vertex missed"),
    ("tocp", "extract_routes", [[1, 2, 3, 2, 1, 2, 1, 2, 1], [1]], "over l_max"),
], ids=("greedy", "tocp"))
def test_a_single_round_plan_that_breaks_a_rule_is_not_returned(planner, name, routes, rule,
                                                                monkeypatch):
    # solve writes what solve_single_round returns, so it runs the episode's check
    plan = FleetPlan(routes, [0.0] * len(routes))
    monkeypatch.setattr(simulator, name, lambda *args: plan)
    with pytest.raises(RuntimeError, match=f"round 2: {planner}'s plan breaks {rule}$"):
        solve_single_round(path_instance(), planner, iteration=2)


def test_greedy_may_idle_reuse_an_edge_and_pass_the_depot(monkeypatch):
    # broken_rules forbids all three, but no row of a model binds greedy
    routes = [[1, 2, 1, 2, 3, 2, 1], [1]]
    planted(monkeypatch, routes)
    result = run_episode(path_instance(), "greedy", keep_plans=True)
    assert [plan.routes for plan in result.plans] == [routes, routes]
    assert result.residual_costs == [0.0, 0.0]


def _rebuilt_episode(instance, planner):
    """Routes, statuses and residuals of an episode whose every round builds and solves
    its model afresh, as the traced loop of perfbench/tracing.py does."""
    graph = instance_graph(instance)
    dist = all_pairs_shortest(graph)
    build = tocp.build_tocp if planner == "tocp" else tocp.build_top
    cost = CostState(kappa_table(instance))
    est = EstimatorState(instance.num_vertices, instance.mu_default)
    routes, statuses, residuals = [], [], []
    for t in range(1, instance.horizon + 1):
        cost.advance()
        model, handles = build(graph, est.predicted_cost(t), instance.num_agents,
                               instance.l_max, instance.must_visit, dist=dist)
        solution = milp.solve(model)
        plan = tocp.extract_routes(solution, handles, graph) if solution.has_assignment else None
        visited = {DEPOT} if plan is None else plan.visited() | {DEPOT}
        lumps = {v: float(cost.accrued[v]) for v in visited}
        cost.apply_visits(visited, t)
        for v in sorted(visited):
            est.observe(v, lumps[v], t)
        routes.append(None if plan is None else plan.routes)
        statuses.append(solution.status)
        residuals.append(cost.residual_cost())
    return routes, statuses, residuals


@pytest.mark.parametrize("law, seed", [
    pytest.param({}, seed, id=f"default-{seed}") for seed in (1, 6, 15, 16)
] + [pytest.param(TIGHT_LAW, seed, id=f"tight-{seed}") for seed in (1, 9, 11, 12)])
def test_episode_matches_rounds_built_afresh(law, seed):
    # the episode keeps its structure's proof, cover and DP table across
    # rounds; none of them may carry anything over from an earlier c_hat
    instance = generate_instance(BenchmarkConfig(**law), seed, 4)
    for planner in ("tocp", "top"):
        result = run_episode(instance, planner, keep_plans=True)
        episode = ([None if p is None else p.routes for p in result.plans], result.statuses,
                   result.residual_costs)
        assert episode == _rebuilt_episode(instance, planner)


def test_benchmark_structures_plan_without_a_model(model_builds, monkeypatch):
    # the benchmark's exact workloads (default structures 1-10 at H = 1,
    # tight-law 7-10 at H = 2) are answered by the cascade alone: no round
    # builds, validates or re-checks a model
    checks = []
    monkeypatch.setattr(milp.MilpModel, "validate",
                        counted(checks, "validate", milp.MilpModel.validate))
    monkeypatch.setattr(milp, "check_assignment",
                        counted(checks, "check_assignment", milp.check_assignment))
    for law, seeds, horizon in (({}, range(1, 11), 1), (TIGHT_LAW, range(7, 11), 2)):
        for seed in seeds:
            instance = generate_instance(BenchmarkConfig(**law), seed, horizon)
            for planner in ("tocp", "top"):
                assert len(run_episode(instance, planner).statuses) == horizon
    assert model_builds == []
    assert checks == []
