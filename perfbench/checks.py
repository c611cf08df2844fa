"""Output checks and the result digest.

Every check returns a list of problem strings; an empty list means the output
is correct.  The digest hashes the results with every timing field left out,
so it changes exactly when the program's outputs change.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from typing import Dict, Iterable, List, Optional, Sequence

from patrolopt import milp
from patrolopt.cost_process import CostState
from patrolopt.estimator import EstimatorState
from patrolopt.graph import DEPOT, Graph, all_pairs_shortest, reachable_round_trip, walk_length
from patrolopt.greedy import greedy_plan
from patrolopt.instance_io import Instance, instance_graph, kappa_table
from patrolopt.simulator import STATUS_HEURISTIC, EpisodeResult
from patrolopt.tocp import FleetPlan, UnreachableMustVisitError

from tracing import round_trip_bound

# Budget rows are met to HiGHS's feasibility tolerance, not exactly.
BUDGET_TOL = 1e-6
NO_PLAN_STATUSES = (milp.INFEASIBLE, milp.TIMEOUT_NO_SOLUTION)


def check_plan(graph: Graph, plan: FleetPlan, instance: Instance) -> List[str]:
    """Closed walks from the depot over real edges, within budget, covering must-visits."""
    problems = []
    if plan.num_agents != instance.num_agents:
        problems.append(f"{plan.num_agents} routes for {instance.num_agents} agents")
    for m, route in enumerate(plan.routes, start=1):
        if not route or route[0] != DEPOT or route[-1] != DEPOT:
            problems.append(f"agent {m}: route {route} is not closed at the depot")
            continue
        try:
            length = walk_length(graph, route)
        except KeyError as exc:
            problems.append(f"agent {m}: step {exc} is not an edge")
            continue
        if length > instance.l_max + BUDGET_TOL:
            problems.append(f"agent {m}: walk length {length!r} over budget {instance.l_max!r}")
    missing = sorted(set(instance.must_visit) - plan.visited())
    if missing:
        problems.append(f"must-visit vertices {missing} not covered")
    return problems


def check_episode(instance: Instance, result: EpisodeResult) -> List[str]:
    """Replay an episode from its plans and check every round.

    The replay recomputes c_hat and the residuals from the instance and the
    visited sets alone, so it also checks that the simulator charged each
    plan as executed.  On each planned round: the plan is valid, its reward
    is at most the round-trip bound, and for tocp it is at least greedy's
    reward on the same c_hat.
    """
    label = f"{result.instance_id}/{result.planner}"
    problems: List[str] = []
    if len(result.plans) != instance.horizon or len(result.residual_costs) != instance.horizon:
        return [f"{label}: episode has {len(result.plans)} plans for H={instance.horizon}"]
    graph = instance_graph(instance)
    dm = all_pairs_shortest(graph)
    reachable = reachable_round_trip(graph, dm, instance.l_max)
    cost = CostState(kappa_table(instance))
    est = EstimatorState(instance.num_vertices, instance.mu_default)
    for t, (plan, status) in enumerate(zip(result.plans, result.statuses), start=1):
        where = f"{label} round {t}"
        cost.advance()
        c_hat = est.predicted_cost(t)
        if plan is None:
            if status not in NO_PLAN_STATUSES:
                problems.append(f"{where}: no plan but status {status}")
            elif result.planner != "top" and _greedy(graph, dm, c_hat, instance) is not None:
                problems.append(f"{where}: {result.planner} reported {status}, greedy found a plan")
            visited = {DEPOT}
        else:
            problems += [f"{where}: {p}" for p in check_plan(graph, plan, instance)]
            reward = plan.reward(c_hat)
            bound = round_trip_bound(c_hat, reachable)
            tol = 1e-6 * max(1.0, abs(bound))
            if reward > bound + tol:
                problems.append(f"{where}: reward {reward!r} above bound {bound!r}")
            if result.planner == "tocp":
                greedy = _greedy(graph, dm, c_hat, instance)
                if greedy is not None and reward < greedy.reward(c_hat) - tol:
                    problems.append(f"{where}: tocp reward {reward!r} below greedy's")
            visited = plan.visited() | {DEPOT}
        lumps = {v: float(cost.accrued[v]) for v in visited}
        cost.apply_visits(visited, t)
        if cost.residual_cost() != result.residual_costs[t - 1]:
            problems.append(f"{where}: residual {result.residual_costs[t - 1]!r} but replay "
                            f"gives {cost.residual_cost()!r}")
        for v in sorted(visited):
            est.observe(v, lumps[v], t)
    if result.total_cost != float(sum(result.residual_costs)):
        problems.append(f"{label}: total_cost is not the sum of its rounds")
    return problems


def _greedy(graph, dm, c_hat, instance) -> Optional[FleetPlan]:
    try:
        return greedy_plan(graph, dm, c_hat, instance.num_agents, instance.l_max,
                           instance.must_visit)
    except UnreachableMustVisitError:
        return None


def same_outputs(a: EpisodeResult, b: EpisodeResult) -> List[str]:
    """Differences between two runs of one episode, timings aside."""
    label = f"{a.instance_id}/{a.planner}"
    problems = []
    if a.residual_costs != b.residual_costs:
        problems.append(f"{label}: residuals differ: {a.residual_costs} vs {b.residual_costs}")
    if a.statuses != b.statuses:
        problems.append(f"{label}: statuses differ: {a.statuses} vs {b.statuses}")
    routes_a = [None if p is None else p.routes for p in a.plans]
    routes_b = [None if p is None else p.routes for p in b.plans]
    if routes_a != routes_b:
        problems.append(f"{label}: routes differ")
    return problems


def check_rows(rows: List[Dict], expected: Sequence[tuple]) -> List[str]:
    """A results table holds one row per expected (instance id, planner), in order."""
    problems = []
    got = [(r["instance_id"], r["planner"]) for r in rows]
    if got != list(expected):
        return [f"results rows {got[:4]}... do not match the jobs {list(expected)[:4]}..."]
    for r in rows:
        label = f"{r['instance_id']}/{r['planner']}"
        if len(r["iter_costs"]) != r["H"] or len(r["iter_statuses"]) != r["H"]:
            problems.append(f"{label}: {len(r['iter_costs'])} rounds for H={r['H']}")
        if r["total_cost"] != float(sum(r["iter_costs"])):
            problems.append(f"{label}: total_cost is not the sum of its rounds")
        if min(r["iter_costs"], default=0.0) < 0:
            problems.append(f"{label}: negative residual")
        no_plan = any(s in NO_PLAN_STATUSES for s in r["iter_statuses"])
        if r["failed"] != no_plan:
            problems.append(f"{label}: failed flag {r['failed']} but statuses {r['iter_statuses']}")
        if r["planner"] == "greedy" and set(r["iter_statuses"]) - {STATUS_HEURISTIC}:
            problems.append(f"{label}: greedy statuses {r['iter_statuses']}")
    return problems


def rows_match_results(rows: List[Dict], results: Iterable[EpisodeResult]) -> List[str]:
    """Rows of a results table agree with episodes run another way."""
    by_key = {(r["instance_id"], r["planner"]): r for r in rows}
    problems = []
    for res in results:
        row = by_key.get((res.instance_id, res.planner))
        label = f"{res.instance_id}/{res.planner}"
        if row is None:
            problems.append(f"{label}: missing from the results table")
        elif row["iter_costs"] != res.residual_costs or row["iter_statuses"] != res.statuses:
            problems.append(f"{label}: table row differs from the episode run directly")
    return problems


def check_svg(path: str) -> List[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path}: not well-formed SVG ({exc})"]
    if not root.tag.endswith("svg") or len(root) == 0:
        return [f"{path}: empty or not an SVG document"]
    return []


def masked_rows(rows: List[Dict]) -> List[list]:
    return [[r["instance_id"], r["H"], r["planner"], repr(r["total_cost"]),
             [repr(v) for v in r["iter_costs"]], r["iter_statuses"], r["failed"]]
            for r in rows]


def masked_results(results: Iterable[EpisodeResult]) -> List[list]:
    return [[r.instance_id, r.planner, [repr(v) for v in r.residual_costs], r.statuses,
             [None if p is None else p.routes for p in r.plans]]
            for r in results]


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
