"""Closed-loop episodes: estimate rates, plan a round, execute, learn, repeat.

Each iteration: costs grow, the planner sees only the estimator's predicted
accruals, the fleet executes the plan, every visited vertex hands over its
accrued cost (which feeds the estimator), and the leftover cost on the graph
is charged to the episode.  A planner that produces nothing this round (model
infeasible, or the deadline passed with no incumbent) leaves the fleet at the
depot: only the depot is visited, the iteration is charged in full, and the
episode is flagged as failed.  The planners' constraints never read the
predictions, so once a round is proven infeasible every later round of the
episode is charged as infeasible without planning it again.

run_episode and solve_single_round share one dispatch.  _structure checks
the planner and the time limit and builds the run's certify.Structure (its
graph, distances, fleet, budget and must-visit vertices, checked once), for
greedy too; _plan_round plans one round from it with any planner.  Greedy
runs greedy_plan; tocp and top go through tocp.plan_round, where a round a
certificate, the exact DP or an infeasibility proof answers builds no
model, and the Structure keeps the proof, the certificate (top's cover, or
tocp's walks through every target) and the DP's table for every round after
the first that needs them.  Whichever planner made it, a plan passes
_check_plan (certify.execution_faults) after the round's timer stops and
before its visits are charged, and solve_single_round checks the plan it
returns the same way: a broken rule raises RuntimeError.

A Structure reads no prediction, so episodes whose instances agree on its
inputs can share one: run_episodes runs several instances with one planner
and builds a new structure only when an instance's inputs differ from the
previous one's, and run_episode is its single-instance case.  bench runs a
seed's horizons this way, so each (seed, planner) builds its distances,
proof, certificate, DP table and greedy's distance rows once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from . import milp
from .certify import Structure, execution_faults
from .cost_process import CostState
from .estimator import EstimatorState
from .graph import DEPOT, FleetPlan
from .greedy import UnreachableMustVisitError, greedy_plan
from .instance_io import Instance, instance_graph, instance_id, kappa_table
from .tocp import _build_answered, extract_routes, plan_round

PLANNERS = ("tocp", "top", "greedy")
STATUS_HEURISTIC = "heuristic"


@dataclass
class EpisodeResult:
    instance_id: str
    planner: str
    horizon: int
    residual_costs: List[float]  # leftover cost after each iteration
    total_cost: float
    compute_seconds: List[float]
    statuses: List[str]
    failed: bool
    plans: List[Optional[FleetPlan]] = field(default_factory=list)
    mu_hat_final: List[float] = field(default_factory=list)


def run_episode(
    instance: Instance,
    planner: str,
    time_limit: Optional[float] = None,
    keep_plans: bool = False,
) -> EpisodeResult:
    """Run the full horizon with one planner; returns per-iteration records.

    time_limit bounds each round's MIP solve in seconds; greedy ignores it,
    but a negative or non-finite one raises ValueError for every planner.
    """
    return next(run_episodes([instance], planner, time_limit, keep_plans))


def run_episodes(
    instances: Iterable[Instance],
    planner: str,
    time_limit: Optional[float] = None,
    keep_plans: bool = False,
) -> Iterator[EpisodeResult]:
    """run_episode on each instance in turn, sharing one Structure while the inputs allow.

    An instance reuses the previous one's structure when it agrees on every
    input a Structure reads: N, edges, M, l_max and must_visit; otherwise it
    gets its own.  Only one structure is held at a time.  Each result is
    what run_episode returns on that instance alone, apart from
    compute_seconds: the first episode on a structure pays for what it
    computes on first use.
    """
    structure = inputs = None
    for instance in instances:
        key = (instance.num_vertices, instance.edges, instance.num_agents, instance.l_max,
               instance.must_visit)
        if key != inputs:
            structure = None  # release the old structure before building the next
            structure, inputs = _structure(instance, planner, time_limit), key
        yield _episode(instance, structure, time_limit, keep_plans)


def _episode(
    instance: Instance,
    structure: Structure,
    time_limit: Optional[float],
    keep_plans: bool,
) -> EpisodeResult:
    """One episode on the instance, planned on a structure built from its inputs."""
    cost = CostState(kappa_table(instance))
    est = EstimatorState(instance.num_vertices, instance.mu_default)

    residuals: List[float] = []
    seconds: List[float] = []
    statuses: List[str] = []
    plans: List[Optional[FleetPlan]] = []
    failed = False

    for t in range(1, instance.horizon + 1):
        cost.advance()
        c_hat = est.predicted_cost(t)
        t0 = time.perf_counter()
        if statuses and statuses[-1] == milp.INFEASIBLE:
            plan, status = None, milp.INFEASIBLE
        else:
            plan, status = _plan_round(structure, c_hat, time_limit)
        seconds.append(time.perf_counter() - t0)
        _check_plan(structure, plan, t)
        statuses.append(status)
        if plan is None:
            failed = True
            visited: Set[int] = {DEPOT}
        else:
            visited = plan.visited() | {DEPOT}
        plans.append(plan if keep_plans else None)
        lumps = {v: float(cost.accrued[v]) for v in visited}
        cost.apply_visits(visited, t)
        residuals.append(cost.residual_cost())
        for v in sorted(visited):
            est.observe(v, lumps[v], t)

    return EpisodeResult(
        instance_id=instance_id(instance),
        planner=structure.variant,
        horizon=instance.horizon,
        residual_costs=residuals,
        total_cost=float(sum(residuals)),
        compute_seconds=seconds,
        statuses=statuses,
        failed=failed,
        plans=plans if keep_plans else [],
        mu_hat_final=[float(v) for v in est.mu_hat()[1:]],
    )


def _structure(instance: Instance, planner: str, time_limit: Optional[float]) -> Structure:
    """The run's Structure, after checking the planner name and the time limit."""
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")
    milp.check_time_limit(time_limit)
    graph = instance_graph(instance)
    return Structure(graph, None, instance.num_agents, instance.l_max, instance.must_visit,
                     planner)


def _plan_round(
    structure: Structure, c_hat: np.ndarray, time_limit: Optional[float]
) -> Tuple[Optional[FleetPlan], str]:
    """One round of the structure's planner: (FleetPlan or None, status)."""
    if structure.variant != "greedy":
        return plan_round(structure, c_hat, time_limit)
    s = structure
    try:
        plan = greedy_plan(s.graph, s.dist, c_hat, s.num_agents, s.l_max, s.must)
    except UnreachableMustVisitError:
        return None, milp.INFEASIBLE
    return plan, STATUS_HEURISTIC


def _check_plan(structure: Structure, plan: Optional[FleetPlan], t: int) -> None:
    """RuntimeError naming round t and the broken rules unless plan is None or executable."""
    if plan is not None:
        faults = execution_faults(structure, plan.routes)
        if faults:
            raise RuntimeError(f"round {t}: {structure.variant}'s plan breaks {', '.join(faults)}")


def solve_single_round(
    instance: Instance,
    planner: str,
    iteration: int = 1,
    time_limit: Optional[float] = None,
):
    """Plan one round in isolation, as if nothing had ever been visited.

    Predicted costs come from the untrained estimator (every vertex at the
    prior default rate times the iteration index).  Returns (plan or None,
    status, model stats dict).  The setup is run_episode's: one Structure,
    for greedy too, and the plan passes the episode's check.  Greedy plans
    through the episode's round call and its stats name the planner alone.
    The MIP planners build their model from the same Structure, with
    answer_round's answer attached, even when that answer settles the round,
    since the stats report the model's size and the solver's outcome.
    """
    structure = _structure(instance, planner, time_limit)
    if not 1 <= iteration <= instance.horizon:
        raise ValueError(f"iteration must be in 1..{instance.horizon}")
    c_hat = EstimatorState(instance.num_vertices, instance.mu_default).predicted_cost(iteration)
    if planner == "greedy":
        plan, status = _plan_round(structure, c_hat, time_limit)
        stats = {"planner": planner}
    else:
        model, handles = _build_answered(structure, c_hat)
        solution = milp.solve(model, time_limit=time_limit)
        plan = (extract_routes(solution, handles, structure.graph) if solution.has_assignment
                else None)
        status = solution.status
        stats = {
            "planner": planner,
            "num_variables": model.num_variables,
            "num_constraints": len(model.constraints),
            "status": solution.status,
            "objective": solution.objective_value,
            "gap": solution.gap,
            "node_count": solution.node_count,
            "infeasibility_proof": model.infeasibility_proof,
        }
    _check_plan(structure, plan, iteration)
    return plan, status, stats
