"""Exhaustive ground truth for small instances.

Everything here enumerates; nothing prunes cleverly.  The point is to be
obviously correct so the optimizing code can be checked against it, which is
why the size guards are hard errors rather than warnings: past them the
enumeration stops being trustworthy in reasonable time.  A walk fits the
budget up to milp.FEASIBILITY_TOL over l_max, the slack HiGHS grants a
budget row, so the oracle and the solver agree on the same walks.  As in
the model, every agent leaves the depot in every round: staying home is
never one of the choices enumerated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from patrolopt.graph import DEPOT, DistanceMatrix, Graph, all_pairs_shortest
from patrolopt.instance_io import Instance, instance_graph, kappa_table
from patrolopt.milp import FEASIBILITY_TOL
from patrolopt.tocp import FleetPlan

MAX_VERTICES = 6
MAX_AGENTS = 2
MAX_HORIZON = 3
_MAX_DFS_CALLS = 10_000_000


class OracleSizeError(ValueError):
    """Instance exceeds the sizes the exhaustive search is willing to touch."""


@dataclass
class OracleResult:
    feasible: bool
    reward: float
    plan: Optional[FleetPlan]


def enumerate_closed_walks(
    graph: Graph,
    dist: DistanceMatrix,
    l_max: float,
    vertex_simple: bool = False,
) -> Dict[FrozenSet[int], Tuple[float, Tuple[int, ...]]]:
    """Every achievable visited-set for one agent, with its cheapest witness walk.

    Walks leave the depot once, never reuse a directed edge, and end on their
    first return to the depot.  With vertex_simple they also never revisit a
    non-depot vertex (simple cycles).  Walks are cut off as soon as current
    length plus the shortest way home exceeds the budget.
    """
    lengths = graph.lengths
    results: Dict[FrozenSet[int], Tuple[float, Tuple[int, ...]]] = {
        frozenset([DEPOT]): (0.0, (DEPOT,))
    }
    d_home = dist.dist[:, DEPOT]
    calls = [0]

    def record(length: float, path: Tuple[int, ...]) -> None:
        key = frozenset(path)
        best = results.get(key)
        if best is None or length < best[0]:
            results[key] = (length, path)

    def dfs(v: int, length: float, path: Tuple[int, ...], used, visited) -> None:
        calls[0] += 1
        if calls[0] > _MAX_DFS_CALLS:
            raise OracleSizeError("walk enumeration exploded; instance too large")
        for w in graph.out_neighbors(v):
            edge = (v, w)
            if edge in used:
                continue
            nl = length + lengths[edge]
            if w == DEPOT:
                if nl <= l_max + FEASIBILITY_TOL:
                    record(nl, path + (DEPOT,))
                continue
            if vertex_simple and w in visited:
                continue
            if nl + d_home[w] > l_max + FEASIBILITY_TOL:
                continue
            dfs(w, nl, path + (w,), used | {edge}, visited | {w})

    dfs(DEPOT, 0.0, (DEPOT,), frozenset(), frozenset())
    return results


def brute_force_single_iteration(
    graph: Graph,
    c_hat: np.ndarray,
    num_agents: int,
    l_max: float,
    must_visit: Sequence[int] = (),
    variant: str = "tocp",
    dist: Optional[DistanceMatrix] = None,
) -> OracleResult:
    """Best one-round fleet reward by trying every combination of agent walks.

    Under "top" each agent's walk is a simple cycle and no non-depot vertex is
    shared between agents.  Ties keep the first combination in enumeration
    order (visited-sets sorted, so this is deterministic).
    """
    n = graph.num_vertices
    if n > MAX_VERTICES:
        raise OracleSizeError(f"N={n} exceeds oracle limit {MAX_VERTICES}")
    if num_agents > MAX_AGENTS:
        raise OracleSizeError(f"M={num_agents} exceeds oracle limit {MAX_AGENTS}")
    if variant not in ("tocp", "top"):
        raise ValueError(f"unknown variant {variant!r}")
    if dist is None:
        dist = all_pairs_shortest(graph)
    walks = enumerate_closed_walks(graph, dist, l_max, vertex_simple=(variant == "top"))
    keys = sorted((s for s in walks if len(s) > 1), key=lambda s: tuple(sorted(s)))
    must = frozenset(int(v) for v in must_visit)
    c_hat = np.asarray(c_hat, dtype=float)

    def reward_of(visited: FrozenSet[int]) -> float:
        return float(sum(c_hat[v] for v in sorted(visited) if v != DEPOT))

    best_reward = -np.inf
    best_combo: Optional[Tuple[FrozenSet[int], ...]] = None
    for combo in itertools.product(keys, repeat=num_agents):
        if variant == "top":
            claimed: set = set()
            clash = False
            for s in combo:
                body = set(s) - {DEPOT}
                if claimed & body:
                    clash = True
                    break
                claimed |= body
            if clash:
                continue
        union = frozenset().union(*combo)
        if not must <= union:
            continue
        r = reward_of(union)
        if r > best_reward:
            best_reward = r
            best_combo = combo
    if best_combo is None:
        return OracleResult(feasible=False, reward=-np.inf, plan=None)
    routes = [list(walks[s][1]) for s in best_combo]
    lengths = [walks[s][0] for s in best_combo]
    return OracleResult(
        feasible=True,
        reward=best_reward,
        plan=FleetPlan(routes=routes, lengths=lengths),
    )


def _episode_cost_for_choices(
    kappa: np.ndarray, choices: Sequence[FrozenSet[int]]
) -> float:
    """Total leftover cost over the horizon when the fleet covers these sets."""
    n = kappa.shape[0] - 1
    accrued = np.zeros(n + 1)
    total = 0.0
    for t, visited in enumerate(choices, start=1):
        accrued[1:] += kappa[1:, t]
        for v in visited:
            accrued[v] = 0.0
        total += accrued[1:].sum()
    return float(total)


def brute_force_horizon(
    instance: Instance,
    dist: Optional[DistanceMatrix] = None,
) -> Tuple[float, List[FleetPlan]]:
    """Minimum total leftover cost over the whole horizon, single agent only.

    Enumerates one achievable visited-set per iteration, jointly over all
    iterations, so it captures plans that sacrifice the current round to set
    up a better split of the graph (which per-round planning cannot).
    """
    n = instance.num_vertices
    if n > MAX_VERTICES:
        raise OracleSizeError(f"N={n} exceeds oracle limit {MAX_VERTICES}")
    if instance.num_agents != 1:
        raise OracleSizeError("horizon oracle only handles a single agent")
    if instance.horizon > MAX_HORIZON:
        raise OracleSizeError(f"H={instance.horizon} exceeds oracle limit {MAX_HORIZON}")
    graph = instance_graph(instance)
    if dist is None:
        dist = all_pairs_shortest(graph)
    walks = enumerate_closed_walks(graph, dist, instance.l_max)
    keys = sorted((s for s in walks if len(s) > 1), key=lambda s: tuple(sorted(s)))
    must = frozenset(instance.must_visit)
    if must:
        keys = [s for s in keys if must <= s]
        if not keys:
            raise OracleSizeError("no achievable set covers the required vertices")
    kappa = kappa_table(instance)
    best_cost = np.inf
    best_seq: Optional[Tuple[FrozenSet[int], ...]] = None
    for seq in itertools.product(keys, repeat=instance.horizon):
        cost = _episode_cost_for_choices(kappa, seq)
        if cost < best_cost:
            best_cost = cost
            best_seq = seq
    assert best_seq is not None
    plans = [
        FleetPlan(routes=[list(walks[s][1])], lengths=[walks[s][0]]) for s in best_seq
    ]
    return best_cost, plans


def chained_per_iteration(
    instance: Instance, dist: Optional[DistanceMatrix] = None
) -> Tuple[float, List[FleetPlan]]:
    """Episode cost when each round is solved optimally against the true accrued costs.

    This is the round-by-round decomposition with perfect knowledge: no
    estimation error, only the myopia of planning one round at a time.
    """
    graph = instance_graph(instance)
    if dist is None:
        dist = all_pairs_shortest(graph)
    kappa = kappa_table(instance)
    n = instance.num_vertices
    accrued = np.zeros(n + 1)
    total = 0.0
    plans: List[FleetPlan] = []
    for t in range(1, instance.horizon + 1):
        accrued[1:] += kappa[1:, t]
        result = brute_force_single_iteration(
            graph,
            accrued,
            instance.num_agents,
            instance.l_max,
            instance.must_visit,
            variant="tocp",
            dist=dist,
        )
        if not result.feasible:
            raise OracleSizeError("no feasible round plan; required vertices unreachable")
        assert result.plan is not None
        for v in result.plan.visited():
            accrued[v] = 0.0
        total += accrued[1:].sum()
        plans.append(result.plan)
    return float(total), plans
