"""Myopic route construction: agents take turns grabbing the best next vertex.

Agents move in round-robin order.  On its turn an agent first serves the
nearest still-unclaimed required vertex it can reach and return home from;
once no required vertex is reachable it chases the best predicted-cost-per-
distance vertex instead, and when nothing worthwhile remains it heads home.
Vertices passed through along the way count as visited and leave the pools,
so later agents do not re-plan trips to them.  Under tocp the round
cascade's certificate is this plan on unit predictions, made once per
episode, when it visits every target (certify.Structure.certified_walks).

Each call sets up once.  The vertices an agent may chase sit in one
ascending candidate list, the non-required vertices of the depot's
component that predict a positive cost, so no move sorts; a vertex that
predicts nothing could never be chosen, and passing through it still claims
it.  A move walks DistanceMatrix.next_hop inline, dropping each vertex it
passes from the list and from the required set, and the agents still out
stay in a list in index order.

The loop reads Python floats: the distances through DistanceMatrix.rows and
c_hat as a list.  Each sum and comparison is the same IEEE double operation,
in the same association order, as on the numpy arrays, so plans and lengths
are bit-for-bit those of an array-indexed loop.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Set

import numpy as np

from .graph import DEPOT, DistanceMatrix, FleetPlan, Graph


class UnreachableMustVisitError(ValueError):
    """A required vertex has no depot round trip within the budget, or greedy left it unserved."""


def greedy_plan(
    graph: Graph,
    dist: DistanceMatrix,
    c_hat: np.ndarray,
    num_agents: int,
    l_max: float,
    must_visit: Sequence[int] = (),
) -> FleetPlan:
    """Build one closed walk per agent under the shared budget.

    All ties break to the lowest vertex index.  Vertices the depot cannot
    reach never enter the candidate list, so every leg weighed is finite.
    Every required vertex must have a round trip within the budget, else the
    instance is rejected; with at most one required vertex per agent that
    also guarantees all of them get served.  With more, the agents may all
    head home with one unserved, and that raises the same error.
    """
    d = dist.rows
    hops = dist.next_hop
    c = c_hat.tolist()
    back = [row[DEPOT] for row in d]
    n = graph.num_vertices
    for v in must_visit:
        trip = d[DEPOT][v] + back[v]
        if trip > l_max or trip == math.inf:  # inf > inf is false under an infinite budget
            raise UnreachableMustVisitError(
                f"must-visit vertex {v} has no round trip within budget {l_max}"
            )
    required: Set[int] = set(int(v) for v in must_visit)
    # The depot's component only: graphs are symmetric, so every leg in it is finite.
    # A vertex predicting nothing is never chased, so it never enters the list.
    candidates = [v for v in range(1, n + 1) if v != DEPOT and d[DEPOT][v] < math.inf
                  and c[v] > 0.0 and v not in required]

    routes: List[List[int]] = [[DEPOT] for _ in range(num_agents)]
    spent = [0.0 for _ in range(num_agents)]
    position = [DEPOT for _ in range(num_agents)]
    active = list(range(num_agents))

    while active:
        still_out = []
        for m in active:
            here, so_far = position[m], spent[m]
            row = d[here]
            # The budget test sums in the order of the spent updates, so the
            # final walk length compares against l_max exactly as it was accumulated.
            reachable_required = [v for v in required if (so_far + row[v]) + back[v] <= l_max]
            if reachable_required:
                goal = min(reachable_required, key=lambda v: (row[v], v))
                required.discard(goal)  # served with no step when it is the depot itself
            else:
                goal = DEPOT
                best_ratio = -math.inf
                for v in candidates:
                    if (so_far + row[v]) + back[v] <= l_max:
                        ratio = c[v] / row[v]
                        if ratio > best_ratio:
                            goal = v
                            best_ratio = ratio
            if reachable_required or goal != DEPOT:  # else the agent heads home for good
                still_out.append(m)
            spent[m] = so_far + row[goal]
            route = routes[m]
            v = here
            while v != goal:
                v = hops[v][goal]
                if v < 0:
                    raise RuntimeError(f"no path {here} -> {goal} despite finite distance")
                route.append(v)
                required.discard(v)
                if v in candidates:
                    candidates.remove(v)
            position[m] = goal
        active = still_out

    if required:
        raise UnreachableMustVisitError(
            f"must-visit vertices {sorted(required)} left unserved within budget {l_max}"
        )
    return FleetPlan(routes=routes, lengths=spent)
