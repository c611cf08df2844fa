"""Team patrol route optimization as a mixed-integer program.

One planning round: a fleet of M agents starts and ends at the depot, each
within a shared travel budget, and the fleet maximizes the predicted cost
collected over the vertices anybody visits.  Vertices may be traversed and
visited repeatedly by default; ``build_top`` adds the classical
one-traversal-per-vertex restriction, which is strictly weaker on graphs
where high-value vertices sit behind a cut vertex.

Model shape per agent m over directed edges (i, j):
  * x_ijm        binary edge traversal
  * y_im         binary "agent m visits vertex i"
  * z_i          binary "somebody visits vertex i" (objective carrier)
  * u_ijm        continuous connectivity flow
Constraints: every agent leaves and re-enters the depot exactly once, so no
agent idles; traversal/visit coupling with a big-M of l_max over the
shortest edge, per-vertex flow balance, the travel budget, and a
single-commodity flow (capped at N per edge) that leaves the depot carrying
one unit per visited vertex and drops one at each, which rules out subtours
detached from the depot.  Every row is "<=" or "=".

Certified rounds: ``build_tocp`` also runs the greedy planner on c_hat and
attaches its plan, repaired and encoded, as the model's certificate, but
only when that plan visits every vertex whose depot round trip fits the
budget (within the solver's feasibility tolerance).  With c_hat >= 0 such a
plan collects the sum of c_hat over those vertices, and no plan can collect
more, so ``milp.solve`` returns it as optimal without calling HiGHS once it
checks out against every row.  Ties therefore break towards visiting: a
certified round visits everything reachable, zero-valued vertices included.
Greedy walks rarely satisfy the single-visit rule, so ``build_top`` builds
its certificate differently: one simple depot cycle per agent, no two
sharing a non-depot vertex, grown by farthest insertion until together they
visit the same reachable set (see cover_certificate).

Encoding a certificate needs no solver: once an agent's closed walk is
fixed, so is its flow.  The p-th edge of the walk carries one unit for each
non-depot vertex the walk first enters after position p, which meets every
flow row exactly (see plan_to_assignment).  A candidate whose assignment
breaks any row is dropped before it becomes a certificate.

Proven-infeasible rounds: a round without a certificate is checked for
reasons no plan can exist (see infeasibility_proof), such as a must-visit
vertex beyond every depot round trip or, under ``top``, on no simple depot
cycle within the budget.  The model records the reason and ``milp.solve``
reports the round infeasible without calling HiGHS.

Exact rounds: a round with neither a certificate nor a proof goes to the
Held–Karp DP of ``heldkarp.best_round`` when its table is small enough.  Its
optimal walks, with doubled edges simplified away, become the certificate
and its value the bound (see exact_certificate), so ``milp.solve`` checks
them like any other certificate; when no union of tours covers the
must-visit vertices, that is the proof.  Its tie rule takes the largest
optimal vertex set, then the lowest bitmask.  Only rounds above the DP's cost
cap, or whose optimal walks end up over l_max or do not encode, reach HiGHS.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import heldkarp
from .graph import (
    DEPOT,
    DistanceMatrix,
    Graph,
    all_pairs_shortest,
    depot_free_shortest,
    reachable_round_trip,
    validate,
    walk_length,
)
from .milp import FEASIBILITY_TOL, MilpModel, MilpSolution, ModelError, check_assignment


class RouteIntegrityError(ValueError):
    """A solver assignment does not decompose into closed walks from the depot."""


class UnreachableMustVisitError(ValueError):
    """A required vertex has no depot round trip within the budget (greedy_plan)."""


@dataclass
class FleetPlan:
    """One closed walk per agent, depot to depot; [1] alone means the agent stays home."""

    routes: List[List[int]]
    lengths: List[float]

    @property
    def num_agents(self) -> int:
        return len(self.routes)

    def visited(self) -> Set[int]:
        out: Set[int] = {DEPOT}
        for route in self.routes:
            out.update(route)
        return out

    def reward(self, c_hat: np.ndarray) -> float:
        return float(sum(c_hat[v] for v in sorted(self.visited()) if v != DEPOT))


@dataclass
class VariableHandles:
    """Index maps from (vertex/edge, agent) keys into the flat variable vector."""

    x: Dict[Tuple[int, int, int], int]
    y: Dict[Tuple[int, int], int]
    z: Dict[int, int]
    u: Dict[Tuple[int, int, int], int]
    num_agents: int
    l_max: float
    big_m: float
    must_visit: Tuple[int, ...]
    variant: str


def build_tocp(
    graph: Graph,
    c_hat: np.ndarray,
    num_agents: int,
    l_max: float,
    must_visit: Sequence[int] = (),
    *,
    dist: Optional[DistanceMatrix] = None,
) -> Tuple[MilpModel, VariableHandles]:
    """Build the repeat-visit model; returns the model and its variable handles.

    The model carries a greedy certificate when one exists (see
    greedy_certificate), so milp.solve can skip the search on it.  Without
    one it may carry an infeasibility proof instead (see
    infeasibility_proof): a must-visit vertex whose depot round trip, finite
    or not, exceeds l_max, or no depot neighbour an agent can leave by and
    still get home.  milp.solve then reports infeasible without search.
    Failing both, the exact DP supplies the certificate or the proof (see
    _settle_uncertified).
    """
    model, handles = _build_fleet_model(graph, c_hat, num_agents, l_max, must_visit)
    if dist is None:
        dist = all_pairs_shortest(graph)
    c_hat = np.asarray(c_hat, dtype=float)
    model.certificate = greedy_certificate(graph, dist, c_hat, model, handles)
    _settle_uncertified(graph, dist, c_hat, model, handles)
    return model, handles


def _build_fleet_model(
    graph: Graph,
    c_hat: np.ndarray,
    num_agents: int,
    l_max: float,
    must_visit: Sequence[int],
) -> Tuple[MilpModel, VariableHandles]:
    """The repeat-visit rows and variables shared by build_tocp and build_top."""
    problem = validate(graph)
    if problem is not None:
        raise ModelError(f"graph invalid: {problem}")
    n = graph.num_vertices
    m_count = int(num_agents)
    if m_count < 1:
        raise ModelError("need at least one agent")
    if l_max <= 0:
        raise ModelError("travel budget must be positive")
    c_hat = np.asarray(c_hat, dtype=float)
    if c_hat.shape != (n + 1,):
        raise ModelError(f"c_hat must have shape ({n + 1},)")
    must = tuple(sorted(set(int(v) for v in must_visit)))
    for v in must:
        if not 2 <= v <= n:
            raise ModelError(f"must-visit vertex {v} out of range (depot excluded)")

    edges = [e for e, _ in graph.edge_items()]
    big_m = l_max / graph.min_edge_length()
    flow_cap = float(n)

    model = MilpModel(name="tocp")
    x: Dict[Tuple[int, int, int], int] = {}
    y: Dict[Tuple[int, int], int] = {}
    z: Dict[int, int] = {}
    u: Dict[Tuple[int, int, int], int] = {}
    for m in range(1, m_count + 1):
        for (i, j) in edges:
            x[(i, j, m)] = model.add_binary(f"x_{i}_{j}_{m}")
    for m in range(1, m_count + 1):
        for i in range(1, n + 1):
            y[(i, m)] = model.add_binary(f"y_{i}_{m}")
    for i in range(1, n + 1):
        z[i] = model.add_binary(f"z_{i}")
    for m in range(1, m_count + 1):
        for (i, j) in edges:
            u[(i, j, m)] = model.add_continuous(f"u_{i}_{j}_{m}", 0.0, flow_cap)

    out_edges: Dict[int, List[Tuple[int, int]]] = {i: [] for i in range(1, n + 1)}
    in_edges: Dict[int, List[Tuple[int, int]]] = {i: [] for i in range(1, n + 1)}
    for (i, j) in edges:
        out_edges[i].append((i, j))
        in_edges[j].append((i, j))

    for i in range(2, n + 1):
        model.set_objective_coefficient(z[i], float(c_hat[i]))

    for m in range(1, m_count + 1):
        # Depot departure/return: exactly once per agent.
        model.add_constraint(
            [(x[(e[0], e[1], m)], 1.0) for e in out_edges[DEPOT]],
            "=",
            1.0,
            name=f"depot_out_{m}",
        )
        model.add_constraint(
            [(x[(e[0], e[1], m)], 1.0) for e in in_edges[DEPOT]],
            "=",
            1.0,
            name=f"depot_in_{m}",
        )
        # Per-vertex traversal balance: arrivals equal departures everywhere.
        for i in range(1, n + 1):
            terms = [(x[(e[0], e[1], m)], 1.0) for e in out_edges[i]]
            terms += [(x[(e[0], e[1], m)], -1.0) for e in in_edges[i]]
            model.add_constraint(terms, "=", 0.0, name=f"balance_{i}_{m}")
        # Visit/traversal coupling: visiting requires departing at least once,
        # and any departure forces the visit flag on.  (Balance makes the
        # incoming version equivalent.)
        for i in range(1, n + 1):
            outgoing = [(x[(e[0], e[1], m)], 1.0) for e in out_edges[i]]
            model.add_constraint(
                [(y[(i, m)], 1.0)] + [(idx, -coef) for idx, coef in outgoing],
                "<=",
                0.0,
                name=f"visit_lb_{i}_{m}",
            )
            model.add_constraint(
                outgoing + [(y[(i, m)], -big_m)],
                "<=",
                0.0,
                name=f"visit_ub_{i}_{m}",
            )
        # Travel budget.
        model.add_constraint(
            [(x[(i, j, m)], graph.lengths[(i, j)]) for (i, j) in edges],
            "<=",
            float(l_max),
            name=f"budget_{m}",
        )
        # Connectivity flow: the depot sends one unit per vertex the agent
        # visits, each visited vertex keeps one, and flow only moves on
        # traversed edges.  Any subtour avoiding the depot would starve.
        src_terms = [(u[(e[0], e[1], m)], 1.0) for e in out_edges[DEPOT]]
        src_terms += [(u[(e[0], e[1], m)], -1.0) for e in in_edges[DEPOT]]
        src_terms += [(y[(i, m)], -1.0) for i in range(2, n + 1)]
        model.add_constraint(src_terms, "=", 0.0, name=f"flow_src_{m}")
        for i in range(2, n + 1):
            terms = [(u[(e[0], e[1], m)], 1.0) for e in in_edges[i]]
            terms += [(u[(e[0], e[1], m)], -1.0) for e in out_edges[i]]
            terms.append((y[(i, m)], -1.0))
            model.add_constraint(terms, "=", 0.0, name=f"flow_use_{i}_{m}")
        for (i, j) in edges:
            model.add_constraint(
                [(u[(i, j, m)], 1.0), (x[(i, j, m)], -flow_cap)],
                "<=",
                0.0,
                name=f"flow_cap_{i}_{j}_{m}",
            )

    # Anyone-visits coupling between y and z.
    for i in range(1, n + 1):
        model.add_constraint(
            [(z[i], 1.0)] + [(y[(i, m)], -1.0) for m in range(1, m_count + 1)],
            "<=",
            0.0,
            name=f"any_visit_lb_{i}",
        )
        model.add_constraint(
            [(y[(i, m)], 1.0) for m in range(1, m_count + 1)] + [(z[i], -float(m_count))],
            "<=",
            0.0,
            name=f"any_visit_ub_{i}",
        )

    for v in must:
        model.add_constraint([(z[v], 1.0)], "=", 1.0, name=f"must_visit_{v}")

    handles = VariableHandles(
        x=x,
        y=y,
        z=z,
        u=u,
        num_agents=m_count,
        l_max=float(l_max),
        big_m=big_m,
        must_visit=must,
        variant="tocp",
    )
    return model, handles


def build_top(
    graph: Graph,
    c_hat: np.ndarray,
    num_agents: int,
    l_max: float,
    must_visit: Sequence[int] = (),
    *,
    dist: Optional[DistanceMatrix] = None,
) -> Tuple[MilpModel, VariableHandles]:
    """Single-visit variant: each non-depot vertex is entered at most once in total.

    Same variable layout as build_tocp plus one row per vertex, so routes
    cannot pass through an already-visited vertex, not even another agent's.
    The model carries a cycle-cover certificate when one is found (see
    cover_certificate), and otherwise may carry an infeasibility proof (see
    infeasibility_proof), which here also covers a must-visit vertex that
    lies on no simple depot cycle within l_max.  Failing both, the exact DP
    over disjoint simple cycles supplies either (see _settle_uncertified).
    """
    model, handles = _build_fleet_model(graph, c_hat, num_agents, l_max, must_visit)
    model.name = "top"
    n = graph.num_vertices
    in_edges: Dict[int, List[Tuple[int, int]]] = {i: [] for i in range(1, n + 1)}
    for (i, j), _ in graph.edge_items():
        in_edges[j].append((i, j))
    for i in range(2, n + 1):
        terms = [
            (handles.x[(e[0], e[1], m)], 1.0)
            for m in range(1, handles.num_agents + 1)
            for e in in_edges[i]
        ]
        model.add_constraint(terms, "<=", 1.0, name=f"visit_once_{i}")
    handles.variant = "top"
    if dist is None:
        dist = all_pairs_shortest(graph)
    c_hat = np.asarray(c_hat, dtype=float)
    model.certificate = cover_certificate(graph, dist, c_hat, model, handles)
    _settle_uncertified(graph, dist, c_hat, model, handles)
    return model, handles


def _settle_uncertified(
    graph: Graph,
    dist: DistanceMatrix,
    c_hat: np.ndarray,
    model: MilpModel,
    handles: VariableHandles,
) -> None:
    """Try the infeasibility proof, then the exact DP, on a round without a certificate.

    The DP's optimum becomes the certificate, its absence of any covering
    union the proof; a round above its cost cap, or whose optimal walks do
    not fit the model, keeps neither and goes to HiGHS.
    """
    if model.certificate is not None:
        return
    model.infeasibility_proof = infeasibility_proof(graph, dist, handles)
    if model.infeasibility_proof is not None:
        return
    answer = heldkarp.best_round(
        graph, dist, c_hat, handles.num_agents, handles.l_max, handles.must_visit,
        single_visit=handles.variant == "top",
    )
    if isinstance(answer, str):
        model.infeasibility_proof = answer
    elif answer is not None:
        model.certificate = exact_certificate(answer, graph, model, handles)


def extract_routes(
    solution: MilpSolution, handles: VariableHandles, graph: Graph
) -> FleetPlan:
    """Turn an integral assignment into one closed walk per agent.

    Each agent's selected edges must form a single closed trail through the
    depot; an agent with no edge, leftovers or an open walk raise
    RouteIntegrityError.  Ties in the
    stitching order go to the lowest-numbered neighbor, so the result is
    deterministic for a given assignment.
    """
    if solution.assignment is None:
        raise RouteIntegrityError(f"solution has no assignment (status {solution.status})")
    assign = solution.assignment
    routes: List[List[int]] = []
    lengths: List[float] = []
    for m in range(1, handles.num_agents + 1):
        chosen = sorted(
            (i, j) for (i, j, mm), idx in handles.x.items() if mm == m and assign[idx] > 0.5
        )
        route = _stitch_closed_walk(chosen, start=DEPOT)
        routes.append(route)
        lengths.append(walk_length(graph, route))
    return FleetPlan(routes=routes, lengths=lengths)


def _stitch_closed_walk(edges: List[Tuple[int, int]], start: int) -> List[int]:
    """Hierholzer's algorithm for a single closed trail using every edge once."""
    adj: Dict[int, List[int]] = {}
    for (i, j) in sorted(edges, reverse=True):
        adj.setdefault(i, []).append(j)  # descending, so list.pop() yields smallest
    if start not in adj:
        raise RouteIntegrityError(f"selected edges never leave vertex {start}")
    stack = [start]
    circuit: List[int] = []
    while stack:
        v = stack[-1]
        if adj.get(v):
            stack.append(adj[v].pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    if circuit[0] != start or circuit[-1] != start:
        raise RouteIntegrityError("stitched walk does not start and end at the depot")
    used = len(circuit) - 1
    if used != len(edges):
        raise RouteIntegrityError(
            f"selected edges are disconnected: walk used {used} of {len(edges)}"
        )
    return circuit


def simplify_walk(route: List[int]) -> List[int]:
    """Rewrite a closed walk so no directed edge is traversed twice.

    When an edge (a, b) appears at two positions, the stretch between the two
    traversals is reversed (every road is two-way, so the reversed stretch is
    walkable) and both traversals drop out.  Each rewrite shortens the walk by
    twice that edge's length and keeps the visited vertex set intact, so
    repeating until no duplicate remains terminates.
    """
    route = list(route)
    while True:
        first_pos: Dict[Tuple[int, int], int] = {}
        dup: Optional[Tuple[int, int]] = None
        for p, (a, b) in enumerate(zip(route, route[1:])):
            if (a, b) in first_pos:
                dup = (first_pos[(a, b)], p)
                break
            first_pos[(a, b)] = p
        if dup is None:
            return route
        p1, p2 = dup
        middle = route[p1 + 1 : p2 + 1]  # runs from b ... a
        route = route[: p1 + 1] + middle[::-1][1:] + route[p2 + 2 :]


def plan_to_assignment(
    plan: FleetPlan, model: MilpModel, handles: VariableHandles
) -> Optional[np.ndarray]:
    """Encode a fleet plan as a full solver assignment, or None if it cannot be.

    Only plans whose walks use each directed edge at most once fit the binary
    edge variables.  The flow is fixed by the order of each walk: its p-th
    edge carries one unit for every non-depot vertex the walk first enters
    after position p, so the depot sends one unit per visited vertex and each
    keeps one where the walk first reaches it.  An assignment that breaks a
    row (an idle agent under the exactly-one depot departure, a pass through
    the depot mid-walk, say) is None too.  The certificates encode their
    candidate plans with it, so failure is an answer, not an error.
    """
    assign = np.zeros(model.num_variables)
    for m, route in enumerate(plan.routes, start=1):
        if len(route) == 1:
            continue  # parked at the depot: no traversal, so no visit flags
        edges = list(zip(route, route[1:]))
        if len(set(edges)) < len(edges) or any((a, b, m) not in handles.x for a, b in edges):
            return None
        unseen = set(route) - {DEPOT}
        for a, b in edges:
            unseen.discard(a)
            assign[handles.x[(a, b, m)]] = 1.0
            assign[handles.u[(a, b, m)]] = len(unseen)
        for v in set(route):
            assign[handles.y[(v, m)]] = 1.0
            assign[handles.z[v]] = 1.0
    if check_assignment(model, assign):
        return None
    return assign


def repair_walk(route: List[int], graph: Graph) -> Optional[List[int]]:
    """Reshape a closed walk into one the model can encode, or None if that fails.

    The model allows one depot departure per agent and each directed edge at
    most once.  Doubled edges go by simplify_walk.  A pass through the depot
    mid-walk, x, 1, y, becomes the shortest x -> y path that avoids the depot,
    and a bounce x, 1, x becomes x; with no such path the walk is beyond
    repair.  The visited set never shrinks, but the walk may get longer.
    """
    route = simplify_walk(route)
    if DEPOT not in route[1:-1]:
        return route
    around = depot_free_shortest(graph)
    out = [DEPOT]
    k = 1
    while k < len(route) - 1:
        if route[k] != DEPOT:
            out.append(route[k])
            k += 1
            continue
        x, y = out[-1], route[k + 1]
        if x != y:
            path = around.shortest_path(x, y)
            if path is None:
                return None
            out.extend(path[1:])
        k += 2
    out.append(DEPOT)
    return simplify_walk(out)


def greedy_certificate(
    graph: Graph,
    dist: DistanceMatrix,
    c_hat: np.ndarray,
    model: MilpModel,
    handles: VariableHandles,
) -> Optional[Tuple[np.ndarray, float]]:
    """The greedy plan as a full assignment plus the bound it reaches, or None.

    The bound sums c_hat over every vertex whose depot round trip fits the
    budget, with the solver's feasibility slack added, since HiGHS accepts a
    walk that far over l_max.  A greedy plan that visits all of those
    vertices collects the bound when c_hat >= 0, so no plan can beat it.
    Greedy plans that miss one are dropped.  That fixes the tie rule: a
    certified round visits everything reachable, zero-valued vertices too.
    Routes pass through repair_walk.
    """
    from .greedy import greedy_plan  # greedy imports FleetPlan from this module

    reachable = reachable_round_trip(graph, dist, handles.l_max + FEASIBILITY_TOL)
    try:
        plan = greedy_plan(
            graph, dist, c_hat, handles.num_agents, handles.l_max, handles.must_visit
        )
    except UnreachableMustVisitError:
        return None
    if not reachable <= plan.visited():
        return None
    repaired = [repair_walk(route, graph) if len(route) > 1 else route
                for route in plan.routes]
    if None in repaired:
        return None
    return _certificate(repaired, _round_trip_bound(c_hat, reachable), graph, model, handles)


def cover_certificate(
    graph: Graph,
    dist: DistanceMatrix,
    c_hat: np.ndarray,
    model: MilpModel,
    handles: VariableHandles,
) -> Optional[Tuple[np.ndarray, float]]:
    """A vertex-disjoint cycle cover as a full assignment plus its bound, or None.

    The targets are the vertices greedy_certificate must visit: every vertex
    whose depot round trip fits the budget plus the solver's feasibility
    slack.  Each agent gets one simple depot cycle and no two cycles share a
    non-depot vertex, so the cover satisfies the single-visit rows; when it
    visits every target it reaches the same round-trip bound.  A required
    vertex outside the targets makes the round infeasible, so it gets no
    certificate.

    Each agent needs its own first vertex, so the candidates are the depot
    neighbours whose out-and-back fits l_max, sorted by (edge length,
    index).  The M nearest are tried first as start vertices, then every set
    that swaps one of them for a farther candidate: 1 + M(d - M) sets for d
    candidates, each grown by _insertion_cover until one covers everything.
    """
    reachable = reachable_round_trip(graph, dist, handles.l_max + FEASIBILITY_TOL)
    targets = reachable - {DEPOT}
    firsts = sorted(
        (v for v in graph.out_neighbors(DEPOT) if 2 * graph.lengths[(DEPOT, v)] <= handles.l_max),
        key=lambda v: (graph.lengths[(DEPOT, v)], v),
    )
    m_count = handles.num_agents
    if len(firsts) < m_count or not targets.issuperset(handles.must_visit):
        return None
    nearest = firsts[:m_count]
    start_sets = [nearest] + [
        nearest[:k] + [far] + nearest[k + 1:]
        for far in firsts[m_count:]
        for k in reversed(range(m_count))
    ]
    for starts in start_sets:
        routes = _insertion_cover(graph, targets, starts, handles.l_max)
        if routes is not None:
            return _certificate(routes, _round_trip_bound(c_hat, reachable), graph, model,
                                handles)
    return None


def _insertion_cover(
    graph: Graph, targets: Set[int], starts: List[int], l_max: float
) -> Optional[List[List[int]]]:
    """Grow out-and-backs [1, v, 1] into disjoint simple cycles covering targets, or None.

    An uncovered vertex w is inserted between consecutive route vertices
    (a, b) by the shortest a -> w path through uncovered vertices, then the
    shortest w -> b path through uncovered vertices off the first path; its
    cost is their length minus the edge (a, b), and the route must stay
    within l_max.  Every step inserts the vertex whose cheapest insertion is
    dearest (farthest insertion; ties to the lowest index), which covers the
    whole detour.  The attempt fails once some uncovered vertex has no
    insertion at all.
    """
    routes = [[DEPOT, v, DEPOT] for v in starts]
    lengths = [walk_length(graph, route) for route in routes]
    uncovered = set(targets) - set(starts)
    while uncovered:
        # The graph is symmetric, so reversing the shortest b -> w path gives
        # the shortest w -> b one.
        on_routes = {a for route in routes for a in route}
        trees = {a: _paths_through(graph, a, uncovered) for a in on_routes}
        choice = None
        for w in sorted(uncovered):
            cheapest = None
            for m, route in enumerate(routes):
                for p, (a, b) in enumerate(zip(route, route[1:])):
                    if w not in trees[a] or w not in trees[b]:
                        continue
                    to_w, path_in = trees[a][w]
                    from_w, path_back = trees[b][w]
                    path_out = path_back[::-1]
                    if set(path_in[1:-1]) & set(path_out[1:-1]):
                        off = _paths_through(graph, w, uncovered - set(path_in))
                        if b not in off:
                            continue
                        from_w, path_out = off[b]
                    cost = to_w + from_w - graph.lengths[(a, b)]
                    if lengths[m] + cost <= l_max and (cheapest is None or cost < cheapest[0]):
                        cheapest = (cost, m, p, path_in + path_out[1:])
            if cheapest is None:
                return None
            if choice is None or cheapest[0] > choice[0]:
                choice = cheapest
        _, m, p, detour = choice
        routes[m] = routes[m][:p] + detour + routes[m][p + 2:]
        lengths[m] = walk_length(graph, routes[m])
        uncovered -= set(detour)
    return routes


def _paths_through(
    graph: Graph, source: int, through: Set[int]
) -> Dict[int, Tuple[float, List[int]]]:
    """Shortest paths from source whose intermediate vertices all lie in through.

    Maps each vertex reached to (length, path from source).  Dijkstra that
    only expands the source and vertices of through; ties keep the path
    found first.
    """
    best: Dict[int, Tuple[float, List[int]]] = {source: (0.0, [source])}
    heap = [(0.0, source)]
    done: Set[int] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        path = best[v][1]
        for u in graph.out_neighbors(v):
            nd = d + graph.lengths[(v, u)]
            if u not in best or nd < best[u][0]:
                best[u] = (nd, path + [u])
                if u in through:
                    heapq.heappush(heap, (nd, u))
    return best


def exact_certificate(
    optimum: heldkarp.RoundOptimum,
    graph: Graph,
    model: MilpModel,
    handles: VariableHandles,
) -> Optional[Tuple[np.ndarray, float]]:
    """The DP's optimal walks as a full assignment plus the DP value, or None.

    Each walk loses its doubled edges to simplify_walk.  Under top the DP
    already gave every agent its own cycle.
    """
    routes = [simplify_walk(walk) for walk in optimum.walks]
    return _certificate(routes, optimum.value, graph, model, handles)


def _cheapest_out_and_back(graph: Graph) -> Optional[List[int]]:
    """[1, v, 1] over the shortest depot edge, or None when the depot has none."""
    hops = graph.out_neighbors(DEPOT)
    if not hops:
        return None
    return [DEPOT, min(hops, key=lambda v: graph.lengths[(DEPOT, v)]), DEPOT]


def _round_trip_bound(c_hat: np.ndarray, reachable: Set[int]) -> float:
    """Sum of the positive c_hat over reachable: no plan collects more."""
    return float(sum(max(float(c_hat[v]), 0.0) for v in sorted(reachable) if v != DEPOT))


def _certificate(
    routes: List[List[int]],
    bound: float,
    graph: Graph,
    model: MilpModel,
    handles: VariableHandles,
) -> Optional[Tuple[np.ndarray, float]]:
    """Closed walks encoded as (assignment, bound), or None if they do not fit.

    Agents without a walk ([1], or missing from the end of routes) take the
    cheapest depot out-and-back, since every agent must leave the depot.
    Walks over l_max or ones the model cannot encode give no certificate.
    """
    routes = routes + [[DEPOT]] * (handles.num_agents - len(routes))
    routes = [_cheapest_out_and_back(graph) if len(r) == 1 else r for r in routes]
    if None in routes:
        return None
    plan = FleetPlan(routes=routes, lengths=[walk_length(graph, r) for r in routes])
    if any(length > handles.l_max for length in plan.lengths):
        return None
    assignment = plan_to_assignment(plan, model, handles)
    if assignment is None:
        return None
    return assignment, bound


def infeasibility_proof(
    graph: Graph, dist: DistanceMatrix, handles: VariableHandles
) -> Optional[str]:
    """Why no plan can satisfy the model's rows, or None when no reason is found.

    Each test compares a lower bound on some walk the rows force against
    l_max plus the solver's feasibility slack, the same slack the
    certificates grant, so a proof never rejects a plan HiGHS would accept:
      * a must-visit vertex v whose depot round trip d(1, v) + d(v, 1) is
        over the limit (inf when there is none);
      * fewer depot neighbours w with len(1, w) + d(w, 1) within the limit
        than the agents need as first vertices: one for tocp, where agents
        may share one, and M for top, where nobody enters a vertex twice;
      * top only: a must-visit v on no simple depot cycle within the limit.
        Each agent's walk is a simple cycle through the depot, so the
        shortest one through v is [1, v, 1] or the cheapest pair of
        internally vertex-disjoint depot -> v paths (_disjoint_pair_length).
    """
    limit = handles.l_max + FEASIBILITY_TOL
    d = dist.dist
    for v in handles.must_visit:
        if d[DEPOT, v] + d[v, DEPOT] > limit:
            return (f"must-visit vertex {v} has no depot round trip within l_max: "
                    f"{d[DEPOT, v] + d[v, DEPOT]} > {handles.l_max}")
    single_visit = handles.variant == "top"
    need = handles.num_agents if single_visit else 1
    firsts = [w for w in graph.out_neighbors(DEPOT)
              if graph.lengths[(DEPOT, w)] + d[w, DEPOT] <= limit]
    if len(firsts) < need:
        return (f"{len(firsts)} depot neighbours can start a walk within l_max "
                f"{handles.l_max}; the agents need {need}")
    if single_visit:
        for v in handles.must_visit:
            cycle = _disjoint_pair_length(graph, v)
            if (DEPOT, v) in graph.lengths:
                cycle = min(cycle, 2 * graph.lengths[(DEPOT, v)])
            if cycle > limit:
                return (f"must-visit vertex {v} lies on no simple depot cycle within "
                        f"l_max: {cycle} > {handles.l_max}")
    return None


def _disjoint_pair_length(graph: Graph, v: int) -> float:
    """Total length of the cheapest two internally vertex-disjoint depot -> v paths.

    inf when there is no such pair.  Suurballe's algorithm (Networks 4,
    1974): a 2-unit min-cost flow from the depot to v in which every other
    vertex u is split into an in node u and an out node u + n joined by a
    unit arc, so no two paths share it.  The second augmentation searches
    the residual graph with the first search's distances as potentials,
    which keeps every reduced arc cost non-negative, so both are Dijkstra.
    """
    n = graph.num_vertices
    heads: List[int] = []
    caps: List[int] = []
    costs: List[float] = []
    leaving: Dict[int, List[int]] = {}

    def add_arc(tail: int, head: int, cost: float) -> None:
        # arc k's residual reverse is arc k ^ 1
        for a, b, cap, c in ((tail, head, 1, cost), (head, tail, 0, -cost)):
            leaving.setdefault(a, []).append(len(heads))
            heads.append(b)
            caps.append(cap)
            costs.append(c)

    for u in range(2, n + 1):
        if u != v:
            add_arc(u, u + n, 0.0)
    for (a, b), length in graph.edge_items():
        if a != v and b != DEPOT:
            add_arc(a if a == DEPOT else a + n, b, length)

    potential: Dict[int, float] = {}
    total = 0.0
    for _ in range(2):
        best = {DEPOT: 0.0}
        via: Dict[int, int] = {}
        heap = [(0.0, DEPOT)]
        done: Set[int] = set()
        while heap:
            dist_a, a = heapq.heappop(heap)
            if a in done:
                continue
            done.add(a)
            for k in leaving.get(a, ()):
                b = heads[k]
                if not caps[k] or b in done:
                    continue
                # clamped at 0 against rounding in the potentials
                reduced = max(0.0, costs[k] + potential.get(a, 0.0) - potential.get(b, 0.0))
                if dist_a + reduced < best.get(b, np.inf):
                    best[b] = dist_a + reduced
                    via[b] = k
                    heapq.heappush(heap, (best[b], b))
        if v not in best:
            return np.inf
        total += best[v] + potential.get(v, 0.0)
        potential = {a: best[a] + potential.get(a, 0.0) for a in best}
        b = v
        while b != DEPOT:
            k = via[b]
            caps[k] -= 1
            caps[k ^ 1] += 1
            b = heads[k ^ 1]
    return total


def audit_solution(
    graph: Graph, solution: MilpSolution, handles: VariableHandles
) -> List[str]:
    """Re-check a solved assignment against the problem statement, from scratch.

    Deliberately ignores the model's own constraint rows and flow variables:
    degrees, budgets, coupling and must-visits are recomputed from the x/y/z
    values, and depot connectivity is certified by BFS over the chosen edges.
    Budgets and big-M are met to FEASIBILITY_TOL.  Returns a list of
    violation messages; empty means clean.
    """
    issues: List[str] = []
    tol = FEASIBILITY_TOL
    if solution.assignment is None:
        return [f"no assignment to audit (status {solution.status})"]
    assign = solution.assignment

    def val(idx: int) -> float:
        return float(assign[idx])

    n = graph.num_vertices
    for key, idx in list(handles.x.items()) + list(handles.y.items()):
        if abs(val(idx) - round(val(idx))) > 1e-5:
            issues.append(f"binary variable for {key} is fractional: {val(idx)}")
    x_sel = {
        (i, j, m): round(val(idx)) for (i, j, m), idx in handles.x.items()
    }
    y_sel = {(i, m): round(val(idx)) for (i, m), idx in handles.y.items()}
    z_sel = {i: round(val(idx)) for i, idx in handles.z.items()}

    for m in range(1, handles.num_agents + 1):
        chosen = [(i, j) for (i, j, mm), v in x_sel.items() if mm == m and v == 1]
        out_deg = {i: 0 for i in range(1, n + 1)}
        in_deg = {i: 0 for i in range(1, n + 1)}
        for (i, j) in chosen:
            out_deg[i] += 1
            in_deg[j] += 1
        if out_deg[DEPOT] != 1 or in_deg[DEPOT] != 1:
            issues.append(
                f"agent {m}: depot degree out={out_deg[DEPOT]} in={in_deg[DEPOT]}, want 1/1"
            )
        for i in range(1, n + 1):
            if out_deg[i] != in_deg[i]:
                issues.append(
                    f"agent {m}: vertex {i} unbalanced (out {out_deg[i]}, in {in_deg[i]})"
                )
        spent = sum(graph.lengths[(i, j)] for (i, j) in chosen)
        if spent > handles.l_max + tol:
            issues.append(f"agent {m}: budget {spent} exceeds {handles.l_max}")
        for i in range(1, n + 1):
            visits = y_sel[(i, m)]
            if visits == 1 and out_deg[i] == 0:
                issues.append(f"agent {m}: y says visit {i} but no traversal")
            if out_deg[i] >= 1 and visits == 0:
                issues.append(f"agent {m}: traversal through {i} without visit flag")
            if out_deg[i] > handles.big_m + tol:
                issues.append(f"agent {m}: vertex {i} out-degree exceeds big-M")
        if chosen:
            # Depot-rooted connectivity, certified without the flow variables.
            frontier = [DEPOT]
            seen = {DEPOT}
            adj: Dict[int, List[int]] = {}
            for (i, j) in chosen:
                adj.setdefault(i, []).append(j)
            while frontier:
                v = frontier.pop()
                for w in adj.get(v, []):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            touched = {i for (i, j) in chosen} | {j for (i, j) in chosen}
            stranded = sorted(touched - seen)
            if stranded:
                issues.append(f"agent {m}: edges around {stranded} unreachable from depot")

    for i in range(1, n + 1):
        any_visit = any(y_sel[(i, m)] == 1 for m in range(1, handles.num_agents + 1))
        if bool(z_sel[i]) != any_visit:
            issues.append(f"vertex {i}: z={z_sel[i]} but per-agent visits say {any_visit}")
    for v in handles.must_visit:
        if z_sel[v] != 1:
            issues.append(f"must-visit vertex {v} not visited")
    if handles.variant == "top":
        for i in range(2, n + 1):
            arrivals = sum(
                v for (a, b, m), v in x_sel.items() if b == i
            )
            if arrivals > 1:
                issues.append(f"vertex {i}: {arrivals} arrivals under single-visit rules")
    return issues
