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

Answered rounds: answer_round, the cascade, settles most rounds without
the model, by an infeasibility proof, the certificate or the exact DP, in
that order, from a certify.Structure that holds everything of the round but
c_hat and keeps its proof and certificate (certified_walks), so the cascade
reads no variant.  Its building blocks, the walk rules, repairs,
certificates and proofs, live in certify (see that module); the cascade
lives here beside its two consumers.  Both first pass c_hat through
Structure.check_c_hat, so every prediction is finite and >= 0; then an
answer's walks break no rule of certify.broken_rules and reach its bound,
and neither consumer tests them again.  plan_round, which the simulator's
episode loop calls with the Structure it builds once per episode,
restitches the walks into routes as extract_routes would, so answered
rounds build no model; it builds one only for a round HiGHS must solve.
_build_answered builds a Structure's model and attaches the answer: the
walks as the certificate, encoded without a solver (once an agent's closed
walk is fixed, so is its flow: the p-th edge carries one unit for each
non-depot vertex the walk first enters after position p, see
plan_to_assignment), or the proof, so milp.solve, the one check of the
certificate's rows, skips HiGHS on it.  build_tocp and build_top call it on
a fresh Structure; the simulator's single-round solve calls it on the
Structure its episode setup builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import heldkarp
from .certify import Structure, fleet_walks, simplify_walk
from .graph import DEPOT, DistanceMatrix, FleetPlan, Graph, walk_length
# re-exported: the benchmark (perfbench/checks.py, perfbench/tracing.py) imports it from here
from .greedy import UnreachableMustVisitError
from .milp import FEASIBILITY_TOL, INFEASIBLE, OPTIMAL, MilpModel, MilpSolution, solve


class RouteIntegrityError(ValueError):
    """A solver assignment does not decompose into closed walks from the depot."""


@dataclass
class VariableHandles:
    """Index maps from (vertex/edge, agent) keys into the flat variable vector."""

    x: Dict[Tuple[int, int, int], int]
    y: Dict[Tuple[int, int], int]
    z: Dict[int, int]
    u: Dict[Tuple[int, int, int], int]
    big_m: float
    structure: Structure  # the round's graph, fleet, budget and must-visit vertices


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

    c_hat must be finite and >= 0 (ModelError otherwise).  The model carries
    the answer of answer_round: its walks, encoded by plan_to_assignment, as
    the certificate, or its infeasibility proof.  milp.solve then skips the
    search on it.
    """
    return _build_answered(Structure(graph, dist, num_agents, l_max, must_visit, "tocp"), c_hat)


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
    The answer of answer_round rides along as in build_tocp.
    """
    return _build_answered(Structure(graph, dist, num_agents, l_max, must_visit, "top"), c_hat)


def _build_answered(structure: Structure, c_hat: np.ndarray) -> Tuple[MilpModel, VariableHandles]:
    """The model with answer_round's walks encoded as its certificate, or its proof."""
    c_hat = structure.check_c_hat(c_hat)
    model, handles = _build_fleet_model(structure, c_hat)
    answer = answer_round(structure, c_hat)
    if isinstance(answer, str):
        model.infeasibility_proof = answer
    elif answer is not None:
        walks, bound = answer
        model.certificate = (plan_to_assignment(walks, model, handles), bound)
    return model, handles


def plan_round(
    structure: Structure, c_hat: np.ndarray, time_limit: Optional[float]
) -> Tuple[Optional[FleetPlan], str]:
    """One round of the tocp or top planner: (plan or None, status).

    Gives what extract_routes(milp.solve(build_tocp or build_top)) gives,
    but builds the model only when answer_round has no answer, so HiGHS
    must search.  c_hat must be finite and >= 0 (ModelError otherwise); then
    an answer's walks reach their bound, so they are the optimum.  They are
    restitched as extract_routes restitches the encoded edges, so the routes
    match it exactly.
    """
    graph = structure.graph
    c_hat = structure.check_c_hat(c_hat)
    answer = answer_round(structure, c_hat)
    if isinstance(answer, str):
        return None, INFEASIBLE
    if answer is not None:
        walks, _ = answer
        return _stitched_plan([list(zip(w, w[1:])) for w in walks], graph), OPTIMAL
    model, handles = _build_fleet_model(structure, c_hat)
    solution = solve(model, time_limit=time_limit)
    plan = extract_routes(solution, handles, graph) if solution.has_assignment else None
    return plan, solution.status


def answer_round(
    structure: Structure, c_hat: np.ndarray
) -> Union[Tuple[List[List[int]], float], str, None]:
    """A round's answer without the model: (walks, bound), a proof string, or None.

    It reads the structure's infeasibility proof, then its certified_walks
    with the round-trip bound, both found once per episode, then the exact
    DP, whose optimal walks, with doubled edges simplified away, come with
    its value as the bound and whose absence of any covering union is the
    proof.  The order changes no answer, since a structure with a proof has
    no certificate: certified walks fit l_max, and a cover's are simple
    depot cycles through every target that start at M distinct depot
    neighbours.  It spares top the failed cover search of a proven round.
    Walks always break none of broken_rules; None (a round above the DP's
    cost cap, or whose optimal walks end up over l_max) means only HiGHS can
    answer.  c_hat must have passed Structure.check_c_hat: the bounds and
    the DP's weights take it as non-negative.
    """
    if structure.proof is not None:
        return structure.proof
    certified = structure.certified_walks
    if certified is not None:
        # no plan collects more than c_hat summed over the targets
        return certified, float(sum(float(c_hat[v]) for v in structure.targets))
    table = structure.table
    if table is None or isinstance(table, str):
        return table
    optimum = heldkarp.best_round(table, c_hat)
    walks = fleet_walks(structure, [simplify_walk(walk) for walk in optimum.walks])
    return None if walks is None else (walks, optimum.value)


def _build_fleet_model(
    structure: Structure, c_hat: np.ndarray
) -> Tuple[MilpModel, VariableHandles]:
    """The rows and variables of one round of structure.

    Both variants share the repeat-visit rows; top adds one visit-once row
    per non-depot vertex.
    """
    graph, l_max, must = structure.graph, structure.l_max, structure.must
    n = graph.num_vertices
    m_count = structure.num_agents
    edges = [e for e, _ in graph.edge_items()]
    # an edgeless graph has no departures to bound, so any positive big-M does
    big_m = l_max / min(graph.lengths.values(), default=l_max)
    flow_cap = float(n)

    model = MilpModel()
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

    if structure.variant == "top":
        for i in range(2, n + 1):
            terms = [(x[(e[0], e[1], m)], 1.0) for m in range(1, m_count + 1)
                     for e in in_edges[i]]
            model.add_constraint(terms, "<=", 1.0, name=f"visit_once_{i}")

    return model, VariableHandles(x=x, y=y, z=z, u=u, big_m=big_m, structure=structure)


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
    return _stitched_plan(
        [[(i, j) for (i, j, mm), idx in handles.x.items() if mm == m and assign[idx] > 0.5]
         for m in range(1, handles.structure.num_agents + 1)],
        graph,
    )


def _stitched_plan(edge_lists: List[List[Tuple[int, int]]], graph: Graph) -> FleetPlan:
    """One closed walk per agent from its directed edges, stitched in sorted order."""
    routes = [_stitch_closed_walk(sorted(edges), start=DEPOT) for edges in edge_lists]
    return FleetPlan(routes=routes, lengths=[walk_length(graph, r) for r in routes])


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


def plan_to_assignment(
    walks: Sequence[List[int]], model: MilpModel, handles: VariableHandles
) -> np.ndarray:
    """Encode one closed walk per agent as a full solver assignment.

    The walks must break no rule of certify.broken_rules, as
    certify.fleet_walks guarantees for every answer; then every row of the
    model holds.  The flow is fixed by the order of each walk: its p-th
    edge carries one unit for every non-depot vertex the walk first enters
    after position p, so the depot sends one unit per visited vertex and
    each keeps one where the walk first reaches it.  Walks on real edges
    that break a rule encode to an assignment that breaks a row, which
    milp.solve finds; a walk over a non-edge raises KeyError.
    """
    assign = np.zeros(model.num_variables)
    for m, route in enumerate(walks, start=1):
        edges = list(zip(route, route[1:]))
        unseen = set(route) - {DEPOT}
        for a, b in edges:
            unseen.discard(a)
            assign[handles.x[(a, b, m)]] = 1.0
            assign[handles.u[(a, b, m)]] = len(unseen)
        for v in set(route):
            assign[handles.y[(v, m)]] = 1.0
            assign[handles.z[v]] = 1.0
    return assign


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
    structure = handles.structure

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

    for m in range(1, structure.num_agents + 1):
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
        if spent > structure.limit:
            issues.append(f"agent {m}: budget {spent} exceeds {structure.l_max}")
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
        any_visit = any(y_sel[(i, m)] == 1 for m in range(1, structure.num_agents + 1))
        if bool(z_sel[i]) != any_visit:
            issues.append(f"vertex {i}: z={z_sel[i]} but per-agent visits say {any_visit}")
    for v in structure.must:
        if z_sel[v] != 1:
            issues.append(f"must-visit vertex {v} not visited")
    if structure.variant == "top":
        for i in range(2, n + 1):
            arrivals = sum(
                v for (a, b, m), v in x_sel.items() if b == i
            )
            if arrivals > 1:
                issues.append(f"vertex {i}: {arrivals} arrivals under single-visit rules")
    return issues
