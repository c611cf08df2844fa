"""Answering a planning round without its MIP: certificates, proofs and the walk rules.

answer_round settles most rounds by a certificate, an infeasibility proof
or the exact DP, in that order, and hands back closed walks with the bound
they reach, a proof string, or None when only HiGHS can answer.  It reads
the round's structure and c_hat, never a model; tocp.plan_round and
tocp.build_tocp / build_top consume its answer.

Certified rounds: under tocp the greedy planner runs on c_hat, and its
plan, repaired, is the certificate, but only when it visits every vertex
whose depot round trip fits the budget (within the solver's feasibility
tolerance).  With c_hat >= 0 such a plan collects the sum of c_hat over
those vertices, and no plan can collect more, so it is optimal once its
walks break none of the rules of broken_rules.  Ties therefore break
towards visiting: a certified round visits everything reachable,
zero-valued vertices included.  Greedy walks rarely satisfy the
single-visit rule, so top's certificate is built differently: one simple
depot cycle per agent, no two sharing a non-depot vertex, grown by farthest
insertion until together they visit the same reachable set (see
cover_certificate).

Proven-infeasible rounds: a round without a certificate is checked for
reasons no plan can exist (see infeasibility_proof), such as a must-visit
vertex beyond every depot round trip or, under ``top``, on no simple depot
cycle within the budget.

Exact rounds: a round with neither a certificate nor a proof goes to the
Held–Karp DP of ``heldkarp.best_round`` when its table is small enough.  Its
optimal walks, with doubled edges simplified away, are the answer and its
value the bound; when no union of tours covers the must-visit vertices,
that is the proof.  Its tie rule takes the largest optimal vertex set, then
the lowest bitmask.  Only rounds above the DP's cost cap, or whose optimal
walks end up over l_max, reach HiGHS.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from . import heldkarp
from .graph import (
    DEPOT,
    DistanceMatrix,
    Graph,
    depot_free_shortest,
    reachable_round_trip,
    walk_length,
)
from .milp import FEASIBILITY_TOL


def answer_round(
    graph: Graph,
    dist: DistanceMatrix,
    c_hat: np.ndarray,
    num_agents: int,
    l_max: float,
    must_visit: Tuple[int, ...],
    variant: str,
) -> Union[Tuple[List[List[int]], float], str, None]:
    """A round's answer without the model: (walks, bound), a proof string, or None.

    The certificate comes first: greedy_certificate under tocp,
    cover_certificate under top.  A round without one is checked for an
    infeasibility proof, then handed to the exact DP, whose optimal walks,
    with doubled edges simplified away, come with its value as the bound and
    whose absence of any covering union is the proof.  Walks always break
    none of broken_rules; None (a round above the DP's cost cap, or whose
    optimal walks end up over l_max) means only HiGHS can answer.
    """
    find_certificate = greedy_certificate if variant == "tocp" else cover_certificate
    found = find_certificate(graph, dist, c_hat, num_agents, l_max, must_visit)
    if found is not None:
        return found
    proof = infeasibility_proof(graph, dist, num_agents, l_max, must_visit, variant)
    if proof is not None:
        return proof
    optimum = heldkarp.best_round(graph, dist, c_hat, num_agents, l_max, must_visit,
                                  single_visit=variant == "top")
    if optimum is None or isinstance(optimum, str):
        return optimum
    walks = [simplify_walk(walk) for walk in optimum.walks]
    return _certificate(walks, optimum.value, graph, num_agents, l_max, must_visit, variant)


def broken_rules(
    graph: Graph,
    routes: List[List[int]],
    num_agents: int,
    l_max: float,
    must_visit: Sequence[int],
    variant: str,
) -> List[str]:
    """The walk rules a fleet plan breaks; empty when every row of the model holds.

    One closed walk per agent, from the depot and back, on real edges, with
    no directed edge used twice, no pass through the depot mid-walk and a
    length within l_max plus the solver's feasibility slack; the walks cover
    every must-visit vertex, and under top no vertex is entered twice.
    plan_to_assignment encodes exactly the plans that break none of these,
    so checking the rules stands in for encoding and checking every row.
    """
    broken = []
    if len(routes) != num_agents:
        broken.append(f"{len(routes)} walks for {num_agents} agents")
    for route in routes:
        if len(route) == 1:
            broken.append("idle agent")
            continue
        edges = list(zip(route, route[1:]))
        if route[0] != DEPOT or route[-1] != DEPOT:
            broken.append("not closed at the depot")
        if DEPOT in route[1:-1]:
            broken.append("depot passed mid-walk")
        if len(set(edges)) < len(edges):
            broken.append("directed edge used twice")
        if not all(e in graph.lengths for e in edges):
            broken.append("not on real edges")
        elif walk_length(graph, route) > l_max + FEASIBILITY_TOL:
            broken.append("over l_max")
    entered = [v for route in routes for v in route[1:] if v != DEPOT]
    if variant == "top" and len(set(entered)) < len(entered):
        broken.append("vertex entered twice")
    if not set(must_visit) <= set(entered):
        broken.append("must-visit vertex missed")
    return broken


def _certificate(
    routes: List[List[int]],
    bound: float,
    graph: Graph,
    num_agents: int,
    l_max: float,
    must_visit: Tuple[int, ...],
    variant: str,
) -> Optional[Tuple[List[List[int]], float]]:
    """Closed walks, one per agent, with their bound, or None if they are no plan.

    Agents without a walk ([1], or missing from the end of routes) take the
    cheapest depot out-and-back, since every agent must leave the depot.
    Walks over l_max or ones that break a rule of broken_rules give no
    certificate.
    """
    routes = routes + [[DEPOT]] * (num_agents - len(routes))
    routes = [_cheapest_out_and_back(graph) if len(r) == 1 else r for r in routes]
    if None in routes or any(walk_length(graph, r) > l_max for r in routes):
        return None
    if broken_rules(graph, routes, num_agents, l_max, must_visit, variant):
        return None
    return routes, bound


def _cheapest_out_and_back(graph: Graph) -> Optional[List[int]]:
    """[1, v, 1] over the shortest depot edge, or None when the depot has none."""
    hops = graph.out_neighbors(DEPOT)
    if not hops:
        return None
    return [DEPOT, min(hops, key=lambda v: graph.lengths[(DEPOT, v)]), DEPOT]


def _round_trip_bound(c_hat: np.ndarray, reachable: Set[int]) -> float:
    """Sum of the positive c_hat over reachable: no plan collects more."""
    return float(sum(max(float(c_hat[v]), 0.0) for v in sorted(reachable) if v != DEPOT))


def greedy_certificate(
    graph: Graph,
    dist: DistanceMatrix,
    c_hat: np.ndarray,
    num_agents: int,
    l_max: float,
    must_visit: Tuple[int, ...],
) -> Optional[Tuple[List[List[int]], float]]:
    """The greedy plan's walks plus the bound they reach, or None.

    The bound sums c_hat over every vertex whose depot round trip fits the
    budget, with the solver's feasibility slack added, since HiGHS accepts a
    walk that far over l_max.  A greedy plan that visits all of those
    vertices collects the bound when c_hat >= 0, so no plan can beat it.
    Greedy plans that miss one are dropped.  That fixes the tie rule: a
    certified round visits everything reachable, zero-valued vertices too.
    Routes pass through repair_walk, and walks that still break a rule of
    broken_rules under tocp give no certificate.
    """
    # greedy imports from tocp, which imports this module
    from .greedy import greedy_plan
    from .tocp import UnreachableMustVisitError

    reachable = reachable_round_trip(graph, dist, l_max + FEASIBILITY_TOL)
    try:
        plan = greedy_plan(graph, dist, c_hat, num_agents, l_max, must_visit)
    except UnreachableMustVisitError:
        return None
    if not reachable <= plan.visited():
        return None
    repaired = [repair_walk(route, graph) if len(route) > 1 else route
                for route in plan.routes]
    if None in repaired:
        return None
    return _certificate(repaired, _round_trip_bound(c_hat, reachable), graph, num_agents,
                        l_max, must_visit, "tocp")


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


def cover_certificate(
    graph: Graph,
    dist: DistanceMatrix,
    c_hat: np.ndarray,
    num_agents: int,
    l_max: float,
    must_visit: Tuple[int, ...],
) -> Optional[Tuple[List[List[int]], float]]:
    """A vertex-disjoint cycle cover's walks plus its bound, or None.

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
    reachable = reachable_round_trip(graph, dist, l_max + FEASIBILITY_TOL)
    targets = reachable - {DEPOT}
    firsts = sorted(
        (v for v in graph.out_neighbors(DEPOT) if 2 * graph.lengths[(DEPOT, v)] <= l_max),
        key=lambda v: (graph.lengths[(DEPOT, v)], v),
    )
    m_count = num_agents
    if len(firsts) < m_count or not targets.issuperset(must_visit):
        return None
    nearest = firsts[:m_count]
    start_sets = [nearest] + [
        nearest[:k] + [far] + nearest[k + 1:]
        for far in firsts[m_count:]
        for k in reversed(range(m_count))
    ]
    for starts in start_sets:
        routes = _insertion_cover(graph, targets, starts, l_max)
        if routes is not None:
            return _certificate(routes, _round_trip_bound(c_hat, reachable), graph, num_agents,
                                l_max, must_visit, "top")
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


def infeasibility_proof(
    graph: Graph,
    dist: DistanceMatrix,
    num_agents: int,
    l_max: float,
    must_visit: Tuple[int, ...],
    variant: str,
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
    limit = l_max + FEASIBILITY_TOL
    d = dist.dist
    for v in must_visit:
        if d[DEPOT, v] + d[v, DEPOT] > limit:
            return (f"must-visit vertex {v} has no depot round trip within l_max: "
                    f"{d[DEPOT, v] + d[v, DEPOT]} > {l_max}")
    single_visit = variant == "top"
    need = num_agents if single_visit else 1
    firsts = [w for w in graph.out_neighbors(DEPOT)
              if graph.lengths[(DEPOT, w)] + d[w, DEPOT] <= limit]
    if len(firsts) < need:
        return (f"{len(firsts)} depot neighbours can start a walk within l_max "
                f"{l_max}; the agents need {need}")
    if single_visit:
        for v in must_visit:
            cycle = _disjoint_pair_length(graph, v)
            if (DEPOT, v) in graph.lengths:
                cycle = min(cycle, 2 * graph.lengths[(DEPOT, v)])
            if cycle > limit:
                return (f"must-visit vertex {v} lies on no simple depot cycle within "
                        f"l_max: {cycle} > {l_max}")
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
