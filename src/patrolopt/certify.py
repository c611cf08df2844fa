"""The building blocks for answering a planning round without its MIP.

This module holds the walk rules, the walk repairs, the certificates that
read no c_hat and the infeasibility proofs.  The cascade that puts them
together, tocp.answer_round, lives in tocp beside its callers: it settles
most rounds by an infeasibility proof, a certificate or the exact DP, in
that order, reading a Structure and c_hat, never a model.  This module
imports greedy, which imports only graph, and not tocp.  Across an episode
only c_hat changes: the graph, the fleet, the budget and the must-visit
vertices stay, and so do the model's rows.  A Structure holds those,
checked once, and keeps what the cascade derives from them alone (the
targets, the out-edge table, the proof, the certificate and the DP's
table), so the episode loop pays for each once.

Certified rounds: a certificate visits every vertex whose depot round trip
fits the budget (within the solver's feasibility tolerance).  Such a plan
collects the sum of the non-negative c_hat over those vertices whatever
c_hat is, and no plan can collect more, so it is optimal in every round
once its walks break none of the rules of broken_rules.  Ties therefore
break towards visiting: a certified round visits everything reachable,
zero-valued vertices included.  Under tocp the certificate is the greedy
planner's plan on unit predictions, repaired (_greedy_walks), or, when it
misses one of those vertices, every target placed in at most M tours by
farthest insertion (_farthest_insertion).  Greedy walks rarely satisfy the
single-visit rule, so top's certificate is built differently: one simple
depot cycle per agent, no two sharing a non-depot vertex, grown by farthest
insertion until together they visit the same reachable set (_cover_walks).
Structure.certified_walks keeps the one its variant reads.  Before the
cover search, and under tocp between greedy and farthest insertion, it
looks for M + 1 targets no two of which one depot walk within l_max can
visit, judged from the shortest-path distances alone (_far_apart).  M
walks cannot visit them all, so where they exist no certificate does, and
skipping the search changes no answer: the round goes to the DP, as after a
failed search.

Proven-infeasible rounds: every round is first checked for reasons no plan
can exist (see infeasibility_proof), such as a must-visit vertex beyond
every depot round trip or, under ``top``, on no simple depot cycle within
the budget.  A structure with a proof has no certificate, so checking it
first changes no answer, and it spares top the failed cover search.

Exact rounds: a round with neither a proof nor a certificate goes to the
Held–Karp DP of ``heldkarp`` when its table is small enough.  Its
optimal walks, with doubled edges simplified away, are the answer and its
value the bound; when no union of tours covers the must-visit vertices,
that is the proof.  Its tie rule takes the largest optimal vertex set, then
the lowest bitmask.  Only rounds above the DP's cost cap, or whose optimal
walks end up over l_max, reach HiGHS.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from math import inf
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from . import heldkarp
from .graph import (
    DEPOT,
    DistanceMatrix,
    Graph,
    all_pairs_shortest,
    reachable_round_trip,
    validate,
    walk_length,
)
from .greedy import UnreachableMustVisitError, greedy_plan
from .milp import FEASIBILITY_TOL, ModelError

# Each vertex's out-edges as (head, length), heads ascending, indexed by
# vertex; slot 0 is unused.
Adjacency = List[List[Tuple[int, float]]]


class Structure:
    """All a round reads except c_hat, checked once, with what the cascade derives from it.

    The constructor raises ModelError on inputs no round can be planned on;
    dist, when None, is computed from the graph.  variant is the planner,
    tocp, top or greedy; greedy reads the checked inputs alone.  limit is
    l_max plus the slack HiGHS grants a budget row, and the targets are the
    non-depot vertices whose depot round trip fits it.  The rest is computed
    on first use and kept; a round adds only what reads c_hat.
    """

    def __init__(self, graph: Graph, dist: Optional[DistanceMatrix], num_agents: int,
                 l_max: float, must_visit: Sequence[int], variant: str):
        problem = validate(graph)
        if problem is not None:
            raise ModelError(f"graph invalid: {problem}")
        if int(num_agents) < 1:
            raise ModelError("need at least one agent")
        if not 0 < l_max < np.inf:  # NaN fails both comparisons
            raise ModelError("travel budget must be positive and finite")
        self.must = tuple(sorted(set(int(v) for v in must_visit)))
        for v in self.must:
            if not 2 <= v <= graph.num_vertices:
                raise ModelError(f"must-visit vertex {v} out of range (depot excluded)")
        self.graph = graph
        self.dist = all_pairs_shortest(graph) if dist is None else dist
        self.num_agents = int(num_agents)
        self.l_max = l_max
        self.variant = variant
        self.limit = l_max + FEASIBILITY_TOL
        self.targets = tuple(sorted(reachable_round_trip(graph, self.dist, self.limit) - {DEPOT}))

    def check_c_hat(self, c_hat: np.ndarray) -> np.ndarray:
        """c_hat as floats; ModelError unless it has one entry per vertex plus slot 0.

        Every entry must be finite and >= 0, as costs grow from zero.  This
        is the one check of that; the bounds, weights and certificates rely
        on it.
        """
        c_hat = np.asarray(c_hat, dtype=float)
        if c_hat.shape != (self.graph.num_vertices + 1,):
            raise ModelError(f"c_hat must have shape ({self.graph.num_vertices + 1},)")
        # NaN fails both comparisons
        if not (c_hat.min() >= 0.0 and c_hat.max() < np.inf):
            raise ModelError("c_hat entries must be finite and >= 0")
        return c_hat

    @cached_property
    def around(self) -> DistanceMatrix:
        """Shortest paths in the graph with every depot edge removed."""
        n, lengths = self.graph.num_vertices, self.graph.lengths
        return all_pairs_shortest(Graph(n, {e: l for e, l in lengths.items() if DEPOT not in e}))

    @cached_property
    def adjacency(self) -> Adjacency:
        """The graph's out-edges as _paths_through reads them."""
        graph = self.graph
        return [[]] + [[(u, graph.lengths[(v, u)]) for u in graph.out_neighbors(v)]
                       for v in range(1, graph.num_vertices + 1)]

    @cached_property
    def proof(self) -> Optional[str]:
        """infeasibility_proof of this structure."""
        return infeasibility_proof(self)

    @cached_property
    def certified_walks(self) -> Optional[List[List[int]]]:
        """The structure's certificate: walks that visit every target, or None.

        Such walks collect the round-trip bound for any c_hat >= 0, so they
        are optimal in every round of an episode, and an episode finds them
        once.  Under top they are _cover_walks; under tocp _greedy_walks, or
        _farthest_insertion's when greedy misses a target.  Neither search
        runs where _far_apart finds M + 1 targets no two of which one walk
        within l_max can visit: no M walks then visit every target, so the
        search could only fail.  Under tocp greedy, the cheap path, runs
        first.
        """
        if self.variant == "top":
            return None if _far_apart(self) else _cover_walks(self)
        walks = _greedy_walks(self)
        if walks is None and not _far_apart(self):
            walks = _farthest_insertion(self)
        return walks

    @cached_property
    def table(self) -> Union[heldkarp.FleetTable, str, None]:
        """The DP's table, the proof that no union of tours covers the must-visit
        vertices, or None above heldkarp.MAX_WORK."""
        kind = "vertex-disjoint simple depot cycles" if self.variant == "top" else "closed walks"
        proof = (f"no {self.num_agents} {kind} within l_max {self.l_max} cover "
                 f"must-visit vertices {list(self.must)}")
        if not self.targets or not set(self.must) <= set(self.targets):
            return proof
        table = heldkarp.fleet_table(
            self.graph, self.dist, self.around if self.variant == "tocp" else None,
            self.targets, self.num_agents, self.limit, self.must)
        return proof if table is not None and not table.choices.size else table


def _cover_walks(structure: Structure) -> Optional[List[List[int]]]:
    """top's certificate: the walks of a vertex-disjoint cycle cover, or None.

    Each agent gets one simple depot cycle and no two cycles share a
    non-depot vertex, so the cover satisfies the single-visit rows; when it
    visits every target it reaches the round-trip bound.

    Each agent needs its own first vertex: a depot neighbour whose
    out-and-back fits l_max, by (edge length, index).  The M nearest start,
    then every set that swaps one of them for a farther one: 1 + M(d - M)
    sets for d candidates, each grown by _insertion_cover until one covers
    the targets.  A required vertex outside them gets no cover, since the
    round is infeasible.
    """
    graph, l_max, m_count = structure.graph, structure.l_max, structure.num_agents
    firsts = sorted(
        (v for v in graph.out_neighbors(DEPOT) if 2 * graph.lengths[(DEPOT, v)] <= l_max),
        key=lambda v: (graph.lengths[(DEPOT, v)], v),
    )
    if len(firsts) < m_count or not set(structure.must) <= set(structure.targets):
        return None
    nearest = firsts[:m_count]
    start_sets = [nearest] + [
        nearest[:k] + [far] + nearest[k + 1:]
        for far in firsts[m_count:]
        for k in reversed(range(m_count))
    ]
    for starts in start_sets:
        routes = _insertion_cover(graph, structure.adjacency, structure.targets, starts, l_max)
        if routes is not None:
            return fleet_walks(structure, routes)
    return None


def _greedy_walks(structure: Structure) -> Optional[List[List[int]]]:
    """greedy_plan's walks on unit predictions, repaired, when they visit every target.

    Unit predictions make greedy take the nearest reachable vertex.  On a
    cold-start round, which predicts the same cost everywhere, the plan is
    the one greedy makes on that round's c_hat.  Routes pass through
    repair_walk, and fleet_walks gives idle agents their out-and-back and
    checks the rules; None when greedy raises, misses a target or a walk
    breaks a rule.
    """
    s = structure
    unit = np.ones(s.graph.num_vertices + 1)
    try:
        plan = greedy_plan(s.graph, s.dist, unit, s.num_agents, s.l_max, s.must)
    except UnreachableMustVisitError:
        return None
    if not plan.visited().issuperset(s.targets):
        return None
    repaired = [repair_walk(route, s) for route in plan.routes]
    if None in repaired:
        return None
    return fleet_walks(s, repaired)


def _farthest_insertion(structure: Structure) -> Optional[List[List[int]]]:
    """Closed walks through every target within l_max by farthest insertion, or None.

    A tour is a sequence of targets on the DP's tocp legs: the shortest path
    from the depot to its first target and from its last one back, and the
    shortest depot-free path between consecutive targets.  Inserting w
    between stops a and b (the depot at either end) costs leg(a, w) +
    leg(w, b) - leg(a, b), and an empty tour offers w its round trip.  w's
    cheapest insertion is the least such cost that keeps its tour within
    l_max, ties to the lowest tour and then the earliest position.  Every
    step inserts the target whose cheapest insertion is dearest, ties to the
    lowest index (Rosenkrantz, Stearns and Lewis, SIAM J. Comput. 6, 1977),
    and recomputes the insertions into the tour it grew alone: the other
    tours' stay as they were.  None once some target has no insertion left.
    The legs are read as scalar lists, as greedy_plan reads its distances.

    The tours expand into walks as heldkarp.best_round's do.  They never
    pass the depot mid-walk, so simplify_walk is all repair_walk would do;
    fleet_walks gives idle agents their out-and-back and checks the rules,
    and gives None when a walk breaks one.
    """
    home = structure.dist.rows
    legs = [list(row) for row in structure.around.rows]
    legs[DEPOT] = list(home[DEPOT])
    for v, row in enumerate(legs):
        row[DEPOT] = home[v][DEPOT]
    l_max = structure.l_max
    tours = [[DEPOT, DEPOT] for _ in range(structure.num_agents)]
    left = list(structure.targets)

    def insertions(m: int) -> Dict[int, Optional[Tuple[float, int]]]:
        """(cost, position) of each left target's cheapest insertion into tour m, or None."""
        tour = tours[m]
        length = sum(legs[a][b] for a, b in zip(tour, tour[1:]))
        out: Dict[int, Optional[Tuple[float, int]]] = {}
        for w in left:
            from_w, best = legs[w], None
            for p in range(len(tour) - 1):
                a, b = tour[p], tour[p + 1]
                cost = legs[a][w] + from_w[b] - legs[a][b]
                if length + cost <= l_max and (best is None or cost < best[0]):
                    best = (cost, p)
            out[w] = best
        return out

    per_tour = [insertions(m) for m in range(structure.num_agents)]
    while left:
        choice = None
        for w in left:
            cheapest = None
            for m, found in enumerate(per_tour):
                option = found[w]
                if option is not None and (cheapest is None or option[0] < cheapest[0]):
                    cheapest = (option[0], m, option[1], w)
            if cheapest is None:
                return None
            if choice is None or cheapest[0] > choice[0]:
                choice = cheapest
        _, m, p, w = choice
        tours[m].insert(p + 1, w)
        left.remove(w)
        per_tour[m] = insertions(m)
    return fleet_walks(structure, [
        simplify_walk(heldkarp.tocp_walk(tour[1:-1], structure.dist, structure.around))
        for tour in tours if len(tour) > 2])


def _far_apart(structure: Structure) -> bool:
    """Whether some M + 1 targets conflict pairwise, so no certificate exists.

    Targets a and b conflict when d(1, a) + d(a, b) + d(b, 1) and d(1, b) +
    d(b, a) + d(a, 1) both exceed the limit.  A closed depot walk that
    visits a and then b is no shorter than the first, and one that visits b
    first no shorter than the second, so no walk within l_max visits both;
    the limit's slack over l_max absorbs the rounding of the shortest paths
    against a walk's edges summed in order.  M walks that visit every target
    would put two of M + 1 pairwise conflicting ones on one walk, so such a
    clique rules out every certificate.  It reads the distances alone, as
    scalar lists, and each pair once; bit j of neighbours[i] marks a
    conflict of targets i and j.

    Since d(a, b) <= d(a, 1) + d(1, b), conflicting targets have round
    trips that sum to more than the limit, so at most one target of such a
    clique has a round trip within half the limit.  Fewer than M targets
    beyond it therefore settle the answer as no before any pair is read;
    where rounding breaks the triangle inequality this can only miss a
    clique, which leaves the search to run as before.
    """
    targets = structure.targets
    size = structure.num_agents + 1
    if len(targets) < size:
        return False
    d, limit = structure.dist.dist, structure.limit
    from_depot, to_depot = d[DEPOT].tolist(), d[:, DEPOT].tolist()
    out = [from_depot[a] for a in targets]
    back = [to_depot[a] for a in targets]
    if sum(x + y > limit / 2 for x, y in zip(out, back)) < size - 1:
        return False
    rows = structure.dist.rows
    neighbours = [0] * len(targets)
    for i, a in enumerate(targets):
        from_a = rows[a]
        for j in range(i + 1, len(targets)):
            b = targets[j]
            if (out[i] + from_a[b] + back[j] > limit
                    and out[j] + rows[b][a] + back[i] > limit):
                neighbours[i] |= 1 << j
                neighbours[j] |= 1 << i
    return _has_clique(neighbours, size)


def _has_clique(neighbours: List[int], size: int) -> bool:
    """Whether the graph whose vertex k has neighbour bitmask neighbours[k] has a size-clique.

    Bron–Kerbosch with Tomita's pivot (Theor. Comput. Sci. 363, 2006): it
    meets every maximal clique at most once and stops at the first clique of
    size vertices, so its work is bounded by the 3^(n/3) maximal cliques n
    vertices can have (Moon and Moser, Israel J. Math. 3, 1965), about 1,050
    at n = 19.  A branch whose clique and candidates together fall short of
    size is cut.
    """

    def grows(count: int, candidates: int, excluded: int) -> bool:
        if count >= size:
            return True
        if count + candidates.bit_count() < size:
            return False
        pivot = max(_bits(candidates | excluded),
                    key=lambda u: (candidates & neighbours[u]).bit_count())
        for v in _bits(candidates & ~neighbours[pivot]):
            if grows(count + 1, candidates & neighbours[v], excluded & neighbours[v]):
                return True
            candidates &= ~(1 << v)
            excluded |= 1 << v
        return False

    return grows(0, (1 << len(neighbours)) - 1, 0)


def _bits(mask: int) -> List[int]:
    """The positions of mask's set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def execution_faults(structure: Structure, routes: List[List[int]]) -> List[str]:
    """The rules every executed plan keeps, whatever its planner; empty when it keeps them all.

    One walk per agent, each [1] (the agent stays home) or closed at the
    depot, on real edges and with a walk_length within the limit; the walks
    cover every must-visit vertex.  Each walk is read once by walk_length
    and once by a set update.  Each broken rule is named once, in the order
    the walks first break it.
    """
    broken = []
    if len(routes) != structure.num_agents:
        broken.append(f"{len(routes)} walks for {structure.num_agents} agents")
    missed = set(structure.must)
    for route in routes:
        if route[0] != DEPOT or route[-1] != DEPOT:
            broken.append("not closed at the depot")
        try:
            if walk_length(structure.graph, route) > structure.limit:
                broken.append("over l_max")
        except KeyError:
            broken.append("not on real edges")
        missed.difference_update(route[1:])
    if missed:
        broken.append("must-visit vertex missed")
    return list(dict.fromkeys(broken))


def broken_rules(structure: Structure, routes: List[List[int]]) -> List[str]:
    """The walk rules a fleet plan breaks; empty when every row of the model holds.

    The rules of execution_faults, and besides them no idle agent, no
    directed edge used twice and no pass through the depot mid-walk, and
    under top no vertex entered twice.  Every row of the model holds for
    tocp.plan_to_assignment's encoding of a plan that breaks none of these,
    and some row fails for a plan on real edges that breaks one, so checking
    the rules stands in for encoding and checking every row.
    """
    broken = execution_faults(structure, routes)
    for route in routes:
        edges = list(zip(route, route[1:]))
        if not edges:
            broken.append("idle agent")
        if DEPOT in route[1:-1]:
            broken.append("depot passed mid-walk")
        if len(set(edges)) < len(edges):
            broken.append("directed edge used twice")
    entered = [v for route in routes for v in route[1:] if v != DEPOT]
    if structure.variant == "top" and len(set(entered)) < len(entered):
        broken.append("vertex entered twice")
    return broken


def fleet_walks(structure: Structure, routes: List[List[int]]) -> Optional[List[List[int]]]:
    """Closed walks, one per agent, or None when one is over l_max or breaks a rule.

    Agents without a walk ([1], or missing from the end of routes) take the
    cheapest depot out-and-back, since every agent must leave the depot.
    """
    graph = structure.graph
    routes = routes + [[DEPOT]] * (structure.num_agents - len(routes))
    routes = [_cheapest_out_and_back(graph) if len(r) == 1 else r for r in routes]
    if None in routes or any(walk_length(graph, r) > structure.l_max for r in routes):
        return None
    if broken_rules(structure, routes):
        return None
    return routes


def _cheapest_out_and_back(graph: Graph) -> Optional[List[int]]:
    """[1, v, 1] over the shortest depot edge, or None when the depot has none."""
    hops = graph.out_neighbors(DEPOT)
    if not hops:
        return None
    return [DEPOT, min(hops, key=lambda v: graph.lengths[(DEPOT, v)]), DEPOT]


def repair_walk(route: List[int], structure: Structure) -> Optional[List[int]]:
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
    out = [DEPOT]
    k = 1
    while k < len(route) - 1:
        if route[k] != DEPOT:
            out.append(route[k])
            k += 1
            continue
        x, y = out[-1], route[k + 1]
        if x != y:
            path = structure.around.shortest_path(x, y)
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


def _insertion_cover(
    graph: Graph, adjacency: Adjacency, targets: Sequence[int], starts: List[int], l_max: float
) -> Optional[List[List[int]]]:
    """Grow out-and-backs [1, v, 1] into disjoint simple cycles covering targets, or None.

    An uncovered vertex w is inserted between consecutive route vertices
    (a, b) by the shortest a -> w path through uncovered vertices, then the
    shortest w -> b path through uncovered vertices off the first path; its
    cost is their length minus the edge (a, b), and the route must stay
    within l_max.  w's cheapest insertion is the least (cost, slot), a slot
    being (route, position) in route order.  Every step inserts the vertex
    whose cheapest insertion is dearest (farthest insertion; ties to the
    lowest index), which covers the whole detour.  The attempt fails once
    some uncovered vertex has no insertion at all.  adjacency is the graph's
    out-edges as _paths_through reads them.

    Each step grows one _paths_through tree from every route vertex, and
    each slot (a, b) of w is first bounded from the trees' distances alone:
    its floor d(a, w) + d(b, w) - len(a, b) less the margin 1e-9 (1 +
    l_max).  The way back off the first path only avoids more vertices, so
    it is no shorter, bar the rounding of the same edges summed in reverse,
    which the margin absorbs: no insertion costs less than its floor.  Slots
    whose floor is over the budget are dropped, and the rest are tried in
    (floor, slot) order, so once a slot's (floor, slot) exceeds the least
    (cost, slot) found, none left can beat it and w's cheapest insertion is
    known.  Paths are read off the parent pointers only for the slots
    tried, once per (tree, w) in a step.  w is also abandoned as soon as it
    has an insertion no dearer than the step's choice so far: its cheapest
    is then no dearer either, and only a strictly dearer vertex replaces the
    choice, so w cannot be chosen.
    """
    routes = [[DEPOT, v, DEPOT] for v in starts]
    lengths = [walk_length(graph, route) for route in routes]
    uncovered = [False] * len(adjacency)
    for v in targets:
        uncovered[v] = True
    for v in starts:
        uncovered[v] = False
    left = [v for v in range(len(adjacency)) if uncovered[v]]
    margin = 1e-9 * (1.0 + l_max)
    while left:
        # The graph is symmetric, so reversing the shortest b -> w path gives
        # the shortest w -> b one.
        trees = {a: _paths_through(adjacency, a, uncovered)
                 for a in {a for route in routes for a in route}}
        slots = [(m, p, a, b, graph.lengths[(a, b)])
                 for m, route in enumerate(routes)
                 for p, (a, b) in enumerate(zip(route, route[1:]))]
        bounds = [(trees[a][0], trees[b][0], length, lengths[m])
                  for m, _, a, b, length in slots]
        paths: Dict[Tuple[int, int], List[int]] = {}

        def path(a: int, w: int) -> List[int]:
            if (a, w) not in paths:
                paths[(a, w)] = _tree_path(trees[a][1], w)
            return paths[(a, w)]

        choice = None
        for w in left:
            # an unreached w has an inf floor, which no budget fits
            order = sorted([
                (floor, k) for k, (dist_a, dist_b, length, used) in enumerate(bounds)
                if used + (floor := dist_a[w] + dist_b[w] - length - margin) <= l_max])
            cheapest = None
            for floor, k in order:
                if cheapest is not None and (floor, k) > cheapest[:2]:
                    break
                m, p, a, b, length = slots[k]
                to_w, from_w = trees[a][0][w], trees[b][0][w]
                path_in = path(a, w)
                path_out = path(b, w)[::-1]
                if set(path_in[1:-1]) & set(path_out[1:-1]):
                    through = uncovered[:]
                    for v in path_in:
                        through[v] = False
                    off_dist, off_parent = _paths_through(adjacency, w, through)
                    if off_dist[b] == inf:
                        continue
                    from_w, path_out = off_dist[b], _tree_path(off_parent, b)
                cost = to_w + from_w - length
                if lengths[m] + cost <= l_max and (cheapest is None or (cost, k) < cheapest[:2]):
                    cheapest = (cost, k, m, p, path_in + path_out[1:])
                    if choice is not None and cost <= choice[0]:
                        break
            if cheapest is None:
                return None
            if choice is None or cheapest[0] > choice[0]:
                choice = cheapest
        _, _, m, p, detour = choice
        routes[m] = routes[m][:p] + detour + routes[m][p + 2:]
        lengths[m] = walk_length(graph, routes[m])
        for v in detour:
            uncovered[v] = False
        left = [v for v in left if uncovered[v]]
    return routes


def _paths_through(
    adjacency: Adjacency, source: int, through: List[bool]
) -> Tuple[List[float], List[int]]:
    """Shortest paths from source whose intermediate vertices all lie in through.

    through[v] says whether v may be passed through.  Returns (dist,
    parent), lists indexed by vertex: the length of the path to each vertex,
    inf where none is found, and each reached vertex's predecessor on it, 0
    for the source and the vertices not reached; _tree_path reads a path off
    the parents.  Dijkstra that only expands the source and vertices of
    through, over adjacency[v], v's (u, length) out-edges in ascending u;
    ties keep the path found first.  A popped entry longer than its
    vertex's distance is stale: with lengths >= 0 no vertex's distance falls
    once it is expanded, so that skips exactly the entries of expanded
    vertices.
    """
    dist = [inf] * len(adjacency)
    parent = [0] * len(adjacency)
    dist[source] = 0.0
    heap = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, v = pop(heap)
        if d > dist[v]:
            continue
        for u, length in adjacency[v]:
            nd = d + length
            if nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                if through[u]:
                    push(heap, (nd, u))
    return dist, parent


def _tree_path(parent: List[int], w: int) -> List[int]:
    """The path from a _paths_through tree's source to w, read off its parents."""
    path = [w]
    while parent[path[-1]]:
        path.append(parent[path[-1]])
    return path[::-1]


def infeasibility_proof(structure: Structure) -> Optional[str]:
    """Why no plan can satisfy the model's rows, or None when no reason is found.

    Each test compares a lower bound on some walk the rows force against
    the limit, l_max plus the same feasibility slack the certificates
    grant, so a proof never rejects a plan HiGHS would accept:
      * a must-visit vertex v whose depot round trip d(1, v) + d(v, 1) is
        over the limit (inf when there is none);
      * fewer depot neighbours w with len(1, w) + d(w, 1) within the limit
        than the agents need as first vertices: one for tocp, where agents
        may share one, and M for top, where nobody enters a vertex twice;
      * top only: a must-visit v on no simple depot cycle within the limit.
        Each agent's walk is a simple cycle through the depot, so the
        shortest one through v is [1, v, 1] or the cheapest pair of
        internally vertex-disjoint depot -> v paths (_disjoint_pair_length).

    Suurballe's search for that pair is the dear part, so two cheaper tests
    clear v first, each naming a simple depot cycle through v within the
    limit: [1, v, 1] fits it, or the shortest depot -> v path has inner
    vertices and, together with the shortest depot -> v path that avoids
    them (one _paths_through search), fits it with the margin 1e-9 (1 +
    limit).  The two paths are internally disjoint, so the cheapest pair is
    no longer; the margin absorbs the rounding of the same lengths summed in
    another order.  Only a vertex neither test clears reaches Suurballe, so
    the proof is the one Suurballe on every must-visit vertex would give.
    """
    graph, l_max, limit = structure.graph, structure.l_max, structure.limit
    d = structure.dist.dist
    for v in structure.must:
        if d[DEPOT, v] + d[v, DEPOT] > limit:
            return (f"must-visit vertex {v} has no depot round trip within l_max: "
                    f"{d[DEPOT, v] + d[v, DEPOT]} > {l_max}")
    single_visit = structure.variant == "top"
    need = structure.num_agents if single_visit else 1
    firsts = [w for w in graph.out_neighbors(DEPOT)
              if graph.lengths[(DEPOT, w)] + d[w, DEPOT] <= limit]
    if len(firsts) < need:
        return (f"{len(firsts)} depot neighbours can start a walk within l_max "
                f"{l_max}; the agents need {need}")
    if single_visit:
        margin = 1e-9 * (1.0 + limit)
        for v in structure.must:
            out_and_back = 2 * graph.lengths.get((DEPOT, v), np.inf)
            if out_and_back <= limit:
                continue
            inner = structure.dist.shortest_path(DEPOT, v)[1:-1]
            if inner:
                through = [False, False] + [True] * (graph.num_vertices - 1)
                for u in inner:
                    through[u] = False
                avoiding, _ = _paths_through(structure.adjacency, DEPOT, through)
                if d[DEPOT, v] + avoiding[v] <= limit - margin:
                    continue
            cycle = min(_disjoint_pair_length(graph, v), out_and_back)
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
