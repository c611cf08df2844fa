"""Exact planning rounds by Held–Karp over the vertices a tour can reach.

A round's rows never read c_hat, so which vertex sets the fleet can cover
depends on the graph, the budget and the fleet alone.  When few vertices
lie within a depot round trip that family can be listed exactly, and the
round's optimum is an argmax over it: orienteering (Golden, Levy and Vohra,
NRL 34, 1987) with M tours.

The targets are the non-depot vertices whose depot round trip fits
l_max + FEASIBILITY_TOL, the slack HiGHS grants a budget row; bit b of a
mask stands for the b-th smallest target.  Held–Karp (JACM 10, 1962) fills
g[S, v], the shortest way from the depot through every vertex of S that
ends at v in S, one popcount layer at a time:
  * tocp: legs are shortest paths, and those between two targets avoid the
    depot, because the model lets an agent leave the depot only once.  Every
    subset of a set one tour covers is covered by a tour too.
  * top: legs are single edges, so a tour is a simple depot cycle through
    exactly S; [1, v, 1] counts.
S fits one tour when min over v of g[S, v] + leg(v, 1) is within the limit.
No tour that leaves v last gets home in less than the shortest path from v
to the depot, so an entry above the limit less that path is stored as inf
and never extended; the table stops at the first layer with no finite entry.
The fleet covers unions of M pairwise disjoint fitting sets, found by ranked
subset convolution (Björklund, Husfeldt, Kaski and Koivisto, STOC 2007):
exactly M nonempty ones under top, where every agent must leave the depot
and no two may share a vertex; at most M under tocp, whose spare agents
take an out-and-back.  The optimum is the union that contains every
must-visit vertex and has the largest sum of c_hat clipped at zero.  Tie
rule: the largest such union, then the lowest bitmask.  No such union
proves the round infeasible.

Only that argmax reads c_hat: fleet_table builds the rest once per episode
(certify.Structure keeps it), and best_round takes each round's argmax.

The unions run only over the ranks the fitting sets reach.  When every set
fits, nothing is pruned: the table and each of the M - 1 union steps then
take about 2 R^2 2^R element operations for R targets, and MAX_WORK caps
that dense worst case; rounds above the cap get no answer here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import DEPOT, DistanceMatrix, Graph

# Element operations one round may spend in the dense worst case (see
# table_work).  R = 17 targets with M = 2 agents (151.6 million) fit, at about
# 0.3 s and 33 MiB of arrays when every set fits one tour, on one 2-core
# x86_64 machine; pruning brings default seed 1's round 1 (R = 17, M = 2) to
# 0.11-0.15 s.  R = 18 with one agent does not fit.
MAX_WORK = 160_000_000
# Masks per vectorised step; bounds the (masks, R) temporaries.
_CHUNK = 1024


@dataclass
class RoundOptimum:
    """The best coverable union's clipped c_hat sum and one closed walk per set.

    There are at most M walks, one per nonempty set; agents beyond them have
    nothing to cover.
    """

    value: float
    walks: List[List[int]]


@dataclass
class FleetTable:
    """What a round's optimum needs that c_hat does not change (see fleet_table).

    g and pos are _held_karp's table, pop every mask's popcount, unions[j]
    the unions of j + 1 disjoint fitting sets, and eligible the last unions
    that hold every must-visit vertex (none: no plan exists).  inner and
    close are the legs; dist and around expand tocp's into paths.
    """

    targets: List[int]
    g: np.ndarray
    pos: np.ndarray
    pop: np.ndarray
    unions: List[np.ndarray]
    eligible: np.ndarray
    inner: np.ndarray
    close: np.ndarray
    dist: DistanceMatrix
    around: Optional[DistanceMatrix]


def table_work(num_targets: int, num_agents: int) -> int:
    """Element operations of the table and the unions when every set fits: 2 M R^2 2^R."""
    return 2 * num_agents * num_targets ** 2 * 2 ** num_targets


def fleet_table(
    graph: Graph,
    dist: DistanceMatrix,
    around: Optional[DistanceMatrix],
    targets: Sequence[int],
    num_agents: int,
    limit: float,
    must: Sequence[int],
) -> Optional[FleetTable]:
    """The table and unions of a round's structure, or None above MAX_WORK.

    targets, ascending, must hold every must-visit vertex.  around is the
    depot-free distance matrix under tocp and None under top, whose legs
    are single edges.
    """
    r = len(targets)
    if table_work(r, num_agents) > MAX_WORK:
        return None
    if around is None:
        adjacent = np.full((graph.num_vertices + 1,) * 2, np.inf)
        for (a, b), length in graph.edge_items():
            adjacent[a, b] = length
        first, inner, close = adjacent[DEPOT], adjacent, adjacent[:, DEPOT]
    else:
        first, inner, close = dist.dist[DEPOT], around.dist, dist.dist[:, DEPOT]
    idx = np.array(targets, dtype=np.int64)
    first, inner, close = first[idx], inner[np.ix_(idx, idx)], close[idx]

    # the margin, far above any float rounding of these sums, keeps every
    # entry that only rounding would push past the limit
    slack = limit - dist.dist[idx, DEPOT] + 1e-9 * (1.0 + limit)
    pop = _mask_sums(np.ones(r), r).astype(np.int64)
    g, pos = _held_karp(first, inner, slack, pop)
    fits = np.zeros(pop.size, dtype=bool)
    for lo in range(0, pop.size, _CHUNK):
        tours = np.min(g[lo:lo + _CHUNK] + close, axis=1, initial=np.inf)
        fits[lo:lo + _CHUNK] = tours <= limit
    fits = fits[pos]
    # the empty set: a tocp agent may take an out-and-back over a vertex
    # another covers, but a top agent claims every vertex it enters
    fits[0] = around is not None
    unions = [fits]
    if num_agents > 1:
        fits_hat = _ranked_zeta(fits, pop)
        for _ in range(num_agents - 1):
            prev_hat = fits_hat if len(unions) == 1 else _ranked_zeta(unions[-1], pop)
            unions.append(_disjoint_union(prev_hat, fits_hat, pop))

    must_mask = sum(1 << targets.index(v) for v in must)
    masks = np.arange(pop.size, dtype=np.int64)
    eligible = unions[-1] & ((masks & must_mask) == must_mask)
    return FleetTable(list(targets), g, pos, pop, unions, eligible, inner, close, dist, around)


def best_round(table: FleetTable, c_hat: np.ndarray) -> RoundOptimum:
    """The round's optimum over the table's eligible unions, of which there must be one.

    The walks are closed walks on real edges; under tocp they may use a
    directed edge twice.
    """
    targets, pop, eligible = table.targets, table.pop, table.eligible
    value = _mask_sums(np.maximum(np.asarray(c_hat, dtype=float)[targets], 0.0), len(targets))
    best = value[eligible].max()
    ties = np.flatnonzero(eligible & (value == best))
    chosen = int(ties[np.argmax(pop[ties])])

    walks = []
    for part in _split(chosen, table.unions):
        order = [targets[b] for b in _tour(part, table)]
        if table.around is None:
            walks.append([DEPOT] + order + [DEPOT])
            continue
        walk = table.dist.shortest_path(DEPOT, order[0])
        for a, b in zip(order, order[1:]):
            walk += table.around.shortest_path(a, b)[1:]
        walks.append(walk + table.dist.shortest_path(order[-1], DEPOT)[1:])
    return RoundOptimum(value=float(best), walks=walks)


def _mask_sums(weights: np.ndarray, r: int) -> np.ndarray:
    """Sum of weights[b] over the bits b of every mask, added in bit order."""
    out = np.zeros(1 << r)
    for b in range(r):
        out.reshape(-1, 2, 1 << b)[:, 1, :] += weights[b]
    return out


def _held_karp(
    first: np.ndarray, inner: np.ndarray, slack: np.ndarray, pop: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Held–Karp table g and pos: row pos[S] of g holds g[S, v] for every v.

    g[S, v] is the shortest depot -> ... -> v path through the targets of S,
    inf when v is not in S or when it exceeds slack[v], since no tour then
    fits.  Rows are stored layer by layer, in order of popcount, so each
    layer is a slice.  Every mask S of layer k with a finite entry, in chunks
    of _CHUNK, pushes min over v of g[S, v] + inner[v, w] to g[S + w, w] for
    each w outside S; S + w has no other way to end at w.  The first layer
    without a finite entry ends the table: every layer above it stays inf.
    """
    r = first.shape[0]
    order = np.argsort(pop, kind="stable")
    pos = np.empty(pop.size, dtype=np.int64)
    pos[order] = np.arange(pop.size)
    starts = np.searchsorted(pop[order], np.arange(r + 2))
    bits = 1 << np.arange(r, dtype=np.int64)
    g = np.full((pop.size, r), np.inf)
    near = first <= slack
    g[pos[bits[near]], np.flatnonzero(near)] = first[near]
    for k in range(1, r):
        live = starts[k] + np.flatnonzero(np.isfinite(g[starts[k]:starts[k + 1]]).any(axis=1))
        if live.size == 0:
            break
        for lo in range(0, live.size, _CHUNK):
            at = live[lo:lo + _CHUNK]
            rows = g[at]
            step = rows[:, :1] + inner[0]
            for v in range(1, r):
                np.minimum(step, rows[:, v:v + 1] + inner[v], out=step)
            s = order[at]
            i, w = np.nonzero(((s[:, None] & bits) == 0) & (step <= slack))
            g[pos[s[i] | bits[w]], w] = step[i, w]
    return g, pos


def _ranked_zeta(member: np.ndarray, pop: np.ndarray) -> np.ndarray:
    """z[k, S]: how many members of popcount k lie inside S.

    Only ranks up to the largest member's popcount are kept; the counts are
    int32, wrapping as _disjoint_union allows.
    """
    r = int(pop[-1])
    hits = np.flatnonzero(member)
    z = np.zeros((int(pop[hits].max(initial=0)) + 1, member.size), dtype=np.int32)
    z[pop[hits], hits] = 1
    for b in range(r):
        view = z.reshape(z.shape[0], -1, 2, 1 << b)
        view[:, :, 1, :] += view[:, :, 0, :]
    return z


def _disjoint_union(a_hat: np.ndarray, f_hat: np.ndarray, pop: np.ndarray) -> np.ndarray:
    """Masks that are A | F for a disjoint pair of a member A and a member F.

    From the ranked zeta transforms of both families: the product summed
    over ranks i + j = k, turned back by the Möbius transform, counts the
    pairs whose union is S with |A| + |F| = k, which at k = |S| are the
    disjoint ones.  Every step adds, subtracts or multiplies, so int32 that
    wraps computes each count mod 2^32; the only counts read, at k = |S|,
    are ordered pairs (A, S - A) and so at most 2^|S| <= 2^17 < 2^31, which
    makes them exact.  Ranks run only as far as the two transforms reach.
    """
    r = int(pop[-1])
    ra, rf = a_hat.shape[0] - 1, f_hat.shape[0] - 1
    out = np.zeros(pop.size, dtype=bool)
    h = np.empty(pop.size, dtype=np.int32)
    term = np.empty(pop.size, dtype=np.int32)
    for k in range(min(r, ra + rf) + 1):
        h[:] = 0
        for i in range(max(0, k - rf), min(k, ra) + 1):
            h += np.multiply(a_hat[i], f_hat[k - i], out=term)
        for b in range(r):
            view = h.reshape(-1, 2, 1 << b)
            view[:, 1, :] -= view[:, 0, :]
        out |= (pop == k) & (h > 0)
    return out


def _split(chosen: int, unions: List[np.ndarray]) -> List[int]:
    """The union chosen as disjoint fitting sets, at most one per agent.

    unions[j] holds the unions of j + 1 sets and unions[0] the fitting sets
    themselves.  Each step takes the lowest-mask fitting set that holds the
    lowest vertex still uncovered and leaves a union of one set fewer.
    """
    parts = []
    rest = chosen
    for j in range(len(unions) - 1, 0, -1):
        if rest == 0:
            break
        subs = _submasks(rest)
        ok = unions[0][subs] & unions[j - 1][rest ^ subs] & ((subs & rest & -rest) != 0)
        part = int(subs[np.argmax(ok)])
        parts.append(part)
        rest ^= part
    if rest:
        parts.append(rest)
    return parts


def _submasks(mask: int) -> np.ndarray:
    """Every submask of mask, ascending: each higher bit doubles the list above it."""
    out = np.zeros(1, dtype=np.int64)
    for b in range(mask.bit_length()):
        if mask >> b & 1:
            out = np.concatenate([out, out | (1 << b)])
    return out


def _tour(mask: int, table: FleetTable) -> List[int]:
    """Target indices of mask in the order of a shortest fitting tour, ties to the lowest."""
    v = int(np.argmin(table.g[table.pos[mask]] + table.close))
    order = [v]
    while mask != 1 << v:
        mask ^= 1 << v
        v = int(np.argmin(table.g[table.pos[mask]] + table.inner[:, v]))
        order.append(v)
    return order[::-1]
