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
and never extended.  A layer keeps only its live masks, those with a
finite entry, ascending, and g over them one column per mask, so the push
runs along the masks; the table stops at the first layer with none.
The fleet covers unions of M pairwise disjoint fitting sets: exactly M
nonempty ones under top, where every agent must leave the depot and no two
may share a vertex; at most M under tocp, whose spare agents take an
out-and-back.  They are built one set at a time, by marking pairs where
the pairs are few (see _unions):
  * under tocp, where the fitting sets are closed under subsets, the
    unions are the subsets of unions of M maximal fitting sets, which are
    few: up to R 2^R pairs of maximal sets are marked;
  * under top, a union of j + 1 sets is A | F for A a union of j and F a
    fitting set disjoint from it that holds the lowest bit of A | F: up to
    table_work / 3 such pairs are marked.  Of the top families of the
    benchmark's structures only loose-exact structure 8's, with 20,776
    fitting sets, has more.
A step with more pairs takes ranked subset convolution (Björklund,
Husfeldt, Kaski and Koivisto, STOC 2007) instead.  The optimum is the
union that contains every must-visit vertex and has the largest sum of
c_hat, which certify.Structure.check_c_hat has checked to be finite and
>= 0.  Tie rule: the largest such union, then the lowest
bitmask.  No such union proves the round infeasible.

Only that argmax reads c_hat: fleet_table builds the rest once per episode
(certify.Structure keeps it) down to the maximal eligible unions, which a
round scores before it splits its choice among the fitting sets inside it.

The ranked unions run only over the ranks the fitting sets reach.  When
every set fits, nothing is pruned: the table and each of top's M - 1 union
steps, which then take the convolution, cost about 2 R^2 2^R element
operations for R targets, and MAX_WORK caps that dense worst case; rounds
above the cap get no answer here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .graph import DEPOT, DistanceMatrix, Graph

# Element operations one round may spend in the dense worst case (see
# table_work).  R = 17 targets with M = 2 agents (151.6 million) fit: when
# every set fits one tour (18 vertices joined pairwise by edges of length
# uniform in [1, 2], an unbounded budget) the table takes 0.054-0.076 s
# under tocp and 0.10-0.12 s under top, with 27-31 MiB of traced arrays
# (tracemalloc's peak).  Default seed 1's round 1 (R = 17, M = 2) keeps few
# live rows and takes 0.0043-0.0063 s (tocp) and 0.0024-0.0041 s (top, whose
# unions mark 62,229 pairs).  Each range runs from the best to the median of
# 7 builds, over three runs on one 2-core x86_64 machine with numpy 2.4.
# R = 18 with one agent does not fit.
MAX_WORK = 160_000_000
# Masks per vectorised step; bounds the (R, masks) temporaries.
_CHUNK = 1024
# table_work units one marked top pair is worth when _unions picks its path.
_PAIR_COST = 3
# _or_from_above's words: _WORDS[k] is the little-endian dtype of 2^k
# one-byte masks and, for each bit b < k, the word with a 1 in every byte
# whose index lacks b
_WORDS = [(word, [word.type(sum(1 << 8 * j for j in range(word.itemsize) if not j >> b & 1))
                  for b in range(k)])
          for k, word in enumerate(np.dtype(f"<u{1 << k}") for k in range(4))]


@dataclass
class RoundOptimum:
    """The best coverable union's c_hat sum and one closed walk per set.

    There are at most M walks, one per nonempty set; agents beyond them have
    nothing to cover.
    """

    value: float
    walks: List[List[int]]


@dataclass
class FleetTable:
    """What a round's optimum needs that c_hat does not change (see fleet_table).

    layers are _held_karp's (masks, cols), layers[k - 1] those of popcount
    k, with cols[v, i] = g[masks[i], v]; unions[j] the unions of j + 1
    disjoint fitting sets (under tocp from the maximal ones), and choices,
    ascending, the eligible ones: last unions that hold every must-visit
    vertex and have no such union one bit above them (none: no plan
    exists).  inner and close are the legs; dist and around expand tocp's
    into paths.
    """

    targets: List[int]
    layers: List[Tuple[np.ndarray, np.ndarray]]
    unions: List[np.ndarray]
    choices: np.ndarray
    inner: np.ndarray
    close: np.ndarray
    dist: DistanceMatrix
    around: Optional[DistanceMatrix]


def table_work(num_targets: int, num_agents: int) -> int:
    """Element operations of the table and top's unions when every set fits: 2 M R^2 2^R.

    Under tocp every set fitting leaves one maximal set, so its unions cost
    nothing next to the table; the bound is the same for both variants.
    """
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
    layers, fits = _held_karp(first, np.column_stack([inner, close]), slack, limit)
    # the empty set: a tocp agent may take an out-and-back over a vertex
    # another covers, but a top agent claims every vertex it enters
    fits[0] = around is not None
    unions = _unions(fits, r, num_agents, closed=around is not None)

    must_mask = sum(1 << targets.index(v) for v in must)
    choices = _maximal(unions[-1] & ((np.arange(1 << r) & must_mask) == must_mask), r)
    return FleetTable(list(targets), layers, unions, choices, inner, close, dist, around)


def best_round(table: FleetTable, c_hat: np.ndarray) -> RoundOptimum:
    """The round's optimum over the table's eligible unions, of which there must be one.

    Only table.choices is scored, adding weights in ascending bit order and
    0.0 for absent bits.  c_hat must be >= 0, as certify.Structure.check_c_hat
    checks, so an eligible strict superset of the chosen union (best value,
    then most vertices, then lowest mask) would tie it and be larger, so the
    choice is in choices.  Under top, choices may also hold unions with a
    larger eligible superset, but they are eligible too.  The walks are
    closed walks on real edges; under tocp they may use a directed edge
    twice.
    """
    targets, choices = table.targets, table.choices
    weights = np.asarray(c_hat, dtype=float)[targets]
    value = np.zeros(choices.size)
    for b, weight in enumerate(weights):
        value += np.where(choices >> b & 1, weight, 0.0)
    best = value.max()
    chosen = max(choices[value == best].tolist(), key=int.bit_count)

    walks = []
    for part in _split(chosen, table.unions):
        order = [targets[b] for b in _tour(part, table)]
        if table.around is None:
            walks.append([DEPOT] + order + [DEPOT])
        else:
            walks.append(tocp_walk(order, table.dist, table.around))
    return RoundOptimum(value=float(best), walks=walks)


def tocp_walk(order: Sequence[int], dist: DistanceMatrix, around: DistanceMatrix) -> List[int]:
    """The closed walk through the targets of order along tocp's legs, expanded into paths.

    Shortest paths lead from the depot to the first target and from the last
    one back; those between targets avoid the depot.  Every leg must exist.
    """
    walk = dist.shortest_path(DEPOT, order[0])
    for a, b in zip(order, order[1:]):
        walk += around.shortest_path(a, b)[1:]
    return walk + dist.shortest_path(order[-1], DEPOT)[1:]


def _bit_halves(a: np.ndarray, r: int) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """(b, lower, upper) views for every bit b < r of the 2^r masks along a's last axis.

    lower holds masks without b and upper the same masks with b, bit by bit
    in ascending order, so a transform updates one from the other in place.
    Bits 0-2 come one column pair at a time from a (..., 2^(b + 1)) view: a
    (..., 2, 2^b) view would give them blocks of 1-4 elements, through
    which numpy steps slowly.
    """
    for b in range(r):
        if b < 3:
            cols = a.reshape(a.shape[:-1] + (-1, 2 << b))
            for c in range(1 << b):
                yield b, cols[..., c], cols[..., c | 1 << b]
        else:
            view = a.reshape(a.shape[:-1] + (-1, 2, 1 << b))
            yield b, view[..., 0, :], view[..., 1, :]


def _held_karp(
    first: np.ndarray, legs: np.ndarray, slack: np.ndarray, limit: float
) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Held–Karp's live masks, one (masks, cols) layer per popcount from 1 up, and fits.

    masks ascend, and cols[v, i] is g[masks[i], v], the shortest
    depot -> ... -> v path through the targets of the mask: inf when v is not
    in the mask or when the path exceeds slack[v], since no tour then fits.
    A mask is stored only when its column holds a finite entry.  legs is
    inner with close as one more column.  Every mask of layer k, in chunks of
    _CHUNK, takes min over v of g[S, v] + legs[v, w], one add and one minimum
    per v over the chunk's masks: for each w outside S it is pushed to
    g[S + w, w], and in the last row it is S's shortest tour, which sets
    fits[S] when within limit.  S + w has no other way to end at w, so each
    cell of the next layer is written by exactly one push, in any order.  Two
    arrays over all masks, reused by every layer, merge the pushes without a
    sort: seen marks the pushed masks, which read back in ascending order,
    and slot maps each to its column.  The table ends at the first layer
    with no mask.
    """
    r = first.shape[0]
    bits = 1 << np.arange(r, dtype=np.int64)
    near = np.flatnonzero(first <= slack)
    masks = bits[near]
    cols = np.full((r, near.size), np.inf)
    cols[near, np.arange(near.size)] = first[near]
    fits = np.zeros(1 << r, dtype=bool)
    seen = np.zeros(1 << r, dtype=bool)
    slot = np.empty(1 << r, dtype=np.int64)
    layers = []
    # numpy runs a broadcast ufunc whose inner axis is shorter than a third of
    # its buffer size, 8,192 elements by default, through that buffer, which
    # doubled the push's time on chunks of 128-2,730 masks (numpy 2.4).  With
    # 1,024 elements a chunk of 342 masks or more runs unbuffered, while a
    # small layer's few masks still fit one buffer or a few.  Leaving
    # np.errstate restores the size; every entry is the same.
    with np.errstate():
        np.setbufsize(1024)
        while masks.size:
            layers.append((masks, cols))
            heads, ends, values = [], [], []
            for lo in range(0, masks.size, _CHUNK):
                chunk = cols[:, lo:lo + _CHUNK]
                step = chunk[0] + legs[0, :, None]
                tmp = np.empty_like(step)
                for v in range(1, r):
                    np.minimum(step, np.add(chunk[v], legs[v, :, None], out=tmp), out=step)
                s = masks[lo:lo + _CHUNK]
                fits[s] = step[r] <= limit
                # S + w for every (w, S), which differs from S where w is outside
                # it; the pushes are read at flat indices into its first r rows
                grown = s | bits[:, None]
                flat = np.flatnonzero((grown != s) & (step[:r] <= slack[:, None]))
                heads.append(grown.reshape(-1)[flat])
                ends.append(flat // s.size)
                values.append(step.reshape(-1)[flat])
                # freed before the next chunk's and the scatter's arrays, which
                # then reuse their memory instead of growing the heap
                del step, tmp, grown, flat
            pushed = np.concatenate(heads)
            seen[pushed] = True
            masks = np.flatnonzero(seen)
            seen[masks] = False
            slot[masks] = np.arange(masks.size)
            cols = np.full((r, masks.size), np.inf)
            cols[np.concatenate(ends), slot[pushed]] = np.concatenate(values)
    return layers, fits


def _unions(fits: np.ndarray, r: int, num_agents: int, closed: bool) -> List[np.ndarray]:
    """unions[j]: the unions of j + 1 disjoint fitting sets of r targets, for j < num_agents.

    Each step marks pairs through _mark_pairs when they are few enough, and
    runs the ranked subset convolution, over every mask's popcount, otherwise.
      * closed (tocp) says every subset of a fitting set fits.  The unions
        of j + 1 fitting sets are then the subsets of the unions of j + 1
        maximal ones, fitting sets with no fitting superset one bit larger:
        a step marks every A | F for A maximal in the last step's unions
        and F maximal fitting, overlapping or not, and takes the marks'
        downward closure.  The pairs run up to R 2^R.  That crossover rests
        on one measured family, every set of at most 8 of 17 targets
        (24,310 maximal sets): its table took 0.18 s with the convolution
        and 2.02 s with the pairs.  No benchmark round reaches it; the
        round-1 tables of default seeds 1-60 have at most 112 maximal sets.
      * otherwise (top) the family must not hold the empty set.  A step
        marks A | F for A in the last step's unions and F fitting with
        A & F == 0, and only where F holds the lowest bit of A | F: the set
        that holds it can always be split off, so every union is still
        marked, and A then has no bit at or below F's lowest.  The pairs
        run up to table_work(R, M) / _PAIR_COST.
    _PAIR_COST comes from the 79 steps of 33 top families, those of the
    benchmark's 14 structures and of the 19 round-1 tables of default seeds
    1-120 that reach the DP, each step timed both ways in one process on a
    2-core x86_64 machine.  The 20 steps with 10^6 pairs or more broke even
    where table_work was 2.7-22.6 times their pairs; the 59 smaller ones
    marked their pairs 1.2-180 times faster than the convolution.  With 3
    every step takes the faster path but one, default seed 34's first
    (R = 17, M = 5, above MAX_WORK; 92 ms of pairs against 79 ms), and only
    loose-exact structure 8 (R = 17, M = 2, 20,776 fitting sets, 131
    million pairs) keeps the convolution.  The 54 steps under MAX_WORK took
    0.23 s instead of 0.65 s with the convolution alone.  Default seed 1
    (R = 17, M = 2, 620 fitting sets) marks 62,229 pairs in 0.8 ms instead
    of 46-59 ms.
    """
    unions = [fits]
    f_hat = None
    if closed:
        maximal = _maximal(fits, r) if num_agents > 1 else None
        most = r << r
    else:
        # fitting sets by their lowest bit b: masks 2^b mod 2^(b + 1)
        lowest = [np.flatnonzero(fits[1 << b::2 << b]) * (2 << b) + (1 << b) for b in range(r)]
        most = table_work(r, num_agents) // _PAIR_COST
    while len(unions) < num_agents:
        if closed:
            cur = maximal if len(unions) == 1 else _maximal(unions[-1], r)
            blocks = [(cur, maximal)]
        else:
            # the unions with no bit at or below b: every 2^(b + 1)-th mask
            blocks = [(np.flatnonzero(unions[-1][::2 << b]) * (2 << b), lowest[b])
                      for b in range(r) if lowest[b].size]
        if sum(heads.size * tails.size for heads, tails in blocks) <= most:
            marks = np.zeros_like(fits)
            for heads, tails in blocks:
                _mark_pairs(marks, heads, tails, disjoint=not closed)
            if closed:
                _or_from_above(marks, marks, r)
            unions.append(marks)
            continue
        if f_hat is None:
            pop = np.bitwise_count(np.arange(1 << r, dtype=np.int64))
            f_hat = _ranked_zeta(fits, pop)
        prev_hat = f_hat if len(unions) == 1 else _ranked_zeta(unions[-1], pop)
        unions.append(_disjoint_union(prev_hat, f_hat, pop))
    return unions


def _mark_pairs(marks: np.ndarray, heads: np.ndarray, tails: np.ndarray, disjoint: bool) -> None:
    """Set marks[A | F] for every A in heads and F in tails, only where A & F == 0 if disjoint."""
    # rows of heads per step, so that a step ORs about 64 _CHUNK pairs
    span = max(1, (_CHUNK << 6) // max(tails.size, 1))
    for lo in range(0, heads.size, span):
        a = heads[lo:lo + span, None]
        both = a | tails
        marks[both[(a & tails) == 0] if disjoint else both] = True


def _maximal(family: np.ndarray, r: int) -> np.ndarray:
    """The members of a family, ascending, with no member one bit larger above them."""
    above = np.zeros_like(family)
    _or_from_above(above, family, r)
    return np.flatnonzero(family & ~above)


def _or_from_above(out: np.ndarray, family: np.ndarray, r: int) -> None:
    """out[S] |= family[S + b] for every bit b < r outside S, bit by bit from the lowest up.

    out and family are contiguous bools over the 2^r masks; with out as
    family itself this is the downward closure.  Both are read as
    little-endian words of 2^min(r, 3) masks, one byte each, so mask S is
    byte S mod 8 of word S >> 3.  A bit b < 3 moves bytes within each word:
    a shift down by 8 << b bits, masked to the bytes whose index lacks b
    (_WORDS).  A higher bit is bit b - 3 of the word index, which _bit_halves
    walks, once when out is family.
    """
    word, low_bytes = _WORDS[min(r, 3)]
    dst, src = out.view(word), family.view(word)
    moved = np.empty_like(src)
    for b, keep in enumerate(low_bytes):
        np.right_shift(src, 8 << b, out=moved)
        dst |= np.bitwise_and(moved, keep, out=moved)
    if out is family:
        halves = ((lower, upper) for _, lower, upper in _bit_halves(dst, r - 3))
    else:
        halves = ((lower, upper) for (_, lower, _), (_, _, upper)
                  in zip(_bit_halves(dst, r - 3), _bit_halves(src, r - 3)))
    for lower, upper in halves:
        lower |= upper


def _ranked_zeta(member: np.ndarray, pop: np.ndarray) -> np.ndarray:
    """z[k, S]: how many members of popcount k lie inside S.

    Only ranks up to the largest member's popcount are kept; the counts are
    int32, wrapping as _disjoint_union allows.
    """
    hits = np.flatnonzero(member)
    z = np.zeros((int(pop[hits].max(initial=0)) + 1, member.size), dtype=np.int32)
    z[pop[hits], hits] = 1
    for _, lower, upper in _bit_halves(z, int(pop[-1])):
        upper += lower
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
        for _, lower, upper in _bit_halves(h, r):
            upper -= lower
        out |= (pop == k) & (h > 0)
    return out


def _split(chosen: int, unions: List[np.ndarray]) -> List[int]:
    """The union chosen as disjoint fitting sets, at most one per agent.

    unions[j] holds the unions of j + 1 sets and unions[0] the fitting sets
    themselves.  Each step takes the lowest-mask fitting set that holds the
    lowest vertex still uncovered and leaves a union of one set fewer,
    scanning only the fitting sets inside what is left.
    """
    fitting = np.flatnonzero(unions[0])
    parts = []
    rest = chosen
    for j in range(len(unions) - 1, 0, -1):
        if rest == 0:
            break
        inside = fitting[((fitting & ~rest) == 0) & ((fitting & rest & -rest) != 0)]
        part = int(inside[np.argmax(unions[j - 1][rest ^ inside])])
        parts.append(part)
        rest ^= part
    if rest:
        parts.append(rest)
    return parts


def _tour(mask: int, table: FleetTable) -> List[int]:
    """Target indices of mask in the order of a shortest fitting tour, ties to the lowest."""
    v = int(np.argmin(_row(mask, table) + table.close))
    order = [v]
    while mask != 1 << v:
        mask ^= 1 << v
        v = int(np.argmin(_row(mask, table) + table.inner[:, v]))
        order.append(v)
    return order[::-1]


def _row(mask: int, table: FleetTable) -> np.ndarray:
    """g[mask, :], one column of its popcount's layer; mask must be live."""
    masks, cols = table.layers[mask.bit_count() - 1]
    return cols[:, np.searchsorted(masks, mask)]
