"""The exact round DP: Held–Karp over the sets one tour covers, then unions of them.

The property test calls heldkarp.best_round directly, so no greedy or cover
certificate can answer first, and holds its value or its proof to the
brute-force oracle.  The other tests go through build_* and milp.solve and
check which rounds no longer reach HiGHS.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from patrolopt import heldkarp
from patrolopt.benchgen import BenchmarkConfig, generate_instance
from patrolopt.estimator import EstimatorState
from patrolopt.graph import DEPOT, all_pairs_shortest, walk_length
from patrolopt.instance_io import instance_graph
from patrolopt.milp import FEASIBILITY_TOL, INFEASIBLE, OPTIMAL, solve
from patrolopt.certify import Structure, _greedy_walks
from patrolopt.tocp import audit_solution, build_top, build_tocp, extract_routes

from conftest import TIGHT_LAW, make_graph, tiny_rounds
from oracle import brute_force_single_iteration


def _mask_sums(weights, r):
    """Sum of weights[b] over the bits b of every mask, added in bit order: the
    dense reference that a round's scores and the table's popcounts match."""
    out = np.zeros(1 << r)
    for b, _, upper in heldkarp._bit_halves(out, r):
        upper += weights[b]
    return out


@pytest.mark.parametrize("variant", ("tocp", "top"))
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=tiny_rounds())
def test_dp_matches_brute_force(variant, case):
    graph, c_hat, agents, l_max, must = case
    dist = all_pairs_shortest(graph)
    table = Structure(graph, dist, agents, l_max, must, variant).table
    oracle = brute_force_single_iteration(graph, c_hat, agents, l_max, must, variant=variant,
                                          dist=dist)
    if not oracle.feasible:
        assert isinstance(table, str)
        return
    answer = heldkarp.best_round(table, c_hat)
    assert isinstance(answer, heldkarp.RoundOptimum)
    assert answer.value == pytest.approx(oracle.reward, abs=1e-9)
    assert len(answer.walks) <= agents
    visited = {DEPOT}
    for walk in answer.walks:
        assert walk[0] == walk[-1] == DEPOT and DEPOT not in walk[1:-1]
        assert walk_length(graph, walk) <= l_max + FEASIBILITY_TOL
        visited.update(walk)
    if variant == "top":
        inner = [v for walk in answer.walks for v in walk[1:-1]]
        assert len(inner) == len(set(inner))
        assert len(answer.walks) == agents
    assert set(must) <= visited
    # the walks visit exactly the chosen union, so they collect its value
    assert sum(c_hat[v] for v in visited if v != DEPOT) == pytest.approx(answer.value)


@pytest.mark.parametrize("law, seed, build, optimum", [
    (TIGHT_LAW, 7, build_tocp, 3.5),
    (TIGHT_LAW, 9, build_tocp, 4.0),
    (TIGHT_LAW, 10, build_tocp, 4.0),
    ({}, 1, build_tocp, 8.5),
    ({}, 1, build_top, 8.0),
], ids=("tight-7", "tight-9", "tight-10", "default-1-tocp", "default-1-top"))
def test_benchmark_rounds_without_a_certificate_skip_highs(law, seed, build, optimum,
                                                          highs_calls):
    # round-1 models neither greedy's walks nor the cover certifies,
    # on which HiGHS took 0.2-12 s; default 1 has R = 17 targets and M = 2
    instance = generate_instance(BenchmarkConfig(**law), seed, 1)
    graph = instance_graph(instance)
    dist = all_pairs_shortest(graph)
    c_hat = EstimatorState(instance.num_vertices, instance.mu_default).predicted_cost(1)
    model, handles = build(graph, c_hat, instance.num_agents, instance.l_max,
                           instance.must_visit, dist=dist)
    if build is build_tocp:
        assert _greedy_walks(handles.structure) is None
    else:
        assert handles.structure.certified_walks is None
    sol = solve(model)
    assert highs_calls == []
    assert (sol.status, sol.node_count, sol.gap) == (OPTIMAL, 0, 0.0)
    assert sol.objective_value == pytest.approx(optimum, abs=1e-9)
    assert audit_solution(graph, sol, handles) == []


def test_must_visits_on_cycles_that_share_vertices_are_proven_infeasible(highs_calls):
    # 2 and 3 each lie on the 4-long depot cycles 1-4-x-5-1, so the
    # per-vertex cycle test passes, but every such cycle runs through both
    # 4 and 5: no cycle covers 2 and 3 together and no two are disjoint
    g = make_graph(5, [(1, 4, 1.0), (1, 5, 1.0), (2, 4, 1.0), (2, 5, 1.0),
                       (3, 4, 1.0), (3, 5, 1.0)])
    dist = all_pairs_shortest(g)
    c_hat = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    model, _ = build_top(g, c_hat, 2, 5.0, [2, 3], dist=dist)
    assert model.infeasibility_proof.startswith("no 2 vertex-disjoint simple depot cycles")
    sol = solve(model)
    assert (sol.status, sol.node_count, sol.assignment) == (INFEASIBLE, 0, None)
    assert highs_calls == []
    assert not brute_force_single_iteration(g, c_hat, 2, 5.0, [2, 3], variant="top",
                                            dist=dist).feasible
    model.infeasibility_proof = None
    assert solve(model).status == INFEASIBLE
    assert highs_calls == ["top"]
    # revisits let the agents share 4: [1, 4, 2, 5, 1] and [1, 4, 3, 4, 1]
    model, _ = build_tocp(g, c_hat, 2, 5.0, [2, 3], dist=dist)
    assert solve(model).objective_value == pytest.approx(4.0)


def test_tie_rule_takes_the_largest_union_then_the_lowest_mask(highs_calls):
    # two spokes that one tocp tour cannot join without passing the depot
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
    model, handles = build_tocp(g, np.array([0.0, 0.0, 1.0, 1.0]), 1, 4.0)
    assert extract_routes(solve(model), handles, g).routes == [[1, 2, 1]]
    # vertex 3 is worth nothing, but two agents can cover both spokes
    model, handles = build_tocp(g, np.array([0.0, 0.0, 1.0, 0.0]), 2, 4.0)
    assert extract_routes(solve(model), handles, g).routes == [[1, 2, 1], [1, 3, 1]]
    assert highs_calls == []


def test_optimum_over_l_max_within_the_slack_goes_to_highs(highs_calls):
    # vertex 3's out-and-back is l_max + 5e-7: the DP may count it, but the
    # certificate only takes walks within l_max, so HiGHS decides
    g = make_graph(3, [(1, 2, 1.0), (1, 3, 2.0 + 2.5e-7)])
    model, _ = build_tocp(g, np.array([0.0, 0.0, 1.0, 5.0]), 1, 4.0)
    assert model.certificate is None and model.infeasibility_proof is None
    assert solve(model).objective_value == pytest.approx(5.0)
    assert highs_calls == ["tocp"]


def _pairwise_unions(family, other):
    return {a | f for a in family for f in other if a & f == 0}


@pytest.mark.parametrize("agents", (2, 3))
@pytest.mark.parametrize("with_empty", (False, True), ids=("no-empty", "empty"))
@pytest.mark.parametrize("seed", range(6))
def test_ranked_unions_match_pair_enumeration(seed, with_empty, agents):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 11))
    pop = _mask_sums(np.ones(r), r).astype(np.int64)
    member = rng.random(1 << r) < rng.choice((0.05, 0.2, 0.5))
    member[0] = with_empty
    family = set(np.flatnonzero(member).tolist())
    f_hat = heldkarp._ranked_zeta(member, pop)
    for k in range(f_hat.shape[0]):
        inside = [sum(1 for a in family if a & s == a and pop[a] == k) for s in range(1 << r)]
        assert f_hat[k].tolist() == inside
    expect, unions = family, member
    for _ in range(agents - 1):
        expect = _pairwise_unions(expect, family)
        unions = heldkarp._disjoint_union(heldkarp._ranked_zeta(unions, pop), f_hat, pop)
        assert set(np.flatnonzero(unions).tolist()) == expect


def test_ranked_union_of_every_set_of_17_is_every_set():
    # ranked sums reach C(34, 17) > 2^31 before the Möbius transform; the
    # int32 counts wrap, yet every union is read back exactly
    r = 17
    pop = _mask_sums(np.ones(r), r).astype(np.int64)
    f_hat = heldkarp._ranked_zeta(np.ones(1 << r, dtype=bool), pop)
    assert heldkarp._disjoint_union(f_hat, f_hat, pop).all()


@pytest.mark.parametrize("single_visit, value, walks", [
    (False, 8.5, [[1, 2, 7, 16, 9, 10, 17, 14, 3, 1],
                  [1, 2, 16, 11, 4, 18, 6, 5, 12, 13, 8, 15, 1]]),
    (True, 8.0, [[1, 2, 18, 12, 5, 6, 4, 11, 16, 9, 1],
                 [1, 15, 13, 8, 14, 17, 10, 3, 1]]),
], ids=("tocp", "top"))
def test_default_seed_1_round_1_answer_is_pinned(single_visit, value, walks):
    # R = 17 targets and M = 2: the largest table under MAX_WORK
    instance = generate_instance(BenchmarkConfig(), 1, 1)
    graph = instance_graph(instance)
    c_hat = EstimatorState(instance.num_vertices, instance.mu_default).predicted_cost(1)
    table = Structure(graph, all_pairs_shortest(graph), instance.num_agents, instance.l_max,
                      instance.must_visit, "top" if single_visit else "tocp").table
    answer = heldkarp.best_round(table, c_hat)
    assert answer == heldkarp.RoundOptimum(value=value, walks=walks)


@pytest.mark.parametrize("variant", ("tocp", "top"))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=tiny_rounds(), seed=st.integers(0, 2 ** 32 - 1))
def test_choice_matches_the_argmax_over_every_eligible_union(variant, case, seed):
    # the dense argmax: every union that holds the must-visit vertices, valued
    # by _mask_sums, then the largest, then the lowest mask
    graph, c_hat, agents, l_max, must = case
    rng = np.random.default_rng(seed)
    c_hat = np.where(rng.random(c_hat.size) < 0.4, 0.0, c_hat)
    table = Structure(graph, all_pairs_shortest(graph), agents, l_max, must, variant).table
    if isinstance(table, str):
        return
    targets = table.targets
    must_mask = sum(1 << targets.index(v) for v in must)
    masks = np.flatnonzero(table.unions[-1])
    masks = masks[(masks & must_mask) == must_mask]
    value = _mask_sums(np.maximum(c_hat[targets], 0.0), len(targets))[masks]
    chosen = min(masks[value == value.max()].tolist(), key=lambda m: (-m.bit_count(), m))
    answer = heldkarp.best_round(table, c_hat)
    assert answer.value == value.max()
    visited = {v for walk in answer.walks for v in walk} - {DEPOT}
    assert visited == {v for b, v in enumerate(targets) if chosen >> b & 1}


@pytest.mark.parametrize("variant", ("tocp", "top"))
def test_default_seed_1_rounds_make_no_pass_over_every_mask(variant, monkeypatch):
    # R = 17: a round scores the table's few maximal eligible unions instead
    # of summing c_hat over all 2^17 masks
    instance = generate_instance(BenchmarkConfig(), 1, 1)
    graph = instance_graph(instance)
    c_hat = EstimatorState(instance.num_vertices, instance.mu_default).predicted_cost(1)
    table = Structure(graph, all_pairs_shortest(graph), instance.num_agents, instance.l_max,
                      instance.must_visit, variant).table

    def dense(*args):
        raise AssertionError("a round passed over every mask")

    monkeypatch.setattr(heldkarp, "_bit_halves", dense)
    answer = heldkarp.best_round(table, c_hat)
    assert answer.value == (8.5 if variant == "tocp" else 8.0)


def _closed_family(r, case, rng):
    """Every set, only the empty set, or the sets under a few random masks: each
    holds every subset of its members."""
    if case == "every-set":
        return np.ones(1 << r, dtype=bool)
    family = np.zeros(1 << r, dtype=bool)
    family[0] = True
    if case != "empty-set":
        for top in rng.integers(0, 1 << r, size=int(rng.integers(1, 7))):
            family[[s for s in range(1 << r) if s & top == s]] = True
    return family


@pytest.mark.parametrize("agents", (2, 3))
@pytest.mark.parametrize("case", [*range(8), "every-set", "empty-set"])
def test_maximal_set_unions_match_pair_enumeration(case, agents, monkeypatch):
    # a closed family's unions come from its maximal sets alone: the ranked
    # convolution must not run
    rng = np.random.default_rng(case if isinstance(case, int) else 99)
    r = (1, 2, 3, 5, 7, 8, 9, 10)[case] if isinstance(case, int) else 10
    member = _closed_family(r, case, rng)
    monkeypatch.setattr(heldkarp, "_ranked_zeta", None)
    unions = heldkarp._unions(member, r, agents, closed=True)
    family = set(np.flatnonzero(member).tolist())
    expect = family
    assert len(unions) == agents and unions[0] is member
    for union in unions[1:]:
        expect = _pairwise_unions(expect, family)
        assert set(np.flatnonzero(union).tolist()) == expect


def test_many_maximal_sets_take_the_ranked_unions(monkeypatch):
    # every set of at most 5 of 10 targets: 252 maximal sets, whose 63,504
    # pairs pass R 2^R = 10,240, so the ranked convolution answers
    r = 10
    pop = _mask_sums(np.ones(r), r).astype(np.int64)
    member = pop <= 5
    assert heldkarp._maximal(member, r).size == 252
    real, calls = heldkarp._ranked_zeta, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(heldkarp, "_ranked_zeta", spy)
    unions = heldkarp._unions(member, r, 3, closed=True)
    assert calls
    family = set(np.flatnonzero(member).tolist())
    expect = _pairwise_unions(family, family)
    assert set(np.flatnonzero(unions[1]).tolist()) == expect
    assert set(np.flatnonzero(unions[2]).tolist()) == _pairwise_unions(expect, family)


@pytest.mark.parametrize("agents", (2, 3, 4, 5))
@pytest.mark.parametrize("r", range(1, 11))
def test_pair_unions_of_sets_without_the_empty_one_match_pair_enumeration(r, agents, monkeypatch):
    # top's families are not closed under subsets; sparse enough, every
    # step marks pairs: the ranked convolution must not run
    rng = np.random.default_rng([r, agents])
    member = rng.random(1 << r) < rng.choice((0.05, 0.2, 0.5))
    member[0] = False
    monkeypatch.setattr(heldkarp, "_ranked_zeta", None)
    unions = heldkarp._unions(member, r, agents, closed=False)
    family = set(np.flatnonzero(member).tolist())
    expect = family
    assert len(unions) == agents and unions[0] is member
    for union in unions[1:]:
        expect = _pairwise_unions(expect, family)
        assert set(np.flatnonzero(union).tolist()) == expect


def test_every_nonempty_set_takes_the_ranked_unions(monkeypatch):
    # every nonempty set of 10 targets: step 1 would mark 348,502 pairs, more
    # than table_work(10, 3) / _PAIR_COST = 204,800, so the ranked
    # convolution answers; j + 1 disjoint nonempty sets cover exactly the
    # sets of at least j + 1 targets
    r = 10
    pop = _mask_sums(np.ones(r), r).astype(np.int64)
    member = pop >= 1
    real, calls = heldkarp._ranked_zeta, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(heldkarp, "_ranked_zeta", spy)
    unions = heldkarp._unions(member, r, 3, closed=False)
    assert calls
    for j, union in enumerate(unions):
        assert np.array_equal(union, pop >= j + 1)


def test_default_seed_1_top_table_marks_pairs(monkeypatch):
    # R = 17, M = 2 and 620 fitting sets: 62,229 pairs, far below
    # table_work(17, 2) / _PAIR_COST
    instance = generate_instance(BenchmarkConfig(), 1, 1)
    graph = instance_graph(instance)
    calls = []
    monkeypatch.setattr(heldkarp, "_ranked_zeta", lambda *args: calls.append(args))
    table = Structure(graph, all_pairs_shortest(graph), instance.num_agents, instance.l_max,
                      instance.must_visit, "top").table
    assert isinstance(table, heldkarp.FleetTable) and len(table.unions) == 2
    assert not calls


def _plain_passes(a, r, update):
    """update(lower, upper) for every bit through the (..., 2, 2^b) view, bit by bit."""
    for b in range(r):
        view = a.reshape(a.shape[:-1] + (-1, 2, 1 << b))
        update(b, view[..., 0, :], view[..., 1, :])


def _zeta(_, lower, upper):
    upper += lower


def _moebius(_, lower, upper):
    upper -= lower


def _closure(_, lower, upper):
    lower |= upper


@pytest.mark.parametrize("r", range(1, 11))
def test_low_bit_passes_match_the_plain_loop(r):
    # R = 1 and 2 have fewer than 8 masks: only their bits below R take the
    # column passes
    rng = np.random.default_rng(r)
    ranked = rng.integers(-1000, 1000, size=(int(rng.integers(1, 5)), 1 << r), dtype=np.int32)
    for update, start in ((_zeta, ranked), (_moebius, ranked), (_closure, ranked[0] > 500)):
        expect, got = start.copy(), start.copy()
        _plain_passes(expect, r, update)
        for b, lower, upper in heldkarp._bit_halves(got, r):
            update(b, lower, upper)
        assert np.array_equal(got, expect)
    weights = rng.random(r)
    expect = np.zeros(1 << r)
    _plain_passes(expect, r, lambda b, _, upper: upper.__iadd__(weights[b]))
    assert _mask_sums(weights, r).tobytes() == expect.tobytes()
    # the table's popcounts, which the ranked convolution reads
    assert np.array_equal(np.bitwise_count(np.arange(1 << r, dtype=np.int64)),
                          _mask_sums(np.ones(r), r))


def test_default_seed_1_table_keeps_only_live_rows():
    # a dense 2^17 x 17 table alone is 17.8 MiB; with it the peak was 27.4 MiB
    instance = generate_instance(BenchmarkConfig(), 1, 1)
    graph = instance_graph(instance)
    structure = Structure(graph, all_pairs_shortest(graph), instance.num_agents,
                          instance.l_max, instance.must_visit, "tocp")
    tracemalloc.start()
    try:
        table = structure.table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27.4 / 2 * 2 ** 20
    assert sum(masks.size for masks, _ in table.layers) == 7_333


def _row_held_karp(first, legs, slack, limit):
    """The row-layout table, kept verbatim as the reference: layers of (masks,
    rows) with rows[i, v] = g[masks[i], v], pushed one (chunk, R + 1) block
    per v."""
    chunk = 1024
    r = first.shape[0]
    bits = 1 << np.arange(r, dtype=np.int64)
    near = np.flatnonzero(first <= slack)
    masks = bits[near]
    rows = np.full((near.size, r), np.inf)
    rows[np.arange(near.size), near] = first[near]
    fits = np.zeros(1 << r, dtype=bool)
    seen = np.zeros(1 << r, dtype=bool)
    slot = np.empty(1 << r, dtype=np.int64)
    layers = []
    while masks.size:
        layers.append((masks, rows))
        heads, ends, values = [], [], []
        for lo in range(0, masks.size, chunk):
            block = rows[lo:lo + chunk]
            step = block[:, :1] + legs[0]
            for v in range(1, r):
                np.minimum(step, block[:, v:v + 1] + legs[v], out=step)
            s = masks[lo:lo + chunk]
            fits[s] = step[:, r] <= limit
            i, w = np.nonzero(((s[:, None] & bits) == 0) & (step[:, :r] <= slack))
            heads.append(s[i] | bits[w])
            ends.append(w)
            values.append(step[i, w])
        pushed = np.concatenate(heads)
        seen[pushed] = True
        masks = np.flatnonzero(seen)
        seen[masks] = False
        slot[masks] = np.arange(masks.size)
        rows = np.full((masks.size, r), np.inf)
        rows[slot[pushed], np.concatenate(ends)] = np.concatenate(values)
    return layers, fits


@pytest.mark.parametrize("chunk", (None, 3), ids=("chunk-1024", "chunk-3"))
@pytest.mark.parametrize("variant", ("tocp", "top"))
@pytest.mark.parametrize("r", range(1, 13))
def test_column_table_matches_the_row_table(r, variant, chunk, monkeypatch):
    # few distinct lengths, so many sums tie, and some like 0.1 and 0.7 whose
    # sums round; top's legs are single edges, about a third of them missing
    # (inf), and its closing legs too.  The limits run from a table that
    # stops after a layer or two to one where every set fits.  A chunk of 3
    # splits every layer, and the scatter takes its pushes in another order
    # than the reference's
    if chunk:
        monkeypatch.setattr(heldkarp, "_CHUNK", chunk)
    rng = np.random.default_rng([r, variant == "top"])
    lengths = np.array([1.0, 1.0, 2.0, 0.5, 0.1, 0.7, 2.9])
    for limit in (1.5, 0.2 * r + 2.0, 0.4 * r + 2.0, 0.7 * r + 2.0, 4.0 * r):
        first, legs = rng.choice(lengths, r), rng.choice(lengths, (r, r + 1))
        back = rng.choice(lengths, r)
        if variant == "top":
            first[rng.random(r) < 0.35] = np.inf
            legs[rng.random(legs.shape) < 0.35] = np.inf
        slack = limit - back + 1e-9 * (1.0 + limit)
        bufsize = np.getbufsize()
        layers, fits = heldkarp._held_karp(first, legs, slack, limit)
        assert np.getbufsize() == bufsize  # the push's small ufunc buffer does not leak
        expect_layers, expect_fits = _row_held_karp(first, legs, slack, limit)
        assert len(layers) == len(expect_layers)
        for (masks, cols), (expect_masks, rows) in zip(layers, expect_layers):
            assert masks.tobytes() == expect_masks.tobytes()
            assert cols.tobytes() == np.ascontiguousarray(rows.T).tobytes()
        assert fits.tobytes() == expect_fits.tobytes()


def _bit_loop_above(family, r):
    """above[S]: some member is S plus one bit, by _bit_halves bit by bit (the reference)."""
    above = np.zeros_like(family)
    for (_, lower, _), (_, _, upper) in zip(heldkarp._bit_halves(above, r),
                                            heldkarp._bit_halves(family, r)):
        lower |= upper
    return above


def _bit_loop_closure(family, r):
    """Every subset of a member, by _bit_halves bit by bit (the reference)."""
    closed = family.copy()
    for _, lower, upper in heldkarp._bit_halves(closed, r):
        lower |= upper
    return closed


@pytest.mark.parametrize("r", range(13))
def test_word_passes_match_the_bit_loops(r):
    # every density from no member to every set, and single members, at
    # every word width: r < 3 packs all 2^r masks into one word
    rng = np.random.default_rng(r)
    families = [rng.random(1 << r) < density
                for density in (0.0, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 1.0)]
    for member in rng.integers(0, 1 << r, size=3):
        families.append(np.arange(1 << r) == member)
    for family in families:
        above = np.zeros_like(family)
        heldkarp._or_from_above(above, family, r)
        assert above.tobytes() == _bit_loop_above(family, r).tobytes()
        expect = np.flatnonzero(family & ~_bit_loop_above(family, r))
        assert heldkarp._maximal(family, r).tobytes() == expect.tobytes()
        closed = family.copy()
        heldkarp._or_from_above(closed, closed, r)
        assert closed.tobytes() == _bit_loop_closure(family, r).tobytes()
