"""Shared fixtures: small hand-built scenarios with independently known optima."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from patrolopt import heldkarp, milp
# the test modules read the tight budget law from here
from patrolopt.benchgen import TIGHT_LAW, BenchmarkConfig
from patrolopt.graph import Graph, all_pairs_shortest, symmetrize
from patrolopt.instance_io import Instance


def make_graph(num_vertices, undirected_edges):
    return Graph(num_vertices, symmetrize(undirected_edges))


@pytest.fixture
def highs_calls(monkeypatch):
    """Name the variant of every model that reaches HiGHS; top's alone has visit-once rows."""
    calls = []
    real = milp._solve_highs

    def spy(model, time_limit):
        top = any(con.name.startswith("visit_once_") for con in model.constraints)
        calls.append("top" if top else "tocp")
        return real(model, time_limit)

    monkeypatch.setattr(milp, "_solve_highs", spy)
    return calls


@pytest.fixture
def no_dp(monkeypatch):
    """Put every round above the exact DP's cost cap, so it answers none."""
    monkeypatch.setattr(heldkarp, "MAX_WORK", -1)


class DrawnRng:
    """The numpy Generator calls a case builder makes, answered by Hypothesis's draw.

    A builder written against a seeded numpy.random.default_rng, whose cases
    a test can count whatever else ran in the process, then also serves a
    Hypothesis search, which can shrink what it finds.
    """

    def __init__(self, draw):
        self.draw = draw

    def integers(self, low, high):
        """An int in [low, high), as Generator.integers draws it."""
        return self.draw(st.integers(low, high - 1))

    def uniform(self, low, high):
        return self.draw(st.floats(low, high, exclude_max=True))


def distinct(rng, items, low, high):
    """low to high distinct members of items (fewer if it has fewer), in draw order."""
    pool = list(items)
    count = int(rng.integers(low, min(high, len(pool)) + 1))
    return [pool.pop(int(rng.integers(0, len(pool)))) for _ in range(count)]


@st.composite
def tiny_rounds(draw):
    """A connected graph on at most 6 vertices, rewards with zeros, 1-2 agents."""
    n = draw(st.integers(2, 6))
    length = st.sampled_from([1.0, 1.5, 2.0])
    edges = {}
    for v in range(2, n + 1):
        edges[(draw(st.integers(1, v - 1)), v)] = draw(length)
    for a, b in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=3)):
        if a != b:
            edges[(min(a, b), max(a, b))] = draw(length)
    graph = make_graph(n, [(a, b, l) for (a, b), l in sorted(edges.items())])
    rewards = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n - 1,
                            max_size=n - 1))
    c_hat = np.array([0.0, 0.0] + rewards)
    agents = draw(st.integers(1, 2))
    l_max = draw(st.sampled_from([2.0, 3.0, 4.0, 6.0, 8.0]))
    must = draw(st.sets(st.integers(2, n), max_size=1))
    return graph, c_hat, agents, l_max, sorted(must)


@pytest.fixture
def bridge():
    """Path 1-2-3 with unit edges: reaching vertex 3 forces a revisit of 2.

    With l_max = 4 and rewards (v2, v3) = (0.1, 10): allowing revisits collects
    10.1 via [1,2,3,2,1]; single-visit routing can only afford [1,2,1] for 0.1.
    """
    graph = make_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    dist = all_pairs_shortest(graph)
    c_hat = np.array([0.0, 0.0, 0.1, 10.0])
    return graph, dist, c_hat, 4.0


@pytest.fixture
def star():
    """Hub at 2 with leaves 3 and 4: both leaves pay 5, the hub pays 1.

    l_max = 6 lets a revisiting walk take everything (11); at-most-once
    routing cannot pass through the hub twice, so it settles for 1.
    """
    graph = make_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0)])
    dist = all_pairs_shortest(graph)
    c_hat = np.array([0.0, 0.0, 1.0, 5.0, 5.0])
    return graph, dist, c_hat, 6.0


@pytest.fixture
def horizon_gap_instance():
    """Two-round instance where chaining single-round optima is suboptimal.

    Round 1 costs: v2=v3=v4=5, v5=v6=4; no growth afterwards.  The greedy-in-time
    choice grabs {2,3,4} (15) and then can only clear one of v5/v6, totalling 12
    residual; clearing {2,3,5} then {4,6} totals 9.
    """
    edges = [
        (1, 2, 1.0),
        (2, 3, 1.0),
        (3, 5, 1.5),
        (1, 5, 1.5),
        (1, 4, 1.0),
        (4, 6, 1.5),
        (1, 6, 2.5),
        (2, 4, 0.5),
    ]
    return Instance(
        seed=0,
        horizon=2,
        num_vertices=6,
        num_agents=1,
        l_max=5.0,
        positions=[(0.0, 0.0)] * 6,
        edges=edges,
        must_visit=[],
        mu_star=[0.0] * 6,
        mu_default=0.5,
        noise_stddev=0.0,
        kappa=[
            [0.0, 0.0],
            [5.0, 0.0],
            [5.0, 0.0],
            [5.0, 0.0],
            [4.0, 0.0],
            [4.0, 0.0],
        ],
    )



def tiny_config(**overrides):
    """Generator config small enough for exhaustive-search cross-checks."""
    base = dict(
        seeds=tuple(range(1, 11)),
        horizons=(1,),
        vertex_choices=(4, 5, 6),
        out_degree_choices=(2, 3),
        budget_base=6.0,
        budget_span_per_vertex=0.5,
        agent_choices=(1, 2),
        required_draw_choices=(0, 1),
    )
    base.update(overrides)
    return BenchmarkConfig(**base)
