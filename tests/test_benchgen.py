"""Seeded instance generation: draws, ranges, determinism, suite layout."""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolopt import benchgen
from patrolopt.benchgen import (
    BenchmarkConfig,
    StructureDraw,
    draw_structure,
    generate_instance,
    generate_suite,
    suite_paths,
)
from patrolopt.graph import all_pairs_shortest, reachable_round_trip
from patrolopt.instance_io import instance_graph, read_instance, write_instance

from conftest import TIGHT_LAW, tiny_config


def test_draws_stay_in_their_configured_ranges():
    cfg = BenchmarkConfig(seeds=tuple(range(1, 31)), horizons=(2,))
    for seed in cfg.seeds:
        inst = generate_instance(cfg, seed, 2)
        assert inst.num_vertices in cfg.vertex_choices
        assert inst.num_agents in cfg.agent_choices
        assert 20.0 <= inst.l_max <= 20.0 + 2.0 * inst.num_vertices
        assert len(inst.must_visit) <= min(max(cfg.required_draw_choices), inst.num_agents)
        assert all(0.1 <= r <= 0.9 for r in inst.mu_star)
        assert all(0.0 <= k <= 1.0 for row in inst.kappa for k in row)
        assert inst.positions[0] == (0.0, 0.0)
        assert all(-5.0 <= x <= 5.0 and -5.0 <= y <= 5.0 for x, y in inst.positions)


def _nearest_neighbor_edges(s):
    """Vertex i's out_degrees[i - 1] nearest neighbors, ranked by (length, index)
    and rebuilt from positions, symmetrized into sorted (i, j, length) edges."""

    def length(i, j):
        (xa, ya), (xb, yb) = s.positions[i - 1], s.positions[j - 1]
        return math.hypot(xa - xb, ya - yb)

    picks = set()
    for i in range(1, s.num_vertices + 1):
        ranked = sorted((j for j in range(1, s.num_vertices + 1) if j != i),
                        key=lambda j: (length(i, j), j))
        picks.update((min(i, j), max(i, j)) for j in ranked[:s.out_degrees[i - 1]])
    return [(i, j, length(i, j)) for i, j in sorted(picks)]


def test_out_degrees_before_symmetrization():
    cfg = BenchmarkConfig()
    for seed in (1, 2, 3, 10, 50):
        s = draw_structure(cfg, seed)
        assert len(s.out_degrees) == s.num_vertices
        assert all(d in cfg.out_degree_choices for d in s.out_degrees)
        assert s.edges == _nearest_neighbor_edges(s)


def reference_draw_structure(config, effective_seed):
    """draw_structure before the pair-length table, kept verbatim as the
    reference: default_rng, a dict of pair lengths and a (length, j) key."""
    rng = np.random.default_rng((effective_seed, benchgen._STRUCTURE_TAG))
    n = int(rng.choice(np.asarray(config.vertex_choices)))
    others = rng.uniform(-benchgen.SQUARE_HALF_WIDTH, benchgen.SQUARE_HALF_WIDTH, size=(n - 1, 2))
    positions = [(0.0, 0.0)]
    positions += [(float(x), float(y)) for x, y in others]
    out_degrees = [int(v) for v in rng.choice(np.asarray(config.out_degree_choices), size=n)]
    l_max = float(config.budget_base + rng.uniform(0.0, config.budget_span_per_vertex * n))
    num_agents = int(rng.choice(np.asarray(config.agent_choices)))
    required_draw = int(rng.choice(np.asarray(config.required_draw_choices)))
    mu_star = [float(v) for v in rng.uniform(benchgen.RATE_LOW, benchgen.RATE_HIGH, size=n)]

    pair_len = {}

    def length(i, j):
        key = (min(i, j), max(i, j))
        if key not in pair_len:
            (xa, ya), (xb, yb) = positions[key[0] - 1], positions[key[1] - 1]
            pair_len[key] = math.hypot(xa - xb, ya - yb)
        return pair_len[key]

    chosen_pairs = set()
    for i in range(1, n + 1):
        ranked = sorted(
            (j for j in range(1, n + 1) if j != i),
            key=lambda j: (length(i, j), j),
        )
        for j in ranked[: out_degrees[i - 1]]:
            chosen_pairs.add((min(i, j), max(i, j)))
    edges = [(i, j, pair_len[(i, j)]) for (i, j) in sorted(chosen_pairs)]
    return StructureDraw(
        num_vertices=n,
        positions=positions,
        out_degrees=out_degrees,
        edges=edges,
        l_max=l_max,
        num_agents=num_agents,
        required_draw=required_draw,
        mu_star=mu_star,
    )


choices = st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple)
random_configs = st.builds(
    BenchmarkConfig,
    vertex_choices=st.lists(st.integers(2, 20), min_size=1, max_size=4).map(tuple),
    out_degree_choices=choices,
    budget_base=st.floats(1.0, 30.0),
    budget_span_per_vertex=st.floats(0.0, 3.0),
    agent_choices=choices,
    required_draw_choices=choices,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=st.one_of(st.sampled_from([BenchmarkConfig(), BenchmarkConfig(**TIGHT_LAW),
                                         BenchmarkConfig(vertex_choices=(2, 3))]),
                        random_configs),
       seed=st.integers(1, 10**8))
def test_structures_match_the_dict_ranking_reference(config, seed):
    # repr, so a numpy scalar or an int where a float was shows
    assert repr(draw_structure(config, seed)) == repr(reference_draw_structure(config, seed))


def test_edge_lengths_are_euclidean_and_stored_once():
    cfg = BenchmarkConfig()
    inst = generate_instance(cfg, 4, 2)
    seen = set()
    for i, j, l in inst.edges:
        assert i < j
        assert (i, j) not in seen
        seen.add((i, j))
        (xa, ya), (xb, yb) = inst.positions[i - 1], inst.positions[j - 1]
        assert l == math.hypot(xa - xb, ya - yb)


def test_same_seed_and_horizon_reproduce_bytes(tmp_path):
    cfg = BenchmarkConfig()
    a = generate_instance(cfg, 7, 4)
    b = generate_instance(cfg, 7, 4)
    assert a == b
    write_instance(a, str(tmp_path / "a.json"))
    write_instance(b, str(tmp_path / "b.json"))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_growth_table_is_a_prefix_across_horizons():
    cfg = BenchmarkConfig()
    short = generate_instance(cfg, 9, 2)
    long = generate_instance(cfg, 9, 10)
    assert short.num_vertices == long.num_vertices
    assert short.l_max == long.l_max
    assert short.must_visit == long.must_visit
    for row_s, row_l in zip(short.kappa, long.kappa):
        assert row_s == row_l[:2]


def test_required_vertices_are_reachable_within_budget():
    cfg = BenchmarkConfig(seeds=tuple(range(1, 21)))
    for seed in cfg.seeds:
        inst = generate_instance(cfg, seed, 2)
        graph = instance_graph(inst)
        dm = all_pairs_shortest(graph)
        pool = reachable_round_trip(graph, dm, inst.l_max)
        assert set(inst.must_visit) <= pool - {1}


def test_seed_escalation_is_recorded_and_bounded():
    # a 2.0 travel budget on a 10x10 square almost never reaches anything,
    # so the required vertex forces re-rolls
    cfg = tiny_config(
        budget_base=2.0, budget_span_per_vertex=0.0, required_draw_choices=(1,)
    )
    inst = generate_instance(cfg, 1, 1)
    assert inst.seed_escalations == 7
    assert inst.seed == 1  # the file keeps the caller's seed, not the escalated one
    hopeless = tiny_config(
        budget_base=0.001,
        budget_span_per_vertex=0.0,
        required_draw_choices=(1,),
    )
    with pytest.raises(ValueError, match="escalations"):
        generate_instance(hopeless, 1, 1)


def test_unescalated_instances_record_zero():
    inst = generate_instance(BenchmarkConfig(), 3, 2)
    assert inst.seed_escalations == 0


def test_suite_layout_counts_and_overwrite_guard(tmp_path):
    cfg = tiny_config(seeds=(1, 2, 3), horizons=(1, 2))
    out = str(tmp_path / "suite")
    written = generate_suite(cfg, out)
    assert len(written) == 6
    assert os.path.exists(os.path.join(out, "H1", "seed2.json"))
    assert os.path.exists(os.path.join(out, "H2", "seed3.json"))
    got = read_instance(os.path.join(out, "H2", "seed1.json"))
    assert got == generate_instance(cfg, 1, 2)
    with pytest.raises(FileExistsError):
        generate_suite(cfg, out)
    rewritten = generate_suite(cfg, out, force=True)
    assert len(rewritten) == 6


def test_bad_arguments_are_rejected():
    cfg = BenchmarkConfig()
    with pytest.raises(ValueError):
        generate_instance(cfg, 0, 2)
    with pytest.raises(ValueError):
        generate_instance(cfg, 1, 0)
    with pytest.raises(ValueError, match="agent_choices"):
        generate_instance(BenchmarkConfig(agent_choices=(0, 2)), 1, 2)


# budget_base=2.0 makes seed 1 escalate 7 times (see the test above)
ESCALATING = dict(budget_base=2.0, budget_span_per_vertex=0.0, required_draw_choices=(1,))


def test_suite_draws_each_seed_once_with_generate_instance_bytes(tmp_path, monkeypatch):
    cfg = tiny_config(seeds=(1, 2), horizons=(3, 1, 2), **ESCALATING)
    draws = []

    def spy(config, effective_seed):
        draws.append(effective_seed)
        return draw_structure(config, effective_seed)

    monkeypatch.setattr(benchgen, "draw_structure", spy)
    out = str(tmp_path / "suite")
    written = generate_suite(cfg, out)
    suite_draws = len(draws)
    assert written == [path for path, _, _ in suite_paths(cfg, out)]
    escalations = {}
    for path, seed, horizon in suite_paths(cfg, out):
        inst = generate_instance(cfg, seed, horizon)
        escalations[seed] = inst.seed_escalations
        expected = str(tmp_path / "expected.json")
        write_instance(inst, expected)
        with open(path, "rb") as got, open(expected, "rb") as want:
            assert got.read() == want.read(), path
    assert escalations[1] == 7
    assert suite_draws == sum(1 + k for k in escalations.values())


def test_suite_renders_each_seed_once_and_makes_each_directory_once(tmp_path, monkeypatch):
    cfg = tiny_config(seeds=(1, 2, 3), horizons=(3, 1, 2))
    renders, dirs = [], []
    real_texts, real_makedirs = benchgen.instance_texts, os.makedirs

    def texts_spy(instance, horizons):
        renders.append((instance.seed, instance.horizon, tuple(horizons)))
        return real_texts(instance, horizons)

    def makedirs_spy(name, *args, **kwargs):
        dirs.append(os.path.relpath(name, str(tmp_path)))
        return real_makedirs(name, *args, **kwargs)

    out = tmp_path / "suite"
    out.mkdir()  # so that makedirs does not recurse into the suite directory itself
    monkeypatch.setattr(benchgen, "instance_texts", texts_spy)
    monkeypatch.setattr(os, "makedirs", makedirs_spy)
    generate_suite(cfg, str(out))
    assert renders == [(seed, 3, (3, 1, 2)) for seed in cfg.seeds]
    assert sorted(dirs) == [os.path.join("suite", f"H{h}") for h in (1, 2, 3)]


def test_suite_bytes_are_pinned(tmp_path):
    # A change to the draw order, the streams or the file layout shows here;
    # the digest was computed with the per-instance generator this suite
    # writer replaced.
    suites = {
        "default": BenchmarkConfig(seeds=tuple(range(1, 6))),
        "escalating": tiny_config(seeds=(1,), horizons=(3, 1, 2), **ESCALATING),
    }
    digest = hashlib.sha256()
    for name, cfg in suites.items():
        for path in generate_suite(cfg, str(tmp_path / name)):
            digest.update(os.path.relpath(path, str(tmp_path)).replace(os.sep, "/").encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    assert digest.hexdigest() == (
        "06ad254d5509c35f5a585b5b8d9e676d6b88bbcdf0603d8d6427a43adc789707"
    )

