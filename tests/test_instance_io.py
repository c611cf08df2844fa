"""Instance file format: round trips and strict validation on load."""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patrolopt.benchgen import BenchmarkConfig, generate_instance
from patrolopt.cli import main
from patrolopt.instance_io import (
    FORMAT_VERSION,
    Instance,
    InstanceFormatError,
    instance_graph,
    instance_id,
    instance_texts,
    kappa_table,
    read_instance,
    write_instance,
)


@pytest.fixture
def sample():
    return generate_instance(BenchmarkConfig(), 11, 3)


def test_write_read_round_trip(tmp_path, sample):
    path = str(tmp_path / "inst.json")
    write_instance(sample, path)
    assert read_instance(path) == sample


def test_instance_id_and_views(sample):
    assert instance_id(sample) == "H3_seed11"
    g = instance_graph(sample)
    assert g.num_vertices == sample.num_vertices
    assert sample.positions[0] == (0.0, 0.0)  # depot
    table = kappa_table(sample)
    assert table.shape == (sample.num_vertices + 1, 4)
    assert table[0].tolist() == [0.0] * 4


def load_payload(tmp_path, sample):
    path = str(tmp_path / "x.json")
    write_instance(sample, path)
    with open(path) as fh:
        return json.load(fh), path


def rewrite(tmp_path, payload, name="bad.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def test_missing_field_is_rejected(tmp_path, sample):
    payload, _ = load_payload(tmp_path, sample)
    del payload["l_max"]
    with pytest.raises(InstanceFormatError, match="l_max"):
        read_instance(rewrite(tmp_path, payload))


def test_unknown_version_is_rejected(tmp_path, sample):
    payload, _ = load_payload(tmp_path, sample)
    payload["version"] = 99
    with pytest.raises(InstanceFormatError, match="version"):
        read_instance(rewrite(tmp_path, payload))


def test_non_json_is_rejected(tmp_path):
    path = str(tmp_path / "junk.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(InstanceFormatError, match="JSON"):
        read_instance(path)


def test_edge_shape_violations_are_rejected(tmp_path, sample):
    payload, _ = load_payload(tmp_path, sample)
    payload["edges"][0] = [3, 2, 1.0]  # must be i < j
    with pytest.raises(InstanceFormatError):
        read_instance(rewrite(tmp_path, payload))

    payload, _ = load_payload(tmp_path, sample)
    payload["edges"].append(list(payload["edges"][0]))  # duplicate pair
    with pytest.raises(InstanceFormatError):
        read_instance(rewrite(tmp_path, payload))

    payload, _ = load_payload(tmp_path, sample)
    payload["edges"][0][2] = 0.0  # nonpositive length
    with pytest.raises(InstanceFormatError):
        read_instance(rewrite(tmp_path, payload))


def test_must_visit_violations_are_rejected(tmp_path, sample):
    payload, _ = load_payload(tmp_path, sample)
    payload["must_visit"] = [1]
    with pytest.raises(InstanceFormatError):
        read_instance(rewrite(tmp_path, payload))

    payload, _ = load_payload(tmp_path, sample)
    payload["must_visit"] = [payload["N"] + 5]
    with pytest.raises(InstanceFormatError):
        read_instance(rewrite(tmp_path, payload))


def test_growth_table_shape_and_range_are_checked(tmp_path, sample):
    payload, _ = load_payload(tmp_path, sample)
    payload["kappa"] = payload["kappa"][:-1]  # one vertex row short
    with pytest.raises(InstanceFormatError, match="kappa"):
        read_instance(rewrite(tmp_path, payload))

    payload, _ = load_payload(tmp_path, sample)
    payload["kappa"][0] = payload["kappa"][0][:-1]  # one iteration short
    with pytest.raises(InstanceFormatError, match="kappa"):
        read_instance(rewrite(tmp_path, payload))

    payload, _ = load_payload(tmp_path, sample)
    payload["kappa"][1][0] = 1.5  # outside the clip interval
    with pytest.raises(InstanceFormatError):
        read_instance(rewrite(tmp_path, payload))


def test_error_message_names_the_file(tmp_path, sample):
    payload, _ = load_payload(tmp_path, sample)
    del payload["seed"]
    path = rewrite(tmp_path, payload, name="which.json")
    with pytest.raises(InstanceFormatError, match="which.json"):
        read_instance(path)


def short_position(payload):
    payload["positions"][0] = [0.0]


def bare_edge(payload):
    payload["edges"][0] = 2


def bare_kappa_row(payload):
    payload["kappa"][0] = 0.5


@pytest.mark.parametrize("malform", (short_position, bare_edge, bare_kappa_row))
def test_malformed_rows_are_format_errors(malform, tmp_path, sample, capsys):
    payload, _ = load_payload(tmp_path, sample)
    malform(payload)
    path = rewrite(tmp_path, payload, name="malformed.json")
    with pytest.raises(InstanceFormatError, match="malformed.json"):
        read_instance(path)
    out = str(tmp_path / "out.csv")
    assert main(["simulate", "--instance", path, "--planner", "greedy", "--out", out]) == 2
    assert "malformed.json" in capsys.readouterr().err


def top_level_number(payload):
    return 5


def null_vertex_count(payload):
    payload["N"] = None
    return payload


def null_edge_vertex(payload):
    payload["edges"][0] = [1, None, 2.0]
    return payload


def null_kappa_row(payload):
    payload["kappa"][0] = [None] * len(payload["kappa"][0])
    return payload


def string_rate(payload):
    payload["mu_star"][0] = "x"
    return payload


def fractional_must_visit(payload):
    # int() would read these as [6, 11]
    payload["must_visit"] = [6.9, 11.9]
    return payload


def fractional_agent_count(payload):
    payload["M"] = 2.5
    return payload


def boolean_agent_count(payload):
    payload["M"] = True
    return payload


def string_horizon(payload):
    payload["H"] = str(payload["H"])
    return payload


def fractional_edge_vertex(payload):
    payload["edges"][0][1] += 0.5
    return payload


def boolean_seed(payload):
    payload["seed"] = True
    return payload


def fractional_escalations(payload):
    payload["seed_escalations"] = 0.5
    return payload


def boolean_version(payload):
    # true == 1, so != alone would read it as version 1
    payload["version"] = True
    return payload


def fractional_version(payload):
    payload["version"] = 1.0
    return payload


def negative_default_rate(payload):
    # the untrained estimator would predict a negative cost
    payload["mu_default"] = -0.5
    return payload


def nan_default_rate(payload):
    payload["mu_default"] = float("nan")
    return payload


def infinite_default_rate(payload):
    payload["mu_default"] = float("inf")
    return payload


def nan_position(payload):
    # json writes and reads NaN and Infinity, though JSON has neither
    payload["positions"][0][0] = float("nan")
    return payload


def infinite_position(payload):
    payload["positions"][1][1] = float("inf")
    return payload


# float() reads true as 1.0
def boolean_position(payload):
    payload["positions"][0][1] = True
    return payload


def boolean_edge_length(payload):
    payload["edges"][0][2] = True
    return payload


def boolean_budget(payload):
    payload["l_max"] = True
    return payload


def boolean_rate(payload):
    payload["mu_star"][0] = True
    return payload


def boolean_default_rate(payload):
    payload["mu_default"] = True
    return payload


def boolean_noise(payload):
    payload["noise_stddev"] = True
    return payload


def boolean_kappa(payload):
    # inside the clip range as 1.0
    payload["kappa"][1][0] = True
    return payload


@pytest.mark.parametrize(
    "malform", (top_level_number, null_vertex_count, null_edge_vertex, null_kappa_row, string_rate,
                fractional_must_visit, fractional_agent_count, boolean_agent_count,
                string_horizon, fractional_edge_vertex, boolean_seed, fractional_escalations,
                boolean_version, fractional_version, negative_default_rate, nan_default_rate,
                infinite_default_rate, nan_position, infinite_position, boolean_position,
                boolean_edge_length, boolean_budget, boolean_rate, boolean_default_rate,
                boolean_noise, boolean_kappa))
def test_malformed_values_are_format_errors(malform, tmp_path, sample, capsys):
    payload, _ = load_payload(tmp_path, sample)
    path = rewrite(tmp_path, malform(payload), name="malformed.json")
    with pytest.raises(InstanceFormatError, match="malformed.json"):
        read_instance(path)
    out = str(tmp_path / "out.csv")
    assert main(["simulate", "--instance", path, "--planner", "greedy", "--out", out]) == 2
    assert "malformed.json" in capsys.readouterr().err


def reference_text(instance):
    """The file text as json.dump(payload, fh, indent=1) plus a newline wrote it."""
    payload = {
        "version": FORMAT_VERSION,
        "seed": instance.seed,
        "H": instance.horizon,
        "N": instance.num_vertices,
        "M": instance.num_agents,
        "l_max": instance.l_max,
        "positions": [[float(x), float(y)] for (x, y) in instance.positions],
        "edges": [[int(i), int(j), float(l)] for (i, j, l) in instance.edges],
        "must_visit": [int(v) for v in instance.must_visit],
        "mu_star": [float(v) for v in instance.mu_star],
        "mu_default": float(instance.mu_default),
        "noise_stddev": float(instance.noise_stddev),
        "kappa": [[float(v) for v in row] for row in instance.kappa],
        "seed_escalations": int(instance.seed_escalations),
    }
    return json.dumps(payload, indent=1) + "\n"


SPECIAL_FLOATS = (-0.0, 1e-300, 1e300, 5e-324, float("inf"), float("-inf"), float("nan"))
numbers = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
counts = st.one_of(st.integers(-3, 30), st.integers(), st.just(10**40))


@st.composite
def instances(draw):
    horizon = draw(st.integers(1, 5))
    return Instance(
        seed=draw(counts),
        horizon=horizon,
        num_vertices=draw(counts),
        num_agents=draw(counts),
        l_max=draw(st.one_of(numbers, counts)),
        positions=draw(st.lists(st.tuples(numbers, numbers), max_size=4)),
        edges=draw(st.lists(st.tuples(counts, counts, numbers), max_size=4)),
        must_visit=draw(st.lists(counts, max_size=3)),
        mu_star=draw(st.lists(numbers, max_size=4)),
        mu_default=draw(numbers),
        noise_stddev=draw(numbers),
        kappa=draw(st.lists(st.lists(numbers, min_size=horizon, max_size=horizon), max_size=4)),
        seed_escalations=draw(counts),
    )


EDGE_CASES = Instance(
    seed=10**30, horizon=2, num_vertices=2, num_agents=1, l_max=1e300,
    positions=[(-0.0, 1e-300), (float("nan"), float("inf"))], edges=[], must_visit=[],
    mu_star=[1e-300, 1e300], mu_default=-0.0, noise_stddev=1e300,
    kappa=[[0.0, -0.0], [1e-300, 1.0]], seed_escalations=2**70,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instance=instances(), cuts=st.lists(st.integers(1, 5), max_size=4, unique=True))
@example(instance=EDGE_CASES, cuts=[1, 2])
def test_rendered_bytes_match_json_dump(instance, cuts):
    horizons = [h for h in cuts if h <= instance.horizon] or [instance.horizon]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "inst.json")
        write_instance(instance, path)
        with open(path, "rb") as fh:
            assert fh.read() == reference_text(instance).encode()
        for horizon, text in zip(horizons, instance_texts(instance, horizons), strict=True):
            cut = dataclasses.replace(
                instance, horizon=horizon, kappa=[row[:horizon] for row in instance.kappa])
            write_instance(cut, path)
            with open(path) as fh:
                assert text == fh.read()
