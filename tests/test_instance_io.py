"""Instance file format: round trips and strict validation on load."""

from __future__ import annotations

import json

import pytest

from patrolopt.benchgen import BenchmarkConfig, generate_instance
from patrolopt.cli import main
from patrolopt.instance_io import (
    InstanceFormatError,
    instance_graph,
    instance_id,
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
    assert g.positions[1] == (0.0, 0.0)  # depot
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
