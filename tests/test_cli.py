"""End-to-end runs of the command-line entry point, in process via main()."""

import csv
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from patrolopt import benchgen, certify, cli, results_io
from patrolopt.cli import main
from patrolopt.graph import DEPOT
from patrolopt.instance_io import read_instance, write_instance
from patrolopt.simulator import run_episode

from test_simulator import make_instance


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "suite")
    code = main([
        "gen", "--out", out, "--seeds", "1..4", "--horizons", "1,2",
        "--vertex-choices", "4,5", "--agent-choices", "1",
    ])
    assert code == 0
    return out


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def rows_without_timing(path):
    rows = results_io.read_results(path)
    for row in rows:
        row.pop("iter_seconds")
    return rows


def test_gen_writes_suite_and_refuses_overwrite(suite_dir, capsys):
    for h in (1, 2):
        for seed in range(1, 5):
            assert os.path.exists(os.path.join(suite_dir, f"H{h}", f"seed{seed}.json"))
    code = main([
        "gen", "--out", suite_dir, "--seeds", "1..4", "--horizons", "1,2",
        "--vertex-choices", "4,5", "--agent-choices", "1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    code = main([
        "gen", "--out", suite_dir, "--seeds", "1..4", "--horizons", "1,2",
        "--vertex-choices", "4,5", "--agent-choices", "1", "--force",
    ])
    assert code == 0


def test_solve_writes_deterministic_plan_json(suite_dir, tmp_path):
    instance = os.path.join(suite_dir, "H2", "seed1.json")
    out_a = str(tmp_path / "plan_a.json")
    out_b = str(tmp_path / "plan_b.json")
    assert main(["solve", "--instance", instance, "--planner", "tocp",
                 "--out", out_a]) == 0
    assert main(["solve", "--instance", instance, "--planner", "tocp",
                 "--out", out_b]) == 0
    assert read_bytes(out_a) == read_bytes(out_b)
    payload = json.loads(read_bytes(out_a))
    assert payload["status"] == "optimal"
    assert payload["routes"]
    assert payload["routes"][0][0] == 1 and payload["routes"][0][-1] == 1
    assert sorted(payload["visited"]) == payload["visited"]
    # model stats carry sizes and gap, never wall-clock times
    assert set(payload["model"]) == {
        "num_variables", "num_constraints", "status", "objective", "gap",
        "node_count", "infeasibility_proof",
    }
    assert payload["model"]["infeasibility_proof"] is None


def test_solve_reports_infeasible_with_exit_one(tmp_path):
    kappa = [[0.0], [0.5], [0.5]]
    instance = make_instance(
        3, [(1, 2, 1.0), (2, 3, 1.0)], l_max=2.0, horizon=1, kappa=kappa,
        must_visit=[3],
    )
    path = str(tmp_path / "tight.json")
    write_instance(instance, path)
    out = str(tmp_path / "plan.json")
    assert main(["solve", "--instance", path, "--planner", "tocp",
                 "--out", out]) == 1
    payload = json.loads(read_bytes(out))
    assert payload["status"] == "infeasible"
    assert payload["routes"] is None


def test_simulate_fails_a_greedy_episode_that_skips_a_required_vertex(tmp_path, capsys):
    # one agent within l_max 2 reaches vertex 2 or vertex 3, never both
    instance = make_instance(3, [(1, 2, 1.0), (1, 3, 1.0)], l_max=2.0, horizon=2,
                             kappa=[[0.0, 0.0], [0.5, 0.5], [0.5, 0.5]], must_visit=[2, 3])
    path = str(tmp_path / "star.json")
    write_instance(instance, path)
    out = str(tmp_path / "out.csv")
    assert main(["simulate", "--instance", path, "--planner", "greedy", "--out", out]) == 0
    assert "failed=1" in capsys.readouterr().out
    [row] = results_io.read_results(out)
    assert row["failed"] == 1
    assert row["iter_statuses"] == ["infeasible", "infeasible"]


@pytest.mark.parametrize("planner", ("tocp", "top"))
@pytest.mark.parametrize("num_vertices", (1, 3))
def test_solve_answers_an_edgeless_instance_as_infeasible(planner, num_vertices, tmp_path):
    # no agent can leave a depot without roads: solve proves it, as simulate
    # does, instead of failing to build the model
    instance = make_instance(num_vertices, [], l_max=4.0, horizon=1,
                             kappa=[[0.5]] * num_vertices)
    path = str(tmp_path / "edgeless.json")
    write_instance(instance, path)
    out = str(tmp_path / "plan.json")
    assert main(["solve", "--instance", path, "--planner", planner, "--out", out]) == 1
    payload = json.loads(read_bytes(out))
    assert payload["status"] == "infeasible"
    assert payload["routes"] is None
    assert payload["model"]["infeasibility_proof"] == (
        "0 depot neighbours can start a walk within l_max 4.0; the agents need 1")


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_infeasible_plan_json_is_strict_json(tmp_path):
    # behind the cut vertex 2, vertex 3 lies on no simple depot cycle, so the
    # top round is proven infeasible and its gap is not finite
    kappa = [[0.0], [0.5], [0.5]]
    instance = make_instance(
        3, [(1, 2, 1.0), (2, 3, 1.0)], l_max=4.0, horizon=1, kappa=kappa,
        must_visit=[3],
    )
    path = str(tmp_path / "cut.json")
    write_instance(instance, path)
    out = str(tmp_path / "plan.json")
    assert main(["solve", "--instance", path, "--planner", "top", "--out", out]) == 1
    payload = json.loads(read_bytes(out), parse_constant=reject_constant)
    assert payload["status"] == "infeasible"
    assert payload["model"]["gap"] is None
    assert payload["model"]["objective"] is None
    assert payload["model"]["infeasibility_proof"].startswith("must-visit vertex 3")


def test_simulate_row_is_stable_apart_from_timings(suite_dir, tmp_path):
    instance = os.path.join(suite_dir, "H2", "seed2.json")
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(["simulate", "--instance", instance, "--planner", "greedy",
                 "--out", out_a]) == 0
    assert main(["simulate", "--instance", instance, "--planner", "greedy",
                 "--out", out_b]) == 0
    rows_a = rows_without_timing(out_a)
    rows_b = rows_without_timing(out_b)
    assert len(rows_a) == 1
    assert rows_a == rows_b
    row = rows_a[0]
    assert row["instance_id"] == "H2_seed2"
    assert row["planner"] == "greedy"
    assert len(row["iter_costs"]) == 2
    assert row["iter_statuses"] == ["heuristic", "heuristic"]


def test_bench_rows_agree_across_worker_counts(suite_dir, tmp_path):
    serial = str(tmp_path / "serial.csv")
    parallel = str(tmp_path / "parallel.csv")
    argv = ["bench", "--suite", suite_dir, "--planners", "tocp,greedy"]
    assert main(argv + ["--jobs", "1", "--out", serial]) == 0
    assert main(argv + ["--jobs", "2", "--out", parallel]) == 0
    rows_serial = rows_without_timing(serial)
    rows_parallel = rows_without_timing(parallel)
    assert rows_serial == rows_parallel
    assert len(rows_serial) == 8 * 2  # instances times planners
    # suite order: horizon block, then seed, planners inside
    assert [r["instance_id"] for r in rows_serial[:4]] == [
        "H1_seed1", "H1_seed1", "H1_seed2", "H1_seed2",
    ]
    assert [r["planner"] for r in rows_serial[:2]] == ["tocp", "greedy"]


class RecordingExecutor:
    """A ProcessPoolExecutor stand-in that records max_workers and maps in this process."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_bench_starts_no_more_workers_than_seeds(suite_dir, tmp_path, monkeypatch):
    # a process pool forks all its workers at the first submit, so --jobs 8
    # on two seeds must ask for two
    suite = str(tmp_path / "suite")
    for h in (1, 2):
        for seed in (1, 2):
            name = os.path.join(f"H{h}", f"seed{seed}.json")
            copy_suite_file(suite_dir, name, suite, name)
    made = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: RecordingExecutor(made, max_workers))
    argv = ["bench", "--suite", suite, "--planners", "tocp,greedy"]
    serial, pooled = str(tmp_path / "serial.csv"), str(tmp_path / "pooled.csv")
    assert main(argv + ["--jobs", "1", "--out", serial]) == 0
    assert main(argv + ["--jobs", "8", "--out", pooled]) == 0
    assert made == [2]
    assert rows_without_timing(pooled) == rows_without_timing(serial)
    assert len(rows_without_timing(serial)) == 4 * 2  # instances times planners


def spy_structures(monkeypatch):
    """The (variant, l_max) of every certify.Structure built from now on."""
    built = []
    real = certify.Structure.__init__

    def init(self, graph, dist, num_agents, l_max, must_visit, variant):
        built.append((variant, l_max))
        real(self, graph, dist, num_agents, l_max, must_visit, variant)

    monkeypatch.setattr(certify.Structure, "__init__", init)
    return built


def test_bench_builds_one_structure_per_seed_and_planner(suite_dir, tmp_path, monkeypatch,
                                                         capsys):
    # 4 seeds by 2 horizons by 3 planners: 24 episodes on 12 structures
    built = spy_structures(monkeypatch)
    out = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite_dir, "--planners", "tocp,top,greedy", "--jobs", "1",
                 "--out", out]) == 0
    assert len(built) == 12
    assert sorted(variant for variant, _ in built) == ["greedy"] * 4 + ["tocp"] * 4 + ["top"] * 4
    assert len(results_io.read_results(out)) == 24
    assert capsys.readouterr().err.splitlines() == [f"bench {i}/24 done" for i in range(1, 25)]


def test_bench_gives_a_file_that_differs_its_own_structure(suite_dir, tmp_path, monkeypatch):
    # a hand-edited H2/seed2.json halves l_max, an input of the structure
    suite = str(tmp_path / "suite")
    for h in (1, 2):
        for seed in range(1, 5):
            name = os.path.join(f"H{h}", f"seed{seed}.json")
            copy_suite_file(suite_dir, name, suite, name)
    edited = os.path.join(suite, "H2", "seed2.json")
    instance = read_instance(edited)
    instance = replace(instance, l_max=instance.l_max / 2)
    write_instance(instance, edited)
    built = spy_structures(monkeypatch)
    out = str(tmp_path / "r.csv")
    planners = ("tocp", "top", "greedy")
    assert main(["bench", "--suite", suite, "--planners", ",".join(planners), "--jobs", "1",
                 "--out", out]) == 0
    assert len(built) == 15
    assert [b for b in built if b[1] == instance.l_max] == [(p, instance.l_max) for p in planners]
    with open(out, newline="") as fh:
        rows = {(r["instance_id"], r["planner"]): r for r in csv.DictReader(fh)}
    unedited = read_instance(os.path.join(suite_dir, "H2", "seed2.json"))
    for planner in planners:
        row = rows["H2_seed2", planner]
        alone = results_io.result_to_row(run_episode(instance, planner))
        # on the H1 file's structure the edited file would repeat the unedited file's row
        before = results_io.result_to_row(run_episode(unedited, planner))
        for r in (row, alone, before):
            r.pop("iter_seconds")
        assert row == alone
        assert row != before


def test_stats_prints_comparison(suite_dir, tmp_path, capsys):
    results = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite_dir, "--planners", "tocp,top",
                 "--out", results]) == 0
    capsys.readouterr()
    assert main(["stats", "--results", results, "--pair", "top,tocp"]) == 0
    out = capsys.readouterr().out
    assert "all-solved subset: 8 instances" in out
    assert "mean_top" in out and "mean_tocp" in out
    assert "failures:" in out
    assert main(["stats", "--results", results, "--pair", "top"]) == 2


def test_plot_instance_map(suite_dir, tmp_path):
    instance = os.path.join(suite_dir, "H1", "seed3.json")
    plan = str(tmp_path / "plan.json")
    assert main(["solve", "--instance", instance, "--planner", "tocp",
                 "--out", plan]) == 0
    bare = str(tmp_path / "bare.svg")
    bare_again = str(tmp_path / "bare2.svg")
    overlay = str(tmp_path / "overlay.svg")
    assert main(["plot", "--instance", instance, "--out", bare]) == 0
    assert main(["plot", "--instance", instance, "--out", bare_again]) == 0
    assert main(["plot", "--instance", instance, "--plan", plan,
                 "--out", overlay]) == 0
    assert read_bytes(bare) == read_bytes(bare_again)
    assert read_bytes(bare) != read_bytes(overlay)
    ET.fromstring(read_bytes(overlay))


def test_plot_rejects_a_recorded_length_that_is_not_its_walks(suite_dir, tmp_path, capsys):
    instance = os.path.join(suite_dir, "H1", "seed3.json")
    plan = str(tmp_path / "plan.json")
    assert main(["solve", "--instance", instance, "--planner", "tocp", "--out", plan]) == 0
    with open(plan) as fh:
        payload = json.load(fh)
    assert len(payload["lengths"]) == 1
    payload["lengths"] = [99.0]
    with open(plan, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    out = str(tmp_path / "map.svg")
    assert main(["plot", "--instance", instance, "--plan", plan, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plan}: walk {payload['routes'][0]} has length ")
    assert err.endswith(", not the recorded 99.0\n")
    assert not os.path.exists(out)


def test_plot_cost_curves(suite_dir, tmp_path):
    results = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite_dir, "--planners", "tocp,greedy",
                 "--out", results]) == 0
    curves = str(tmp_path / "curves.svg")
    assert main(["plot", "--results", results, "--out", curves]) == 0
    root = ET.fromstring(read_bytes(curves))
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polyline")) == 2


def test_plot_needs_exactly_one_source(suite_dir, tmp_path, capsys):
    instance = os.path.join(suite_dir, "H1", "seed1.json")
    out = str(tmp_path / "x.svg")
    assert main(["plot", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    results = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite_dir, "--planners", "greedy",
                 "--out", results]) == 0
    assert main(["plot", "--instance", instance, "--results", results,
                 "--out", out]) == 2


def test_malformed_instance_file_exits_two(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"seed": 1}')
    out = str(tmp_path / "plan.json")
    code = main(["solve", "--instance", bad, "--planner", "tocp", "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert not os.path.exists(out)


def test_unknown_planner_in_bench_exits_two(suite_dir, tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    code = main(["bench", "--suite", suite_dir, "--planners", "tocp,banana",
                 "--out", out])
    assert code == 2
    assert "unknown planner" in capsys.readouterr().err


def test_missing_suite_dir_exits_two(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    code = main(["bench", "--suite", str(tmp_path / "nowhere"), "--out", out])
    assert code == 2
    assert "no instance files" in capsys.readouterr().err


def test_argparse_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["solve", "--instance", "x.json", "--planner", "tabu",
              "--out", str(tmp_path / "p.json")])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["solve", "--instance", "x.json", "--planner", "tocp",
              "--backend", "highs", "--out", str(tmp_path / "p.json")])
    assert info.value.code == 2


def test_gen_rejects_zero_agents_before_writing(tmp_path, capsys):
    out = str(tmp_path / "suite")
    code = main(["gen", "--out", out, "--seeds", "1", "--horizons", "2",
                 "--agent-choices", "0"])
    assert code == 2
    assert "agent_choices" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_gen_rejects_repeated_seeds_or_horizons_before_writing(tmp_path, capsys):
    # repeats would name one file twice, so the count printed would be wrong
    out = str(tmp_path / "suite")
    for seeds, horizons in (("1,1,2", "2"), ("1", "2,2")):
        assert main(["gen", "--out", out, "--seeds", seeds, "--horizons", horizons]) == 2
        assert "repeated" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_gen_without_a_hostable_draw_exits_two_before_writing(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "suite")
    args = ["gen", "--out", out, "--seeds", "1", "--horizons", "2"]
    assert main(args + ["--vertex-choices", "1"]) == 2
    assert "vertex_choices" in capsys.readouterr().err
    assert not os.path.exists(out)
    # no draw ever reaches a vertex within budget, so the escalation gives up
    monkeypatch.setattr(benchgen, "reachable_round_trip", lambda graph, dm, l_max: {DEPOT})
    assert main(args) == 2
    assert "gave up after 50 escalations" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, limit", (("solve", "-1"), ("simulate", "nan")))
def test_bad_time_limit_exits_two_for_greedy_too(command, limit, suite_dir, tmp_path, capsys):
    instance = os.path.join(suite_dir, "H1", "seed1.json")
    out = str(tmp_path / "out")
    code = main([command, "--instance", instance, "--planner", "greedy",
                 "--time-limit", limit, "--out", out])
    assert code == 2
    assert "time_limit" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_negative_time_limit_exits_two(suite_dir, tmp_path, capsys):
    instance = os.path.join(suite_dir, "H1", "seed1.json")
    out = str(tmp_path / "plan.json")
    code = main(["solve", "--instance", instance, "--planner", "tocp",
                 "--time-limit", "-1", "--out", out])
    assert code == 2
    assert "time_limit" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, value", (("--seeds", "5..2"), ("--horizons", "5..2"),
                                         ("--seeds", ""), ("--horizons", ","),
                                         ("--vertex-choices", "5..2"),
                                         ("--agent-choices", "5..2")))
def test_gen_with_an_empty_list_exits_two(flag, value, tmp_path, capsys):
    out = str(tmp_path / "suite")
    args = {"--seeds": "1", "--horizons": "2", flag: value}
    code = main(["gen", "--out", out] + [part for item in args.items() for part in item])
    assert code == 2
    assert f"error: {value!r} names no values" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("extra, message", (
    (["--jobs", "0"], "--jobs"),
    (["--jobs", "-2"], "--jobs"),
    (["--planners", ""], "--planners"),
    (["--planners", "greedy,greedy"], "--planners"),
), ids=("jobs-0", "jobs-negative", "no-planners", "duplicate-planners"))
def test_bench_rejects_bad_jobs_and_planner_lists(extra, message, suite_dir, tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    code = main(["bench", "--suite", suite_dir, "--out", out] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not os.path.exists(out)


def test_stats_pair_with_a_planner_without_rows_exits_two(suite_dir, tmp_path, capsys):
    results = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite_dir, "--planners", "greedy",
                 "--out", results]) == 0
    capsys.readouterr()
    assert main(["stats", "--results", results, "--pair", "greedy,tocp"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'tocp'" in err


@pytest.mark.parametrize("payload, message", (
    ([], "not an object"),
    ({"routes": [[1, 2, 1]]}, "equal length"),
    ({"routes": [[1, 2, 1], [1, 3, 1]], "lengths": [2.0]}, "equal length"),
    ({"routes": [None], "lengths": [0.0]}, "None is not a list of vertices"),
    ({"routes": [[1, 99, 1]], "lengths": [2.0]}, "[1, 99, 1] is not a list of vertices"),
    ({"routes": [[1, 0, 1]], "lengths": [2.0]}, "[1, 0, 1] is not a list of vertices"),
    ({"routes": [[1, 2, 1]], "lengths": [None]}, "not all numbers"),
    ({"routes": [[1, 2, 1]], "lengths": [float("nan")]}, "not all finite"),
    ({"routes": [[1, 2, 1]], "lengths": [10 ** 400]}, "not all finite"),
    ('{"routes": [[1, 2, 1]],\n', "not valid JSON (Expecting"),
), ids=("not-an-object", "no-lengths", "lengths-count", "null-route", "vertex-above-n",
        "vertex-zero", "null-length", "nan-length", "huge-length", "truncated"))
def test_plot_rejects_a_malformed_plan(payload, message, suite_dir, tmp_path, capsys):
    instance = os.path.join(suite_dir, "H1", "seed1.json")
    plan = str(tmp_path / "plan.json")
    with open(plan, "w") as fh:  # a string is the file's text
        fh.write(payload if isinstance(payload, str) else json.dumps(payload))
    out = str(tmp_path / "map.svg")
    assert main(["plot", "--instance", instance, "--plan", plan, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plan}: ") and message in err
    assert not os.path.exists(out)


def test_plot_rejects_a_plan_that_does_not_belong_to_its_instance(tmp_path, capsys):
    # default seed 1 (N = 18, M = 2, vertex 3 required) has no road 1 - 4,
    # and seed 2's plan (N = 16) fits its vertex range but not its roads
    suite = str(tmp_path / "suite")
    assert main(["gen", "--out", suite, "--seeds", "1..2", "--horizons", "2"]) == 0
    seed1, seed2 = (os.path.join(suite, "H2", f"seed{s}.json") for s in (1, 2))
    off_road = str(tmp_path / "off-road.json")
    with open(off_road, "w") as fh:
        json.dump({"routes": [[1, 4, 1], [1, 3, 1]], "lengths": [2.0, 2.0]}, fh)
    borrowed = str(tmp_path / "seed2-plan.json")
    assert main(["solve", "--instance", seed2, "--planner", "greedy", "--out", borrowed]) == 0
    capsys.readouterr()
    out = str(tmp_path / "map.svg")
    for plan, rules in ((off_road, "not on real edges"),
                        (borrowed, "not on real edges")):
        assert main(["plot", "--instance", seed1, "--plan", plan, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {plan}: the plan breaks {rules} on this instance\n")
        assert not os.path.exists(out)


@pytest.mark.parametrize("command", (["stats"], ["plot", "--out", "curves.svg"]),
                         ids=("stats", "plot"))
def test_a_short_results_row_exits_two(command, suite_dir, tmp_path, capsys):
    results = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite_dir, "--planners", "greedy",
                 "--out", results]) == 0
    with open(results) as fh:
        lines = fh.read().splitlines()
    lines[2] = lines[2].rsplit(",", 2)[0]
    with open(results, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    command = [str(tmp_path / part) if part.endswith(".svg") else part for part in command]
    assert main(command + ["--results", results]) == 2
    assert capsys.readouterr().err == (
        f"error: {results}: line 3 has fewer than {len(results_io.COLUMNS)} cells\n")


@pytest.mark.parametrize("command", (["stats"], ["plot", "--out", "curves.svg"]),
                         ids=("stats", "plot"))
def test_a_long_results_row_exits_two(command, suite_dir, tmp_path, capsys):
    results = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite_dir, "--planners", "greedy",
                 "--out", results]) == 0
    with open(results) as fh:
        lines = fh.read().splitlines()
    lines[1] += ",extra"
    with open(results, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    command = [str(tmp_path / part) if part.endswith(".svg") else part for part in command]
    assert main(command + ["--results", results]) == 2
    assert capsys.readouterr().err == (
        f"error: {results}: line 2 has more than {len(results_io.COLUMNS)} cells\n")
    assert not os.path.exists(str(tmp_path / "curves.svg"))


@pytest.mark.parametrize("column, cell, message", [
    ("failed", "yes", "has failed 'yes', not 0 or 1"),
    ("H", "two", "has H 'two', not an integer"),
    ("iter_costs", "0.5|0.25|0.125", "has iter_costs of length 3, not H = 2"),
    ("iter_seconds", "0.5", "has iter_seconds of length 1, not H = 2"),
    ("iter_statuses", "optimal|optimal|optimal", "has iter_statuses of length 3, not H = 2"),
    ("total_cost", "-5.0", "has total_cost '-5.0', below 0"),
    ("iter_costs", "0.5|-2.5", "has iter_costs '0.5|-2.5', not all >= 0"),
    ("iter_statuses", "heuristic|bogus", "has iter_statuses entry 'bogus', not one of "
     "optimal, feasible-timeout, timeout-no-solution, infeasible, heuristic"),
], ids=("failed", "H", "iter_costs", "iter_seconds", "iter_statuses", "negative-total",
        "negative-iter-cost", "unknown-status"))
def test_a_malformed_results_cell_exits_two(column, cell, message, suite_dir, tmp_path,
                                            capsys):
    # stats and plot name the file and the line of the bad cell, and plot draws nothing
    results, line = results_with_cell(suite_dir, tmp_path, column, cell)
    capsys.readouterr()
    assert main(["stats", "--results", results]) == 2
    assert capsys.readouterr().err == f"error: {results}: line {line} {message}\n"
    out = str(tmp_path / "curves.svg")
    assert main(["plot", "--results", results, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {results}: line {line} {message}\n"
    assert not os.path.exists(out)


def results_with_cell(suite_dir, tmp_path, column, cell):
    """bench's greedy results with cell in column of the first H = 2 row: (path, line)."""
    results = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite_dir, "--planners", "greedy",
                 "--out", results]) == 0
    with open(results, newline="") as fh:
        table = list(csv.reader(fh))
    line = next(k for k, row in enumerate(table) if row[table[0].index("H")] == "2")
    table[line][table[0].index(column)] = cell
    with open(results, "w", newline="") as fh:
        csv.writer(fh).writerows(table)
    return results, line + 1


NON_FINITE = [("total_cost", "nan", "has total_cost 'nan', not a finite number"),
              ("iter_costs", "0.5|inf", "has iter_costs '0.5|inf', not finite numbers"),
              ("iter_seconds", "-inf|0.25", "has iter_seconds '-inf|0.25', not finite numbers")]


@pytest.mark.parametrize("column, cell, message", NON_FINITE,
                         ids=[column for column, _, _ in NON_FINITE])
def test_read_results_rejects_non_finite_numbers(column, cell, message, suite_dir, tmp_path):
    results, line = results_with_cell(suite_dir, tmp_path, column, cell)
    with pytest.raises(ValueError) as raised:
        results_io.read_results(results)
    assert str(raised.value) == f"{results}: line {line} {message}"


@pytest.mark.parametrize("command", (["stats", "--pair", "greedy,greedy"],
                                     ["plot", "--out", "curves.svg"]), ids=("stats", "plot"))
@pytest.mark.parametrize("column, cell, message", NON_FINITE,
                         ids=[column for column, _, _ in NON_FINITE])
def test_non_finite_results_exit_two(command, column, cell, message, suite_dir, tmp_path,
                                     capsys):
    # before the reader checked, plot drew nan coordinates and stats named no line
    results, line = results_with_cell(suite_dir, tmp_path, column, cell)
    capsys.readouterr()
    command = [str(tmp_path / part) if part.endswith(".svg") else part for part in command]
    assert main(command + ["--results", results]) == 2
    assert capsys.readouterr().err == f"error: {results}: line {line} {message}\n"
    assert not os.path.exists(str(tmp_path / "curves.svg"))


def test_plot_plan_without_an_instance_exits_two(suite_dir, tmp_path, capsys):
    results = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite_dir, "--planners", "greedy",
                 "--out", results]) == 0
    capsys.readouterr()
    out = str(tmp_path / "curves.svg")
    missing = str(tmp_path / "no-such-plan.json")
    assert main(["plot", "--results", results, "--plan", missing, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: --plan needs --instance: a plan is drawn on its instance\n")
    assert not os.path.exists(out)


def copy_suite_file(suite_dir, name, dest_dir, new_name):
    os.makedirs(os.path.dirname(os.path.join(dest_dir, new_name)), exist_ok=True)
    with open(os.path.join(dest_dir, new_name), "wb") as fh:
        fh.write(read_bytes(os.path.join(suite_dir, name)))


def test_stats_and_plot_reject_a_repeated_instance_and_planner(suite_dir, tmp_path, capsys):
    # the results table repeats its first row as line 6
    suite = str(tmp_path / "suite")
    for name in ("seed1.json", "seed2.json"):
        copy_suite_file(suite_dir, os.path.join("H2", name), suite, os.path.join("H2", name))
    results = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite, "--planners", "greedy,tocp",
                 "--out", results]) == 0
    rows = results_io.read_results(results)
    assert len(rows) == 4
    with open(results) as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(results, "a") as fh:
        fh.write(lines[1])
    capsys.readouterr()
    assert main(["stats", "--results", results, "--pair", "tocp,greedy"]) == 2
    err = capsys.readouterr().err
    assert f"error: {results}: line 6 repeats H2_seed1,greedy from line 2" in err
    assert main(["plot", "--results", results, "--out", str(tmp_path / "c.svg")]) == 2
    assert "repeats H2_seed1,greedy" in capsys.readouterr().err


@pytest.mark.parametrize("name", (os.path.join("H2", "seedcopy.json"),
                                  os.path.join("Hx", "seed1.json")),
                         ids=("seed", "horizon"))
def test_bench_names_a_suite_file_it_cannot_parse(name, suite_dir, tmp_path, capsys):
    suite = str(tmp_path / "suite")
    copy_suite_file(suite_dir, os.path.join("H2", "seed1.json"), suite,
                    os.path.join("H2", "seed1.json"))
    copy_suite_file(suite_dir, os.path.join("H2", "seed1.json"), suite, name)
    out = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite, "--planners", "greedy", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {os.path.join(suite, name)}: suite files are named" in err
    assert not os.path.exists(out)


def test_bench_rejects_a_suite_file_named_after_another_instance(suite_dir, tmp_path, capsys):
    # H2/seed9.json holds seed 1: its rows would repeat H2_seed1's
    suite = str(tmp_path / "suite")
    for name in ("seed1.json", "seed2.json"):
        copy_suite_file(suite_dir, os.path.join("H2", name), suite, os.path.join("H2", name))
    copy_suite_file(suite_dir, os.path.join("H2", "seed1.json"), suite,
                    os.path.join("H2", "seed9.json"))
    out = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite, "--planners", "greedy", "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: {os.path.join(suite, 'H2', 'seed9.json')}: holds horizon 2 and seed 1, "
        f"not what its name says\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("name", (os.path.join("H2", "seed01.json"),
                                  os.path.join("H02", "seed1.json")),
                         ids=("seed", "horizon"))
def test_bench_rejects_two_files_named_for_one_instance(name, suite_dir, tmp_path, capsys):
    # both names parse to horizon 2 and seed 1: their rows would repeat H2_seed1's
    suite = str(tmp_path / "suite")
    original = os.path.join("H2", "seed1.json")
    copy_suite_file(suite_dir, original, suite, original)
    copy_suite_file(suite_dir, original, suite, name)
    out = str(tmp_path / "r.csv")
    assert main(["bench", "--suite", suite, "--planners", "greedy", "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: {os.path.join(suite, name)} and {os.path.join(suite, original)} both name "
        f"horizon 2 and seed 1\n")
    assert not os.path.exists(out)
