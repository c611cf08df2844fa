"""Command-line surface: generate suites, plan, simulate, benchmark, compare, plot.

Exit status 0 on success, 2 on any input or file problem (with a message on
stderr).  All outputs are deterministic for identical inputs, except the
wall-clock seconds column in results tables, which is what it is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from glob import glob
from typing import Dict, List, Optional, Tuple

from . import benchgen, results_io, stats, svgplot
from .certify import Structure, execution_faults
from .graph import FleetPlan, walk_length
from .instance_io import Instance, instance_graph, read_instance
from .milp import FEASIBILITY_TOL
from .simulator import PLANNERS, run_episode, run_episodes, solve_single_round


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileExistsError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrolopt",
        description="Multi-vehicle patrol planning on graphs with growing vertex costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a benchmark suite of instance files")
    p_gen.add_argument("--out", required=True, help="suite directory")
    p_gen.add_argument("--seeds", default="1..120", help="'A..B' range or comma list")
    p_gen.add_argument("--horizons", default="2,4,6,8,10", help="comma list")
    p_gen.add_argument("--vertex-choices", default=None, help="comma list override")
    p_gen.add_argument("--agent-choices", default=None, help="comma list override")
    p_gen.add_argument("--force", action="store_true", help="overwrite existing suite")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="plan a single round on one instance")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--planner", required=True, choices=PLANNERS)
    p_solve.add_argument("--iteration", type=int, default=1)
    p_solve.add_argument("--time-limit", type=float, default=None)
    p_solve.add_argument("--out", required=True, help="plan JSON output")
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="run one full episode")
    p_sim.add_argument("--instance", required=True)
    p_sim.add_argument("--planner", required=True, choices=PLANNERS)
    p_sim.add_argument("--time-limit", type=float, default=None)
    p_sim.add_argument("--out", required=True, help="results CSV output")
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="run planners across a whole suite")
    p_bench.add_argument("--suite", required=True)
    p_bench.add_argument("--planners", default="tocp,top,greedy", help="comma list")
    p_bench.add_argument("--time-limit", type=float, default=None)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--out", required=True, help="results CSV output")
    p_bench.set_defaults(func=_cmd_bench)

    p_stats = sub.add_parser("stats", help="t-test comparison from a results CSV")
    p_stats.add_argument("--results", required=True)
    p_stats.add_argument("--pair", default="top,tocp", help="plannerA,plannerB")
    p_stats.add_argument("--welch", action="store_true", help="unequal-variance test")
    p_stats.set_defaults(func=_cmd_stats)

    p_plot = sub.add_parser("plot", help="SVG of an instance map or cost curves")
    p_plot.add_argument("--instance", default=None)
    p_plot.add_argument("--plan", default=None, help="plan JSON from solve")
    p_plot.add_argument("--results", default=None, help="results CSV")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def _parse_int_list(text: str) -> Tuple[int, ...]:
    """An 'A..B' range or a comma list; ValueError when it names no value."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = tuple(range(int(lo), int(hi) + 1))
    else:
        values = tuple(int(v) for v in text.split(",") if v)
    if not values:
        raise ValueError(f"{text!r} names no values")
    return values


def _cmd_gen(args) -> int:
    config = benchgen.BenchmarkConfig(
        seeds=_parse_int_list(args.seeds),
        horizons=_parse_int_list(args.horizons),
    )
    if args.vertex_choices:
        config.vertex_choices = _parse_int_list(args.vertex_choices)
    if args.agent_choices:
        config.agent_choices = _parse_int_list(args.agent_choices)
    written = benchgen.generate_suite(config, args.out, force=args.force)
    print(f"wrote {len(written)} instances under {args.out}")
    return 0


def _cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    plan, status, model_stats = solve_single_round(
        instance,
        args.planner,
        iteration=args.iteration,
        time_limit=args.time_limit,
    )
    payload = {
        "instance": os.path.basename(args.instance),
        "planner": args.planner,
        "iteration": args.iteration,
        "status": status,
        "routes": None if plan is None else plan.routes,
        "lengths": None if plan is None else plan.lengths,
        "visited": None if plan is None else sorted(plan.visited()),
        # JSON has no inf: a gap that is not finite (no assignment) is null
        "model": {k: None if isinstance(v, float) and not math.isfinite(v) else v
                  for k, v in model_stats.items() if k != "planner"},
    }
    parent = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(parent, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1, allow_nan=False)
        fh.write("\n")
    print(f"{args.planner}: status {status}")
    if plan is not None:
        for i, route in enumerate(plan.routes):
            print(f"  agent {i + 1}: {'-'.join(str(v) for v in route)}")
    return 0 if plan is not None else 1


def _cmd_simulate(args) -> int:
    instance = read_instance(args.instance)
    result = run_episode(instance, args.planner, time_limit=args.time_limit)
    results_io.write_results(args.out, [results_io.result_to_row(result)])
    print(
        f"{result.instance_id} {args.planner}: total_cost {result.total_cost!r} "
        f"failed={int(result.failed)}"
    )
    return 0


def _suite_key(path: str) -> Tuple[int, int]:
    """(horizon, seed) from a suite file's H<horizon>/seed<seed>.json name."""
    h_part = os.path.basename(os.path.dirname(path))
    s_part = os.path.basename(path)
    try:
        return (int(h_part[1:]), int(s_part[4:-5]))
    except ValueError:
        raise ValueError(f"{path}: suite files are named H<horizon>/seed<seed>.json "
                         f"with integer horizon and seed") from None


def _suite_instance_paths(suite_dir: str) -> List[str]:
    """The suite's files in (horizon, seed) order; ValueError names the first file
    whose H<horizon>/seed<seed>.json name does not parse or disagrees with its instance,
    and the first two files whose names give the same horizon and seed."""
    paths = sorted(glob(os.path.join(suite_dir, "H*", "seed*.json")))
    if not paths:
        raise FileNotFoundError(f"no instance files under {suite_dir}")
    paths.sort(key=_suite_key)
    for first, second in zip(paths, paths[1:]):
        if _suite_key(first) == _suite_key(second):
            horizon, seed = _suite_key(first)
            raise ValueError(f"{first} and {second} both name horizon {horizon} and seed {seed}")
    for path in paths:
        instance = read_instance(path)
        if (instance.horizon, instance.seed) != _suite_key(path):
            raise ValueError(f"{path}: holds horizon {instance.horizon} and seed "
                             f"{instance.seed}, not what its name says")
    return paths


def _bench_seed(job: Tuple[List[str], List[str], Optional[float]]) -> List[List[Dict[str, str]]]:
    """The rows of one seed's files (in ascending horizon), one row per planner for each file.

    Each planner runs the files' episodes with simulator.run_episodes, so a
    (seed, planner) builds one certify.Structure where the files agree on its
    inputs, and the worker holds one structure at a time.
    """
    paths, planners, time_limit = job
    instances = [read_instance(path) for path in paths]
    rows: List[List[Dict[str, str]]] = [[] for _ in paths]
    for planner in planners:
        for file_rows, result in zip(rows, run_episodes(instances, planner, time_limit)):
            file_rows.append(results_io.result_to_row(result))
    return rows


def _cmd_bench(args) -> int:
    planners = [p for p in args.planners.split(",") if p]
    if not planners or len(set(planners)) < len(planners):
        raise ValueError(f"--planners wants distinct planners, got {args.planners!r}")
    for p in planners:
        if p not in PLANNERS:
            raise ValueError(f"unknown planner {p!r}; expected one of {PLANNERS}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    paths = _suite_instance_paths(args.suite)
    seeds: Dict[int, List[str]] = {}
    for path in paths:
        seeds.setdefault(_suite_key(path)[1], []).append(path)
    jobs = [(files, planners, args.time_limit) for files in seeds.values()]
    total = len(paths) * len(planners)
    done = 0
    rows: Dict[str, List[Dict[str, str]]] = {}
    # One job per seed, on at most one worker per job; a single worker runs
    # them in this process.  Either way the rows are written in (horizon,
    # seed, planner) order regardless of completion order, so the CSV is
    # deterministic for a given suite and planner list.
    workers = min(args.jobs, len(jobs))
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
        for files, seed_rows in zip(seeds.values(),
                                    (map if pool is None else pool.map)(_bench_seed, jobs)):
            for path, file_rows in zip(files, seed_rows):
                rows[path] = file_rows
                for _ in file_rows:
                    done += 1
                    print(f"bench {done}/{total} done", file=sys.stderr)
    results_io.write_results(args.out, (row for path in paths for row in rows[path]))
    print(f"wrote {total} rows to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    rows = results_io.read_results(args.results)
    pair = [p for p in args.pair.split(",") if p]
    if len(pair) != 2:
        raise ValueError(f"--pair wants exactly two planners, got {args.pair!r}")
    a, b = pair
    table = stats.comparison_table(rows, a, b, welch=args.welch)
    solved = stats.all_solved_ids(rows)
    print(f"all-solved subset: {len(solved)} instances")
    header = f"{'H':>3} {'n':>4} {('mean_' + a):>14} {('mean_' + b):>14} {'t':>9} {'p':>10}"
    print(header)
    for entry in table:
        print(
            f"{entry['H']:>3} {entry['n']:>4} {entry['mean_' + a]:>14.4f} "
            f"{entry['mean_' + b]:>14.4f} {entry['t']:>9.3f} {entry['p']:>10.4g}"
        )
    print("failures:")
    for planner, count in sorted(stats.failure_counts(rows).items()):
        print(f"  {planner}: {count}")
    return 0


def _read_plan_json(path: str, instance: Instance) -> FleetPlan:
    """The plan a solve run wrote; ValueError unless an episode on instance would execute it.

    Its walks must keep certify.execution_faults' rules on the instance's
    checked inputs, as the simulator requires of every plan it charges, and
    each recorded length must be its walk's walk_length within
    FEASIBILITY_TOL: greedy records sums of shortest-path legs, which may
    round differently from the walk's edges summed in order.
    """
    num_vertices = instance.num_vertices
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: plan JSON is not an object")
    routes = payload.get("routes")
    if not routes:
        raise ValueError(f"{path}: no routes recorded (status {payload.get('status')})")
    lengths = payload.get("lengths")
    if not (isinstance(routes, list) and isinstance(lengths, list)
            and len(lengths) == len(routes)):
        raise ValueError(f"{path}: 'routes' and 'lengths' must be lists of equal length")
    for route in routes:
        if not (isinstance(route, list) and route
                and all(type(v) is int and 1 <= v <= num_vertices for v in route)):
            raise ValueError(f"{path}: route {route!r} is not a list of vertices "
                             f"1..{num_vertices}")
    if not all(type(v) in (int, float) for v in lengths):
        raise ValueError(f"{path}: lengths {lengths!r} are not all numbers")
    # NaN fails both comparisons; an int past the largest float would not convert
    if not all(-sys.float_info.max <= v <= sys.float_info.max for v in lengths):
        raise ValueError(f"{path}: lengths {lengths!r} are not all finite")
    # the rules read no planner, so any variant serves
    structure = Structure(instance_graph(instance), None, instance.num_agents, instance.l_max,
                          instance.must_visit, "greedy")
    faults = execution_faults(structure, routes)
    if faults:
        raise ValueError(f"{path}: the plan breaks {', '.join(faults)} on this instance")
    for route, recorded in zip(routes, lengths):
        length = walk_length(structure.graph, route)
        if abs(recorded - length) > FEASIBILITY_TOL:
            raise ValueError(f"{path}: walk {route} has length {length!r}, not the recorded "
                             f"{recorded!r}")
    return FleetPlan(routes=routes, lengths=[float(v) for v in lengths])


def _cmd_plot(args) -> int:
    if (args.instance is None) == (args.results is None):
        raise ValueError("pass exactly one of --instance or --results")
    if args.plan is not None and args.instance is None:
        raise ValueError("--plan needs --instance: a plan is drawn on its instance")
    if args.instance is not None:
        instance = read_instance(args.instance)
        plan = _read_plan_json(args.plan, instance) if args.plan else None
        svgplot.write_svg(svgplot.render_instance(instance, plan), args.out)
    else:
        rows = results_io.read_results(args.results)
        solved = stats.all_solved_ids(rows)
        table = []
        for planner in sorted({r["planner"] for r in rows}):
            for h in sorted({r["H"] for r in rows}):
                values = stats.totals(rows, planner, h, solved)
                if values:
                    table.append(
                        {"planner": planner, "H": h, "mean_cost": sum(values) / len(values)}
                    )
        svgplot.write_svg(svgplot.render_cost_curves(table), args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
