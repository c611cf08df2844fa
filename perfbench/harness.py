"""One benchmark run: set-up, timed passes, output checks and metrics.

Imported by run.py once the package is importable from ./src.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import threading
import time
import traceback

import checks
import tracing
import workloads
from speed import Speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench", "out")
# Set-up is timed before and after the passes, each time at least
# SETUP_MIN_REPEATS times and until SETUP_SECONDS / 2 have been spent or
# SETUP_MAX_REPEATS reached, in bracketed batches of SETUP_BATCH_SECONDS;
# the median of all of them is reported.
SETUP_MIN_REPEATS = 2
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 100
SETUP_BATCH_SECONDS = 0.1
# Counts that must repeat exactly between traced runs of one workload and seed.
EXACT_COUNTS = ("milp.nodes", "milp.solve.calls", "tocp.vars", "tocp.rows", "tocp.nnz",
                "benchgen.escalations", "greedy.bound_rounds", "greedy.bound_hits")


def median(values):
    return float(statistics.median(values)) if values else 0.0


def geomean(values):
    return math.exp(statistics.fmean(math.log(max(v, 1e-9)) for v in values)) if values else 0.0


def p90(values):
    return float(statistics.quantiles(values, n=10)[8]) if len(values) >= 2 else median(values)


def peak_rss_mb() -> float:
    """Peak RSS of this process so far; no workload starts child processes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def os_threads() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def highs_added_threads(instances) -> int:
    """OS threads a HiGHS solve of a small first-round tocp model adds to its process.

    The solve runs in a forked child, so that its memory stays out of this
    process's peak RSS on workloads that never call HiGHS.
    """
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: writer.send(_solve_and_count_threads(instances)))
    child.start()
    writer.close()
    try:
        count = reader.recv()
    except EOFError:
        count = -1
    child.join()
    return count


def _solve_and_count_threads(instances) -> int:
    import numpy as np
    from patrolopt import milp
    from patrolopt.graph import all_pairs_shortest
    from patrolopt.instance_io import instance_graph
    from patrolopt.tocp import build_tocp

    inst = min(instances, key=lambda i: (i.num_vertices, i.num_agents))
    graph = instance_graph(inst)
    c_hat = np.full(inst.num_vertices + 1, inst.mu_default)
    model, _ = build_tocp(graph, c_hat, inst.num_agents, inst.l_max, inst.must_visit,
                          dist=all_pairs_shortest(graph))
    before = os_threads()
    seen = []
    done = threading.Event()

    def sample():
        while not done.is_set():
            seen.append(os_threads())
            done.wait(0.001)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        milp.solve(model)
    finally:
        done.set()
        sampler.join()
    if not seen or min(seen) <= 0 or before <= 0:
        return -1
    return max(seen) - 1 - before  # the sampling thread is not counted


def environment(wl, instances):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": 1,  # no workload starts worker processes
        "os_threads": os_threads(),
        "highs_added_threads": highs_added_threads(instances),
        "machine": platform.machine(),
    }


def timed_setup(wl, seed, work, speed, times):
    """Set up at least SETUP_MIN_REPEATS times and until SETUP_SECONDS / 2 have been spent.

    Called before the passes and again after them, so set-up is sampled at
    both ends of the run.  Set-ups run in batches of at least
    SETUP_BATCH_SECONDS, each bracketed by kernel samples.  Appends
    (seconds, speed scale) per repetition.
    """
    reps, instances = [], None
    while len(reps) < SETUP_MIN_REPEATS or (
            sum(reps) < SETUP_SECONDS / 2 and len(reps) < SETUP_MAX_REPEATS):
        batch = []
        with speed.bracket() as b:
            while not batch or (sum(batch) < SETUP_BATCH_SECONDS
                                and len(reps) + len(batch) < SETUP_MAX_REPEATS):
                instances = None
                gc.collect()
                t0 = time.perf_counter()
                instances = workloads.setup(wl, seed, work)
                batch.append(time.perf_counter() - t0)
        reps += batch
        times += [(r, b.scale) for r in batch]
    return instances


def fingerprint(wl, p) -> str:
    """Digest of a pass's outputs with every timing left out."""
    if wl.kind == "episodes":
        return checks.digest(checks.masked_results(p.results))
    return checks.digest([checks.masked_rows(p.rows), p.text])


def output_problems(wl, passes, instances, work):
    """Output checks on the first untraced pass, and the other passes' digests against it."""
    problems = []
    first = passes[0]
    if wl.kind == "episodes":
        by_id = {f"H{i.horizon}_seed{i.seed}": i for i in instances}
        for res in first.results:
            problems += checks.check_episode(by_id[res.instance_id], res)
    else:
        problems += checks.check_rows(
            first.rows, [(f"H{i.horizon}_seed{i.seed}", "greedy") for i in instances])
        problems += _replay_greedy(first.rows, instances)
        problems += checks.check_svg(os.path.join(work, "curves.svg"))
        if f"all-solved subset: {len(instances)} instances" not in first.text:
            problems.append("stats did not report every instance as solved")
    if any(p.digest != first.digest for p in passes[1:]):
        problems.append("outputs differ between passes of the same inputs")
    return problems


def _replay_greedy(rows, instances):
    """Every greedy episode again, directly: valid plans and the same table row."""
    from patrolopt.simulator import run_episode

    results = [run_episode(inst, "greedy", keep_plans=True) for inst in instances]
    problems = checks.rows_match_results(rows, results)
    for inst, res in zip(instances, results):
        problems += checks.check_episode(inst, res)
    return problems


def end_to_end(wl, passes, setup_times, speed, peak_mb):
    """The metrics BENCHMARK.json gates, and informational ones; each is (value, unit).

    Round latencies are taken per pass, scaled by each episode's speed bracket,
    and the median over passes is reported.
    """
    walls = [p.wall for p in passes]
    wall = median(walls)
    episodes = len(passes[0].episode_rounds)
    rounds = [s for p in passes for s in p.round_seconds()]
    statuses = passes[0].round_statuses()
    residuals = passes[0].residuals()
    metrics = {
        "setup_s": (median([t * k for t, k in setup_times]), "s"),
        "round1_s": (median([geomean(p.scaled_first_round_seconds()) for p in passes]), "s"),
        "round_s": (median([statistics.fmean(p.scaled_round_seconds()) for p in passes]), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    failed_rounds = sum(s in checks.NO_PLAN_STATUSES for s in statuses)
    info = {
        "setup_s_raw": (median([t for t, _ in setup_times]), "s"),
        "round1_s_raw": (median([geomean(p.first_round_seconds()) for p in passes]), "s"),
        "round_s_raw": (median([statistics.fmean(p.round_seconds()) for p in passes]), "s"),
        "kernel_s": (median(speed.samples), f"s, median of {len(speed.samples)}"),
        "passes": (len(passes), "count"),
        "episodes_per_pass": (episodes, "count"),
        "rounds": (len(rounds), "count"),
        "wall_s": (wall, "s"),
        "episodes_per_s": (episodes / wall, "1/s"),
        "round1_s_sum": (median([sum(p.first_round_seconds()) for p in passes]), "s"),
        "round_s_p50": (median(rounds), "s"),
        "round_s_geomean": (geomean(rounds), "s"),
        "round_s_p90": ((p90(rounds), "s") if len(rounds) >= 100
                        else (None, f"s; {len(rounds)} rounds < 100")),
        "failed_round_frac": (failed_rounds / len(statuses), f"of {len(statuses)} rounds"),
        "residual_cost_mean": (sum(residuals) / len(residuals), f"cost, of {len(residuals)} rounds"),
    }
    for planner in wl.planners:
        info[f"plan_s.{planner}"] = (median([p.planner_seconds().get(planner, 0.0)
                                             for p in passes]), "s")
    if wl.kind == "suite":
        info["gen_instances_per_s"] = (episodes / median([p.steps["gen"] for p in passes]), "1/s")
        for step in ("gen", "bench", "stats", "plot"):
            info[f"step_s.{step}"] = (median([p.steps[step] for p in passes]), "s")
    return metrics, info


def per_layer(wl, tr, untraced, traced):
    st = tr.self_times()
    c = tr.counts

    def tot(*names):
        return float(sum(st.get(n, (0, 0.0, 0.0))[1] for n in names))

    def own(*names):
        return float(sum(st.get(n, (0, 0.0, 0.0))[2] for n in names))

    calls = c.get("milp.solve.calls", 0)
    bench_s = untraced.steps.get("bench", 0.0)
    busy = sum(untraced.round_seconds()) if wl.kind == "suite" else 0.0
    rounds = c.get("greedy.bound_rounds", 0)
    m = {
        "milp.solve.calls": (calls, "count"),
        "milp.solve.s": (tot("milp.solve"), "s"),
        "milp.solve.s_p90": (p90(tr.durations("milp.solve")) if calls else 0.0, "s"),
        "milp.nodes": (c.get("milp.nodes", 0), "count"),
        "milp.optimal_frac": (c.get("milp.optimal", 0) / calls if calls else 0.0, "ratio"),
        "milp.failed": (c.get("milp.failed", 0), "count"),
        "milp.assembly.s": (tot("milp.assembly_probe"), "s"),
        "tocp.build.s": (tot("tocp.build"), "s"),
        "tocp.vars": (c.get("tocp.vars", 0), "count"),
        "tocp.rows": (c.get("tocp.rows", 0), "count"),
        "tocp.nnz": (c.get("tocp.nnz", 0), "count"),
        "tocp.extract.s": (tot("tocp.extract"), "s"),
        "tocp.audit.s": (tot("tocp.audit"), "s"),
        "greedy.calls": (c.get("greedy.calls", 0), "count"),
        "greedy.s": (tot("greedy.plan"), "s"),
        "greedy.probe.calls": (c.get("greedy.probe.calls", 0), "count"),
        "greedy.probe.s": (tot("greedy.probe"), "s"),
        "greedy.bound_hit_frac": (c.get("greedy.bound_hits", 0) / rounds if rounds else 0.0,
                                  "ratio"),
        "greedy.bound_rounds": (rounds, "count"),
        "greedy.bound_hits": (c.get("greedy.bound_hits", 0), "count"),
        "graph.apsp.calls": (c.get("graph.apsp.calls", 0), "count"),
        "graph.apsp.s": (tot("graph.apsp"), "s"),
        "benchgen.instances": (c.get("benchgen.instances", 0), "count"),
        "benchgen.escalations": (c.get("benchgen.escalations", 0), "count"),
        "benchgen.s": (tot("benchgen.generate"), "s"),
        "instance_io.write.s": (tot("instance_io.write"), "s"),
        "instance_io.write.bytes": (c.get("instance_io.write.bytes", 0), "bytes"),
        "instance_io.read.s": (tot("instance_io.read"), "s"),
        "estimator.observe.calls": (c.get("estimator.observe.calls", 0), "count"),
        "estimator.s": (tot("estimator.predict", "estimator.observe"), "s"),
        "cost_process.s": (tot("cost_process.advance", "cost_process.apply"), "s"),
        "simulator.self_s": (own("simulator.episode", "simulator.plan"), "s"),
        "results_io.write.s": (tot("results_io.write"), "s"),
        "results_io.read.s": (tot("results_io.read"), "s"),
        "stats.s": (tot("stats"), "s"),
        "svgplot.s": (tot("svgplot"), "s"),
        "cli.bench.s": (bench_s, "s"),
        "cli.worker_busy_s": (busy, "s"),
        "cli.worker_idle_frac": (1.0 - busy / bench_s if bench_s else 0.0, "ratio"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.untraced_wall_s": (untraced.wall, "s"),
        "trace.overhead_s": (traced.wall - untraced.wall, "s"),
        "trace.probes_s": (tot(*tracing.PROBE_SPANS), "s"),
        "trace.spans": (len(tr.spans), "count"),
    }
    return m, st


def count_drift(wl, seed, counts):
    """Compare this run's exact counts with an earlier traced run of the same inputs."""
    path = os.path.join(OUT_DIR, f"counts-{wl.name}-seed{seed}.json")
    now = {k: counts.get(k, 0) for k in EXACT_COUNTS}
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(now, fh)
        return "first traced run of these inputs; counts recorded"
    with open(path) as fh:
        before = json.load(fh)
    drift = sorted(k for k in EXACT_COUNTS if before.get(k) != now[k])
    if drift:
        return "DRIFT: " + ", ".join(f"{k} {before.get(k)} -> {now[k]}" for k in drift)
    return "repeated exactly: " + ", ".join(EXACT_COUNTS)


def show(label, metrics):
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else value)
        print(f"{label} {name} = {shown} {unit}")


def run(wl, seed: int, seconds: float, trace: int, work: str) -> int:
    speed = Speed(wl.kernel)
    setup_times = []
    instances = timed_setup(wl, seed, work, speed, setup_times)
    env = environment(wl, instances)
    for k, v in env.items():
        print(f"env {k} = {v}")
    per_pass = len(instances) * len(wl.planners)
    passes = []
    attempted = lost = 0
    problems = []
    start = time.perf_counter()
    while not passes or (trace == 0 and time.perf_counter() - start < seconds):
        attempted += per_pass
        gc.collect()
        try:
            p = workloads.run_pass(wl, seed, instances, work, speed)
        except Exception:  # a failing program call is a failed operation, not a crash
            lost += per_pass
            problems.append(traceback.format_exc(limit=3))
            break
        p.digest = fingerprint(wl, p)
        if passes:  # only the first pass's outputs are checked in full
            p.forget()
        passes.append(p)
    if trace == 0:
        instances = None  # the final set-up's instances replace these
        instances = timed_setup(wl, seed, work, speed, setup_times)
        # Before the output checks, which replay episodes of their own.
        peak_mb = peak_rss_mb()
    result = {"workload": wl.name, "seed": seed, "trace": trace, "env": env,
              "setup_seconds": [t for t, _ in setup_times],
              "setup_scales": [k for _, k in setup_times],
              "kernel_seconds": speed.samples,
              "round_seconds": [p.round_seconds() for p in passes] if wl.kind == "episodes" else [],
              "episode_scales": [p.scales for p in passes] if wl.kind == "episodes" else [],
              "pass_walls": [p.wall for p in passes]}
    metrics = {}
    traced = None
    if passes:
        problems += output_problems(wl, passes, instances, work)
        result["digest"] = passes[0].digest
    if passes and trace == 0:
        metrics, info = end_to_end(wl, passes, setup_times, speed, peak_mb)
        show("metric", metrics)
        show("info", info)
        result["info"] = {k: v for k, (v, _) in info.items()}
    elif passes:
        tr = tracing.Tracer()
        attempted += per_pass
        try:
            traced_instances = (tracing.traced_setup(tr, wl, seed, work)
                                if wl.kind != "suite" else instances)
            traced = tracing.traced_pass(tr, wl, seed, traced_instances, work)
        except Exception:  # as above: report the failure, do not crash
            lost += per_pass
            problems.append(traceback.format_exc(limit=3))
            traced = None
    if traced is not None:
        problems += tr.problems + _traced_matches(wl, passes[0], traced)
        metrics, st = per_layer(wl, tr, passes[0], traced)
        show("layer", metrics)
        print(f"{'span':<24} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, (calls, total, own) in sorted(st.items()):
            print(f"{name:<24} {calls:>8} {total:>10.4f} {own:>10.4f}")
        print(f"exact-counts: {count_drift(wl, seed, tr.counts)}")
        spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl")
        tr.write(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}")
    if "digest" in result:
        print(f"digest (timings masked): {result['digest']}")
    correct = not problems
    result.update(correct=correct, problems=problems,
                  metrics={k: v for k, (v, _) in metrics.items()})
    with open(os.path.join(OUT_DIR, f"result-{wl.name}-seed{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(attempted, lost + len(problems)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _traced_matches(wl, untraced, traced):
    """The traced pass must reproduce the untraced pass's outputs exactly."""
    if wl.kind == "episodes":
        return [p for a, b in zip(untraced.results, traced.results)
                for p in checks.same_outputs(a, b)]
    problems = []
    if checks.masked_rows(untraced.rows) != checks.masked_rows(traced.rows):
        problems.append("traced pass's results table differs from the untraced pass's")
    if not untraced.text.endswith(traced.text):
        problems.append("traced pass's SVG differs from the CLI's")
    return problems
