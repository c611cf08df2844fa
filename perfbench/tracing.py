"""Spans recorded from outside the package, and the round loop rebuilt from public calls.

A span is (name, start, end, parent, episode).  Spans live in memory until the
run ends and are then written out as JSON lines.  A span's self time is its
duration minus the durations of its direct children; children never overlap,
because everything here runs on one thread.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from patrolopt import benchgen, milp, results_io, stats, svgplot
from patrolopt.cost_process import CostState
from patrolopt.estimator import EstimatorState
from patrolopt.graph import DEPOT, all_pairs_shortest, reachable_round_trip
from patrolopt.greedy import greedy_plan
from patrolopt.instance_io import (
    Instance,
    instance_graph,
    instance_id,
    kappa_table,
    read_instance,
    write_instance,
)
from patrolopt.simulator import STATUS_HEURISTIC, EpisodeResult
from patrolopt.tocp import (
    UnreachableMustVisitError,
    audit_solution,
    build_top,
    build_tocp,
    extract_routes,
)

import workloads

# Relative tolerance for comparing a plan's reward with the round-trip bound.
BOUND_RTOL = 1e-9
# The benchmark's own extras in the traced loop; the traced pass's wall time
# includes them.
PROBE_SPANS = ("milp.assembly_probe", "tocp.audit", "greedy.probe", "greedy.bound",
               "graph.reachable")


class Tracer:
    """In-memory span recorder with a stack of open spans and named counters."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Dict[str, float] = {}
        self.problems: List[str] = []  # check failures found while tracing
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, episode: int = -1) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, episode))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            n, start, _, p, ep = self.spans[index]
            self.spans[index] = (n, start, time.perf_counter(), p, ep)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def durations(self, name: str) -> List[float]:
        return [end - start for (n, start, end, _, _) in self.spans if n == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Tuple[int, float, float]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child_time[k])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for (name, start, end, parent, episode) in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "episode": episode}) + "\n")


def round_trip_bound(c_hat, reachable) -> float:
    """Sum of positive predicted cost over vertices that have a round trip in budget."""
    return float(sum(c_hat[v] for v in sorted(reachable) if v != DEPOT and c_hat[v] > 0))


def reaches_bound(reward: float, bound: float) -> bool:
    return abs(bound - reward) <= BOUND_RTOL * max(1.0, abs(bound))


def traced_episode(
    tr: Tracer, instance: Instance, planner: str, episode: int, probe_greedy: bool
) -> EpisodeResult:
    """run_episode's loop, rebuilt from public calls with a span around each.

    The planning stages run inside a "simulator.plan" span, whose duration is
    the round's compute_seconds.  The benchmark's own extras (the labelled
    matrix-assembly probe, the audit, the greedy probe and its bound) sit
    outside it.  Check failures go to tr.problems.
    """
    label = f"{instance_id(instance)}/{planner}"
    with tr.span("simulator.episode", episode):
        with tr.span("graph.instance_graph", episode):
            graph = instance_graph(instance)
        with tr.span("graph.apsp", episode):
            dm = all_pairs_shortest(graph)
        tr.count("graph.apsp.calls")
        cost = CostState(kappa_table(instance))
        est = EstimatorState(instance.num_vertices, instance.mu_default)
        with tr.span("graph.reachable", episode):
            reachable = reachable_round_trip(graph, dm, instance.l_max)
        residuals: List[float] = []
        seconds: List[float] = []
        statuses: List[str] = []
        plans = []
        failed = False
        for t in range(1, instance.horizon + 1):
            with tr.span("cost_process.advance", episode):
                cost.advance()
            with tr.span("estimator.predict", episode):
                c_hat = est.predicted_cost(t)
            solution = handles = model = None
            t0 = time.perf_counter()
            with tr.span("simulator.plan", episode):
                if planner == "greedy":
                    with tr.span("greedy.plan", episode):
                        try:
                            plan = greedy_plan(graph, dm, c_hat, instance.num_agents,
                                               instance.l_max, instance.must_visit)
                            status = STATUS_HEURISTIC
                        except UnreachableMustVisitError:
                            plan, status = None, milp.INFEASIBLE
                    tr.count("greedy.calls")
                else:
                    build = build_tocp if planner == "tocp" else build_top
                    with tr.span("tocp.build", episode):
                        model, handles = build(graph, c_hat, instance.num_agents,
                                               instance.l_max, instance.must_visit, dist=dm)
                    with tr.span("milp.solve", episode):
                        solution = milp.solve(model)
                    status = solution.status
                    plan = None
                    if status in (milp.OPTIMAL, milp.FEASIBLE_TIMEOUT):
                        with tr.span("tocp.extract", episode):
                            plan = extract_routes(solution, handles, graph)
            seconds.append(time.perf_counter() - t0)
            statuses.append(status)
            if model is not None:
                _record_mip(tr, episode, model, solution, graph, handles, f"{label} round {t}")
            if probe_greedy or planner == "greedy":
                _probe_greedy(tr, episode, graph, dm, c_hat, instance, reachable, planner, plan)
            if plan is None:
                failed = True
                visited = {DEPOT}
            else:
                visited = plan.visited() | {DEPOT}
            plans.append(plan)
            lumps = {v: float(cost.accrued[v]) for v in visited}
            with tr.span("cost_process.apply", episode):
                cost.apply_visits(visited, t)
                residuals.append(cost.residual_cost())
            with tr.span("estimator.observe", episode):
                for v in sorted(visited):
                    est.observe(v, lumps[v], t)
            tr.count("estimator.observe.calls", len(visited))
    result = EpisodeResult(
        instance_id=instance_id(instance), planner=planner, horizon=instance.horizon,
        residual_costs=residuals, total_cost=float(sum(residuals)),
        compute_seconds=seconds, statuses=statuses, failed=failed, plans=plans,
        mu_hat_final=[float(v) for v in est.mu_hat()[1:]],
    )
    return result


def _record_mip(tr, episode, model, solution, graph, handles, where) -> None:
    with tr.span("milp.assembly_probe", episode):
        a, _, _ = model.constraint_matrix()
    tr.count("milp.solve.calls")
    tr.count("milp.nodes", solution.node_count)
    tr.count("tocp.vars", model.num_variables)
    tr.count("tocp.rows", len(model.constraints))
    tr.count("tocp.nnz", a.nnz)
    if solution.status == milp.OPTIMAL:
        tr.count("milp.optimal")
    if solution.status in (milp.INFEASIBLE, milp.TIMEOUT_NO_SOLUTION):
        tr.count("milp.failed")
    if solution.has_assignment:
        with tr.span("tocp.audit", episode):
            issues = audit_solution(graph, solution, handles)
        if issues:
            tr.problems.append(f"{where}: audit: {issues[:3]}")


def _probe_greedy(tr, episode, graph, dm, c_hat, instance, reachable, planner, plan) -> None:
    """Count the rounds where greedy on the round's c_hat reaches the round-trip bound.

    In the exact workloads greedy runs here as a labelled probe.  Checking the
    plans against the bound and against greedy is checks.check_episode's job.
    """
    with tr.span("greedy.probe" if planner != "greedy" else "greedy.bound", episode):
        bound = round_trip_bound(c_hat, reachable)
        if planner == "greedy":
            greedy = plan
        else:
            try:
                greedy = greedy_plan(graph, dm, c_hat, instance.num_agents, instance.l_max,
                                     instance.must_visit)
            except UnreachableMustVisitError:
                greedy = None
            tr.count("greedy.probe.calls")
    if greedy is None:
        return
    tr.count("greedy.bound_rounds")
    if reaches_bound(greedy.reward(c_hat), bound):
        tr.count("greedy.bound_hits")


def traced_setup(tr: Tracer, wl, seed: int, work: str) -> List[Instance]:
    """workloads.setup for the pinned-structure workloads, with spans per instance."""
    suite_dir = os.path.join(work, "suite")
    shutil.rmtree(suite_dir, ignore_errors=True)
    paths = []
    for s in wl.structures:
        with tr.span("benchgen.generate"):
            inst = workloads.pinned_instance(wl, s, seed)
        _write(tr, inst, workloads.instance_path(suite_dir, inst))
        paths.append(workloads.instance_path(suite_dir, inst))
    return [_read(tr, p) for p in paths]


def _write(tr: Tracer, inst: Instance, path: str) -> None:
    tr.count("benchgen.instances")
    tr.count("benchgen.escalations", inst.seed_escalations)
    with tr.span("instance_io.write"):
        write_instance(inst, path)
    tr.count("instance_io.write.bytes", os.path.getsize(path))


def _read(tr: Tracer, path: str) -> Instance:
    with tr.span("instance_io.read"):
        return read_instance(path)


def traced_pass(tr: Tracer, wl, seed: int, instances: List[Instance], work: str):
    """One pass of the workload through the traced loop; returns a workloads.Pass.

    suite-greedy is rebuilt from the calls behind the CLI's gen, bench, stats
    and plot commands.
    """
    t0 = time.perf_counter()
    if wl.kind == "episodes":
        results = []
        for inst in instances:
            for planner in wl.planners:
                results.append(traced_episode(tr, inst, planner, len(results), True))
        return workloads.Pass(time.perf_counter() - t0, {}, results=results)
    csv_path = os.path.join(work, "traced.csv")
    first, last = workloads.suite_seed_range(seed)
    config = wl.config(seeds=tuple(range(first, last + 1)))
    gen_dir = os.path.join(work, "traced-gen")
    svg_path = os.path.join(work, "traced.svg")
    results = []
    for path, s, h in benchgen.suite_paths(config, gen_dir):
        with tr.span("benchgen.generate"):
            inst = benchgen.generate_instance(config, s, h)
        _write(tr, inst, path)
    for path, _, _ in benchgen.suite_paths(config, gen_dir):
        inst = _read(tr, path)
        results.append(traced_episode(tr, inst, "greedy", len(results), False))
    with tr.span("results_io.write"):
        results_io.write_results(csv_path, [results_io.result_to_row(r) for r in results])
    with tr.span("results_io.read"):
        rows = results_io.read_results(csv_path)
    with tr.span("stats"):
        stats.comparison_table(rows, "greedy", "greedy")
        stats.failure_counts(rows)
        solved = stats.all_solved_ids(rows)
        curves = []
        for h in sorted({r["H"] for r in rows}):
            values = stats.totals(rows, "greedy", h, solved)
            curves.append({"planner": "greedy", "H": h, "mean_cost": sum(values) / len(values)})
    with tr.span("svgplot"):
        svgplot.write_svg(svgplot.render_cost_curves(curves), svg_path)
    wall = time.perf_counter() - t0
    with open(svg_path) as fh:
        svg = fh.read()
    return workloads.Pass(wall, {}, results=results, rows=rows, text=svg)
