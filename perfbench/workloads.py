"""The workloads: generator settings, set-up, and one timed pass of each.

Every workload is a closed loop driven from one process: the next episode or
pipeline step starts when the previous one has returned.  None starts worker
processes; the CLI's process pool is not benchmarked (see perfbench/README.md).

The exact workloads pin their graph structures to generator seeds so that
every run solves the same slow models; the workload seed draws the growth
tables, which decide the costs the fleet collects and so every later round's
predictions.  loose-exact plans one round per episode (the cold start, whose
models depend on the structure alone), because default seed 1's later
rounds alone swing a pass by 15 s from seed to seed.  suite-greedy draws
whole instances from the workload seed: its 600 episodes per pass average
out the spread between instances.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from patrolopt import benchgen, cli, results_io
from patrolopt.cost_process import GrowthParams, materialize_kappa
from patrolopt.instance_io import Instance, read_instance, write_instance
from patrolopt.simulator import EpisodeResult, run_episode
from speed import Speed

# The budget law under which greedy often falls short of the round-trip bound
# and HiGHS has to branch.
TIGHT_LAW = {"budget_base": 12.0, "budget_span_per_vertex": 0.5, "vertex_choices": (10, 12, 14)}
# Growth streams for the exact workloads, kept away from the generator's own
# (seed + k * 1e6) streams.
GROWTH_STREAM_BASE = 3_000_000_000
SUITE_SEEDS_PER_RUN = 120


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "episodes": run_episode serially; "suite": CLI pipeline
    law: Dict = field(default_factory=dict)  # BenchmarkConfig overrides
    structures: Tuple[int, ...] = ()  # generator seeds of the pinned graph structures
    horizon: int = 2
    planners: Tuple[str, ...] = ("tocp", "top")
    kernel: str = "arith"  # speed.KERNELS entry that resembles the timed work

    def config(self, **extra) -> benchgen.BenchmarkConfig:
        return benchgen.BenchmarkConfig(**{**self.law, **extra})


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "loose-exact",
            "default budget law, cold-start rounds: HiGHS is nearly all planning time and "
            "greedy reaches the round-trip bound, so a certificate that skips the MIP shows here",
            "episodes", structures=tuple(range(1, 11)), horizon=1),
        Workload(
            "tight-exact",
            "tight budget law: greedy often misses the bound and HiGHS branches, so "
            "formulation tightening shows here; top fails whole episodes",
            "episodes", law=TIGHT_LAW, structures=(7, 8, 9, 10)),
        Workload(
            "suite-greedy",
            "CLI gen, greedy bench, stats and plot on the 600-instance default suite: "
            "Python layers only, no HiGHS",
            "suite", planners=("greedy",), kernel="scalar"),
    ]
}


def suite_seed_range(seed: int) -> Tuple[int, int]:
    first = (seed - 1) * SUITE_SEEDS_PER_RUN + 1
    return first, first + SUITE_SEEDS_PER_RUN - 1


def pinned_instance(wl: Workload, structure: int, seed: int) -> Instance:
    """The generator's instance for this structure seed, with a growth table from `seed`."""
    inst = benchgen.generate_instance(wl.config(), structure, wl.horizon)
    params = GrowthParams(mu_star=np.concatenate([[0.0], inst.mu_star]),
                          noise_stddev=inst.noise_stddev)
    table = materialize_kappa(params, GROWTH_STREAM_BASE + 1000 * seed + structure, wl.horizon)
    kappa = [[float(table[v, t]) for t in range(1, wl.horizon + 1)]
             for v in range(1, inst.num_vertices + 1)]
    return dataclasses.replace(inst, kappa=kappa)


def instance_path(suite_dir: str, inst: Instance) -> str:
    return os.path.join(suite_dir, f"H{inst.horizon}", f"seed{inst.seed}.json")


def setup(wl: Workload, seed: int, work: str) -> List[Instance]:
    """Generate the workload's instances, write them, and load them back."""
    suite_dir = os.path.join(work, "suite")
    shutil.rmtree(suite_dir, ignore_errors=True)
    if wl.kind == "suite":
        first, last = suite_seed_range(seed)
        config = wl.config(seeds=tuple(range(first, last + 1)))
        paths = benchgen.generate_suite(config, suite_dir)
    else:
        paths = []
        for s in wl.structures:
            inst = pinned_instance(wl, s, seed)
            paths.append(instance_path(suite_dir, inst))
            write_instance(inst, paths[-1])
    return [read_instance(p) for p in paths]


@dataclass
class Pass:
    """One timed pass: its timings, and what it produced until forget() is called.

    Each episode's round times and planner are kept for the metrics; the
    outputs themselves (results, rows, text) are needed only for the first
    pass's checks, so later passes keep just a digest of them.
    """

    wall: float
    steps: Dict[str, float]
    scales: List[float] = field(default_factory=list)  # speed scale of each episode's bracket
    results: List[EpisodeResult] = field(default_factory=list)  # "episodes" kind
    rows: List[Dict] = field(default_factory=list)  # results table of the suite
    text: str = ""  # deterministic CLI output, for the digest
    digest: str = ""  # of the outputs with timings masked
    episode_rounds: List[List[float]] = field(init=False)
    episode_planners: List[str] = field(init=False)

    def __post_init__(self) -> None:
        if self.results:
            self.episode_rounds = [list(r.compute_seconds) for r in self.results]
            self.episode_planners = [r.planner for r in self.results]
        else:
            self.episode_rounds = [list(r["iter_seconds"]) for r in self.rows]
            self.episode_planners = [r["planner"] for r in self.rows]

    def forget(self) -> None:
        self.results, self.rows, self.text = [], [], ""

    def round_seconds(self) -> List[float]:
        return [s for rounds in self.episode_rounds for s in rounds]

    def first_round_seconds(self) -> List[float]:
        return [rounds[0] for rounds in self.episode_rounds]

    def scaled_round_seconds(self) -> List[float]:
        return [s * k for rounds, k in zip(self.episode_rounds, self.scales) for s in rounds]

    def scaled_first_round_seconds(self) -> List[float]:
        return [rounds[0] * k for rounds, k in zip(self.episode_rounds, self.scales)]

    def round_statuses(self) -> List[str]:
        if self.results:
            return [s for r in self.results for s in r.statuses]
        return [s for r in self.rows for s in r["iter_statuses"]]

    def residuals(self) -> List[float]:
        if self.results:
            return [c for r in self.results for c in r.residual_costs]
        return [c for r in self.rows for c in r["iter_costs"]]

    def planner_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for planner, rounds in zip(self.episode_planners, self.episode_rounds):
            out[planner] = out.get(planner, 0.0) + sum(rounds)
        return out


def cli_call(argv: List[str]) -> str:
    """cli.main with its output captured; raises if the command fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"patrolopt {' '.join(argv)} exited {code}: {err.getvalue()[-500:]}")
    return out.getvalue()


def run_pass(wl: Workload, seed: int, instances: List[Instance], work: str,
             speed: Speed) -> Pass:
    """One timed pass; each episode or CLI step is bracketed by kernel samples.

    The pass's wall time is the sum of the bracketed units, without the samples.
    """
    if wl.kind == "episodes":
        results, scales, wall = [], [], 0.0
        for inst in instances:
            for planner in wl.planners:
                with speed.bracket() as b:
                    results.append(run_episode(inst, planner, keep_plans=True))
                scales.append(b.scale)
                wall += b.seconds
        return Pass(wall, {}, scales=scales, results=results)
    csv_path = os.path.join(work, "results.csv")
    first, last = suite_seed_range(seed)
    gen_dir = os.path.join(work, "gen")
    svg_path = os.path.join(work, "curves.svg")
    steps: Dict[str, float] = {}
    text = []
    argvs = [
        ("gen", ["gen", "--out", gen_dir, "--seeds", f"{first}..{last}", "--force"]),
        ("bench", ["bench", "--suite", gen_dir, "--planners", "greedy", "--jobs", "1",
                   "--out", csv_path]),
        ("stats", ["stats", "--results", csv_path, "--pair", "greedy,greedy"]),
        ("plot", ["plot", "--results", csv_path, "--out", svg_path]),
    ]
    for step, argv in argvs:
        with speed.bracket() as b:
            out = cli_call(argv)
        steps[step] = b.seconds
        if step == "bench":
            bench_scale = b.scale
        if step == "stats":
            text.append(out)
    with open(svg_path) as fh:
        text.append(fh.read())
    rows = results_io.read_results(csv_path)
    return Pass(sum(steps.values()), steps, scales=[bench_scale] * len(rows), rows=rows,
                text="".join(text))
