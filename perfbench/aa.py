"""A/A steadiness check: repeated runs of unchanged code, per workload and metric.

    python3 perfbench/aa.py --workloads loose-exact,suite-greedy --runs 10 --sets 2

Set k runs seeds k*runs+1 .. (k+1)*runs, one after another.  For each
end-to-end metric the script reports every set's median and quartiles and its
spread, (q3 - q1) / median, against the metric's bound in BENCHMARK.json, and
how far each later set's median moved from the first set's in the worse
direction.  Results go to .perfbench/out/aa-<workloads>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["elapsed"] = elapsed
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma list")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            seeds = range(args.first_seed + k * args.runs, args.first_seed + (k + 1) * args.runs)
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"{workload} set {k} seed {seed}: {runs[-1]['elapsed']:.1f} s",
                      file=sys.stderr, flush=True)
            sets.append({name: summary([r["metrics"][name]["value"] for r in runs])
                         for name in metrics})
            sets[-1]["elapsed_s"] = summary([r["elapsed"] for r in runs])
        report[workload] = sets
        print(f"\n{workload}")
        print(f"{'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'worse':>7}")
        for name, spec in metrics.items():
            base = sets[0][name]["median"]
            for k, s in enumerate(sets):
                sign = 1 if spec["better"] == "lower" else -1
                worse = sign * (s[name]["median"] - base) / base
                print(f"{name:<16} {k:>3} {s[name]['median']:>12.6g} {s[name]['q1']:>12.6g} "
                      f"{s[name]['q3']:>12.6g} {s[name]['spread']:>7.3f} {spec['bound']:>6} "
                      f"{worse:>7.3f}")
        print(f"{'run time (s)':<16} " + "  ".join(
            f"set {k}: median {s['elapsed_s']['median']:.1f} max {max(s['elapsed_s']['values']):.1f}"
            for k, s in enumerate(sets)))
    out = os.path.join(ROOT, ".perfbench", "out", f"aa-{args.workloads.replace(',', '+')}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwritten to {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
