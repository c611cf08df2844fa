"""Paired benchmark runs of two checkouts, summarised in one BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --label proofs \
        --workloads tight-exact,loose-exact,suite-greedy:3 --pairs 10

Each workload runs --pairs pairs (or the count after its colon).  Pair k runs
`perfbench/run.py --trace 0` with seed --first-seed + k in both checkouts,
each from its own root and with its own copy of the benchmark; the parent
runs first in even pairs and the change first in odd ones, so the machine's
drift favours neither side.  The run length is BENCHMARK.json's run_seconds.

For every end-to-end metric of BENCHMARK.json the file records each side's
values, median and quartiles, the pairs the change won (ties count for
neither), the change's median over the parent's, and the gap between the
medians over the parent's interquartile range, which is printed beside the
pairs won: a small claim needs both.  It also records each run's
digest, checks and failed operations, failed_round_frac and
residual_cost_mean, each side's median attempted operations, the machine of
the first run (nproc, Python, numpy, scipy), and each checkout's commit, the
git tree of its src/ and the line counts of the Python files under its src/
and tests/.  The attempted medians are printed beside peak_rss_mb, which
grows with the passes a fixed-length run completes.  Per workload,
digests_match is true when every pair's two runs have the same digest (so
the same outputs), and it is printed with the metrics; the line counts are
printed after them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

INFO_KEYS = ("failed_round_frac", "residual_cost_mean")
LINE_COUNTED = ("src", "tests", "tools")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at root; its result line plus details."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode} "
                           f"without a result:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    path = os.path.join(root, ".perfbench", "out", f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        detail = json.load(fh)
    return {
        "seed": seed,
        "exit": proc.returncode,
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: v["value"] for k, v in out["metrics"].items()},
        "info": {k: detail.get("info", {}).get(k) for k in INFO_KEYS},
        "digest": detail.get("digest"),
        "env": detail["env"],
        "elapsed_s": elapsed,
    }


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(parent_runs, change_runs, metric, better):
    sign = 1.0 if better == "lower" else -1.0
    a = [r["metrics"][metric] for r in parent_runs]
    b = [r["metrics"][metric] for r in change_runs]
    pa, pb = summary(a), summary(b)
    iqr = pa["q3"] - pa["q1"]
    gap = sign * (pa["median"] - pb["median"])
    return {
        "better": better,
        "parent": pa,
        "change": pb,
        "pairs_won": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
        "pairs_lost": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
        "ratio": pb["median"] / pa["median"] if pa["median"] else None,
        "gap_over_parent_iqr": gap / iqr if iqr else None,
    }


def python_lines(root: str, top: str) -> int:
    """Lines (newlines, as wc -l counts them) of the .py files under root/top."""
    total = 0
    for folder, _, names in os.walk(os.path.join(root, top)):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def checkout(root: str) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src"),
            "uncommitted": bool(git("status", "--porcelain", "--", "src", "perfbench")),
            "lines": {top: python_lines(root, top) for top in LINE_COUNTED}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma list of name[:pairs]")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    report = {"label": args.label, "command": "perfbench/run.py --trace 0",
              "run_seconds": seconds, "parent": checkout(args.parent),
              "change": checkout(args.change), "workloads": {}}
    for item in args.workloads.split(","):
        workload, _, count = item.partition(":")
        pairs = int(count) if count else args.pairs
        runs = {"parent": [], "change": []}
        for k in range(pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, seed, seconds))
                print(f"{workload} pair {k + 1}/{pairs} seed {seed} {side}: "
                      f"{runs[side][-1]['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
        report.setdefault("machine", runs["parent"][0]["env"])
        digests_match = all(p["digest"] is not None and p["digest"] == c["digest"]
                            for p, c in zip(runs["parent"], runs["change"]))
        attempted = {side: statistics.median(r["attempted"] for r in side_runs)
                     for side, side_runs in runs.items()}
        report["workloads"][workload] = {
            "pairs": pairs,
            "seeds": [args.first_seed + k for k in range(pairs)],
            "digests_match": digests_match,
            "attempted_median": attempted,
            "metrics": {m["name"]: compare(runs["parent"], runs["change"], m["name"],
                                           m["better"]) for m in bench["end_to_end"]},
            "runs": runs,
        }
        for name, c in report["workloads"][workload]["metrics"].items():
            gap = c["gap_over_parent_iqr"]
            gap = "no parent IQR" if gap is None else f"{gap:.2f} parent IQRs"
            passes = (f", attempted {attempted['parent']:g} -> {attempted['change']:g}"
                      if name == "peak_rss_mb" else "")
            print(f"{workload} {name}: {c['parent']['median']:.6g} -> "
                  f"{c['change']['median']:.6g} (won {c['pairs_won']}/{pairs}, {gap}{passes})")
        print(f"{workload} digests_match: {str(digests_match).lower()}")
    for top in LINE_COUNTED:
        print(f"{top} lines: {report['parent']['lines'][top]} -> "
              f"{report['change']['lines'][top]}")
    out = f"BENCH_{args.label}.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
