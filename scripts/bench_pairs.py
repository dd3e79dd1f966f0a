#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two source trees and summarise.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR
           [--workloads NAME ...] [--seed0 1]

Each tree is a checkout of the repository, for example a `git archive` of
a commit unpacked in its own directory.  For each workload, one
`perfbench/run.py --trace 1` run from the change tree comes first, with
seed seed0: run.py exits non-zero when the tracer's outermost spans cover
less than its MIN_TOP_SPAN_FRAC of the operation time.  Then, for each of
the PAIRS seeds seed0 .. seed0+PAIRS-1, `perfbench/run.py --trace 0` runs
once from each tree for BENCHMARK.json's "run_seconds", one process per
run: the parent first on odd seeds and the change first on even ones, so
that a drift in the host's speed falls on both sides alike.  A run that is
not "correct": true with 0 failed operations, or prints no "N passes;"
count, a traced run that reports no TRACE_METRICS, or a run that outlasts
RUN_TIMEOUT_S, stops the script.

Prints one JSON object on stdout: the command, the protocol, the rows of
every run per workload and side, and per workload a summary of each
end-to-end metric named in this repository's BENCHMARK.json: the median
and quartiles of each side, the pairs in which the change is better, and
the change's relative difference of medians; its "passes" entry holds each
side's median pass count, as peak_rss_mb grows with the passes a run
keeps, and its "traced" entry the traced run's seed and TRACE_METRICS.
Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # alternating pairs per workload, the fewest that can support a claimed gain
RUN_TIMEOUT_S = 900  # a 25 s run, set-up samples and checks included, took under 40 s (2 vCPUs)
TRACE_METRICS = ("trace.top_span_frac", "trace.overhead_frac")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run of perfbench from `tree`, as a row: correct, attempted,
    failed, the metrics (end-to-end ones, or per-layer ones with trace 1),
    the untraced passes, read from run.py's "N passes;", and the seed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {}
    passes = re.search(r"(\d+) passes;", done.stdout)
    if (done.returncode != 0 or out.get("correct") is not True or out.get("failed") != 0
            or passes is None):
        sys.exit(f"bench_pairs: {workload} seed {seed} in {tree} did not run clean "
                 f"(exit {done.returncode}):\n{done.stderr.strip()[-2000:]}")
    row = {"correct": True, "attempted": out["attempted"], "failed": 0}
    row.update({k: round(m["value"], 6) for k, m in out["metrics"].items()})
    row["passes"] = int(passes[1])
    row["seed"] = seed
    return row


def traced_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One --trace 1 run from `tree`: its seed and TRACE_METRICS."""
    row = run_once(tree, workload, seed, seconds, trace=1)
    if not all(k in row for k in TRACE_METRICS):  # run.py made no traced pass
        sys.exit(f"bench_pairs: {workload} seed {seed} in {tree} reported no "
                 f"{' or '.join(TRACE_METRICS)}")
    return {"seed": seed, **{k: row[k] for k in TRACE_METRICS}}


def quartiles(values) -> tuple:
    """(q1, median, q3), the quartiles taken inclusively."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(rows: dict, metrics) -> dict:
    """The summary of one workload: `rows` maps each side to its runs, in
    seed order, and `metrics` lists (name, better) with better "lower" or
    "higher".  A pair is the two runs of one seed.  Rows with pass counts
    add each side's median count as "passes"; rows written before the
    counts were recorded have none."""
    parent, change = rows["parent"], rows["change"]
    if [r["seed"] for r in parent] != [r["seed"] for r in change]:
        raise ValueError("unpaired runs: the sides' seeds differ")
    out = {}
    for name, better in metrics:
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        out[name] = {
            "parent_median": round(pm, 6), "parent_q1": round(pq1, 6),
            "parent_q3": round(pq3, 6), "change_median": round(cm, 6),
            "change_q1": round(cq1, 6), "change_q3": round(cq3, 6),
            "change_better_pairs": f"{wins}/{len(p)}",
            "rel": round((cm - pm) / pm, 4),
        }
    if all("passes" in r for r in parent + change):
        out["passes"] = {f"{side}_median": statistics.median(r["passes"] for r in rows[side])
                         for side in SIDES}
    out["all_correct"] = all(r["correct"] and r["failed"] == 0 for r in parent + change)
    return out


def main(argv=None) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, metavar="PARENT_DIR")
    ap.add_argument("change", type=Path, metavar="CHANGE_DIR")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    seeds = range(args.seed0, args.seed0 + PAIRS)

    workloads, summary = {}, {}
    for workload in args.workloads:
        print(f"bench_pairs: {workload} seed {seeds[0]} change, traced", file=sys.stderr)
        traced = traced_run(trees["change"], workload, seeds[0], seconds)
        rows = {side: [] for side in SIDES}
        for seed in seeds:
            for side in SIDES if seed % 2 else reversed(SIDES):
                print(f"bench_pairs: {workload} seed {seed} {side}", file=sys.stderr)
                rows[side].append(run_once(trees[side], workload, seed, seconds))
        workloads[workload] = rows
        summary[workload] = summarize(rows, metrics) | {"traced": traced}

    print(json.dumps({
        "command": f"python3 perfbench/run.py --workload <name> --seed <n> "
                   f"--seconds {seconds:g} --trace <0|1>",
        "protocol": f"parent {trees['parent'].name} and change {trees['change'].name}, "
                    f"one process per run; per workload one --trace 1 run of the change "
                    f"with seed {seeds[0]}, then --trace 0 runs with "
                    f"seeds {seeds[0]}-{seeds[-1]}, parent first on odd seeds "
                    f"and change first on even ones; medians and inclusive quartiles "
                    f"over the seeds; every run printed \"correct\": true with 0 failed "
                    f"operations",
        "summary": summary,
        "workloads": workloads,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
