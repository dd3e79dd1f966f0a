#!/usr/bin/env python3
"""Benchmark for setdirect: four closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from its
src/ directory and nowhere else.  A run builds the workload's inputs from
the seed, repeats the workload's fixed pass of operations while the next
pass still fits in --seconds (at least one pass), checks every output
against references computed without the library, and prints one JSON
object as the last line of stdout.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(call counts of the first traced pass, self-time shares, and the tracing
overhead).  A reference mismatch prints "correct": false and exits 1.
--smoke runs every workload on a small slice in both modes, checks the
printed metrics against BENCHMARK.json, and checks that the reference
gate rejects a corrupted expected value.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5               # fresh processes timed for setup_s, this one included
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SEGMENT_S = 0.5                 # operation time scaled by one host-speed estimate
MIN_TOP_SPAN_FRAC = 0.9         # traced top-level spans must cover this share of op time
CHILD_TIMEOUT_S = 150
# the keys of workloads.FACTORIES, which cannot be imported before set-up is timed
WORKLOADS = ("oracle_abelian", "certify_sweep", "roundtrip", "cli_cold")


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Put this checkout's src/ first on the path and import setdirect from it."""
    if not (SRC / "setdirect" / "__init__.py").is_file():
        die(f"no setdirect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import setdirect

    if Path(setdirect.__file__).resolve().parent != SRC / "setdirect":
        die(f"setdirect imported from {setdirect.__file__}, not from {SRC}")


def build(workload: str, seed: int, small: bool, workdir: Path):
    """Fresh process to inputs ready: import, groups, classes, seeded inputs.
    Returns the workload and the set-up time scaled to the reference speed."""
    with calibrate.Sampler() as sampler:
        t0 = time.perf_counter()
        import_library()
        import workloads

        rng = random.Random(f"{workload}:{seed}")
        wl = workloads.FACTORIES[workload](rng, workdir, small)
        elapsed = time.perf_counter() - t0 - sampler.spent
        return wl, elapsed * sampler.factor(0)


@dataclass
class Pass:
    scaled_s: float   # sum of the operation times, scaled to the reference speed
    times: list       # scaled operation times
    raw_s: float      # sum of the operation times as measured
    outputs: list
    failed: int
    top_s: float      # time inside the tracer's outermost spans


def run_pass(ops, tracer=None, errors=None) -> Pass:
    """Time each operation, and scale the times of every SEGMENT_S of
    operations by the host speed sampled while they ran."""
    perf = time.perf_counter
    raw, times, outputs, failed = [], [], [], 0
    top0 = tracer.top_s if tracer else 0.0
    with calibrate.Sampler() as sampler:
        first_sample, since = 0, 0.0
        for label, fn in ops:
            spent0 = sampler.spent
            t0 = perf()
            try:
                out = fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                failed += 1
                if errors is not None and len(errors) < 5:
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
            raw.append(perf() - t0 - (sampler.spent - spent0))
            outputs.append(out)
            since += raw[-1]
            if since >= SEGMENT_S or len(raw) == len(ops):
                factor = sampler.factor(first_sample)
                times.extend(t * factor for t in raw[len(times):])
                first_sample, since = len(sampler.samples), 0.0
    top_s = (tracer.top_s - top0) if tracer else 0.0
    return Pass(sum(times), times, sum(raw), outputs, failed, top_s)


def setup_samples(args, first: float) -> list:
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            die(f"setup process failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail(op_times: list):
    """Highest ladder percentile with at least 10 operations beyond it, as
    (percentile, value); the slowest operation when no rung qualifies."""
    ordered = sorted(op_times)
    for p in TAIL_LADDER:
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return 100.0, ordered[-1]


def measure(wl, seconds: float, tracer=None, errors=None):
    """Untraced passes, or with a tracer untraced/traced pairs, until the next
    round would end after `seconds`; at least one round.  Each pass's outputs
    are checked as soon as it ends and then dropped, so memory does not grow
    with the number of passes.  Returns the passes, the tracer's snapshot
    after the first traced pass, and the first reference mismatch, if any."""
    from reference import ReferenceMismatch

    plain, traced, first = [], [], None
    start = time.perf_counter()
    while True:
        rounds = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
        for passes, tr in rounds:
            gc.collect()
            if tr is not None:
                tr.install()
            try:
                p = run_pass(wl.ops, tr, errors)
            finally:
                if tr is not None:
                    tr.remove()
            passes.append(p)
            if tr is not None and first is None:
                first = dict(tr.snapshot(), **wl.extras(p.outputs))
            try:
                wl.check(p.outputs)
            except (ReferenceMismatch, ValueError, KeyError, TypeError) as exc:
                # malformed output (unparsable JSON, missing fields) is a mismatch too
                return plain, traced, first, str(exc)
            p.outputs = None
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced, first, None


def end_to_end(passes, setup):
    # each operation's time is its median over the passes of the run
    op_times = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
    pct, tail_s = tail(op_times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (statistics.median(p.scaled_s for p in passes), "s"),
        "op_p50_ms": (statistics.median(op_times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    note = (f"op_tail_ms is p{pct:g} of {len(op_times)} operations; unscaled median "
            f"pass {statistics.median(p.raw_s for p in passes):.4f} s")
    return metrics, note


def per_layer(plain, traced, first, tracer):
    calls = first["calls"]
    traced_raw = sum(p.raw_s for p in traced)
    metrics = {}
    for key in calls:
        metrics[f"{key}.calls"] = (calls[key], "count")
        metrics[f"{key}.self_frac"] = (tracer.self_s[key] / traced_raw, "frac")
    verifies = calls["factor.verify_main_theorem"]
    metrics.update({
        "oracle.normalized_pairs": (first["normalized_pairs"], "count"),
        "oracle.factorizations": (first["factorizations"], "count"),
        "oracle.budget_overrun_frac": (first.get("oracle.budget_overrun_frac", 0.0), "frac"),
        "factor.verify_main_theorem.certified_frac": (
            first["certified"] / verifies if verifies else 0.0, "frac"),
        "cli.stdout_bytes": (first.get("cli.stdout_bytes", 0), "bytes"),
        "trace.overhead_frac": (
            statistics.median(p.scaled_s for p in traced)
            / statistics.median(p.scaled_s for p in plain) - 1, "frac"),
        "trace.top_span_frac": (
            sum(p.top_s for p in traced) / sum(p.raw_s for p in traced), "frac"),
    })
    return metrics


def run(args) -> int:
    workdir = WORK / str(os.getpid())
    try:
        wl, first_setup = build(args.workload, args.seed, args.small, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        setup = setup_samples(args, first_setup)
        # the inputs live for the whole run; keep them out of the collector's
        # full passes so that those cost what the library's own objects cost
        gc.collect()
        gc.freeze()

        from tracer import Tracer

        tracer = Tracer() if args.trace else None
        errors = []
        plain, traced, first, mismatch = measure(wl, args.seconds, tracer, errors)
        passes = plain + traced
        correct = mismatch is None
        if mismatch is not None:
            print(f"perfbench: reference mismatch: {mismatch}", file=sys.stderr)
        if args.trace and first is not None:
            first.update(wl.probe())
            metrics = per_layer(plain, traced, first, tracer)
            note = f"{len(plain)} untraced and {len(traced)} traced passes"
            if metrics["trace.top_span_frac"][0] < MIN_TOP_SPAN_FRAC:
                correct = False
                print("perfbench: traced spans do not account for the operation time",
                      file=sys.stderr)
        elif args.trace:
            metrics, note = {}, "no traced pass"
        else:
            metrics, note = end_to_end(plain, setup)
        attempted = sum(len(p.times) for p in passes)
        failed = sum(p.failed for p in passes)
        for line in errors:
            print(f"perfbench: failed operation: {line}", file=sys.stderr)

        print(f"perfbench: {args.workload} seed {args.seed}: {len(wl.ops)} operations "
              f"per pass, {len(plain)} passes; {note}; failed_frac "
              f"{failed / attempted:.6g} ({failed} of {attempted})")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test every workload on a small slice")
    ap.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        import selftest

        return selftest.main(Path(__file__).resolve(), ROOT)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
