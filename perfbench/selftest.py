"""Smoke test of the benchmark harness: `python3 perfbench/run.py --smoke`.

For every workload, on a small slice: one run with tracing off and one with
tracing on, on two different seeds, must pass the reference gate and print
every metric BENCHMARK.json names, with its unit.  Then the workload's
check must reject a pass once one expected value is corrupted.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

# one corruption of the expected values per workload; the check reads them
CORRUPT = {
    "oracle_abelian": lambda e: e["counts"].update(C12=(1165, 1152, 97)),
    "certify_sweep": lambda e: e["verdicts"].__setitem__(0, not e["verdicts"][0]),
    "roundtrip": lambda e: e["pairs"].__setitem__(0, (0, 0)),
    "cli_cold": lambda e: e["info"].update(C12=dict(e["info"]["C12"], order=13)),
}


def metric_units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_run(run_py: Path, root: Path, workload: str, seed: int, trace: int, want: dict):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--small"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def check_gate_rejects(workload: str):
    import run
    from reference import ReferenceMismatch

    run.import_library()
    import workloads

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        wl = workloads.FACTORIES[workload](random.Random(3), Path(tmp), True)
        outputs = run.run_pass(wl.ops).outputs
        wl.check(outputs)
        CORRUPT[workload](wl.expected)
        try:
            wl.check(outputs)
        except ReferenceMismatch:
            return
    raise AssertionError(f"{workload}: the check accepted a corrupted expected value")


def main(run_py: Path, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        check_run(run_py, root, workload, 1, 0, metric_units(spec, "end_to_end"))
        check_run(run_py, root, workload, 2, 1, metric_units(spec, "per_layer"))
        check_gate_rejects(workload)
        print(f"smoke: {workload} ok")
    print(f"smoke: {len(names)} workloads ok")
    return 0
