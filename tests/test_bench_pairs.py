"""scripts/bench_pairs.py's summary arithmetic on fixed rows, and its
commands and parsing with subprocess.run replaced; no benchmark run is
started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _rows(values, seeds=None):
    return [{"correct": True, "failed": 0, "t": v, "seed": s}
            for v, s in zip(values, seeds or range(1, len(values) + 1))]


def test_medians_quartiles_pairs_and_rel():
    rows = {"parent": _rows([1.0, 2.0, 3.0, 4.0, 5.0]),
            "change": _rows([0.5, 2.5, 2.0, 3.0, 4.0])}
    got = bench_pairs.summarize(rows, [("t", "lower")])
    assert got == {
        "t": {"parent_median": 3.0, "parent_q1": 2.0, "parent_q3": 4.0,
              "change_median": 2.5, "change_q1": 2.0, "change_q3": 3.0,
              "change_better_pairs": "4/5", "rel": round(-0.5 / 3, 4)},
        "all_correct": True,
    }
    # higher is better: the pairs the change wins are the others, a tie in none
    rows["change"][0]["t"] = 1.0
    got = bench_pairs.summarize(rows, [("t", "higher")])["t"]
    assert got["change_better_pairs"] == "1/5"


def test_inclusive_quartiles_of_an_even_count():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


def test_unpaired_rows_are_refused():
    rows = {"parent": _rows([1.0, 2.0], seeds=[1, 2]), "change": _rows([1.0, 2.0], seeds=[2, 1])}
    with pytest.raises(ValueError, match="unpaired"):
        bench_pairs.summarize(rows, [("t", "lower")])


@pytest.mark.parametrize("name", ["BENCH_22.json", "BENCH_23.json"])
def test_a_committed_summary_is_reproduced_from_its_rows(name):
    bench = json.loads((ROOT / name).read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in bench_pairs.benchmark_spec()["end_to_end"]]
    for workload, rows in bench["workloads"].items():
        assert bench_pairs.summarize(rows, metrics) == bench["summary"][workload], workload


def _fake_runs(monkeypatch, returncode=0, traced=None, notes=None):
    """Replace subprocess.run with a fake perfbench/run.py that records each
    call: a traced run reports `traced` (the tracing shares by default), an
    untraced one every end-to-end metric, worth 1.0 on the parent's tree.
    Each prints run.py's notes line, with 3 passes on the parent's tree and
    4 on any other, or `notes`."""
    calls = []

    def fake(cmd, cwd, **kwargs):
        calls.append((list(cmd), Path(cwd)))
        if cmd[cmd.index("--trace") + 1] == "1":
            metrics = {"trace.top_span_frac": 0.96, "trace.overhead_frac": 0.02,
                       "oracle.enumerate_setdirect.calls": 12} if traced is None else traced
        else:
            value = 1.0 if Path(cwd).name == "parent" else 0.5
            metrics = {m["name"]: value for m in bench_pairs.benchmark_spec()["end_to_end"]}
        out = {"correct": returncode == 0, "attempted": 7, "failed": 0,
               "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
        passes = 3 if Path(cwd).name == "parent" else 4
        line = notes or (f"perfbench: w seed 1: 7 operations per pass, {passes} passes; "
                         f"{passes} untraced and 1 traced passes; failed_frac 0 (0 of 28)")
        return subprocess.CompletedProcess(cmd, returncode, f"{line}\n{json.dumps(out)}\n",
                                           "perfbench: traced spans do not account for it")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake)
    return calls


def test_a_traced_run_keeps_its_seed_and_tracing_shares(monkeypatch, tmp_path):
    calls = _fake_runs(monkeypatch)
    got = bench_pairs.traced_run(tmp_path, "oracle_abelian", 2501, 25)
    assert got == {"seed": 2501, "trace.top_span_frac": 0.96, "trace.overhead_frac": 0.02}
    (cmd, cwd), = calls
    assert cwd == tmp_path
    assert cmd[1:] == ["perfbench/run.py", "--workload", "oracle_abelian", "--seed", "2501",
                       "--seconds", "25", "--trace", "1"]


@pytest.mark.parametrize("returncode, traced", [
    (1, None),  # run.py's exit below MIN_TOP_SPAN_FRAC
    (0, {}),  # no traced pass, so no tracing shares
])
def test_a_failed_traced_run_stops_the_script(monkeypatch, tmp_path, returncode, traced):
    _fake_runs(monkeypatch, returncode, traced)
    with pytest.raises(SystemExit, match="oracle_abelian seed 3"):
        bench_pairs.traced_run(tmp_path, "oracle_abelian", 3, 25)


def test_main_runs_the_change_traced_before_the_pairs(monkeypatch, tmp_path, capsys):
    trees = [tmp_path / "parent", tmp_path / "change"]
    calls = _fake_runs(monkeypatch)
    assert bench_pairs.main([str(t) for t in trees] + [
        "--workloads", "roundtrip", "--seed0", "4"]) == 0
    assert len(calls) == 1 + 2 * bench_pairs.PAIRS
    (cmd, cwd), rest = calls[0], calls[1:]
    assert cwd == trees[1] and cmd[cmd.index("--seed") + 1] == "4"
    assert cmd[cmd.index("--trace") + 1] == "1"
    assert all(c[c.index("--trace") + 1] == "0" for c, _ in rest)
    # the parent first on odd seeds, the change first on even ones
    assert [cwd.name for _, cwd in rest[:4]] == ["change", "parent", "parent", "change"]
    out = json.loads(capsys.readouterr().out)
    summary = out["summary"]["roundtrip"]
    assert summary["traced"] == {"seed": 4, "trace.top_span_frac": 0.96,
                                 "trace.overhead_frac": 0.02}
    assert summary["solve_s"]["change_better_pairs"] == f"{bench_pairs.PAIRS}/{bench_pairs.PAIRS}"
    assert summary["passes"] == {"parent_median": 3, "change_median": 4}
    for side, passes in (("parent", 3), ("change", 4)):
        assert [r["passes"] for r in out["workloads"]["roundtrip"][side]] == [passes] * 10
    assert [r["seed"] for r in out["workloads"]["roundtrip"]["change"]] == list(range(4, 14))


def test_a_run_without_a_pass_count_stops_the_script(monkeypatch, tmp_path):
    _fake_runs(monkeypatch, notes="perfbench: notes")
    with pytest.raises(SystemExit, match="roundtrip seed 5"):
        bench_pairs.run_once(tmp_path, "roundtrip", 5, 25)


def test_pass_counts_are_summarized_beside_the_metrics():
    rows = {"parent": _rows([1.0, 2.0, 3.0]), "change": _rows([1.0, 2.0, 3.0])}
    for side, counts in (("parent", [64, 62, 65]), ("change", [80, 81, 79])):
        for r, n in zip(rows[side], counts):
            r["passes"] = n
    got = bench_pairs.summarize(rows, [("t", "lower")])
    assert got["passes"] == {"parent_median": 64, "change_median": 80}
    del rows["change"][0]["passes"]  # rows from before the counts: no entry
    assert "passes" not in bench_pairs.summarize(rows, [("t", "lower")])
