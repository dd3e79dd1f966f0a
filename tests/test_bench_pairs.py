"""scripts/bench_pairs.py's summary arithmetic on fixed rows; no benchmark
run is started."""

import importlib.util
import json
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
