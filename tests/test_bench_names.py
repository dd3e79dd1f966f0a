"""Every library name the benchmark harness looks up must stay a public
callable in its home module, so no merge or rename breaks a traced run; and
the traced spans must still cover the oracle's operations, as a traced run
requires."""

import ast
import importlib
import random
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _constant(filename, name):
    """The literal value a perfbench module assigns to `name`."""
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} defines no {name}")


def _workload_names():
    """(module, name) for each sd_<module>.<name> used by the workloads."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {
        a.asname: a.name
        for node in tree.body
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name.startswith("setdirect.") and a.asname
    }
    return sorted(
        {
            (aliases[n.value.id], n.attr)
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in aliases
        }
    )


def test_traced_names_are_public_callables():
    traced = _constant("tracer.py", "TRACED")
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"setdirect.{layer}")
        for name in names:
            assert not name.startswith("_"), f"{layer}.{name}"
            assert callable(getattr(module, name, None)), f"setdirect.{layer}.{name}"


def test_workload_names_resolve():
    names = _workload_names()
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_traced_spans_cover_the_oracle_operations(monkeypatch, tmp_path):
    # a traced run fails when the outermost spans cover less than
    # MIN_TOP_SPAN_FRAC of the operation time; in oracle_abelian the part of
    # an operation outside enumerate_setdirect's span is the read of its
    # listing, which --smoke's small slice keeps too short to matter; C16's
    # full listing reads 4 624 pairs after a short search and expansion, so
    # its share outside the span is the largest (spans cover 0.957 of it,
    # 2-vCPU host)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer
    from workloads import oracle_abelian

    wanted = ("oracle C24 normalized", "oracle C28 normalized", "oracle C16 full")
    ops = [fn for label, fn in oracle_abelian(random.Random(0), tmp_path, False).ops
           if label in wanted]
    assert len(ops) == len(wanted)
    tracer, best = Tracer(), 0.0
    for _ in range(3):
        tracer.install()
        try:
            top0, t0 = tracer.top_s, time.perf_counter()
            for op in ops:
                op()
            best = max(best, (tracer.top_s - top0) / (time.perf_counter() - t0))
        finally:
            tracer.remove()
    assert best >= _constant("run.py", "MIN_TOP_SPAN_FRAC"), best
