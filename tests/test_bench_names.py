"""Every library name the benchmark harness looks up must stay a public
callable in its home module, so no merge or rename breaks a traced run."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


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
    traced = _traced()
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
