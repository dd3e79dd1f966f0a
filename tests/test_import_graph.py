"""The package's modules import one another only along the routes the
library is built on: the group layer is shared, and no layer reaches into
the command line or from the constructors into the oracle."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "setdirect"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _imports(module: str) -> set:
    """The package modules that `module` imports, at any depth of its code."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):  # from .groups import x, from . import groups
            base = ".".join(filter(None, ["setdirect" if node.level else "", node.module]))
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "setdirect" and len(parts) > 1 and parts[1] in MODULES:
                found.add(parts[1])
    return found - {module}


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("errors", set()),
        ("groups", {"errors"}),
        ("catalog", {"groups", "errors"}),
        ("central", {"groups", "errors"}),
    ],
)
def test_lower_layers_import_only_below_them(module, allowed):
    assert _imports(module) <= allowed, module


def test_constructors_do_not_import_the_oracle():
    assert not _imports("factor") & {"oracle", "cli"}


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_module_imports_the_command_line(module):
    assert "cli" not in _imports(module)


@pytest.mark.parametrize(
    "source, names",
    [
        # the property suite's cross-checks
        ("factor", {"is_direct", "verify_main_theorem"}),
        ("central", {"class_stabilizer", "minimal_normal_subgroups"}),
    ],
)
def test_oracle_borrows_only_its_cross_checks(source, names):
    assert _borrowed("oracle", source) == names


def _borrowed(module: str, source: str) -> set:
    """The names `module` imports from the package module `source`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.module in (source, f"setdirect.{source}") for a in node.names}


def test_only_the_property_suite_reads_the_other_routes():
    # the search, the listing and the transversal use the group layer alone
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    borrowed = _borrowed("oracle", "factor") | _borrowed("oracle", "central")
    suite = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "property_suite")
    inside = {id(node) for node in ast.walk(suite)}
    outside = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id in borrowed and id(node) not in inside}
    assert borrowed and not outside


def test_every_module_is_read():
    assert {"errors", "groups", "catalog", "central", "factor", "oracle", "cli"} <= set(MODULES)
    assert _imports("oracle") >= {"groups"}  # the parser sees relative imports
