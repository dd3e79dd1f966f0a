"""Per-layer tracing from outside the library.

The tracer wraps named public functions of the setdirect modules in every
module namespace that binds them, so calls from one layer into another go
through the wrapper.  Spans are aggregated per function (call count and
self time, i.e. span time minus the time of spans opened inside it), which
keeps memory flat however many calls a run makes.  Every binding is
restored when the tracer is removed.
"""

from __future__ import annotations

import importlib
import time

# layer (module) -> traced public functions, as named in BENCHMARK.json
TRACED = {
    "oracle": ("enumerate_setdirect", "property_suite"),
    "factor": (
        "is_direct",
        "verify_main_theorem",
        "derive_system",
        "system_for_decomposition",
        "check_factorization_system",
        "construct_from_system",
    ),
    "central": (
        "is_central_product",
        "z_orbits",
        "class_stabilizer",
        "normal_subgroups",
        "enumerate_central_decompositions",
        "semi_regular_elements",
        "class_count_report",
    ),
    "groups": (
        "group_from_permutations",
        "group_from_table",
        "conjugacy_classes",
        "center",
        "generated_subgroup",
        "commutator_set",
        "is_normal_subset",
        "subgroup_view",
        "quotient_group",
    ),
    "catalog": ("load_group",),
    "cli": ("main",),
}

NAMESPACES = ("setdirect",) + tuple(f"setdirect.{m}" for m in TRACED)


class Tracer:
    """Aggregated spans for the functions in TRACED."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.top_s = 0.0          # time inside outermost spans
        self.normalized_pairs = 0
        self.factorizations = 0
        self.certified = 0
        self._stack = []
        self._restore = []

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "normalized_pairs": self.normalized_pairs,
            "factorizations": self.factorizations,
            "certified": self.certified,
        }

    def install(self):
        modules = [importlib.import_module(ns) for ns in NAMESPACES]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"setdirect.{layer}")
            for name in names:
                fn = getattr(home, name)
                key = f"{layer}.{name}"
                self.calls.setdefault(key, 0)
                self.self_s.setdefault(key, 0.0)
                wrapper = self._wrap(key, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore = []

    def _wrap(self, key, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        perf = time.perf_counter
        is_oracle = key == "oracle.enumerate_setdirect"
        is_verifier = key == "factor.verify_main_theorem"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = stack.pop()
                calls[key] += 1
                self_s[key] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
            if is_oracle:
                self.normalized_pairs += result.normalized
                self.factorizations += len(result.factorizations)
            elif is_verifier and result.verdict:
                self.certified += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper
