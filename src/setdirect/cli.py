"""Command-line interface: group info, verification, construction and the
cross-check suite.

Exit codes: 0 success/certified, 1 provable negative (not direct, or no
factorization), 2 usage or hypothesis error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from functools import cache

from . import __version__
from .catalog import catalog_group, catalog_names, load_group
from .central import (
    ENUMERATION_BOUND,
    enumerate_central_decompositions,
    is_central_product,
    semi_regular_elements,
)
from .errors import GroupError, SearchSpaceTooLarge, TimeBudgetExceeded
from .factor import (
    construct_from_system,
    cyclic_center_factorization,
    is_direct,
    prime_power_factorization,
    system_for_decomposition,
    transversal_factorization,
    verify_main_theorem,
)
from .groups import GroupTable, Subset, bits, center, conjugacy_classes
from .oracle import DEFAULT_TIME_BUDGET, enumerate_setdirect, property_suite

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_BROKEN_PIPE = 141  # as a shell reports a process ended by SIGPIPE


def _needed(args, dest: str, option: str):
    """The value of an option the chosen method cannot do without."""
    value = getattr(args, dest)
    if value is None:
        raise GroupError(f"--method {args.method} needs {option}")
    return value


def _parse_choices(spec: str) -> tuple:
    """'i1;i2|j1;j2': one class index per orbit inside M, then inside N."""
    sides = spec.split("|")
    if len(sides) != 2:
        raise GroupError(f"--choices must look like 'i1;i2|j1;j2', got {spec!r}")
    try:
        return tuple(tuple(int(t) for t in side.split(";")) for side in sides)
    except ValueError:
        raise GroupError(f"--choices takes integer class indices, got {spec!r}") from None


def parse_subset(G: GroupTable, spec: str) -> Subset:
    """Parse a subset spec: 'full'/'center'/'identity', the group's own name,
    or a comma-separated list of element indices and labels."""
    s = spec.strip()
    low = s.lower()
    if low in ("full", "all") or low == G.name.lower():
        return G.full_subset()
    if low in ("center", "z(g)"):
        return center(G)
    if low in ("identity", "trivial"):
        return G.identity_subset()
    mask = 0
    for tok in s.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            idx = int(tok)  # numeric indices take precedence over labels
        except ValueError:
            idx = G.index_of_label(tok)
            if idx is None:
                raise GroupError(f"unknown element {tok!r} in {G.name}")
        if not 0 <= idx < G.order:
            raise GroupError(f"element index {idx} out of range for {G.name}")
        mask |= 1 << idx
    if not mask:
        raise GroupError("empty subset spec")
    return Subset(G, mask)


def subset_json(S: Subset):
    return list(bits(S.mask))  # ascending


def report_json(report) -> dict:
    return {
        "M": subset_json(report.m),
        "N": subset_json(report.n),
        "Z": subset_json(report.z),
        "condition_a": report.condition_a,
        "central_failure": report.central_failure,
        "X_slices": {str(m): subset_json(s) for m, s in sorted(report.x_slices.items())},
        "Y_slices": {str(n): subset_json(s) for n, s in sorted(report.y_slices.items())},
        "condition_b": report.condition_b,
        "b_witness": list(report.b_witness) if report.b_witness else None,
        "product_is_group": report.product_is_group,
        "verdict": report.verdict,
    }


def factorization_json(G: GroupTable, f) -> dict:
    rep = verify_main_theorem(G, f.x, f.y)
    return {
        "X": subset_json(f.x),
        "Y": subset_json(f.y),
        "X_labels": list(f.x.member_labels()),
        "Y_labels": list(f.y.member_labels()),
        "certified": f.certified,
        "normalized": f.is_normalized(),
        "nontrivial": f.is_nontrivial(),
        "report": report_json(rep),
    }


def cmd_info(args) -> int:
    G = load_group(args.group)
    part = conjugacy_classes(G)
    zc = center(G)
    decs = enumerate_central_decompositions(G) if G.order <= ENUMERATION_BOUND else None
    semi = semi_regular_elements(G)
    info = {
        "name": G.name,
        "order": G.order,
        "k": len(part),
        "class_sizes": list(part.sizes()),
        "center": subset_json(zc),
        "center_labels": list(zc.member_labels()),
        "central_decompositions": len(decs) if decs is not None else None,
        "semi_regular_elements": subset_json(semi),
        "semi_regular_labels": list(semi.member_labels()),
        "abelian": G.is_abelian,
    }
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(f"group {G.name}: order {G.order}, k(G) = {len(part)}")
        print(f"  class sizes: {info['class_sizes']}")
        print(f"  center ({len(zc)}): {', '.join(zc.member_labels())}")
        if decs is not None:
            print(f"  central decompositions: {len(decs)}")
        labels = ", ".join(semi.member_labels()) or "none"
        print(f"  semi-regular elements: {labels}")
    return EXIT_OK


def cmd_verify(args) -> int:
    G = load_group(args.group)
    X = parse_subset(G, args.x)
    Y = parse_subset(G, args.y)
    if args.direct:
        rep = is_direct(G, X, Y)
        print(json.dumps(dataclasses.asdict(rep), indent=2))
        return EXIT_OK if rep.verdict else EXIT_NEGATIVE
    report = verify_main_theorem(G, X, Y)
    print(json.dumps(report_json(report), indent=2))
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def _emit_factorizations(G, facts, emit: str, before_report=lambda: None) -> None:
    """Print facts as CSV rows, or as a JSON array with a verifier report per
    pair, one compact object per line, all built before anything is printed:
    before_report runs before each row or report, and an error it raises
    leaves stdout empty."""
    if emit == "csv":
        part = conjugacy_classes(G)

        def signature(side):
            return "+".join(
                str(len(part.classes[c])) for c in sorted({part.class_of[x] for x in side})
            )

        rows = ["size_x,size_y,normalized,nontrivial,class_signature"]
        for f in facts:
            before_report()
            rows.append(
                f"{len(f.x)},{len(f.y)},{int(f.is_normalized())},"
                f"{int(f.is_nontrivial())},{signature(f.x)}|{signature(f.y)}"
            )
        print("\n".join(rows))
    else:
        reports = []
        for f in facts:
            before_report()
            reports.append(json.dumps(factorization_json(G, f)))
        print("[\n" + ",\n".join(reports) + "\n]")


def cmd_factorize(args) -> int:
    G = load_group(args.group)
    method = args.method

    if method == "oracle":
        budget = args.time_budget_secs  # the oracle refuses a NaN or negative one
        t_end = time.perf_counter() + budget
        result = enumerate_setdirect(
            G,
            normalized_only=args.normalized,
            nontrivial_only=args.nontrivial,
            time_budget=budget,
        )

        def check_time():  # the verifier reports get what is left of the budget
            if time.perf_counter() > t_end:
                raise TimeBudgetExceeded(
                    f"time budget {budget}s exhausted on {G.name} in the report phase",
                    partial=result, phase="report")

        _emit_factorizations(G, result.factorizations, args.emit, check_time)
        print(
            f"counts: total={result.total} nontrivial={result.nontrivial} "
            f"normalized={result.normalized} elapsed={result.elapsed:.3f}s",
            file=sys.stderr,
        )
        return EXIT_OK if result.factorizations else EXIT_NEGATIVE

    m_sub = parse_subset(G, args.m) if args.m else G.full_subset()
    n_sub = parse_subset(G, args.n) if args.n else center(G)
    check = is_central_product(G, m_sub, n_sub)
    if method != "prime-power" and not check:
        print(f"not a central product: {check.reason}", file=sys.stderr)
        return EXIT_ERROR
    cp = check.decomposition

    if method == "transversal":
        result = transversal_factorization(G, cp)
        if result:
            _emit_factorizations(G, [result.factorization], args.emit)
            return EXIT_OK
        counts = result.class_counts
        print(
            json.dumps(
                {
                    "absent": True,
                    "reason": (
                        f"k(N)={counts.k_g} != k(Z)*k(N/Z)="
                        f"{counts.k_z}*{counts.k_quotient}"
                    ),
                    "violating_orbit_classes": list(result.violating_orbit.classes),
                },
                indent=2,
            )
        )
        return EXIT_NEGATIVE

    if method == "cyclic":
        X0 = parse_subset(G, _needed(args, "x0", "--x0"))
        Y0 = parse_subset(G, _needed(args, "y0", "--y0"))
        result = cyclic_center_factorization(G, cp, X0, Y0)
        if result:
            _emit_factorizations(G, [result.factorization], args.emit)
            return EXIT_OK
        print(
            json.dumps(
                {
                    "absent": True,
                    "reason": "commutator sets of M and N intersect nontrivially",
                    "intersection": subset_json(result.commutator_intersection),
                },
                indent=2,
            )
        )
        return EXIT_NEGATIVE

    if method == "prime-power":
        f = prime_power_factorization(G, _needed(args, "element", "--element"))
        _emit_factorizations(G, [f], args.emit)
        return EXIT_OK

    if method == "system":
        a_sets = [parse_subset(G, t) for t in _needed(args, "a", "--A").split(";")]
        b_sets = [parse_subset(G, t) for t in _needed(args, "b", "--B").split(";")]
        sys_ = system_for_decomposition(G, cp, a_sets, b_sets)
        choices = _parse_choices(args.choices) if args.choices else None
        f = construct_from_system(G, cp, sys_, choices)
        _emit_factorizations(G, [f], args.emit)
        return EXIT_OK

    raise GroupError(f"unknown method {method!r}")


def cmd_suite(args) -> int:
    if args.all_catalog:
        groups = [G for G in map(catalog_group, catalog_names())
                  if G.order <= args.max_order_filter]
    elif args.group:
        groups = [load_group(args.group)]
    else:
        print("suite: give a group or --all-catalog", file=sys.stderr)
        return EXIT_ERROR
    budget = args.time_budget_secs
    t_end = time.perf_counter() + budget  # one deadline for the whole run
    failures = 0
    for G in groups:
        left = t_end - time.perf_counter()
        if left <= 0 <= budget:  # property_suite refuses a NaN or negative budget
            print(f"{G.name:12s} SKIP  the run's time budget {budget}s is used up")
            continue
        try:
            # what is left of the run's budget, to the millisecond for the message
            rep = property_suite(G, samples=args.samples, seed=args.seed,
                                 time_budget=round(left, 3))
        except SearchSpaceTooLarge as exc:  # a time-out's message names its phase
            print(f"{G.name:12s} SKIP  {exc}")
            continue
        failures += not rep.passed
        details = "; ".join(
            f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in rep.checks
        )
        print(f"{G.name:12s} {'pass' if rep.passed else 'FAIL':4s}  {details}")
        if args.verbose:
            for c in rep.checks:
                if c.detail:
                    print(f"    {c.name}: {c.detail}")
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, each returns a new namespace."""
    p = argparse.ArgumentParser(
        prog="setdirect",
        description="Verify, construct and enumerate set-direct factorizations "
        "G = X x Y by normal subsets of finite groups.",
    )
    p.add_argument("--version", action="version", version=f"setdirect {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="order, classes, center, semi-regular elements")
    sp.add_argument("group", help="catalog name or JSON group file")
    sp.add_argument("--json", action="store_true", help="JSON output")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("verify", help="certify G = X x Y and print the report")
    sp.add_argument("group")
    sp.add_argument("x", help="subset spec (indices/labels, 'full', 'center')")
    sp.add_argument("y")
    sp.add_argument("--direct", action="store_true",
                    help="check directness of XY only (XY need not cover G)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("factorize", help="enumerate or construct factorizations")
    sp.add_argument("group")
    sp.add_argument(
        "--method",
        choices=["oracle", "system", "transversal", "cyclic", "prime-power"],
        default="oracle",
    )
    sp.add_argument("--nontrivial", action="store_true")
    sp.add_argument("--normalized", action="store_true",
                    help="oracle: list one normalized pair per shift orbit")
    sp.add_argument("--emit", choices=["json", "csv"], default="json")
    sp.add_argument("--M", dest="m", default=None, help="left factor subgroup")
    sp.add_argument("--N", dest="n", default=None, help="right factor subgroup")
    sp.add_argument("--x0", default=None, help="cyclic method: X0 subset of Z")
    sp.add_argument("--y0", default=None, help="cyclic method: Y0 subset of Z")
    sp.add_argument("--element", type=int, default=None,
                    help="prime-power method: central element index")
    sp.add_argument("--A", dest="a", default=None,
                    help="system method: semicolon-separated A_i subset specs")
    sp.add_argument("--B", dest="b", default=None,
                    help="system method: semicolon-separated B_j subset specs")
    sp.add_argument("--choices", default=None,
                    help="system method: 'i1;i2|j1;j2' class indices per orbit")
    sp.add_argument("--time-budget-secs", type=float, default=DEFAULT_TIME_BUDGET)
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("suite", help="run the cross-check property suite")
    sp.add_argument("group", nargs="?", default=None)
    sp.add_argument("--all-catalog", action="store_true")
    sp.add_argument("--max-order", dest="max_order_filter", type=int, default=64)
    sp.add_argument("--samples", type=int, default=120)
    sp.add_argument("--verbose", action="store_true")
    sp.add_argument("--time-budget-secs", type=float, default=DEFAULT_TIME_BUDGET)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_suite)

    return p


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()  # a reader that has gone shows here, not at exit
    except BrokenPipeError:
        # stdout was closed early (`| head`): send what is left to devnull so
        # the flush at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GroupError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
