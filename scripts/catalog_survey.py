#!/usr/bin/env python3
"""Survey the group catalog: orders, class counts, centers, central
decompositions, semi-regular elements, and factorization counts.

Usage: python scripts/catalog_survey.py [--max-order N] [--json]

The oracle gets 20 s per group; its wall time is the `oracle_s` column
(and field in --json).  In the table an oracle that runs out of time shows
`t/o`, the phase it ran out in (`timeout_phase` in --json: search, expand,
sort or listing, in the order they run) and the normalized pairs it found
(`>=N`); a group over the oracle's candidate cap shows `cap`.
"""

import argparse
import json
import time

from setdirect.catalog import catalog_group, catalog_names
from setdirect.central import enumerate_central_decompositions, semi_regular_elements
from setdirect.errors import SearchSpaceTooLarge, TimeBudgetExceeded
from setdirect.groups import center, conjugacy_classes
from setdirect.oracle import enumerate_setdirect


def survey(max_order: int):
    rows = []
    for name in catalog_names():
        g = catalog_group(name)
        if g.order > max_order:
            continue
        outcome, partial_normalized, timeout_phase = "ok", None, None
        t0 = time.perf_counter()
        try:
            res = enumerate_setdirect(g, normalized_only=True, time_budget=20.0)
            counts = (res.total, res.nontrivial, res.normalized)
            del res  # the listing (C40: 901 681 pairs) is not kept past its group
        except TimeBudgetExceeded as exc:
            outcome, counts = "timeout", None
            partial_normalized = exc.partial.normalized
            timeout_phase = exc.phase
        except SearchSpaceTooLarge:
            outcome, counts = "cap", None
        oracle_s = time.perf_counter() - t0
        rows.append(
            {
                "name": g.name,
                "order": g.order,
                "k": len(conjugacy_classes(g)),
                "center": len(center(g)),
                "central_decompositions": len(enumerate_central_decompositions(g)),
                "semi_regular": len(semi_regular_elements(g)),
                "factorizations_total": counts[0] if counts else None,
                "factorizations_nontrivial": counts[1] if counts else None,
                "factorizations_normalized": counts[2] if counts else None,
                "oracle": outcome,
                "oracle_s": round(oracle_s, 3),
                "partial_normalized": partial_normalized,
                "timeout_phase": timeout_phase,
            }
        )
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=32)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = survey(args.max_order)
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    hdr = f"{'group':10s} {'|G|':>4s} {'k':>3s} {'|Z|':>4s} {'#cp':>4s} {'#sr':>4s} {'total':>8s} {'nontriv':>8s} {'norm':>8s} {'oracle_s':>8s}"
    print(hdr)
    print("-" * len(hdr))
    for r in rows:
        if r["oracle"] == "ok":
            tot = r["factorizations_total"]
            ntr = r["factorizations_nontrivial"]
            nrm = r["factorizations_normalized"]
        elif r["oracle"] == "timeout":
            tot, ntr = "t/o", r["timeout_phase"]
            nrm = f">={r['partial_normalized']}"
        else:
            tot = ntr = nrm = "cap"
        print(
            f"{r['name']:10s} {r['order']:4d} {r['k']:3d} {r['center']:4d} "
            f"{r['central_decompositions']:4d} {r['semi_regular']:4d} "
            f"{tot!s:>8s} {ntr!s:>8s} {nrm!s:>8s} {r['oracle_s']:8.2f}"
        )


if __name__ == "__main__":
    main()
