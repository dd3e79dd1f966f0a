#!/usr/bin/env python3
"""Check the oracle's pinned counts on groups too slow for the test suite.

Usage: python scripts/oracle_pins.py [--budget SECONDS]

Runs enumerate_setdirect(normalized_only=True) on each pinned group and
compares (total, nontrivial, normalized) with the pin.  Prints one line per
group with its time and exits 1 if any group differs, runs out of time
("t/o") or is refused by a cap of the search ("cap").  The C36 and C40 pins
were measured with the plain class-union search (no power-map orbits), on a
120 s budget.  C45 and C46 come from the orbit search and fit the abelian
closed form (total = |G|·normalized, nontrivial = |G|·(normalized − 1));
they hold the search near its cap on held masks, so a cap sized too small
shows here as a mismatch.
"""

import argparse
import sys
import time

from setdirect.catalog import catalog_group
from setdirect.errors import SearchSpaceTooLarge, TimeBudgetExceeded
from setdirect.oracle import enumerate_setdirect

PINS = {
    "C36": (14205492, 14205456, 394597),
    "C40": (36067240, 36067200, 901681),
    "C45": (233245620, 233245575, 5183236),
    "C46": (192939042, 192938996, 4194327),
}


def counts(name: str, budget: float):
    """(total, nontrivial, normalized), "t/o" or "cap"; the listing is dropped here."""
    try:
        res = enumerate_setdirect(catalog_group(name), normalized_only=True, time_budget=budget)
    except TimeBudgetExceeded:
        return "t/o"
    except SearchSpaceTooLarge:
        return "cap"
    return (res.total, res.nontrivial, res.normalized)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=float, default=120.0)
    args = ap.parse_args()

    failed = False
    for name, pin in PINS.items():
        t0 = time.perf_counter()
        got = counts(name, args.budget)
        ok = got == pin
        failed |= not ok
        print(f"{name:5s} {time.perf_counter() - t0:7.2f}s {got} "
              f"{'ok' if ok else f'MISMATCH, pinned {pin}'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
