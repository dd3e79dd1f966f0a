#!/usr/bin/env python3
"""Digest the oracle's listings, to compare two versions of the search.

Usage: python scripts/oracle_digest.py [--max-order N]

For each catalog group of order <= N (default 32), runs enumerate_setdirect
in four modes: normalized_only, the full listing, nontrivial_only, and both
flags.  Each run prints one line: the group, the mode, and either
(total, nontrivial, normalized, len) with a SHA-256 of the ordered
(x.mask, y.mask) pairs, or the SearchSpaceTooLarge message.  The last line
is one SHA-256 over all the run lines.  Every line is deterministic, so the
output of two source trees can be compared with diff; a changed kernel that
drops, adds or reorders a pair changes its group's line and the last one.
"""

import argparse
import hashlib

from setdirect.catalog import catalog_group, catalog_names
from setdirect.errors import SearchSpaceTooLarge
from setdirect.oracle import enumerate_setdirect

MODES = {
    "normalized": {"normalized_only": True},
    "full": {},
    "nontrivial": {"nontrivial_only": True},
    "both": {"normalized_only": True, "nontrivial_only": True},
}


def listing_digest(facts) -> str:
    """SHA-256 of the ordered (x.mask, y.mask) pairs, one "x,y" line each."""
    h = hashlib.sha256()
    for f in facts:
        h.update(f"{f.x.mask},{f.y.mask}\n".encode())
    return h.hexdigest()


def run_line(g, mode: str) -> str:
    try:
        res = enumerate_setdirect(g, time_budget=3600.0, **MODES[mode])
    except SearchSpaceTooLarge as exc:
        return f"{g.name} {mode} {type(exc).__name__}: {exc}"
    counts = (res.total, res.nontrivial, res.normalized, len(res.factorizations))
    return f"{g.name} {mode} {counts} {listing_digest(res.factorizations)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=32)
    args = ap.parse_args()

    overall = hashlib.sha256()
    for name in catalog_names():
        g = catalog_group(name)
        if g.order > args.max_order:
            continue
        for mode in MODES:
            line = run_line(g, mode)
            overall.update(line.encode() + b"\n")
            print(line, flush=True)
    print(f"overall {overall.hexdigest()}")


if __name__ == "__main__":
    main()
