"""Reference values and definition-only checks for the benchmark outputs.

Nothing here calls setdirect: products are counted straight from the
multiplication table, and the pinned counts below were produced at the
commit that introduced the benchmark (C12 = 1164 and C24 = 159000 also
appear in the project's README and acceptance tests).
"""

from __future__ import annotations

import numpy as np

# (total, nontrivial, normalized) factorization counts per catalog group;
# they do not depend on how the elements are labelled.
ORACLE_COUNTS = {
    "C12": (1164, 1152, 97),
    "C16": (4624, 4608, 289),
    "C20": (20020, 20000, 1001),
    "C24": (159000, 158976, 6625),
    "C27": (181548, 181521, 6724),
    "C28": (368508, 368480, 13161),
    "C30": (1248330, 1248300, 41611),
    "C3xC3xC2": (27234, 27216, 1513),
    "S5": (1, 0, 1),
    "D40": (2, 0, 1),
    "Q16": (2, 0, 1),
    "Q8oQ8": (2, 0, 1),
    "D8oC4": (68, 64, 17),
    "Q8oC4": (68, 64, 17),
    "S4xS3": (2, 1, 2),
    "C2wrC4": (2, 0, 1),
}

# `setdirect info --json` fields per CLI group file; class sizes as a multiset
CLI_INFO = {
    "S6": dict(order=720, k=11, center=1, decompositions=None, abelian=False,
               class_sizes=[1, 15, 15, 40, 40, 45, 90, 90, 120, 120, 144]),
    "S4xS3": dict(order=144, k=15, center=1, decompositions=2, abelian=False,
                  class_sizes=[1, 2, 3, 3, 6, 6, 6, 8, 9, 12, 12, 16, 18, 18, 24]),
    "C2wrC4": dict(order=64, k=13, center=2, decompositions=2, abelian=False,
                   class_sizes=[1, 1, 2, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8]),
    "S5": dict(order=120, k=7, center=1, decompositions=1, abelian=False,
               class_sizes=[1, 10, 15, 20, 20, 24, 30]),
    "Q8oQ8": dict(order=32, k=17, center=2, decompositions=12, abelian=False,
                  class_sizes=[1, 1] + [2] * 15),
    "C12": dict(order=12, k=12, center=12, decompositions=8, abelian=True,
                class_sizes=[1] * 12),
}

# exit code of `setdirect factorize <file> --method transversal`
CLI_TRANSVERSAL_EXIT = {"Q8oQ8": 0, "C12": 0, "S4xS3": 0, "C2wrC4": 0}


class ReferenceMismatch(AssertionError):
    """A program output differs from its reference."""


def expect(condition, message):
    if not condition:
        raise ReferenceMismatch(message)


class ProductCounter:
    """Counts the distinct products x*y, x in X, y in Y, from the table alone."""

    def __init__(self, mult):
        self.mult = np.asarray(mult, dtype=np.int64)

    def distinct(self, xs, ys) -> int:
        return int(np.unique(self.mult[np.ix_(xs, ys)]).size)

    def is_direct(self, xs, ys) -> bool:
        return self.distinct(xs, ys) == len(xs) * len(ys)

    def factorizes(self, xs, ys) -> bool:
        """X*Y is the whole group with every element written once."""
        n = len(self.mult)
        return len(xs) * len(ys) == n and self.distinct(xs, ys) == n


def members(mask: int) -> list:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
