#!/usr/bin/env python3
"""Slice-product computations over the three small abelian centers.

For C3xC3xC2 and C3xC3xC4 the candidate transversal slices never reach the
full group order (so no factorization with those Y exists); for C3xC2xC2
the transversal Y does factor the group.  Prints every product size.

Usage: python scripts/center_case_products.py
"""

from itertools import combinations

from setdirect.catalog import cyclic_product, exponent_index
from setdirect.factor import verify_main_theorem
from setdirect.groups import _ltrans, _product_mask, generated_subgroup


def coset_reps_avoiding(z, h_mask, y_members):
    excluded = {_ltrans(z, y, h_mask) for y in y_members} | {h_mask}
    reps, seen = [], set()
    for x in range(z.order):
        cm = _ltrans(z, x, h_mask)
        if cm not in seen and cm not in excluded:
            seen.add(cm)
            reps.append(x)
    return reps


def obstruction_18():
    orders = (3, 3, 2)
    z = cyclic_product(orders)
    g1 = exponent_index(orders, (1, 0, 0))
    y1 = exponent_index(orders, (1, 0, 1))
    y2 = exponent_index(orders, (0, 1, 1))
    y = z.subset([0, y1, y2])
    h = generated_subgroup(z, z.subset([g1]))
    print(f"C3xC3xC2 (order 18), Y = {y.member_labels()}:")
    for a in coset_reps_avoiding(z, h.mask, (y1, y2)):
        xm = h.mask | _ltrans(z, a, h.mask)
        size = _product_mask(z, xm, y.mask).bit_count()
        print(f"  X = <g1> + <g1>*{z.labels[a]:10s}  |X*Y| = {size} (< 18)")


def obstruction_36():
    orders = (3, 3, 4)
    z = cyclic_product(orders)
    g1 = exponent_index(orders, (1, 0, 0))
    h = generated_subgroup(z, z.subset([g1]))

    def elt(a, b, c):
        return exponent_index(orders, (a, b, c))

    cases = [
        ("orders 12,12 (+,+)", elt(1, 0, 1), elt(0, 1, 1)),
        ("orders 12,12 (+,-)", elt(1, 0, 1), elt(0, 1, 3)),
        ("orders 6,12", elt(1, 0, 2), elt(0, 1, 1)),
        ("orders 6,12 swapped", elt(0, 1, 2), elt(1, 0, 1)),
    ]
    print("\nC3xC3xC4 (order 36), slice products per transversal case:")
    for label, y1, y2 in cases:
        y = z.subset([0, y1, y2])
        reps = coset_reps_avoiding(z, h.mask, (y1, y2))
        sizes = []
        for trio in combinations(reps, 3):
            xm = h.mask
            for a in trio:
                xm |= _ltrans(z, a, h.mask)
            sizes.append(_product_mask(z, xm, y.mask).bit_count())
        print(
            f"  {label:22s} {len(sizes)} candidates, "
            f"sizes {min(sizes)}..{max(sizes)} (all < 36)"
        )


def positive_12():
    orders = (3, 2, 2)
    z = cyclic_product(orders)
    g1 = exponent_index(orders, (1, 0, 0))
    h = generated_subgroup(z, z.subset([g1]))
    y = z.subset(
        [
            0,
            exponent_index(orders, (1, 1, 0)),
            exponent_index(orders, (1, 0, 1)),
            exponent_index(orders, (1, 1, 1)),
        ]
    )
    rep = verify_main_theorem(z, h, y)
    print(
        f"\nC3xC2xC2 (order 12): Z = <g1> x {{{', '.join(y.member_labels())}}}"
        f" certified: {rep.verdict}"
    )
    full = generated_subgroup(z, y).mask == z.full_mask
    print(f"  <Y> = Z: {full}; Y is a transversal of <g1> that is not a subgroup")


if __name__ == "__main__":
    obstruction_18()
    obstruction_36()
    positive_12()
