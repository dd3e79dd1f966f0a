"""Independent brute-force reference implementations used by the tests.

Everything here works straight from definitions (dict-counted products,
pairwise closures) and deliberately shares no code with the library's
search or verifier internals.
"""

import random
from itertools import combinations

from setdirect.factor import DirectnessReport
from setdirect.groups import (
    GroupTable,
    Subset,
    _cycle_label,
    conjugacy_classes,
    group_from_table,
    mask_of,
)

# Largest time past its budget that a budgeted run may take, in seconds.
# Twelve runs each of C40 and C34 on a 2 s budget (2-vCPU shared host) ended
# at most 0.01 s past it.
BUDGET_MARGIN_S = 1.0


def naive_product_counts(G: GroupTable, xs, ys):
    counts = {}
    for a in xs:
        for b in ys:
            p = G.mult[a][b]
            counts[p] = counts.get(p, 0) + 1
    return counts


def naive_is_direct(G: GroupTable, xs, ys) -> bool:
    counts = naive_product_counts(G, xs, ys)
    return all(c == 1 for c in counts.values())


def reference_directness(G: GroupTable, xs, ys) -> DirectnessReport:
    """The four directness criteria, each computed in full with no early
    exit: product counts, both difference sets, both translate families and
    |XY|.  The fields are returned as found, unchecked for agreement, but
    the two families must agree: x1 y1 = x2 y2 with y1 != y2 forces x1 != x2,
    and the other way round, so {Xy} overlaps iff {xY} does."""
    mult, inv = G.mult, G.inv
    counts = naive_product_counts(G, xs, ys)
    multiplicity_ok = all(c == 1 for c in counts.values())

    xxinv = {mult[a][inv[b]] for a in xs for b in xs}
    yyinv = {mult[a][inv[b]] for a in ys for b in ys}
    difference_ok = xxinv & yyinv == {G.identity}

    def disjoint(translates):
        union = set().union(*translates)
        return sum(map(len, translates)) == len(union)

    right = [{mult[x][y] for x in xs} for y in ys]   # {Xy}
    left = [{mult[x][y] for y in ys} for x in xs]    # {xY}
    partition_ok = disjoint(right)
    assert disjoint(left) == partition_ok, "the translate families {Xy} and {xY} disagree"

    cardinality_ok = len(counts) == len(xs) * len(ys)
    return DirectnessReport(
        multiplicity_ok, difference_ok, partition_ok, cardinality_ok, multiplicity_ok
    )


def breadth_first_closure(G: GroupTable, mask: int) -> int:
    """<mask>, breadth first from the identity: every element reached is
    multiplied on the right by every member of mask."""
    gens = [g for g in range(G.order) if (mask >> g) & 1]
    closed = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mult[x][g]
                if y not in closed:
                    closed.add(y)
                    nxt.append(y)
        frontier = nxt
    return mask_of(closed)


def fresh_copy(G: GroupTable) -> GroupTable:
    """The same group as a new table, with every cache empty."""
    return GroupTable(G.mult, G.inv, G.identity, G.labels, name=G.name)


def naive_closure(G: GroupTable, xs):
    cur = set(xs) | {G.identity}
    while True:
        nxt = {G.mult[a][b] for a in cur for b in cur}
        if nxt <= cur:
            return cur
        cur |= nxt


def naive_factorizations(G: GroupTable):
    """Every unordered pair of normal subsets with XY = G, unique products.

    Exhausts all pairs of unions of conjugacy classes, grouped by total size
    so only complementary sizes are paired; only usable when the class count
    is small.
    """
    part = conjugacy_classes(G)
    k = len(part)
    members = [part.classes[c].members() for c in range(k)]
    by_size = {}
    for b in range(1, 1 << k):
        xs = [x for c in range(k) if (b >> c) & 1 for x in members[c]]
        if G.order % len(xs) == 0:
            by_size.setdefault(len(xs), []).append(tuple(xs))
    out = set()
    for d, xs_list in by_size.items():
        ys_list = by_size.get(G.order // d, [])
        for xs in xs_list:
            for ys in ys_list:
                counts = naive_product_counts(G, xs, ys)
                if len(counts) == G.order and all(v == 1 for v in counts.values()):
                    xm, ym = mask_of(xs), mask_of(ys)
                    out.add((min(xm, ym), max(xm, ym)))
    return out


def is_subgroup_naive(G: GroupTable, xs) -> bool:
    s = set(xs)
    if G.identity not in s:
        return False
    return all(G.mult[a][b] in s for a in s for b in s)


def abelian_subgroups(G: GroupTable):
    """All subgroups of an abelian group by brute subset filtering (small n)."""
    n = G.order
    assert n <= 16, "brute subgroup scan is exponential"
    found = []
    elems = list(range(n))
    for r in range(n + 1):
        for combo in combinations(elems, r):
            if G.identity in combo and is_subgroup_naive(G, combo):
                found.append(frozenset(combo))
    return found


def translate_orbit_counts(G: GroupTable, pairs):
    """(total, nontrivial) unordered factorizations from normalized pairs.

    Builds every central translate of every side and counts the orbits of
    the shift action of Z(G) x Z(G): an orbit is keyed by the least
    translates of its two sides and has |Z|^2 / (|K(X)| |K(Y)|) ordered
    members, K(X) the translates that fix X.
    """
    zs = [z for z in range(G.order) if all(G.mult[z][g] == G.mult[g][z] for g in range(G.order))]
    side_info = {}

    def info(mask):
        got = side_info.get(mask)
        if got is None:
            members = [g for g in range(G.order) if (mask >> g) & 1]
            translates = [mask_of(G.mult[z][g] for g in members) for z in zs]
            got = (min(translates), sum(1 for t in translates if t == mask))
            side_info[mask] = got
        return got

    orbits = {}
    for xm, ym in pairs:
        (cx, kx), (cy, ky) = info(xm), info(ym)
        size = len(zs) ** 2 // (kx * ky)
        nontrivial = xm.bit_count() > 1 and ym.bit_count() > 1
        orbits[(cx, cy)] = (size, nontrivial)
        orbits[(cy, cx)] = (size, nontrivial)
    total_ordered = sum(s for s, _ in orbits.values())
    nontrivial_ordered = sum(s for s, nt in orbits.values() if nt)
    diagonal = 1 if G.order == 1 else 0
    return (total_ordered + diagonal) // 2, (nontrivial_ordered + diagonal) // 2


def relabelled(G: GroupTable, rng: random.Random) -> GroupTable:
    """An isomorphic copy of G with its elements renumbered at random."""
    n = G.order
    new = list(range(n))
    rng.shuffle(new)
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mult[new[a]][new[b]] = new[G.mult[a][b]]
    labels = [None] * n
    for a in range(n):
        labels[new[a]] = G.labels[a]
    return group_from_table(mult, labels, name=G.name)


def reference_group_from_permutations(generators) -> GroupTable:
    """The permutation group built by composing tuples for every table entry.

    Same element order as the library's builder (breadth-first closure by
    right multiplication, identity first), so the tables must be equal.
    """
    gens = [tuple(g) for g in generators]
    d = len(gens[0])
    ident = tuple(range(d))
    index = {ident: 0}
    elems = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(d))  # p after g
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    n = len(elems)
    mult = [[0] * n for _ in range(n)]
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mult[i][j] = index[tuple(p[q[t]] for t in range(d))]  # apply q, then p
    inv = [0] * n
    for i, p in enumerate(elems):
        ip = [0] * d
        for t in range(d):
            ip[p[t]] = t
        inv[i] = index[tuple(ip)]
    return GroupTable(mult, inv, 0, [_cycle_label(p) for p in elems], name="reference")


def naive_classes(G: GroupTable):
    """(class masks ordered by minimal member, class_of) by conjugating
    every element by every element."""
    n = G.order
    masks, class_of = [], [-1] * n
    for x in range(n):
        if class_of[x] < 0:
            cls = {G.mult[G.mult[G.inv[g]][x]][g] for g in range(n)}
            for y in cls:
                class_of[y] = len(masks)
            masks.append(mask_of(cls))
    return masks, class_of


def naive_center(G: GroupTable) -> int:
    n = G.order
    return mask_of(z for z in range(n) if all(G.mult[z][g] == G.mult[g][z] for g in range(n)))


def naive_is_abelian(G: GroupTable) -> bool:
    n = G.order
    return all(G.mult[a][b] == G.mult[b][a] for a in range(n) for b in range(n))
