"""Finite groups as dense multiplication tables, with subsets as bitmasks.

Elements are integers 0..n-1.  A Subset is an immutable bitmask over the
element range of a fixed GroupTable, and a SetDirectFactorization a pair of
them: the one result type of the constructions and of the oracle, kept here
so that neither route imports the other's module.  The table, partitions,
subsets and pairs never change after construction.  What a table derives
from itself alone is a cached_property of it: a generating set, whether it
is abelian, the classes (and, cached on their partition, the mask of class
leaders and the mask of classes of more than one element), the centre, the
label index, the memo of subgroup joins <H, g> keyed by a subgroup mask and
an element, and the memo of central-product checks keyed by a pair of
subgroup masks.  Each is computed on first use and gives the same result on
every use, so every operation in this module is a pure function of its
inputs; the two memos hold at most _MEMO_HELD entries each.  Every
subgroup closure, the table's generating set included, is grown by one
greedy walk, _generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from numbers import Integral
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    EmptyGeneratingSet,
    ContainmentViolated,
    ElementOutOfRange,
    EmptySet,
    ForeignSubset,
    NotAGroup,
    NotCentral,
    NotIsomorphism,
    NotNormalSubgroup,
    NotSubgroup,
    OrderLimitExceeded,
    internal_check,
)

# The largest group order any factory builds.  A table of n elements has n^2
# entries, and a build peaks at about 9 (S7 from permutations), 48 (catalog
# cyclic) and 61 (JSON table, parsing included) bytes of RSS per entry: at
# 6000, 1.7 GB for a catalog group and 2.1 GB for a JSON table.
MAX_ORDER = 6000

# Entries each per-table memo (GroupTable._joins, GroupTable._central_products)
# stores; past it, values are computed and not kept (_remember).  Two passes
# of a benchmark workload leave at most 374 joins and 993 central-product
# checks per table (Q8oQ8 in one command-line call: `info` checks the 993
# pairs of its 68 normal subgroups with MN = G); uncapped, 3000 random sets
# of 1 to 9 elements of C2^8 leave 11 108 joins, and 20 000
# verify_main_theorem calls on such sets about 19 200 checks.
_MEMO_HELD = 4096


def check_order(n: int, what: str = "order") -> None:
    """Raise OrderLimitExceeded if n is over MAX_ORDER.  Every factory calls
    this before it allocates anything that grows with n."""
    if n > MAX_ORDER:
        # str() refuses an int of over 4300 digits, such as 1559!
        shown = n if n < 10**100 else "over 10^100"
        raise OrderLimitExceeded(f"{what} {shown} exceeds the order bound {MAX_ORDER}")


def check_element(G: "GroupTable", x: int) -> int:
    """x as an int, if it indexes an element of G: an integer (a numpy
    integer too; a bool is not one, as in group_from_table) in
    0..order-1.  Otherwise raise ElementOutOfRange."""
    if type(x) is not int:  # the Integral ABC test would make subset() 6x slower
        if isinstance(x, bool) or not isinstance(x, Integral):
            raise ElementOutOfRange(f"element index {x!r} is not an integer, for {G.name}")
        x = int(x)
    if not 0 <= x < G.order:
        raise ElementOutOfRange(f"element index {x} out of range for {G.name}")
    return x


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class GroupTable:
    """A finite group: order, n-by-n multiplication table, inverses, labels.

    Construct through the factory functions in this module (or the catalog);
    the constructor itself trusts its arguments.  The structures derived
    from the table alone are cached properties, computed once per table;
    the fields are slots, fast to load once those fill the __dict__.
    """

    __slots__ = ("order", "mult", "inv", "identity", "labels", "name", "__dict__")

    def __init__(self, mult, inv, identity, labels, name="G"):
        self.order = len(mult)
        self.mult = tuple(tuple(row) for row in mult)
        self.inv = tuple(inv)
        self.identity = identity
        self.labels = tuple(labels)
        self.name = name

    # -- element arithmetic -------------------------------------------------

    def conj(self, x: int, g: int) -> int:
        """g**-1 * x * g."""
        return self.mult[self.mult[self.inv[g]][x]][g]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.mult[y][x]
            k += 1
        return k

    @cached_property
    def generators(self) -> tuple:
        """A generating set of at most log2(order) elements: the greedy walk
        of _generators over the whole group, and the set Light's test
        checks on a table."""
        return _generators(self, self.full_mask)[0]

    @cached_property
    def is_abelian(self) -> bool:
        mult = self.mult
        return all(mult[a][b] == mult[b][a] for a, b in combinations(self.generators, 2))

    @cached_property
    def _classes(self) -> ClassPartition:
        """The conjugacy classes, ordered by minimal member.  A class is the
        orbit of conjugation by G, and so the closure under conjugation by a
        generating set: n * |gens| lookups, not n^2."""
        n, mult, inv = self.order, self.mult, self.inv
        # conj[y] = g^-1 y g, one index list per generator g
        conjs = [[mult[w][g] for w in mult[inv[g]]] for g in self.generators]
        class_of = [-1] * n
        classes = []
        for x in range(n):
            if class_of[x] >= 0:
                continue
            idx = len(classes)
            class_of[x] = idx
            mask = 1 << x
            stack = [x]
            while stack:
                y = stack.pop()
                for conj in conjs:
                    z = conj[y]
                    if class_of[z] < 0:
                        class_of[z] = idx
                        mask |= 1 << z
                        stack.append(z)
            classes.append(Subset(self, mask))
        return ClassPartition(self, tuple(classes), tuple(class_of))

    @cached_property
    def _center_mask(self) -> int:
        """The elements commuting with a generating set."""
        mult, gens = self.mult, self.generators
        m = 0
        for z, row in enumerate(mult):
            if all(row[g] == mult[g][z] for g in gens):
                m |= 1 << z
        return m

    @cached_property
    def _joins(self) -> dict:
        """(H mask, g) -> mask of <H, g>, for a subgroup H and an element g
        outside it, filled by _generators: at most (subgroups) x n keys."""
        return {}

    @cached_property
    def _central_products(self) -> dict:
        """(M mask, N mask) -> central-product check, filled by central.py."""
        return {}

    # -- subsets ------------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def subset(self, indices: Iterable[int]) -> "Subset":
        m = 0
        for i in indices:
            m |= 1 << check_element(self, i)
        return Subset(self, m)

    def subset_from_mask(self, mask: int) -> "Subset":
        return Subset(self, mask)

    def singleton(self, i: int) -> "Subset":
        return self.subset([i])

    def empty_subset(self) -> "Subset":
        return Subset(self, 0)

    def full_subset(self) -> "Subset":
        return Subset(self, self.full_mask)

    def identity_subset(self) -> "Subset":
        return Subset(self, 1 << self.identity)

    # -- labels -------------------------------------------------------------

    @cached_property
    def _label_index(self) -> dict:
        idx = {}
        for i, lab in enumerate(self.labels):
            idx.setdefault(lab, i)
        return idx

    def index_of_label(self, label: str) -> Optional[int]:
        return self._label_index.get(label)

    def __repr__(self):
        return f"GroupTable({self.name!r}, order={self.order})"


@dataclass(frozen=True, slots=True, init=False)
class Subset:
    """A subset of a fixed group, stored as a bitmask over 0..n-1.

    Frozen, slotted, and hashed and compared by (group, mask).  Its __init__
    is written by hand: it sets each slot through the slot's own setter,
    where the generated frozen __init__ calls object.__setattr__ per field,
    about 245 ns a call against 375 (Python 3.11).  A Subset is built per
    element set in every route and per listed pair in the oracle."""

    group: GroupTable
    mask: int

    def __init__(self, group: GroupTable, mask: int):
        _set_subset_group(self, group)
        _set_subset_mask(self, mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, i: int) -> bool:
        if type(i) is not int:  # what check_element refuses is a member of no subset
            try:
                i = check_element(self.group, i)
            except ElementOutOfRange:
                return False
        return i >= 0 and bool((self.mask >> i) & 1)

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def members(self) -> tuple:
        return tuple(bits(self.mask))

    def member_labels(self) -> tuple:
        return tuple(self.group.labels[i] for i in bits(self.mask))

    def _check_same_group(self, other: "Subset") -> None:
        if self.group is not other.group:
            raise ForeignSubset("subsets belong to different groups")

    def __or__(self, other: "Subset") -> "Subset":
        self._check_same_group(other)
        return Subset(self.group, self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        self._check_same_group(other)
        return Subset(self.group, self.mask & other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check_same_group(other)
        return Subset(self.group, self.mask & ~other.mask)

    def translate(self, g: int) -> "Subset":
        """Left translate {g*x : x in S}."""
        g = check_element(self.group, g)
        return Subset(self.group, _image(self.group.mult[g], self.mask))

    def __repr__(self):
        shown = ",".join(self.member_labels()[:12])
        more = "..." if len(self) > 12 else ""
        return f"Subset({self.group.name}: {{{shown}{more}}})"


_set_subset_group, _set_subset_mask = Subset.group.__set__, Subset.mask.__set__


@dataclass(frozen=True, slots=True, init=False)
class SetDirectFactorization:
    """A pair of normal subsets whose product is direct (when certified).

    Frozen, slotted, and hashed and compared by its four fields.  Like
    Subset's, its __init__ is written by hand to set each slot through the
    slot's own setter, which the oracle's listing calls once per pair."""

    group: GroupTable
    x: Subset
    y: Subset
    certified: bool

    def __init__(self, group: GroupTable, x: Subset, y: Subset, certified: bool):
        _set_group(self, group)
        _set_x(self, x)
        _set_y(self, y)
        _set_certified(self, certified)

    def covers_group(self) -> bool:
        return _product_mask(self.group, self.x.mask, self.y.mask) == self.group.full_mask

    def is_normalized(self) -> bool:
        e = self.group.identity
        return e in self.x and e in self.y

    def is_nontrivial(self) -> bool:
        zmask = center(self.group).mask
        for side in (self.x, self.y):
            if len(side) == 1 and side.mask & zmask:
                return False
        return True

    def unordered_key(self):
        a, b = sorted((self.x.mask, self.y.mask))
        return (a, b)


_set_group, _set_x, _set_y, _set_certified = (
    f.__set__ for f in (SetDirectFactorization.group, SetDirectFactorization.x,
                        SetDirectFactorization.y, SetDirectFactorization.certified)
)


@dataclass(frozen=True)
class ClassPartition:
    """Conjugacy classes of a group, ordered by minimal member, with two
    masks computed on first use and kept: `leaders`, the minimal member of
    each class, and `noncentral`, the union of the classes of more than
    one element."""

    group: GroupTable
    classes: tuple
    class_of: tuple

    def __len__(self) -> int:
        return len(self.classes)

    def class_mask(self, i: int) -> int:
        return self.classes[i].mask

    def sizes(self) -> tuple:
        return tuple(len(c) for c in self.classes)

    @cached_property
    def leaders(self) -> int:
        """The mask of each class's minimal member: a union of classes D
        has one element per class in D & leaders."""
        return mask_of((c.mask & -c.mask).bit_length() - 1 for c in self.classes)

    @cached_property
    def noncentral(self) -> int:
        """The union of the classes of more than one element: the elements
        outside the centre.  A union of classes contains every one-element
        class it meets, so only these need a look; on an abelian group the
        mask is 0."""
        return sum(c.mask for c in self.classes if len(c) > 1)  # disjoint masks


# -- raw mask helpers (hot paths work on ints, not Subset objects) ----------


def _image(perm: Sequence[int], mask: int) -> int:
    """The mask of the perm[x], x in mask: G.mult[g] maps a mask to its left
    translate by g, and a power map (a tuple of images) to its image."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _product_mask(G: GroupTable, amask: int, bmask: int) -> int:
    mult = G.mult
    bmem = tuple(bits(bmask))
    out = 0
    while amask:
        low = amask & -amask
        row = mult[low.bit_length() - 1]
        for y in bmem:
            out |= 1 << row[y]
        amask ^= low
    return out


def _generators(G: GroupTable, mask: int) -> tuple[tuple, int]:
    """Greedy generators of the subgroup generated by the elements of mask,
    and that subgroup's mask.  The one routine that grows a subgroup
    closure: from h = <1>, the lowest element g of mask outside h is the
    next generator and h becomes <h, g>, read from the table's memo
    G._joins or grown by _join and kept there by _remember.  Each step at
    least doubles h, so at most log2|G| are taken, and each depends on h
    and g alone.  A condition whose solutions form a subgroup, such as
    commuting with a set, holds on <X> once it holds on the generators."""
    joins, gens, h = G._joins, [], 1 << G.identity
    while rest := mask & ~h:
        g = (rest & -rest).bit_length() - 1
        grown = joins.get((h, g))
        if grown is None:
            grown = _remember(joins, (h, g), _join(G.mult, h, gens, g))
        gens.append(g)
        h = grown
    return tuple(gens), h


def _join(rows, h: int, gens: Sequence[int], g: int) -> int:
    """The mask of <h, g> for h the subgroup generated by gens, grown from
    h's elements.  Each x*g, x in h, is a new element (h is closed under
    gens); only the new elements are then multiplied by gens and g, and so
    on until none is new.  Membership is a bytearray, as testing a bit of
    an int mask costs O(n/64).  On a table not yet known to be associative
    (Light's test) this is the right closure of h under gens and g."""
    seen = bytearray(len(rows))
    for x in bits(h):
        seen[x] = 1
    gens = [*gens, g]
    frontier = []
    for x in bits(h):
        y = rows[x][g]
        if not seen[y]:
            seen[y] = 1
            frontier.append(y)
    while frontier:
        h |= mask_of(frontier)
        new = []
        for x in frontier:
            row = rows[x]
            for k in gens:
                y = row[k]
                if not seen[y]:
                    seen[y] = 1
                    new.append(y)
        frontier = new
    return h


def _remember(memo: dict, key, value):
    """Store key -> value in a per-table memo while it holds fewer than
    _MEMO_HELD entries, and return value: past the cap a value is computed
    again on each use."""
    if len(memo) < _MEMO_HELD:
        memo[key] = value
    return value


def _closure_mask(G: GroupTable, mask: int) -> int:
    """Subgroup generated by the elements of mask (see _generators)."""
    return _generators(G, mask)[1]


def _is_subgroup_mask(G: GroupTable, mask: int) -> bool:
    """A finite set is a subgroup iff it equals the subgroup it generates:
    |H| log|H| lookups, not the |H|^2 of H*H <= H.  Lagrange refuses a set
    whose size does not divide |G| first."""
    return G.order % max(mask.bit_count(), 1) == 0 and _closure_mask(G, mask) == mask


# -- construction ----------------------------------------------------------


def _check_associative(a, gens: Iterable[int]) -> None:
    """Light's test on the table as an integer array `a`.  S = {g : (xy)g =
    x(yg) for all x, y} is closed under products, so checking gens, whose
    right closure from the identity is the whole table, proves
    associativity at any order."""
    import numpy as np

    for g in gens:
        col = a[:, g]
        bad = col[a] != a[:, col]  # (xy)g != x(yg)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise NotAGroup(f"associativity fails at triple ({x},{y},{g})")


def _check_integer_types(types: Iterable[type], what: str) -> None:
    """Raise NotAGroup unless every type is an integer type (bool is not)."""
    for t in types:
        if t is bool or not issubclass(t, Integral):
            raise NotAGroup(f"{what} of type {t.__name__} is not an integer")


def group_from_table(
    mult_table: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
    *,
    name: str = "G",
) -> GroupTable:
    """Validate a multiplication table and wrap it as a GroupTable.

    Checks: square shape, integer entries (a bool, float or string is not
    one) in range, Latin square, two-sided identity, two-sided inverses, and
    associativity (Light's test, at every order); labels, if given, are n
    strings.
    """
    n = len(mult_table)
    check_order(n)
    import numpy as np  # only tables need it; imported here to keep start-up fast

    if n == 0:
        raise NotAGroup("empty table")
    types = set()
    for row in mult_table:
        if len(row) != n:
            raise NotAGroup(f"table is not square: a row has {len(row)} entries, not {n}")
        types.update(map(type, row))
    _check_integer_types(types, "a table entry")
    try:
        a = np.asarray(mult_table, dtype=np.int32)  # n <= MAX_ORDER fits
    except OverflowError:
        raise NotAGroup("table entries out of range 0..n-1") from None
    if a.min() < 0 or a.max() >= n:
        raise NotAGroup("table entries out of range 0..n-1")

    ar = np.arange(n, dtype=np.int64)
    if not (np.sort(a, axis=1) == ar).all():
        raise NotAGroup("some row is not a permutation of 0..n-1")
    if not (np.sort(a, axis=0) == ar[:, None]).all():
        raise NotAGroup("some column is not a permutation of 0..n-1")

    row_id = (a == ar).all(axis=1)
    col_id = (a == ar[:, None]).all(axis=0)
    both = np.flatnonzero(row_id & col_id)
    if len(both) == 0:
        raise NotAGroup("no two-sided identity element")
    identity = int(both[0])

    inv = (a == identity).argmax(axis=1)  # the right inverse of each row
    bad = np.flatnonzero(a[inv, ar] != identity)
    if len(bad):
        raise NotAGroup(f"element {bad[0]} has no two-sided inverse")

    # plain ints (a JSON table's) are kept as they are, in the tuples GroupTable
    # keeps: a.tolist() would make n^2 new ints, and GroupTable a copy
    rows = [tuple(row) for row in mult_table] if types == {int} else a.tolist()
    G = GroupTable(rows, inv.tolist(), identity, (), name=name)
    _check_associative(a, G.generators)  # the set the table keeps

    if labels is None:
        labels = [str(i) for i in range(n)]
    elif len(labels) != n:
        raise NotAGroup("labels length does not match order")
    elif not all(isinstance(label, str) for label in labels):
        raise NotAGroup("labels are not all strings")
    G.labels = tuple(labels)
    return G


def _cycle_label(perm: Sequence[int]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


def group_from_permutations(
    generators: Sequence[Sequence[int]],
    *,
    name: str = "perm-group",
) -> GroupTable:
    """Close a set of permutations of 0..d-1 under composition.

    Each generator lists the images of 0..d-1: d integers (a bool, float or
    string is not one), all generators of the same length d.  Element 0 is
    the identity; labels are cycle notations.  Closure is breadth-first
    right-multiplication by the generators, which also gives the table:
    element j is its parent p times a generator g, so row j is row p read
    through the left multiplication by g, an index list of n entries.
    The closure stops once the order would pass MAX_ORDER, and a degree
    over MAX_ORDER is refused, since the closure holds every element as d
    points.
    """
    if not generators:
        raise EmptyGeneratingSet("need at least one generator")
    gens = []
    for g in generators:
        try:
            t = tuple(g)
        except TypeError:
            raise NotAGroup(f"generator {g!r} is not a sequence of integers") from None
        _check_integer_types(set(map(type, t)), f"an entry of generator {g!r}")
        d = len(gens[0]) if gens else len(t)
        check_order(d, "degree")
        if len(t) != d or sorted(t) != list(range(d)):
            raise NotAGroup(f"generator {g!r} is not a permutation of 0..{d-1}")
        gens.append(tuple(map(int, t)))
    ident = tuple(range(d))
    # neither a repeat nor the identity adds an element or changes their order
    gens = [g for g in dict.fromkeys(gens) if g != ident]

    index = {ident: 0}
    elems = [ident]
    parent, via = [0], [0]  # elems[j] = elems[parent[j]] after gens[via[j]]
    for i, p in enumerate(elems):  # elems grows while it is read: breadth-first
        for k, g in enumerate(gens):
            q = tuple(map(p.__getitem__, g))  # p after g
            if q not in index:
                check_order(len(elems) + 1, "order at least")
                index[q] = len(elems)
                elems.append(q)
                parent.append(i)
                via.append(k)

    n = len(elems)
    # left[k][y] = index of g_k after elems[y]; then for elems[j] = p g_k,
    # (p g_k) elems[y] = p (g_k elems[y]) gives row j from row p
    left = [itemgetter(*[index[tuple(map(g.__getitem__, q))] for q in elems]) for g in gens]
    mult = [tuple(range(n))]
    for j in range(1, n):
        mult.append(left[via[j]](mult[parent[j]]))
    # the inverse of p sends p[t] back to t: the points sorted by their images
    inv = [index[tuple(sorted(range(d), key=p.__getitem__))] for p in elems]
    labels = [_cycle_label(p) for p in elems]
    return GroupTable(mult, inv, 0, labels, name=name)


def direct_product(A: GroupTable, B: GroupTable, *, name: Optional[str] = None) -> GroupTable:
    """External direct product with elements packed as a*|B| + b."""
    na, nb = A.order, B.order
    n = na * nb
    check_order(n)
    mult = [[0] * n for _ in range(n)]
    for a1 in range(na):
        for b1 in range(nb):
            i = a1 * nb + b1
            rowm = mult[i]
            ra, rb = A.mult[a1], B.mult[b1]
            for a2 in range(na):
                base = ra[a2] * nb
                rb2 = rb
                for b2 in range(nb):
                    rowm[a2 * nb + b2] = base + rb2[b2]
    inv = [A.inv[i // nb] * nb + B.inv[i % nb] for i in range(n)]
    labels = [f"({A.labels[i // nb]},{B.labels[i % nb]})" for i in range(n)]
    identity = A.identity * nb + B.identity
    return GroupTable(mult, inv, identity, labels, name=name or f"{A.name}x{B.name}")


@dataclass(frozen=True)
class CentralProductEmbedding:
    """A central product together with the canonical images of its factors."""

    group: GroupTable
    m_image: Subset
    n_image: Subset
    z_image: Subset


def central_product_embedding(
    M: GroupTable,
    N: GroupTable,
    pairing: Sequence[Sequence[int]],
    *,
    name: Optional[str] = None,
) -> CentralProductEmbedding:
    """Glue M and N along a central subgroup identified by `pairing`.

    `pairing` lists (index in M, index in N) pairs whose first components
    form a central subgroup Z of M and whose second components are the values
    of an isomorphism of Z onto a central subgroup of N.  The result is the
    quotient of M x N by {(z, theta(z)^-1)}.
    """
    if not pairing:
        raise NotIsomorphism("pairing must at least identify the identities")
    if any(len(p) != 2 for p in pairing):
        raise NotIsomorphism("each pairing entry is a pair (index in M, index in N)")
    zm = [p[0] for p in pairing]
    zn = [p[1] for p in pairing]
    _check_integer_types(set(map(type, zm + zn)), "a pairing index")
    if not all(0 <= a < M.order for a in zm) or not all(0 <= b < N.order for b in zn):
        raise NotIsomorphism("a pairing index is out of range")
    if len(set(zm)) != len(zm) or len(set(zn)) != len(zn):
        raise NotIsomorphism("pairing components must be distinct")
    zmask = mask_of(zm)
    if not _is_subgroup_mask(M, zmask):
        raise NotCentral("pairing domain is not a subgroup of the left factor")
    if zmask & ~center(M).mask:
        raise NotCentral("pairing domain is not central in the left factor")
    if mask_of(zn) & ~center(N).mask:
        raise NotCentral("pairing image is not central in the right factor")
    theta = dict(zip(zm, zn))
    for a in zm:
        for b in zm:
            if theta[M.mult[a][b]] != N.mult[theta[a]][theta[b]]:
                raise NotIsomorphism("pairing is not a homomorphism")

    prod = direct_product(M, N)
    nb = N.order
    kernel = prod.subset(a * nb + N.inv[theta[a]] for a in zm)
    internal_check(
        _is_subgroup_mask(prod, kernel.mask),
        "pairing kernel is not a subgroup of the direct product",
    )
    quo, coset_of = _quotient(prod, kernel.mask)
    quo.name = name or f"{M.name}o{N.name}"
    m_image = quo.subset({coset_of[a * nb + N.identity] for a in range(M.order)})
    n_image = quo.subset({coset_of[M.identity * nb + b] for b in range(N.order)})
    z_image = quo.subset({coset_of[a * nb + N.identity] for a in zm})
    internal_check(
        (m_image & n_image).mask == z_image.mask,
        "factor images do not intersect in the glued subgroup",
    )
    return CentralProductEmbedding(quo, m_image, n_image, z_image)


# -- structure queries -------------------------------------------------------


def conjugacy_classes(G: GroupTable) -> ClassPartition:
    """Partition into conjugacy classes, ordered by minimal member."""
    return G._classes


def center(G: GroupTable) -> Subset:
    """The subset of elements commuting with everything, that is with a
    generating set."""
    return Subset(G, G._center_mask)


def generated_subgroup(G: GroupTable, S: Subset) -> Subset:
    """Smallest subgroup containing S, by closure iteration."""
    if not S.mask:
        raise EmptyGeneratingSet("cannot generate from the empty set")
    return Subset(G, _closure_mask(G, S.mask))


def commutator_set(G: GroupTable, A: Subset, B: Subset) -> Subset:
    """The set {a^-1 b^-1 a b : a in A, b in B} (a set, not a subgroup)."""
    if not A.mask or not B.mask:
        raise EmptySet("commutator set of an empty subset")
    mult, inv = G.mult, G.inv
    amem, bmem = A.members(), B.members()
    out = 0
    for a in amem:
        ia = inv[a]
        for b in bmem:
            out |= 1 << mult[mult[mult[inv[b]][ia]][b]][a]
    return Subset(G, out)


def is_normal_subset(G: GroupTable, S: Subset) -> bool:
    """True iff S is a union of conjugacy classes (empty set included).

    Only the classes S meets outside the centre are walked, each once, up
    to the first one S does not contain: a central element is a class of
    its own.  On an abelian group there is no walk at all.  A subset of
    another table raises ForeignSubset.
    """
    if S.group is not G:
        raise ForeignSubset("subset belongs to a different group")
    part = conjugacy_classes(G)
    mask = S.mask
    rest = mask & part.noncentral
    while rest:
        low = rest & -rest
        cmask = part.class_mask(part.class_of[low.bit_length() - 1])
        if cmask & ~mask:
            return False
        rest &= ~cmask
    return True


def set_product(G: GroupTable, A: Subset, B: Subset):
    """Product set AB plus, per element, the number of (a, b) pairs hitting it."""
    mult = G.mult
    counts: dict = {}
    bmem = B.members()
    for a in bits(A.mask):
        row = mult[a]
        for b in bmem:
            p = row[b]
            counts[p] = counts.get(p, 0) + 1
    return Subset(G, mask_of(counts)), counts


def left_cosets(G: GroupTable, H: Subset):
    """Left cosets of a subgroup: (representatives, coset_of index array)."""
    if not _is_subgroup_mask(G, H.mask):
        raise NotSubgroup("coset decomposition needs a subgroup")
    return _left_cosets(G, H.mask)


def _left_cosets(G: GroupTable, hmask: int):
    n = G.order
    coset_of = [-1] * n
    reps = []
    order = [G.identity] + [x for x in range(n) if x != G.identity]
    for g in order:
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for y in bits(_image(G.mult[g], hmask)):
            coset_of[y] = idx
    return reps, tuple(coset_of)


def quotient_group(G: GroupTable, K: Subset) -> GroupTable:
    """GroupTable on the cosets of a normal subgroup K.

    Element i of the quotient is the coset numbered i by left_cosets(G, K).
    """
    if not _is_subgroup_mask(G, K.mask):
        raise NotNormalSubgroup("kernel is not a subgroup")
    if not is_normal_subset(G, K):
        raise NotNormalSubgroup("kernel is not normal")
    return _quotient(G, K.mask)[0]


def _quotient(G: GroupTable, kmask: int):
    """Quotient by a normal subgroup (unchecked) plus the element -> coset map."""
    reps, coset_of = _left_cosets(G, kmask)
    m = len(reps)
    mult = [[coset_of[G.mult[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    inv = [coset_of[G.inv[reps[i]]] for i in range(m)]
    labels = [f"{G.labels[r]}K" for r in reps]
    quo = GroupTable(mult, inv, coset_of[G.identity], labels, name=f"{G.name}/K")
    return quo, coset_of


# -- subgroup views ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubgroupView:
    """A subgroup re-indexed as its own GroupTable, with element maps."""

    table: GroupTable
    parent: GroupTable
    to_parent: tuple

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self.to_parent)}

    def pull(self, S: Subset) -> Subset:
        """Map a parent subset contained in the viewed subgroup into the view."""
        if S.group is not self.parent:
            raise ForeignSubset("subset belongs to a different group")
        index = self._index
        try:
            return self.table.subset(index[x] for x in bits(S.mask))
        except KeyError:
            raise ContainmentViolated("subset is not contained in the viewed subgroup") from None

    def push(self, S: Subset) -> Subset:
        """Map a view subset back into the parent group."""
        if S.group is not self.table:
            raise ForeignSubset("subset belongs to a different group")
        return self.parent.subset(self.to_parent[i] for i in bits(S.mask))


def subgroup_view(G: GroupTable, H: Subset) -> SubgroupView:
    """Re-wrap a subgroup as a standalone GroupTable (identity first)."""
    if not _is_subgroup_mask(G, H.mask):
        raise NotSubgroup("view requires a subgroup")
    members = [G.identity] + [x for x in bits(H.mask) if x != G.identity]
    pos = {p: i for i, p in enumerate(members)}
    m = len(members)
    mult = [[pos[G.mult[a][b]] for b in members] for a in members]
    inv = [pos[G.inv[a]] for a in members]
    labels = [G.labels[a] for a in members]
    table = GroupTable(mult, inv, 0, labels, name=f"{G.name}|H{m}")
    return SubgroupView(table, G, tuple(members))
