"""Central products and the multiplication action of a central subgroup on
conjugacy classes: orbits, stabilizers, bracket sets, semi-regular elements,
and the class-counting identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import (
    ForeignSubset,
    NotCentral,
    NotNormal,
    NotSubgroup,
    OrderLimitExceeded,
    internal_check,
)
from .groups import (
    GroupTable,
    Subset,
    _check_subsets,
    _closure_mask,
    _generators,
    _is_subgroup_mask,
    _product_mask,
    _quotient,
    _remember,
    bits,
    center,
    check_element,
    commutator_set,
    conjugacy_classes,
    is_normal_subset,
    mask_of,
)

ENUMERATION_BOUND = 512
# enumerate_central_decompositions tests about s^2 / 2 pairs of s normal
# subgroups by their sizes and checks those with MN = G in full: 0.10 s at
# s = 249 (C2xC2xC4xC4) and 0.24 s at 374 (C2^5), best of 3 on a 2-vCPU
# shared host; no catalog group has over 68
NORMAL_SUBGROUP_BOUND = 256


@dataclass(frozen=True)
class CentralDecomposition:
    """A certified triple (M, N, Z): normal subgroups with MN = G, mutually
    centralizing, and Z = M intersect N central in G.

    Only _central_product issues one, once per (M, N) of a group, so every
    caller holding that pair shares it.  The Z-orbits on the classes inside
    M and N are computed on first use and kept for the life of the
    decomposition.
    """

    m: Subset
    n: Subset
    z: Subset

    @cached_property
    def m_orbits(self) -> ZActionData:
        return _z_orbits(self.z.group, self.m.mask, self.z.mask)

    @cached_property
    def n_orbits(self) -> ZActionData:
        return _z_orbits(self.z.group, self.n.mask, self.z.mask)


@dataclass(frozen=True)
class CentralProductCheck:
    """Outcome of is_central_product: a decomposition or a reason code."""

    decomposition: Optional[CentralDecomposition]
    reason: Optional[str]

    def __bool__(self) -> bool:
        return self.decomposition is not None


def is_central_product(G: GroupTable, M: Subset, N: Subset) -> CentralProductCheck:
    """Certify G as the central product of M and N, or say why not.

    Reason codes: NotSubgroup, NotNormal, ProductNotG, IntersectionNotCentral,
    NotCentralizing.  The factors must centralize each other; with that, Z is
    automatically central and the factors automatically normal, but all the
    conditions are checked independently so failures are attributed usefully.
    A factor of another table than G raises ForeignSubset.
    """
    if M.group is not G or N.group is not G:
        raise ForeignSubset(f"a factor belongs to a different group than {G.name}")
    for side in (M, N):
        if not _is_subgroup_mask(G, side.mask):
            return CentralProductCheck(None, "NotSubgroup")
    for side in (M, N):
        if not is_normal_subset(G, side):
            return CentralProductCheck(None, "NotNormal")
    return _central_product(G, M, N)


def _central_product(G: GroupTable, M: Subset, N: Subset) -> CentralProductCheck:
    """is_central_product for M, N already known to be normal subgroups.

    The outcome depends on G and the two masks alone, so it is computed once
    per (M, N) and kept on the table while its memo is under the cap of
    groups._remember: the verifier, derive_system and construct_from_system
    then share one decomposition and its orbits.  Past the cap a
    decomposition is computed again, with the same fields, and so are its
    orbits: enumerate_central_decompositions on C2xC2xC4xC4 checks 8 486
    pairs that cover G, all central products, and fills the cap, after
    which a verify_main_theorem plus derive_system of one of its
    factorizations takes about 0.24 ms where an uncapped memo took 0.12 ms,
    and the process peaks 6.5 MB lower (2-vCPU shared host, Python 3.11).
    """
    memo = G._central_products
    key = (M.mask, N.mask)
    check = memo.get(key)
    if check is None:
        check = _remember(memo, key, _certify_central_product(G, M, N))
    return check


def _certify_central_product(G: GroupTable, M: Subset, N: Subset) -> CentralProductCheck:
    """The three checks of a central product, in order, for subgroups M, N.

    MN = G by the product formula |MN| = |M||N| / |M intersect N|: O(1),
    not |M||N| products.  M and N centralize each other iff their greedy
    generators commute pairwise, as the centralizer of a set is a subgroup.
    """
    fail = lambda reason: CentralProductCheck(None, reason)
    zmask = M.mask & N.mask
    if M.mask.bit_count() * N.mask.bit_count() != G.order * zmask.bit_count():
        return fail("ProductNotG")
    if zmask & ~center(G).mask:
        return fail("IntersectionNotCentral")
    mult, n_gens = G.mult, _generators(G, N.mask)[0]
    if any(mult[a][b] != mult[b][a] for a in _generators(G, M.mask)[0] for b in n_gens):
        return fail("NotCentralizing")
    return CentralProductCheck(CentralDecomposition(M, N, Subset(G, zmask)), None)


def _join_closure(G: GroupTable, generators, bound=math.inf):
    """All joins of the subgroups generated by each mask, sorted by size;
    OrderLimitExceeded once more than `bound` are found."""
    trivial = 1 << G.identity
    base = {trivial} | {_closure_mask(G, m | trivial) for m in generators}
    found = set(base)
    frontier = set(base)
    while frontier:
        new = set()
        for h in frontier:
            for b in base:
                j = h | b
                if j not in found:
                    j = _closure_mask(G, j)
                    if j not in found:
                        found.add(j)
                        new.add(j)
                        if len(found) > bound:
                            raise OrderLimitExceeded(
                                f"normal subgroup bound: {G.name} has more "
                                f"than {bound} normal subgroups"
                            )
        frontier = new
    return [Subset(G, m) for m in sorted(found, key=lambda m: (m.bit_count(), m))]


def normal_subgroups(G: GroupTable):
    """All normal subgroups, via join-closure of class-generated subgroups;
    OrderLimitExceeded once more than NORMAL_SUBGROUP_BOUND are found."""
    return _join_closure(
        G, (cls.mask for cls in conjugacy_classes(G).classes), NORMAL_SUBGROUP_BOUND
    )


def minimal_normal_subgroups(G: GroupTable):
    """Minimal nontrivial normal subgroups, sorted by (size, mask).

    The subgroup <C> generated by a conjugacy class C is normal, as every
    conjugation permutes C.  A nontrivial class C inside a minimal normal
    subgroup M generates a nontrivial normal subgroup of M, so M itself.
    So the minimal normal subgroups are the minimal elements of the family
    of <C>, C a nontrivial class, and the lattice of normal subgroups is
    never built.
    """
    trivial = 1 << G.identity
    generated = sorted({_closure_mask(G, cls.mask) for cls in conjugacy_classes(G).classes
                        if cls.mask != trivial}, key=lambda m: (m.bit_count(), m))
    return [Subset(G, m) for m in generated
            if not any(t != m and t & ~m == 0 for t in generated)]


def central_subgroups(G: GroupTable):
    """All subgroups of the center, by join-closure of cyclic subgroups."""
    return _join_closure(G, (1 << z for z in bits(center(G).mask)))


def enumerate_central_decompositions(G: GroupTable):
    """All unordered pairs of normal subgroups forming central products.

    Includes (G, Z) for every central subgroup Z.  Pairs are canonicalized
    with the larger factor first.  A pair with |M||N| != |G||M intersect N|
    has MN != G and is passed over before _central_product, so the memo
    keeps only pairs that cover G: 993 of Q8oQ8's 2 346.  An abelian group
    can still fill the memo's cap, as every pair that covers it is a
    central product (C2xC2xC4xC4: 8 486 of them).  A group of order over
    ENUMERATION_BOUND, or with more than NORMAL_SUBGROUP_BOUND normal
    subgroups, raises OrderLimitExceeded; the latter is found before the
    subgroups are all listed.
    """
    if G.order > ENUMERATION_BOUND:
        raise OrderLimitExceeded(
            f"decomposition enumeration bound {ENUMERATION_BOUND} exceeded by {G.name}"
        )
    subs = normal_subgroups(G)
    out = []
    for i, M in enumerate(subs):
        for N in subs[i:]:
            if len(M) * len(N) != G.order * (M.mask & N.mask).bit_count():
                continue  # MN != G: checked here, so that the memo keeps no such pair
            big, small = (M, N) if (len(M), M.mask) >= (len(N), N.mask) else (N, M)
            check = _central_product(G, big, small)
            if check:
                out.append(check.decomposition)
    out.sort(key=lambda d: (len(d.m), d.m.mask, d.n.mask))
    return out


@dataclass(frozen=True)
class ZOrbit:
    """One orbit of classes under z-multiplication, with its stabilizer."""

    classes: tuple
    stabilizer: Subset


@dataclass(frozen=True)
class ZActionData:
    """Orbit partition of the classes inside a normal subset under a central
    subgroup acting by multiplication.  The orbits' stabilizers, their masks
    and each orbit's first class are tuples computed on first use and kept,
    for the systems built and checked over these orbits."""

    ambient: Subset
    acting: Subset
    orbits: tuple

    @cached_property
    def stabilizers(self) -> tuple:
        return tuple(o.stabilizer for o in self.orbits)

    @cached_property
    def stabilizer_masks(self) -> tuple:
        return tuple(s.mask for s in self.stabilizers)

    @cached_property
    def first_classes(self) -> tuple:
        return tuple(o.classes[0] for o in self.orbits)

    def is_semiregular(self) -> bool:
        one = 1 << self.acting.group.identity
        return all(o.stabilizer.mask == one for o in self.orbits)

    def stabilizer_union(self) -> Subset:
        m = 0
        for o in self.orbits:
            m |= o.stabilizer.mask
        return Subset(self.acting.group, m)


def _require_central_subgroup(G: GroupTable, Z: Subset) -> None:
    _check_subsets(G, Z)
    if not _is_subgroup_mask(G, Z.mask):
        raise NotCentral("Z must be a subgroup")
    if Z.mask & ~center(G).mask:
        raise NotCentral("Z must be contained in the center")


def z_orbits(G: GroupTable, N: Subset, Z: Subset) -> ZActionData:
    """Orbits of the classes inside N under multiplication by central Z.

    N may be a normal subgroup (then Z <= N is required) or any normal
    subset closed under multiplication by Z.
    """
    _require_central_subgroup(G, Z)
    if not is_normal_subset(G, N):
        raise NotNormal("the acted-on set must be a union of conjugacy classes")
    if _is_subgroup_mask(G, N.mask):
        if Z.mask & ~N.mask:
            raise NotCentral("Z must be contained in the subgroup acted on")
    elif _product_mask(G, Z.mask, N.mask) != N.mask:
        raise NotNormal("normal subset is not closed under multiplication by Z")
    return _z_orbits(G, N.mask, Z.mask)


def _z_orbits(G: GroupTable, nmask: int, zmask: int) -> ZActionData:
    """z_orbits for a normal subset N closed under a central subgroup Z."""
    part = conjugacy_classes(G)
    inside = [i for i, cls in enumerate(part.classes) if cls.mask & ~nmask == 0]
    inside_set = set(inside)
    mult = G.mult
    class_of = part.class_of
    zmem = tuple(bits(zmask))
    seen = set()
    orbits = []
    for start in inside:
        if start in seen:
            continue
        cmask = part.class_mask(start)
        rep = (cmask & -cmask).bit_length() - 1
        orbit = set()
        stab = 0
        for z in zmem:
            c = class_of[mult[z][rep]]
            orbit.add(c)
            if c == start:
                stab |= 1 << z
        internal_check(
            orbit <= inside_set, "orbit escaped the acted-on normal subset"
        )
        seen |= orbit
        stabilizer = Subset(G, stab)
        internal_check(
            len(orbit) * len(stabilizer) == len(zmem),
            "orbit-stabilizer identity failed",
        )
        orbits.append(ZOrbit(tuple(sorted(orbit)), stabilizer))
    orbits.sort(key=lambda o: o.classes[0])
    return ZActionData(Subset(G, nmask), Subset(G, zmask), tuple(orbits))


def class_stabilizer(G: GroupTable, n: int, Z: Subset) -> Subset:
    """Stabilizer of the class of n under Z-multiplication.

    Computed both directly ({z : nz in n^G}) and as [n, G] intersect Z;
    the two must agree.
    """
    n = check_element(G, n)
    _require_central_subgroup(G, Z)
    part = conjugacy_classes(G)
    cmask = part.class_mask(part.class_of[n])
    row = G.mult[n]
    direct = mask_of(z for z in bits(Z.mask) if (cmask >> row[z]) & 1)
    bracket = commutator_set(G, G.singleton(n), G.full_subset()).mask & Z.mask
    internal_check(direct == bracket, "stabilizer computations disagree")
    return Subset(G, direct)


def z_bracket(G: GroupTable, K: Subset, Z: Subset):
    """The set [K,K] intersect Z and the subgroup it generates.

    When K is complemented by its centralizer (K * C_G(K) = G, the central
    product situation) the set is cross-checked against the union of the
    orbit stabilizers of the Z-action on the classes inside K.  C_G(K) is
    the set of elements commuting with K's greedy generators, n |gens K|
    lookups, and K * C_G(K) = G is read from the product formula.
    """
    _check_subsets(G, K)
    _require_central_subgroup(G, Z)
    if not _is_subgroup_mask(G, K.mask):
        raise NotSubgroup("bracket set needs a subgroup")
    if not is_normal_subset(G, K):
        raise NotSubgroup("bracket set needs a normal subgroup")
    bracket = commutator_set(G, K, K).mask & Z.mask
    generated = _closure_mask(G, bracket | (1 << G.identity))
    mult, gens = G.mult, _generators(G, K.mask)[0]
    cent = mask_of(g for g in G.elements() if all(mult[g][k] == mult[k][g] for k in gens))
    complemented = K.mask.bit_count() * cent.bit_count() == G.order * (K.mask & cent).bit_count()
    if complemented and Z.mask & ~K.mask == 0:
        union = _z_orbits(G, K.mask, Z.mask).stabilizer_union()
        internal_check(
            union.mask == bracket,
            "bracket set does not match the union of orbit stabilizers",
        )
    return Subset(G, bracket), Subset(G, generated)


def semi_regular_elements(G: GroupTable) -> Subset:
    """Central elements (except 1) fixing no conjugacy class by multiplication."""
    zc = center(G)
    action = _z_orbits(G, G.full_mask, zc.mask)
    moved = zc.mask & ~action.stabilizer_union().mask
    return Subset(G, moved & ~(1 << G.identity))


@dataclass(frozen=True)
class ClassCountReport:
    """Class counts of G, Z, G/Z plus the orbit count and semi-regular flag."""

    k_g: int
    k_z: int
    k_quotient: int
    orbit_count: int
    semiregular: bool

    @property
    def multiplicative(self) -> bool:
        return self.k_g == self.k_z * self.k_quotient


def class_count_report(G: GroupTable, Z: Subset) -> ClassCountReport:
    """Compute k(G), k(Z), k(G/Z) (explicit quotient) and the orbit count.

    Asserts orbit_count == k(G/Z) and that semi-regularity is equivalent to
    k(G) == k(Z) * k(G/Z).
    """
    _require_central_subgroup(G, Z)
    k_g = len(conjugacy_classes(G))
    k_z = len(Z)  # central subgroups are abelian
    quo, _ = _quotient(G, Z.mask)
    k_quotient = len(conjugacy_classes(quo))
    action = _z_orbits(G, G.full_mask, Z.mask)
    orbit_count = len(action.orbits)
    internal_check(orbit_count == k_quotient, "orbit count differs from k(G/Z)")
    semiregular = action.is_semiregular()
    internal_check(
        semiregular == (k_g == k_z * k_quotient),
        "semi-regularity disagrees with the class-count identity",
    )
    return ClassCountReport(k_g, k_z, k_quotient, orbit_count, semiregular)
