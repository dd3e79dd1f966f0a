"""Set-direct factorizations: directness tests, the structural verifier,
factorization systems over an abelian central subgroup, and the constructive
factorization routines.

Throughout, X and Y are normal subsets of a group G; their product is direct
when every element of XY has a unique representation x*y.  The verifier
reduces this to a central-product condition on M = <X>, N = <Y> plus
slice factorizations of Z = M intersect N.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Mapping, Optional, Sequence

from .central import (
    CentralDecomposition,
    ClassCountReport,
    ZActionData,
    ZOrbit,
    _central_product,
    _z_orbits,
    class_count_report,
    is_central_product,
    semi_regular_elements,
)
from .errors import (
    ContainmentViolated,
    EmptySet,
    ForeignSubset,
    HypothesisViolated,
    IndexMismatch,
    InvalidChoice,
    NotAbelian,
    NotADirectFactorizationOfZ,
    NotCertified,
    NotCyclic,
    NotNormal,
    NotSemiRegular,
    NotSubgroup,
    OrderNotPrimePowerAtLeastSquare,
    SystemMismatch,
    internal_check,
)
from .groups import (
    GroupTable,
    Subset,
    SubgroupView,
    _generators,
    _is_subgroup_mask,
    _ltrans,
    _product_mask,
    bits,
    center,
    commutator_set,
    conjugacy_classes,
    generated_subgroup,
    is_normal_subset,
    mask_of,
    subgroup_view,
)


@dataclass(frozen=True, slots=True)
class SetDirectFactorization:
    """A pair of normal subsets whose product is direct (when certified)."""

    group: GroupTable
    x: Subset
    y: Subset
    certified: bool

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


@dataclass(frozen=True)
class DirectnessReport:
    """The four equivalent directness criteria, each evaluated by its own
    method, which stops as soon as its answer is known."""

    multiplicity_ok: bool        # every product has exactly one representation
    difference_ok: bool          # XX^-1 and YY^-1 meet only at the identity
    partition_ok: bool           # translate family partitions XY
    cardinality_ok: bool         # |XY| = |X| |Y|
    verdict: bool


def _check_normal_pair(G: GroupTable, X: Subset, Y: Subset) -> None:
    if not X.mask or not Y.mask:
        raise EmptySet("factors must be nonempty")
    if not is_normal_subset(G, X):
        raise NotNormal("X is not a union of conjugacy classes")
    if not is_normal_subset(G, Y):
        raise NotNormal("Y is not a union of conjugacy classes")


def is_direct(G: GroupTable, X: Subset, Y: Subset) -> DirectnessReport:
    """Evaluate all four directness criteria and assert they agree.

    Each criterion stops at its answer:
    - multiplicity takes the products x*y one at a time, up to the first
      element hit twice;
    - difference builds the smaller of XX^-1 and YY^-1 and scans the other
      up to the first non-identity element they share;
    - partition lays down the translates {Xy} up to the first overlap, and
      tries {xY} only when {Xy} fails;
    - cardinality is False by pigeonhole when |X||Y| > |G|, and otherwise
      counts |XY| from its own product.
    """
    _check_normal_pair(G, X, Y)
    return _directness(G, X, Y)[0]


def _unique_products(G: GroupTable, xmem: tuple, ymem: tuple) -> bool:
    mult = G.mult
    hit = 0
    for x in xmem:
        row = mult[x]
        for y in ymem:
            b = 1 << row[y]
            if hit & b:
                return False
            hit |= b
    return True


def _differences_meet_trivially(G: GroupTable, xmem: tuple, ymem: tuple) -> bool:
    inv = G.inv
    small, large = sorted((xmem, ymem), key=len)
    built = 0
    for t in _left_translates(G, small, tuple(inv[b] for b in small)):
        built |= t
    built &= ~(1 << G.identity)
    scan = _left_translates(G, large, tuple(inv[b] for b in large))
    return not any(t & built for t in scan)


def _disjoint(translates) -> bool:
    union = 0
    for t in translates:
        if union & t:
            return False
        union |= t
    return True


def _right_translates(G: GroupTable, xmem: tuple, ymem: tuple):
    """The masks Xy, y in ymem, one at a time."""
    mult = G.mult
    for y in ymem:
        t = 0
        for x in xmem:
            t |= 1 << mult[x][y]
        yield t


def _left_translates(G: GroupTable, xmem: tuple, ymem: tuple):
    """The masks xY, x in xmem, one at a time."""
    mult = G.mult
    for x in xmem:
        row = mult[x]
        t = 0
        for y in ymem:
            t |= 1 << row[y]
        yield t


def _directness(
    G: GroupTable, X: Subset, Y: Subset
) -> tuple[DirectnessReport, Optional[int]]:
    """is_direct for a nonempty normal pair already checked by the caller,
    and the mask of XY when the cardinality criterion built it (None when
    pigeonhole decided).  No criterion reads another's work."""
    xmem, ymem = X.members(), Y.members()
    multiplicity_ok = _unique_products(G, xmem, ymem)
    difference_ok = _differences_meet_trivially(G, xmem, ymem)
    partition_ok = (
        _disjoint(_right_translates(G, xmem, ymem))  # {Xy}
        or _disjoint(_left_translates(G, xmem, ymem))  # {xY}
    )
    size = len(xmem) * len(ymem)
    xy = None if size > G.order else _product_mask(G, X.mask, Y.mask)
    cardinality_ok = xy is not None and xy.bit_count() == size

    internal_check(
        multiplicity_ok == difference_ok == partition_ok == cardinality_ok,
        "directness criteria disagree",
    )
    report = DirectnessReport(
        multiplicity_ok, difference_ok, partition_ok, cardinality_ok, multiplicity_ok
    )
    return report, xy


# -- the structural verifier -------------------------------------------------


@dataclass(frozen=True)
class MainTheoremReport:
    """Certification data: M = <X>, N = <Y>, Z = M intersect N, the central
    product condition, the slice factorizations of Z, and the verdict."""

    m: Subset
    n: Subset
    z: Subset
    condition_a: bool
    central_failure: Optional[str]
    x_slices: Mapping[int, Subset]   # representative m -> (m^-1 X) intersect Z
    y_slices: Mapping[int, Subset]
    condition_b: bool
    b_witness: Optional[tuple]       # (m, n) of a failing slice pair
    product_is_group: bool
    verdict: bool


def _slices(
    G: GroupTable, subgroup: Subset, part_mask: int, Z: Subset, action: Optional[ZActionData]
):
    """Deduplicated slices (m^-1 X) intersect Z, keyed by representative m.

    With a central Z, `action` holds its orbits on the classes inside the
    subgroup: the slice depends only on the conjugacy class of m, and slices
    at classes in the same Z-orbit are translates of one another, so one
    representative per Z-orbit suffices.  Otherwise (`action` None) slices
    are deduplicated by their actual value.
    """
    part = conjugacy_classes(G)
    inv, zm = G.inv, Z.mask
    out = {}
    if action is not None:
        for orbit in action.orbits:
            cmask = part.class_mask(orbit.classes[0])
            m = (cmask & -cmask).bit_length() - 1
            out[m] = Subset(G, _ltrans(G, inv[m], part_mask) & zm)
        return out
    seen_masks = set()
    for m in bits(subgroup.mask):
        smask = _ltrans(G, inv[m], part_mask) & zm
        if smask not in seen_masks:
            seen_masks.add(smask)
            out[m] = Subset(G, smask)
    return out


def verify_main_theorem(G: GroupTable, X: Subset, Y: Subset) -> MainTheoremReport:
    """Certify G = X x Y structurally and cross-check against the definition.

    Condition (a): G is the central product of M = <X> and N = <Y> over
    Z = M intersect N.  Condition (b): Z = X_m x Y_n for every m in M and
    n in N, with slices deduplicated per (conjugacy class, Z-coset); an empty
    slice is an explicit condition-(b) failure with a witness.  The verdict
    (a and b) is asserted to coincide with direct-and-product-covers-G;
    XY = G is read from the product the cardinality criterion built, and
    built here only when that criterion decided by pigeonhole.
    """
    _check_normal_pair(G, X, Y)
    M = generated_subgroup(G, X)
    N = generated_subgroup(G, Y)
    Z = M & N
    check = _central_product(G, M, N)  # <X> and <Y> are normal subgroups
    condition_a = bool(check)

    if condition_a:  # the decomposition keeps its orbits
        cp = check.decomposition
        m_action, n_action = cp.m_orbits, cp.n_orbits
    elif Z.mask & ~center(G).mask == 0:
        m_action, n_action = _z_orbits(G, M.mask, Z.mask), _z_orbits(G, N.mask, Z.mask)
    else:
        m_action = n_action = None
    x_slices = _slices(G, M, X.mask, Z, m_action)
    y_slices = _slices(G, N, Y.mask, Z, n_action)

    b_witness = next(
        ((m, n) for m, xs in x_slices.items() for n, ys in y_slices.items()
         if not _factors_directly(G, xs.mask, ys.mask, Z.mask)),
        None,
    )
    condition_b = b_witness is None

    direct, xy = _directness(G, X, Y)
    if xy is None:  # |X||Y| > |G|
        xy = _product_mask(G, X.mask, Y.mask)
    product_is_group = xy == G.full_mask
    verdict = condition_a and condition_b
    internal_check(
        verdict == (direct.verdict and product_is_group),
        "verifier verdict disagrees with the definitional check",
    )
    return MainTheoremReport(
        M,
        N,
        Z,
        condition_a,
        check.reason,
        x_slices,
        y_slices,
        condition_b,
        b_witness,
        product_is_group,
        verdict,
    )


def certify(G: GroupTable, X: Subset, Y: Subset) -> SetDirectFactorization:
    """Run the verifier and package the result."""
    report = verify_main_theorem(G, X, Y)
    return SetDirectFactorization(G, X, Y, report.verdict)


# -- kernels and factorization systems ----------------------------------------


def kernel(Zgrp: GroupTable, S: Subset) -> Subset:
    """K(S) = {h : hS = S} inside an abelian group."""
    if not Zgrp.is_abelian:
        raise NotAbelian("kernels are defined over abelian groups here")
    if S.group is not Zgrp:
        raise ForeignSubset("subset belongs to a different group")
    if not S.mask:
        raise EmptySet("kernel of the empty set")
    smask = S.mask
    return Subset(Zgrp, mask_of(h for h in Zgrp.elements() if _ltrans(Zgrp, h, smask) == smask))


def _factors_directly(G: GroupTable, amask: int, bmask: int, zmask: int) -> bool:
    """Z = A x B: both nonempty, |A||B| = |Z| and AB = Z."""
    return bool(
        amask
        and bmask
        and amask.bit_count() * bmask.bit_count() == zmask.bit_count()
        and _product_mask(G, amask, bmask) == zmask
    )


@dataclass(frozen=True)
class FactorizationSystem:
    """Families (M_i), (N_j) of subgroups and (A_i), (B_j) of subsets of an
    abelian group Z with Z = A_i x B_j, M_i <= K(A_i), N_j <= K(B_j).

    `z` is Z as a subgroup of the group all the sets live in: the whole of
    an abelian group, or a central subgroup of G such as a decomposition's Z.
    """

    z: Subset
    m_subgroups: tuple
    n_subgroups: tuple
    a_sets: tuple
    b_sets: tuple


@dataclass(frozen=True)
class SystemReport:
    """Outcome of checking a factorization system's defining conditions plus
    the arithmetic, coset-separation and intersection corollaries."""

    valid: bool
    product_failures: tuple      # (i, j) with Z != A_i x B_j
    kernel_failures_a: tuple     # i with M_i not inside K(A_i)
    kernel_failures_b: tuple
    a_sizes: tuple
    b_sizes: tuple
    arithmetic_ok: bool
    separation_ok: bool
    intersections_trivial: bool


def check_factorization_system(sys: FactorizationSystem) -> SystemReport:
    """Check the defining conditions for every (i, j) plus the corollaries.

    M_i <= K(A_i) is tested on a generating set of M_i, as K(A_i) is a
    subgroup: a translate per generator, and none for a trivial M_i.  A
    system whose definitions pass but whose arithmetic corollaries fail is
    an internal inconsistency and raises.
    """
    G, zmask = sys.z.group, sys.z.mask
    if not _is_subgroup_mask(G, zmask):
        raise NotSubgroup("Z must be a subgroup")
    if zmask & ~center(G).mask:
        raise NotAbelian("Z must be a whole abelian group or a central subgroup")
    if len(sys.m_subgroups) != len(sys.a_sets) or len(sys.n_subgroups) != len(sys.b_sets):
        raise IndexMismatch("index families have different lengths")
    for name, family in zip(
        ("M_i", "N_j", "A_i", "B_j"),
        (sys.m_subgroups, sys.n_subgroups, sys.a_sets, sys.b_sets),
    ):
        for s in family:
            if s.group is not G:
                raise ForeignSubset(f"{name} does not live in Z's group")
            if s.mask & ~zmask:
                raise ContainmentViolated(f"{name} does not lie inside Z")
    gens = {}  # subgroup mask -> its greedy generators
    for name, family in (("M_i", sys.m_subgroups), ("N_j", sys.n_subgroups)):
        for mask in {s.mask for s in family} - gens.keys():
            gens[mask], closure = _generators(G, mask)
            if closure != mask:
                raise NotSubgroup(f"{name} is not a subgroup")

    def kernel_failures(subgroups, sets):
        return tuple(
            i
            for i, (h, s) in enumerate(zip(subgroups, sets))
            if not s.mask or any(_ltrans(G, g, s.mask) != s.mask for g in gens[h.mask])
        )

    nz = len(sys.z)
    product_failures = [
        (i, j)
        for i, a in enumerate(sys.a_sets)
        for j, b in enumerate(sys.b_sets)
        if not _factors_directly(G, a.mask, b.mask, zmask)
    ]
    kernel_failures_a = kernel_failures(sys.m_subgroups, sys.a_sets)
    kernel_failures_b = kernel_failures(sys.n_subgroups, sys.b_sets)
    valid = not product_failures and not kernel_failures_a and not kernel_failures_b

    a_sizes = tuple(len(a) for a in sys.a_sets)
    b_sizes = tuple(len(b) for b in sys.b_sets)
    arithmetic_ok = (
        all(sa * sb == nz for sa in a_sizes for sb in b_sizes)
        and len(set(a_sizes)) <= 1
        and len(set(b_sizes)) <= 1
    )
    if a_sizes:
        m_lcm = lcm(1, *(len(m) for m in sys.m_subgroups))
        arithmetic_ok = arithmetic_ok and a_sizes[0] % m_lcm == 0
    if b_sizes:
        n_lcm = lcm(1, *(len(n) for n in sys.n_subgroups))
        arithmetic_ok = arithmetic_ok and b_sizes[0] % n_lcm == 0

    # the cosets aH, a in A, are distinct iff |AH| = |A||H|
    separation_ok = all(
        _product_mask(G, s.mask, h.mask).bit_count() == len(s) * len(h)
        for sets, subgroups in ((sys.a_sets, sys.n_subgroups), (sys.b_sets, sys.m_subgroups))
        for s in sets
        for h in subgroups
    )

    one = 1 << G.identity
    intersections_trivial = all(
        (mi.mask & nj.mask) == one
        for mi in sys.m_subgroups
        for nj in sys.n_subgroups
    )

    if valid:
        internal_check(
            arithmetic_ok and separation_ok and intersections_trivial,
            "system passes its definition but violates a provable corollary",
        )
    return SystemReport(
        valid,
        tuple(product_failures),
        kernel_failures_a,
        kernel_failures_b,
        a_sizes,
        b_sizes,
        arithmetic_ok,
        separation_ok,
        intersections_trivial,
    )


def system_for_decomposition(
    G: GroupTable,
    cp: CentralDecomposition,
    a_sets: Sequence[Subset],
    b_sets: Sequence[Subset],
) -> FactorizationSystem:
    """Build a system over cp's Z indexed by the Z-orbits of cp, with the
    orbit stabilizers as the prescribed subgroups.  The A_i/B_j are subsets
    of Z in G."""
    if cp.z.group is not G:
        raise SystemMismatch("decomposition is not over this group")
    om, on = cp.m_orbits, cp.n_orbits
    if len(a_sets) != len(om.orbits) or len(b_sets) != len(on.orbits):
        raise SystemMismatch(
            f"need {len(om.orbits)} A-sets and {len(on.orbits)} B-sets"
        )
    return FactorizationSystem(
        cp.z,
        tuple(o.stabilizer for o in om.orbits),
        tuple(o.stabilizer for o in on.orbits),
        tuple(a_sets),
        tuple(b_sets),
    )


def _default_choices(action: ZActionData) -> tuple:
    return tuple(o.classes[0] for o in action.orbits)


def construct_from_system(
    G: GroupTable,
    cp: CentralDecomposition,
    sys: FactorizationSystem,
    choices: Optional[tuple] = None,
) -> SetDirectFactorization:
    """Assemble X = union of A_i C_i and Y = union of B_j D_j and certify.

    The system must be indexed by the Z-orbits on the classes inside M and N
    with the orbit stabilizers as its subgroups; `choices` picks one class
    per orbit (defaults to the minimal class index).
    """
    om, on = cp.m_orbits, cp.n_orbits
    if sys.z.group is not G or sys.z.mask != cp.z.mask:
        raise SystemMismatch("system is not over this decomposition's Z")
    if len(sys.a_sets) != len(om.orbits) or len(sys.b_sets) != len(on.orbits):
        raise SystemMismatch("system index sets do not match the orbit counts")
    for got, orbit in zip(sys.m_subgroups, om.orbits):
        if got.mask != orbit.stabilizer.mask:
            raise SystemMismatch("M_i differs from its orbit stabilizer")
    for got, orbit in zip(sys.n_subgroups, on.orbits):
        if got.mask != orbit.stabilizer.mask:
            raise SystemMismatch("N_j differs from its orbit stabilizer")
    report = check_factorization_system(sys)
    if not report.valid:
        raise SystemMismatch(
            "not a direct factorization system: "
            f"products {report.product_failures}, kernels "
            f"{report.kernel_failures_a}/{report.kernel_failures_b}"
        )

    part = conjugacy_classes(G)
    x_choices = choices[0] if choices else _default_choices(om)
    y_choices = choices[1] if choices else _default_choices(on)
    if len(x_choices) != len(om.orbits) or len(y_choices) != len(on.orbits):
        raise InvalidChoice("one class choice per orbit is required")

    def assemble(action, sets, picked):
        total = 0
        for orbit, s, c in zip(action.orbits, sets, picked):
            if c not in orbit.classes:
                raise InvalidChoice(f"class {c} is not in orbit {orbit.classes}")
            total |= _product_mask(G, s.mask, part.class_mask(c))
        return Subset(G, total)

    X = assemble(om, sys.a_sets, x_choices)
    Y = assemble(on, sys.b_sets, y_choices)
    result = verify_main_theorem(G, X, Y)
    internal_check(result.verdict, "constructed factorization failed to certify")
    return SetDirectFactorization(G, X, Y, True)


def derive_system(G: GroupTable, f: SetDirectFactorization):
    """Recover (cp, system, choices) whose construction rebuilds f exactly.

    <X> and <Y> go to the central-product check unchecked, as in the
    verifier; a pair flagged certified whose <X>, <Y> are not a central
    product raises NotCertified with the reason.  A_i is the slice of X at
    the minimal element of the minimal class of orbit i, and the choice for
    orbit i is that class; likewise for B_j.
    """
    if not f.certified:
        raise NotCertified("cannot derive a system from an uncertified pair")
    M = generated_subgroup(G, f.x)
    N = generated_subgroup(G, f.y)
    check = _central_product(G, M, N)
    if not check:
        raise NotCertified(f"<X>, <Y> are not a central product: {check.reason}")
    cp = check.decomposition
    om, on = cp.m_orbits, cp.n_orbits
    sys = system_for_decomposition(
        G,
        cp,
        tuple(_slices(G, cp.m, f.x.mask, cp.z, om).values()),
        tuple(_slices(G, cp.n, f.y.mask, cp.z, on).values()),
    )
    choices = (_default_choices(om), _default_choices(on))
    return cp, sys, choices


# -- special constructions -----------------------------------------------------


@dataclass(frozen=True)
class TransversalResult:
    """Outcome of the subgroup-times-transversal construction."""

    factorization: Optional[SetDirectFactorization]
    violating_orbit: Optional[ZOrbit]
    class_counts: ClassCountReport

    def __bool__(self) -> bool:
        return self.factorization is not None


def transversal_factorization(G: GroupTable, cp: CentralDecomposition) -> TransversalResult:
    """If Z acts semi-regularly on the classes inside N, return G = M x Y
    with Y one class per orbit; otherwise report the violating orbit.

    The class-count identity k(N) = k(Z) k(N/Z) is evaluated on an explicit
    subgroup view of N either way.
    """
    action = cp.n_orbits
    nview = subgroup_view(G, cp.n)
    counts = class_count_report(nview.table, nview.pull(cp.z))
    one = 1 << G.identity
    for orbit in action.orbits:
        if orbit.stabilizer.mask != one:
            return TransversalResult(None, orbit, counts)
    part = conjugacy_classes(G)
    ymask = 0
    for orbit in action.orbits:
        ymask |= part.class_mask(orbit.classes[0])
    Y = Subset(G, ymask)
    report = verify_main_theorem(G, cp.m, Y)
    internal_check(report.verdict, "semi-regular transversal failed to certify")
    internal_check(counts.multiplicative, "class-count identity failed")
    return TransversalResult(
        SetDirectFactorization(G, cp.m, Y, True), None, counts
    )


@dataclass(frozen=True)
class CyclicFactorizationResult:
    """Outcome of the cyclic-Z construction: a factorization, or provable
    absence witnessed by the commutator-set intersection."""

    factorization: Optional[SetDirectFactorization]
    commutator_intersection: Subset

    def __bool__(self) -> bool:
        return self.factorization is not None


def _is_cyclic_subgroup(G: GroupTable, S: Subset) -> bool:
    return any(
        generated_subgroup(G, G.singleton(x)).mask == S.mask for x in bits(S.mask)
    )


def _self_commutators(G: GroupTable, S: Subset) -> Subset:
    """The commutator set [S, S] of a subgroup S.  It is {1} exactly when
    S is abelian, that is when its greedy generators commute pairwise (the
    centralizer of a set is a subgroup), so only a non-abelian S pays the
    |S|^2 products."""
    mult = G.mult
    gens = _generators(G, S.mask)[0]
    if all(mult[a][b] == mult[b][a] for a in gens for b in gens):
        return G.identity_subset()
    return commutator_set(G, S, S)


def _is_perfect(G: GroupTable) -> bool:
    """Whether G = [G, G].  The derived subgroup is the normal closure of the
    commutators of G's greedy generators, and a subgroup is normal once the
    conjugates of its generators by G's generators lie in it."""
    mult, inv, full = G.mult, G.inv, G.full_mask
    gens = _generators(G, full)[0]
    derived = _generators(G, mask_of(
        mult[mult[inv[a]][inv[b]]][mult[a][b]] for a in gens for b in gens))[1]
    while derived != full:
        conjugates = mask_of(mult[mult[inv[g]][k]][g]
                             for k in _generators(G, derived)[0] for g in gens)
        if not conjugates & ~derived:
            return False
        derived = _generators(G, derived | conjugates)[1]
    return True


def cyclic_center_factorization(
    G: GroupTable,
    cp: CentralDecomposition,
    X0: Subset,
    Y0: Subset,
) -> CyclicFactorizationResult:
    """For cyclic Z and a direct Z = X0 x Y0, build G = X x Y with
    X in M, Y in N, X intersect Z = X0 and Y intersect Z = Y0 when the
    commutator sets of M and N meet trivially; otherwise report absence.

    Absence is provable without the kernel hypotheses, so the commutator
    condition is decided first; the hypotheses [M,M] intersect Z <= K(X0)
    and [N,N] intersect Z <= K(Y0) are enforced only before constructing.
    """
    Z = cp.z
    if not _is_cyclic_subgroup(G, Z):
        raise NotCyclic("the glued subgroup is not cyclic")
    for s in (X0, Y0):
        if s.mask & ~Z.mask:
            raise NotADirectFactorizationOfZ("factors must be subsets of Z")
    if not _factors_directly(G, X0.mask, Y0.mask, Z.mask):
        raise NotADirectFactorizationOfZ("Z is not the direct product X0 x Y0")

    comm_m = _self_commutators(G, cp.m)
    comm_n = _self_commutators(G, cp.n)
    inter = Subset(G, comm_m.mask & comm_n.mask)
    if inter.mask != 1 << G.identity:
        return CyclicFactorizationResult(None, inter)

    if any(_ltrans(G, h, X0.mask) != X0.mask for h in bits(comm_m.mask & Z.mask)):
        raise HypothesisViolated("[M,M] intersect Z does not stabilize X0")
    if any(_ltrans(G, h, Y0.mask) != Y0.mask for h in bits(comm_n.mask & Z.mask)):
        raise HypothesisViolated("[N,N] intersect Z does not stabilize Y0")

    sys = system_for_decomposition(
        G, cp, [X0] * len(cp.m_orbits.orbits), [Y0] * len(cp.n_orbits.orbits)
    )
    f = construct_from_system(G, cp, sys)
    internal_check(
        (f.x.mask & Z.mask) == X0.mask and (f.y.mask & Z.mask) == Y0.mask,
        "constructed factorization does not restrict to (X0, Y0) on Z",
    )
    return CyclicFactorizationResult(f, inter)


def _prime_power(n: int):
    if n < 2:
        return None
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            break
        p += 1
    else:
        p = m
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def prime_power_factorization(G: GroupTable, z: int) -> SetDirectFactorization:
    """Nontrivial factorization from a semi-regular central element of
    order p**k, k >= 2: X0 = <z**p>, Y0 = {1, z, ..., z**(p-1)}, glued over
    <z> with M = G.  Y is never a subgroup; if G is perfect neither is X."""
    if z not in semi_regular_elements(G):
        raise NotSemiRegular("element must be central and fix no class")
    pk = _prime_power(G.element_order(z))
    if pk is None or pk[1] < 2:
        raise OrderNotPrimePowerAtLeastSquare(
            f"order {G.element_order(z)} is not p**k with k >= 2"
        )
    p, _ = pk
    N = generated_subgroup(G, G.singleton(z))
    check = is_central_product(G, G.full_subset(), N)
    internal_check(bool(check), "central cyclic subgroup must give a central product")
    cp = check.decomposition

    zp = z
    for _ in range(p - 1):
        zp = G.mult[zp][z]
    X0 = generated_subgroup(G, G.singleton(zp))
    powers = [G.identity]
    for _ in range(p - 1):
        powers.append(G.mult[powers[-1]][z])
    Y0 = G.subset(powers)

    result = cyclic_center_factorization(G, cp, X0, Y0)
    internal_check(bool(result), "semi-regular prime-power construction failed")
    f = result.factorization
    internal_check(f.is_nontrivial(), "construction produced a trivial pair")
    internal_check(
        not _is_subgroup_mask(G, f.y.mask), "transversal factor is a subgroup"
    )
    if _is_perfect(G):
        internal_check(
            not _is_subgroup_mask(G, f.x.mask),
            "perfect group produced a subgroup factor",
        )
    return f


def normalize(G: GroupTable, f: SetDirectFactorization) -> SetDirectFactorization:
    """Shift a certified full factorization so both factors contain 1.

    Uses a central z with z in X and z^-1 in Y (such an element always
    exists); idempotent on already-normalized inputs."""
    if not f.certified:
        raise NotCertified("normalize requires a certified factorization")
    if not f.covers_group():
        raise NotCertified("normalize requires XY = G")
    if f.is_normalized():
        return f
    zc = center(G).mask & f.x.mask
    candidate = None
    for z in bits(zc):
        if G.inv[z] in f.y:
            candidate = z
            break
    internal_check(candidate is not None, "no central pairing element found")
    X = f.x.translate(G.inv[candidate])
    Y = f.y.translate(candidate)
    report = verify_main_theorem(G, X, Y)
    internal_check(report.verdict, "normalized pair failed to re-certify")
    out = SetDirectFactorization(G, X, Y, True)
    internal_check(out.is_normalized(), "shift did not normalize the pair")
    return out


@dataclass(frozen=True)
class InducedFactorizations:
    """The factorizations M = X x (Y int Z) and N = Y x (X int Z) induced
    inside the factors of a central product, certified in subgroup views."""

    m_view: SubgroupView
    m_factorization: SetDirectFactorization
    n_view: SubgroupView
    n_factorization: SetDirectFactorization


def induced_decompositions(
    G: GroupTable, f: SetDirectFactorization, cp: CentralDecomposition
) -> InducedFactorizations:
    """Certify the induced factorizations of both central-product factors."""
    if not f.certified:
        raise NotCertified("induced decompositions need a certified pair")
    if not f.covers_group():
        raise NotCertified("induced decompositions need XY = G")
    if f.x.mask & ~cp.m.mask or f.y.mask & ~cp.n.mask:
        raise ContainmentViolated("X must lie in M and Y in N")

    def induced(side_sub, inner, other):
        view = subgroup_view(G, side_sub)
        a = view.pull(inner)
        b = view.pull(Subset(G, other.mask & cp.z.mask))
        report = verify_main_theorem(view.table, a, b)
        internal_check(report.verdict, "induced factorization failed to certify")
        return view, SetDirectFactorization(view.table, a, b, True)

    m_view, mf = induced(cp.m, f.x, f.y)
    n_view, nf = induced(cp.n, f.y, f.x)
    return InducedFactorizations(m_view, mf, n_view, nf)
