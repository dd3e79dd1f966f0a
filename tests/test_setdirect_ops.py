"""Directness tests, the structural verifier, factorization systems,
and the constructive routines."""

import hashlib
import itertools
import random
from dataclasses import fields

import pytest

from setdirect import central, factor

from setdirect.catalog import (
    catalog_group,
    catalog_names,
    central_product_entry,
    cyclic,
    cyclic_product,
    dihedral,
    exponent_index,
    quaternion,
    symmetric,
)
from setdirect.central import (
    central_subgroups,
    enumerate_central_decompositions,
    is_central_product,
    normal_subgroups,
    semi_regular_elements,
    z_orbits,
)
from setdirect.errors import (
    ContainmentViolated,
    EmptySet,
    ForeignSubset,
    GroupError,
    HypothesisViolated,
    IndexMismatch,
    InvalidChoice,
    NotAbelian,
    NotADirectFactorizationOfZ,
    NotCertified,
    NotNormal,
    NotSemiRegular,
    NotSubgroup,
    OrderNotPrimePowerAtLeastSquare,
    SystemMismatch,
)
from setdirect.factor import (
    FactorizationSystem,
    SetDirectFactorization,
    certify,
    check_factorization_system,
    construct_from_system,
    cyclic_center_factorization,
    derive_system,
    induced_decompositions,
    is_direct,
    kernel,
    normalize,
    prime_power_factorization,
    system_for_decomposition,
    transversal_factorization,
    verify_main_theorem,
)
from setdirect.groups import (
    _MEMO_HELD,
    Subset,
    _generators,
    bits,
    center,
    commutator_set,
    conjugacy_classes,
    generated_subgroup,
    mask_of,
    subgroup_view,
)
from setdirect.oracle import enumerate_setdirect

from helpers import fresh_copy, naive_is_direct, reference_directness

SMALL_CATALOG = [n for n in catalog_names() if catalog_group(n).order <= 32]


class TestIsDirect:
    def test_identity_times_group(self):
        g = symmetric(4)
        rep = is_direct(g, g.identity_subset(), g.full_subset())
        assert rep.verdict

    def test_d10_class_pair(self):
        g = dihedral(10)
        rep = is_direct(g, g.subset([1, 4]), g.subset([2, 3]))
        assert rep.verdict
        assert rep.multiplicity_ok and rep.difference_ok
        assert rep.partition_ok and rep.cardinality_ok

    def test_s3_cycles_times_transpositions(self):
        g = symmetric(3)
        part = conjugacy_classes(g)
        cyc = next(c for c in part.classes if len(c) == 2)
        tra = next(c for c in part.classes if len(c) == 3)
        rep = is_direct(g, cyc, tra)
        assert not rep.verdict

    def test_rejects_nonnormal(self):
        g = symmetric(3)
        with pytest.raises(NotNormal):
            is_direct(g, g.subset([g.index_of_label("(0 1)")]), g.full_subset())

    def test_rejects_empty(self):
        g = cyclic(3)
        with pytest.raises(EmptySet):
            is_direct(g, g.empty_subset(), g.full_subset())


class TestForeignFactors:
    """A factor of another table is refused at the boundary, before any
    lookup: a subset of C8 given with G = C4 once ended in an IndexError,
    and one of a second C4 table was judged as if it were G's."""

    @pytest.mark.parametrize("check", [is_direct, verify_main_theorem, is_central_product])
    @pytest.mark.parametrize("table, members", [(lambda: cyclic(8), [0, 4]),
                                                (lambda: cyclic(4), [0, 2])],
                             ids=["larger table", "twin table"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_a_foreign_factor_is_refused(self, check, table, members, side):
        g = cyclic(4)
        other = table()
        assert other is not g
        pair = [g.full_subset(), g.full_subset()]
        pair[side] = other.subset(members)
        with pytest.raises(ForeignSubset, match="different group than C4"):
            check(g, *pair)


class TestVerifyMainTheorem:
    def test_c4_positive(self):
        g = cyclic(4)
        rep = verify_main_theorem(g, g.subset([0, 2]), g.subset([0, 1]))
        assert rep.verdict
        assert rep.m.members() == (0, 2)
        assert rep.n.members() == (0, 1, 2, 3)
        assert rep.z.members() == (0, 2)
        for sl in rep.x_slices.values():
            assert sl.members() == (0, 2)
        for sl in rep.y_slices.values():
            assert len(sl) == 1

    def test_degenerate_full_times_identity(self):
        g = quaternion(8)
        rep = verify_main_theorem(g, g.full_subset(), g.identity_subset())
        assert rep.verdict
        assert rep.z.members() == (0,)

    def test_nonnormal_errors(self):
        g = symmetric(3)
        a3 = generated_subgroup(g, g.subset([g.index_of_label("(0 1 2)")]))
        y = g.subset([0, g.index_of_label("(0 1)")])
        with pytest.raises(NotNormal):
            verify_main_theorem(g, a3, y)

    def test_collision_pair(self):
        g = cyclic(4)
        rep = verify_main_theorem(g, g.subset([0, 1]), g.subset([0, 1]))
        assert not rep.verdict
        assert rep.condition_a and not rep.condition_b
        assert rep.b_witness is not None

    def test_direct_but_not_covering(self):
        g = dihedral(10)
        rep = verify_main_theorem(g, g.subset([1, 4]), g.subset([2, 3]))
        assert not rep.verdict
        assert not rep.product_is_group
        assert rep.central_failure == "ProductNotG"

    def test_empty_slice_reported(self):
        # X misses the coset of Z inside M entirely only when XY != G;
        # build one via a sparse normal subset of C8
        g = cyclic(8)
        rep = verify_main_theorem(g, g.subset([2, 6]), g.subset([0, 4]))
        assert not rep.verdict
        assert any(not s.mask for s in rep.x_slices.values()) or rep.b_witness


def _sized_class_union(part, size, rng):
    """A union of classes of exactly `size` elements holding the identity
    class, taken greedily over the classes in random order; None if the
    greedy pass misses the size."""
    order = list(range(1, len(part)))
    rng.shuffle(order)
    mask, left = part.class_mask(0), size - len(part.classes[0])
    for c in order:
        if 0 < len(part.classes[c]) <= left:
            mask |= part.class_mask(c)
            left -= len(part.classes[c])
    return mask if left == 0 else None


def _verifier_pairs(G, rng):
    """Normalized class unions with |X||Y| = |G| (the positives among
    them), arbitrary class unions (mostly negative), and (G, {1}), ({1}, G)."""
    part = conjugacy_classes(G)
    k, n = len(part), G.order
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    pairs = []
    for _ in range(60):
        d = rng.choice(divisors)
        x, y = _sized_class_union(part, d, rng), _sized_class_union(part, n // d, rng)
        if x is not None and y is not None:
            pairs.append((x, y))
    for _ in range(60):
        pairs.append(tuple(mask_of(e for c in rng.sample(range(k), rng.randint(1, k))
                                   for e in part.classes[c]) for _ in "xy"))
    one = 1 << G.identity
    return pairs + [(G.full_mask, one), (one, G.full_mask)]


def test_verifier_reports_are_pinned():
    # every report field of verify_main_theorem and is_direct, the slices in
    # their order, on seeded class-union pairs of every catalog group of
    # order <= 32; SHA-256 taken when each slice pair, system product and
    # difference were computed one index pair at a time
    digest, pairs, positive = hashlib.sha256(), 0, 0
    for name in SMALL_CATALOG:
        G = catalog_group(name)
        rng = random.Random(f"verifier {name}")
        for xm, ym in _verifier_pairs(G, rng):
            X, Y = Subset(G, xm), Subset(G, ym)
            r = verify_main_theorem(G, X, Y)
            slices = [[(m, s.mask) for m, s in side.items()]
                      for side in (r.x_slices, r.y_slices)]
            digest.update(
                f"{name} {xm} {ym} {r.m.mask} {r.n.mask} {r.z.mask} {r.condition_a} "
                f"{r.central_failure} {slices} {r.condition_b} {r.b_witness} "
                f"{r.product_is_group} {r.verdict} {is_direct(G, X, Y)!r}\n".encode())
            pairs += 1
            positive += r.verdict
    assert (pairs, positive) == (7064, 2516)
    assert digest.hexdigest() == (
        "bc98ab8db33ec58a4f8009834d7645bea58e0fc882da5a4ff366e22ec7515b9a")


def _directness_pairs(G, rng):
    """Oracle-listed positive pairs in both orders, random class unions
    (mostly negative), and pairs with |X||Y| > |G|."""
    listed = enumerate_setdirect(G, normalized_only=True).factorizations
    pairs = []
    for f in rng.sample(listed, min(15, len(listed))):
        pairs += [(f.x, f.y), (f.y, f.x)]
    part = conjugacy_classes(G)
    k = len(part)

    def union(size):
        return Subset(G, mask_of(x for c in rng.sample(range(k), size) for x in part.classes[c]))

    for _ in range(30):
        pairs.append((union(rng.randint(1, k)), union(rng.randint(1, k))))
    for _ in range(10):  # few classes each: |X||Y| <= |G| more often
        pairs.append((union(rng.randint(1, min(2, k))), union(rng.randint(1, min(3, k)))))
    if G.order > 1:
        pairs.append((G.full_subset(), union(rng.randint(1, k))))
    return pairs


class TestDirectnessAgainstReference:
    """The criteria stop at their answers; the reports must equal those of
    the criteria computed in full, on every kind of pair."""

    @pytest.mark.parametrize("name", SMALL_CATALOG)
    def test_reports_and_cover_match_reference(self, name):
        G = catalog_group(name)
        rng = random.Random(f"directness {name}")
        seen = set()
        for X, Y in _directness_pairs(G, rng):
            xs, ys = X.members(), Y.members()
            rep = is_direct(G, X, Y)
            assert rep == reference_directness(G, xs, ys), (xs, ys)
            covers = {G.mult[x][y] for x in xs for y in ys} == set(range(G.order))
            assert verify_main_theorem(G, X, Y).product_is_group == covers, (xs, ys)
            seen.add((rep.verdict, len(xs) * len(ys) > G.order))
        assert (True, False) in seen
        if G.order > 1:
            assert (False, True) in seen


class _Row:
    """A table row that records each lookup as (g, column), g its element."""

    __slots__ = ("g", "row", "reads")

    def __init__(self, g, row, reads):
        self.g, self.row, self.reads = g, row, reads

    def __getitem__(self, c):
        self.reads.append((self.g, c))
        return self.row[c]


class TestDifferenceCriterion:
    """_differences_meet_trivially against XX^-1 intersect YY^-1 = {1}, and
    its walk, read from the lookups it makes in a table whose rows record
    them.  It grows D = SS^-1 minus 1, S the smaller side, one translate at
    a time (|S|^2 lookups in all), tests each class of D with |L| lookups,
    L the larger side, and once |L| classes have passed builds the rest of
    D and scans LL^-1 (|L|^2 lookups); a False answer stops at its
    witness."""

    @staticmethod
    def _recording(G):
        """A copy of G whose rows record their lookups, and the record;
        the classes are computed before the rows are swapped."""
        G = fresh_copy(G)
        conjugacy_classes(G)
        reads = []
        G.mult = tuple(_Row(g, row, reads) for g, row in enumerate(G.mult))
        return G, reads

    @pytest.mark.parametrize("name", ["S3", "D8", "Q8", "D10", "A4", "Q8oC4"])
    def test_matches_the_definition(self, name):
        G = catalog_group(name)
        part = conjugacy_classes(G)
        mult, inv, one = G.mult, G.inv, G.identity
        k = len(part)
        # every class union; on Q8oC4 (10 classes, 8.3 s for every pair) the
        # unions that hold 1, in unordered pairs: a union meeting the centre
        # in z has the difference set of the normalized union z^-1 X
        first = 1 if name == "Q8oC4" else 0
        unions = [tuple(sorted(e for c in (0,) * first + picked for e in part.classes[c]))
                  for r in range(1 - first, k - first + 1)
                  for picked in itertools.combinations(range(first, k), r)]
        diffs = [{mult[a][inv[b]] for a in u for b in u} for u in unions]
        counted, reads = self._recording(G)
        seen = set()
        for i, xs in enumerate(unions):
            for j in range(i if first else 0, len(unions)):
                ys = unions[j]
                reads.clear()
                got = factor._differences_meet_trivially(counted, xs, ys)
                assert got == (diffs[i] & diffs[j] == {one}), (xs, ys)
                small, large = sorted((i, j), key=lambda t: len(unions[t]))
                d, lset = diffs[small] - {one}, set(unions[large])
                classes = len({part.class_of[x] for x in d})
                ns, nl = len(unions[small]), len(unions[large])
                scanned = classes >= nl
                walk = ns * ns + nl * min(classes, nl) + nl * nl * scanned
                if got:  # every translate, every class tested, every scan
                    assert len(reads) == walk, (xs, ys)
                else:  # the last lookup is a witness: d l in L, or l1 l2^-1 in D
                    assert len(reads) <= walk, (xs, ys)
                    g, c = reads[-1]
                    p = mult[g][c]
                    assert (g in d and c in lset and p in lset
                            or g in lset and inv[c] in lset and p in d), (xs, ys)
                seen.add((got, scanned))
        assert {scanned for _, scanned in seen} == (
            {False, True} if name == "Q8oC4" else {False})
        assert {got for got, _ in seen} == {False, True}

    def test_group_times_identity_scans_nothing(self):
        G, reads = self._recording(symmetric(5))
        full, one = G.full_subset().members(), (G.identity,)
        assert factor._differences_meet_trivially(G, full, one)
        assert factor._differences_meet_trivially(G, one, full)
        # each call builds D = {1}{1}^-1 minus 1 with one lookup; D is
        # empty, so no class is tested and G is not scanned
        assert reads == [(G.identity, G.identity)] * 2

    def test_the_scan_builds_the_translates_left(self):
        # S = {0, 1, 3} and L = {0, 4, 8} in C20: D = {±1, ±2, ±3} misses
        # LL^-1 = {0, ±4, ±8}.  The first two translates bring |L| classes
        # of D, so the third is built before the scan: 9 lookups for D, 9
        # for the classes tested, 9 for the scan.  Dropping that translate
        # would change this count and no answer: each of its elements has
        # its inverse in another translate, and LL^-1 is symmetric.
        G, reads = self._recording(cyclic(20))
        assert factor._differences_meet_trivially(G, (0, 1, 3), (0, 4, 8))
        assert len(reads) == 27

    def test_a_witness_in_the_first_translate_stops_the_walk(self):
        # X = Y = C32: the first translate 1 G^-1 is all of D, and the first
        # class tested, {d}, has dG meet G at once; the parent's walk built
        # all of D and translated G by every d, |G|^2 lookups and more
        G, reads = self._recording(cyclic(32))
        full = G.full_subset().members()
        assert not factor._differences_meet_trivially(G, full, full)
        assert len(reads) <= 2 * G.order


class TestKernel:
    def test_full_set(self):
        z = cyclic(6)
        assert kernel(z, z.full_subset()).mask == z.full_mask

    def test_singleton(self):
        z = cyclic(6)
        assert kernel(z, z.subset([4])).members() == (0,)

    def test_c6_half(self):
        z = cyclic(6)
        assert kernel(z, z.subset([0, 3])).members() == (0, 3)

    def test_rejects_nonabelian(self):
        g = symmetric(3)
        with pytest.raises(NotAbelian):
            kernel(g, g.identity_subset())

    def test_rejects_empty(self):
        z = cyclic(4)
        with pytest.raises(EmptySet):
            kernel(z, z.empty_subset())


@pytest.mark.parametrize("call", ["kernel", "check_factorization_system", "union"])
def test_a_subset_of_another_table_raises_a_group_error(call):
    z, other = cyclic(4), cyclic(4)
    foreign = other.subset([0, 2])
    with pytest.raises(GroupError) as info:
        if call == "kernel":
            kernel(z, foreign)
        elif call == "check_factorization_system":
            one = z.identity_subset()
            sys_ = FactorizationSystem(
                z.full_subset(), (one,), (one,), (foreign,), (z.subset([0, 1]),)
            )
            check_factorization_system(sys_)
        else:
            z.subset([0, 1]) | foreign
    # still the ValueError it always was, for callers that catch that
    assert isinstance(info.value, ValueError)


class TestFactorizationSystems:
    def test_c4_valid(self):
        z = cyclic(4)
        sys_ = FactorizationSystem(
            z.full_subset(),
            (z.subset([0]),),
            (z.subset([0]),),
            (z.subset([0, 2]),),
            (z.subset([0, 1]),),
        )
        rep = check_factorization_system(sys_)
        assert rep.valid
        assert rep.arithmetic_ok and rep.separation_ok and rep.intersections_trivial

    def test_obstruction_case_sizes(self):
        orders = [3, 3, 2]
        z = cyclic_product(orders)
        g1 = exponent_index(orders, (1, 0, 0))
        y1 = exponent_index(orders, (1, 0, 1))
        y2 = exponent_index(orders, (0, 1, 1))
        a = generated_subgroup(z, z.subset([g1]))
        b = z.subset([0, y1, y2])
        sys_ = FactorizationSystem(
            z.full_subset(), (z.subset([0]),), (z.subset([0]),), (a,), (b,)
        )
        rep = check_factorization_system(sys_)
        assert not rep.valid
        assert rep.product_failures == ((0, 0),)

    def test_positive_transversal_case(self):
        orders = [3, 2, 2]
        z = cyclic_product(orders)
        g1 = exponent_index(orders, (1, 0, 0))
        y = z.subset(
            [
                0,
                exponent_index(orders, (1, 1, 0)),
                exponent_index(orders, (1, 0, 1)),
                exponent_index(orders, (1, 1, 1)),
            ]
        )
        a = generated_subgroup(z, z.subset([g1]))
        sys_ = FactorizationSystem(z.full_subset(), (a,), (z.subset([0]),), (a,), (y,))
        rep = check_factorization_system(sys_)
        assert rep.valid

    def test_index_mismatch(self):
        z = cyclic(4)
        sys_ = FactorizationSystem(
            z.full_subset(), (), (z.subset([0]),), (z.subset([0, 2]),), ()
        )
        with pytest.raises(IndexMismatch):
            check_factorization_system(sys_)

    def test_rejects_a_set_outside_z(self):
        g = cyclic(8)
        cp = is_central_product(g, g.full_subset(), g.subset([0, 4])).decomposition
        sys_ = system_for_decomposition(
            g, cp, [g.subset([0, 1])] * len(cp.m_orbits.orbits), [g.identity_subset()]
        )
        with pytest.raises(ContainmentViolated, match="A_i"):
            check_factorization_system(sys_)

    def test_rejects_z_that_is_not_a_subgroup(self):
        z = cyclic(4)
        one = z.identity_subset()
        sys_ = FactorizationSystem(z.subset([0, 1]), (one,), (one,), (one,), (one,))
        with pytest.raises(NotSubgroup):
            check_factorization_system(sys_)

    @pytest.mark.parametrize("family", ["M_i", "N_j"])
    @pytest.mark.parametrize("members", [[0, 1], [1]], ids=["not-closed", "no-identity"])
    def test_rejects_m_or_n_that_is_not_a_subgroup(self, family, members):
        z = cyclic(4)
        one, bad = z.identity_subset(), z.subset(members)
        if family == "M_i":
            sys_ = FactorizationSystem(z.full_subset(), (bad,), (one,), (z.full_subset(),), (one,))
        else:
            sys_ = FactorizationSystem(z.full_subset(), (one,), (bad,), (one,), (z.full_subset(),))
        with pytest.raises(NotSubgroup, match=family):
            check_factorization_system(sys_)

    def test_decomposition_over_another_table_is_rejected(self):
        g = cyclic(4)
        cp = is_central_product(g, g.full_subset(), g.full_subset()).decomposition
        other = fresh_copy(g)  # the same group as another table
        with pytest.raises(SystemMismatch, match="not over this group"):
            system_for_decomposition(other, cp, [g.subset([0, 2])], [g.subset([0, 1])])
        assert system_for_decomposition(g, cp, [g.subset([0, 2])], [g.subset([0, 1])]).z is cp.z

    def test_rejects_a_non_abelian_z(self):
        g = symmetric(3)
        one = g.identity_subset()
        sys_ = FactorizationSystem(g.full_subset(), (one,), (one,), (g.full_subset(),), (one,))
        with pytest.raises(NotAbelian, match="central subgroup"):
            check_factorization_system(sys_)


def _translate(g, x, mask):
    return mask_of(g.mult[x][a] for a in bits(mask))


def _random_system(g, z, subgroups, rng):
    """A system over z with Z = H x T for a random subgroup H of Z and a
    transversal T of it: the A-sets and B-sets are translates of H and T by
    random elements of Z, the subgroups lie in H or are trivial or are drawn
    at random, one in three systems has a set replaced by a random subset of
    Z, and half of them swap the two sides."""
    zmem, one = z.members(), 1 << g.identity
    h = rng.choice(subgroups).mask
    t = covered = 0
    for x in rng.sample(zmem, len(zmem)):
        coset = _translate(g, x, h)
        if not coset & covered:
            t |= 1 << x
            covered |= coset
    a_sets = [_translate(g, rng.choice(zmem), h) for _ in range(rng.randint(1, 3))]
    b_sets = [_translate(g, rng.choice(zmem), t) for _ in range(rng.randint(1, 3))]
    below_h = [s.mask for s in subgroups if s.mask & ~h == 0]
    m_subs = [
        rng.choice(below_h) if rng.random() < 0.8 else rng.choice(subgroups).mask
        for _ in a_sets
    ]
    n_subs = [one if rng.random() < 0.6 else rng.choice(subgroups).mask for _ in b_sets]
    if rng.random() < 1 / 3:
        family = rng.choice((a_sets, b_sets))
        family[rng.randrange(len(family))] = rng.getrandbits(g.order) & z.mask
    sides = [(m_subs, a_sets), (n_subs, b_sets)]
    if rng.random() < 0.5:
        sides.reverse()
    (m_subs, a_sets), (n_subs, b_sets) = sides
    return FactorizationSystem(
        z, *(tuple(Subset(g, m) for m in f) for f in (m_subs, n_subs, a_sets, b_sets))
    )


def test_system_reports_are_pinned():
    # 40 seeded systems on every central subgroup of every catalog group of
    # order <= 32: 8280 reports, valid and failing ones
    digest, valid = hashlib.sha256(), 0
    systems = 0
    for name in SMALL_CATALOG:
        g = catalog_group(name)
        rng = random.Random(f"systems {name}")
        central = central_subgroups(g)
        for z in central:
            subgroups = [s for s in central if s.mask & ~z.mask == 0]
            for _ in range(40):
                report = check_factorization_system(_random_system(g, z, subgroups, rng))
                digest.update(f"{name},{z.mask},{report!r}\n".encode())
                valid += report.valid
                systems += 1
    assert (systems, valid) == (8280, 4717)
    assert digest.hexdigest() == (
        "dd8bd319216e5824ab52f4ec1ca3557dd3f94ab2ec76a72353978b9200969640")


DIFFERENTIAL_GROUPS = [
    n for n in catalog_names() if catalog_group(n).order <= 24
] + ["Q8oC4", "D8oC4"]


@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_systems_in_g_report_as_their_copies_in_a_table_of_z(name):
    # the reference copy of each derived system lives in Z as its own table
    G = catalog_group(name)
    views = {}
    pairs = enumerate_setdirect(G, normalized_only=True).factorizations
    assert pairs
    for f in pairs:
        cp, sys_, choices = derive_system(G, f)
        if cp.z.mask not in views:
            views[cp.z.mask] = subgroup_view(G, cp.z)
        view = views[cp.z.mask]
        copy = FactorizationSystem(
            view.table.full_subset(),
            *(
                tuple(view.pull(s) for s in family)
                for family in (sys_.m_subgroups, sys_.n_subgroups, sys_.a_sets, sys_.b_sets)
            ),
        )
        got = check_factorization_system(sys_)
        assert got.valid
        assert _report_fields(got) == _report_fields(check_factorization_system(copy))
        rebuilt = construct_from_system(G, cp, sys_, choices)
        assert (rebuilt.x.mask, rebuilt.y.mask) == (f.x.mask, f.y.mask)


class TestConstructFromSystem:
    def test_trivial_decomposition(self):
        g = quaternion(8)
        cp = is_central_product(g, g.full_subset(), g.identity_subset()).decomposition
        om = z_orbits(g, cp.m, cp.z)
        on = z_orbits(g, cp.n, cp.z)
        sys_ = system_for_decomposition(
            g,
            cp,
            [g.identity_subset()] * len(om.orbits),
            [g.identity_subset()] * len(on.orbits),
        )
        f = construct_from_system(g, cp, sys_)
        assert f.certified
        assert f.y.members() == (0,)
        assert len(f.x) == 8

    def test_c4_reconstruction(self):
        g = cyclic(4)
        m = g.subset([0, 2])
        cp = is_central_product(g, g.full_subset(), g.full_subset()).decomposition
        om = z_orbits(g, cp.m, cp.z)
        sys_ = system_for_decomposition(
            g, cp, [g.subset([0, 2])], [g.subset([0, 1])]
        )
        f = construct_from_system(g, cp, sys_)
        assert f.certified
        assert f.unordered_key() == (
            g.subset([0, 1]).mask,
            g.subset([0, 2]).mask,
        )

    def test_q8oc4_constant_system(self):
        emb = central_product_entry("q8oc4")
        g = emb.group
        cp = is_central_product(g, emb.m_image, emb.n_image).decomposition
        om = z_orbits(g, cp.m, cp.z)
        on = z_orbits(g, cp.n, cp.z)
        sys_ = system_for_decomposition(
            g,
            cp,
            [cp.z] * len(om.orbits),
            [g.identity_subset()] * len(on.orbits),
        )
        f = construct_from_system(g, cp, sys_)
        assert f.certified
        assert len(f.x) * len(f.y) == 16

    def test_wrong_stabilizers_rejected(self):
        emb = central_product_entry("q8oc4")
        g = emb.group
        cp = is_central_product(g, emb.m_image, emb.n_image).decomposition
        om = z_orbits(g, cp.m, cp.z)
        on = z_orbits(g, cp.n, cp.z)
        # A_i = {1} cannot absorb the nontrivial orbit stabilizers on the
        # quaternion side, so the system definition fails
        with pytest.raises(SystemMismatch):
            construct_from_system(
                g,
                cp,
                system_for_decomposition(
                    g,
                    cp,
                    [g.identity_subset()] * len(om.orbits),
                    [cp.z] * len(on.orbits),
                ),
            )

    def test_invalid_choice(self):
        g = cyclic(4)
        cp = is_central_product(g, g.full_subset(), g.full_subset()).decomposition
        sys_ = system_for_decomposition(g, cp, [g.subset([0, 2])], [g.subset([0, 1])])
        with pytest.raises(InvalidChoice):
            construct_from_system(g, cp, sys_, ((99,), (0,)))

    def test_rejects_system_over_another_groups_z(self):
        g = cyclic(4)
        cp = is_central_product(g, g.full_subset(), g.full_subset()).decomposition
        other = fresh_copy(g)  # the same group as another table
        sys_ = FactorizationSystem(
            other.full_subset(),
            (other.identity_subset(),),
            (other.identity_subset(),),
            (other.subset([0, 2]),),
            (other.subset([0, 1]),),
        )
        assert check_factorization_system(sys_).valid
        with pytest.raises(SystemMismatch, match="not over this decomposition"):
            construct_from_system(g, cp, sys_)

    def test_rejects_system_over_another_decompositions_z(self):
        g = cyclic(4)
        over_c4 = is_central_product(g, g.full_subset(), g.full_subset()).decomposition
        over_half = is_central_product(g, g.full_subset(), g.subset([0, 2])).decomposition
        sys_ = system_for_decomposition(
            g, over_c4, [g.subset([0, 2])], [g.subset([0, 1])]
        )
        with pytest.raises(SystemMismatch, match="not over this decomposition"):
            construct_from_system(g, over_half, sys_)

    def test_rejects_m_subgroup_other_than_its_orbit_stabilizer(self):
        # Over Z(Q8) the orbits of {+-i}, {+-j}, {+-k} have stabilizer Z;
        # trivial M_i with A_i = Z and B_j = {1} is still a valid system
        # with the right orbit counts.
        g = quaternion(8)
        cp = is_central_product(g, g.full_subset(), center(g)).decomposition
        trivial = g.identity_subset()
        m_count = len(z_orbits(g, cp.m, cp.z).orbits)
        n_count = len(z_orbits(g, cp.n, cp.z).orbits)
        sys_ = FactorizationSystem(
            cp.z,
            (trivial,) * m_count,
            (trivial,) * n_count,
            (cp.z,) * m_count,
            (trivial,) * n_count,
        )
        assert check_factorization_system(sys_).valid
        with pytest.raises(SystemMismatch, match="M_i differs"):
            construct_from_system(g, cp, sys_)


class TestTransversal:
    def test_abelian_factor_always_works(self):
        emb = central_product_entry("q8oc4")
        g = emb.group
        cp = is_central_product(g, emb.m_image, emb.n_image).decomposition
        res = transversal_factorization(g, cp)
        assert res
        assert res.factorization.x.mask == cp.m.mask
        assert res.class_counts.multiplicative

    def test_q8_negative(self):
        g = quaternion(8)
        cp = is_central_product(g, center(g), g.full_subset()).decomposition
        res = transversal_factorization(g, cp)
        assert not res
        assert res.class_counts.k_g == 5
        assert res.class_counts.k_z * res.class_counts.k_quotient == 8
        assert res.violating_orbit is not None

    def test_trivial_z(self):
        g = symmetric(4)
        cp = is_central_product(g, g.full_subset(), g.identity_subset()).decomposition
        res = transversal_factorization(g, cp)
        assert res
        assert res.factorization.y.members() == (0,)


class TestCyclicCenter:
    def test_q8oc4_succeeds(self):
        emb = central_product_entry("q8oc4")
        g = emb.group
        cp = is_central_product(g, emb.m_image, emb.n_image).decomposition
        res = cyclic_center_factorization(g, cp, cp.z, g.identity_subset())
        assert res
        f = res.factorization
        assert (f.x.mask & cp.z.mask) == cp.z.mask
        assert (f.y.mask & cp.z.mask) == 1 << g.identity

    def test_q8oq8_absent(self):
        emb = central_product_entry("q8oq8")
        g = emb.group
        cp = is_central_product(g, emb.m_image, emb.n_image).decomposition
        res = cyclic_center_factorization(g, cp, cp.z, g.identity_subset())
        assert not res
        assert len(res.commutator_intersection) == 2

    def test_trivial_z(self):
        g = symmetric(3)
        cp = is_central_product(g, g.full_subset(), g.identity_subset()).decomposition
        res = cyclic_center_factorization(
            g, cp, g.identity_subset(), g.identity_subset()
        )
        assert res
        assert res.factorization.x.mask == g.full_mask

    def test_bad_z_factorization(self):
        emb = central_product_entry("q8oc4")
        g = emb.group
        cp = is_central_product(g, emb.m_image, emb.n_image).decomposition
        with pytest.raises(NotADirectFactorizationOfZ):
            cyclic_center_factorization(g, cp, cp.z, cp.z)

    def test_hypothesis_violated(self):
        # commutator condition passes but X0 cannot absorb [M,M] & Z
        emb = central_product_entry("q8oc4")
        g = emb.group
        cp = is_central_product(g, emb.m_image, emb.n_image).decomposition
        with pytest.raises(HypothesisViolated):
            cyclic_center_factorization(g, cp, g.identity_subset(), cp.z)


class TestPrimePower:
    @pytest.mark.parametrize("n,p", [(4, 2), (8, 2), (9, 3), (16, 2), (27, 3), (729, 3)])
    def test_cyclic_prime_powers(self, n, p):
        g = cyclic(n)
        f = prime_power_factorization(g, 1)
        assert f.certified
        assert f.is_nontrivial()
        assert f.x.members() == tuple(range(0, n, p))
        assert f.y.members() == tuple(range(p))

    def test_c4(self):
        g = cyclic(4)
        f = prime_power_factorization(g, 1)
        assert f.x.members() == (0, 2) and f.y.members() == (0, 1)

    def test_c9(self):
        g = cyclic(9)
        f = prime_power_factorization(g, 1)
        assert f.x.members() == (0, 3, 6) and f.y.members() == (0, 1, 2)
        prod, counts = __import__("setdirect.groups", fromlist=["set_product"]).set_product(
            g, f.x, f.y
        )
        assert len(prod) == 9 and all(v == 1 for v in counts.values())

    def test_q8_minus_one_rejected(self):
        g = quaternion(8)
        with pytest.raises(NotSemiRegular):
            prime_power_factorization(g, 2)

    def test_prime_order_rejected(self):
        g = cyclic(6)
        # z^2 has order 3 (prime) and is semi-regular in the abelian group
        with pytest.raises(OrderNotPrimePowerAtLeastSquare):
            prime_power_factorization(g, 2)

    def test_q8oc4_semiregular_element(self):
        g = central_product_entry("q8oc4").group
        from setdirect.central import semi_regular_elements

        z = min(semi_regular_elements(g).members())
        f = prime_power_factorization(g, z)
        assert f.certified and f.is_nontrivial()
        from setdirect.groups import _is_subgroup_mask

        assert not _is_subgroup_mask(g, f.y.mask)


def _commutator_fact_lines():
    """One line per prime_power_factorization call on each semi-regular
    element, and per cyclic_center_factorization call on each pair of
    subsets X0, Y0 holding 1 with |X0||Y0| = |Z|, Z cyclic of order <= 8,
    over the central decompositions of catalog groups of order <= 32: the
    masks built, the absence witness, or the error raised."""
    lines = []
    for name in catalog_names():
        g = catalog_group(name)
        if g.order > 32:
            continue
        for z in semi_regular_elements(g).members():
            try:
                f = prime_power_factorization(g, z)
                lines.append(f"{name} pp {z} {f.x.mask} {f.y.mask}")
            except GroupError as exc:
                lines.append(f"{name} pp {z} {type(exc).__name__}")
        for cp in enumerate_central_decompositions(g):
            zm = cp.z.members()
            if len(zm) > 8 or not any(
                    generated_subgroup(g, g.singleton(x)).mask == cp.z.mask for x in zm):
                continue
            others = [x for x in zm if x != g.identity]
            subsets = [mask_of(c) | 1 << g.identity
                       for r in range(len(others) + 1)
                       for c in itertools.combinations(others, r)]
            for a in subsets:
                for b in subsets:
                    if a.bit_count() * b.bit_count() != len(zm):
                        continue
                    try:
                        res = cyclic_center_factorization(g, cp, Subset(g, a), Subset(g, b))
                    except GroupError as exc:
                        out = type(exc).__name__
                    else:
                        out = (f"{res.factorization.x.mask} {res.factorization.y.mask}"
                               if res else "absent") + f" {res.commutator_intersection.mask}"
                    lines.append(f"{name} cyc {cp.m.mask} {cp.n.mask} {a} {b} {out}")
    return lines


def test_commutator_facts_are_pinned():
    # 4 266 lines: 124 prime-power factorizations, 733 cyclic-centre ones,
    # 20 absences and the errors; SHA-256 taken when every commutator fact
    # came from a whole-table commutator set
    lines = _commutator_fact_lines()
    assert len(lines) == 4266
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "5d6576ba444a687c1df4ffe9d64c0feb806cc567883ed56cb376e81caf1108bf")


@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog_group(n).order <= 64])
def test_perfectness_from_generators_matches_the_commutator_set(name):
    g = catalog_group(name)
    whole = generated_subgroup(g, commutator_set(g, g.full_subset(), g.full_subset()))
    assert factor._is_perfect(g) == (whole.mask == g.full_mask)


class TestNormalize:
    def test_idempotent(self):
        g = cyclic(4)
        f = certify(g, g.subset([0, 2]), g.subset([0, 1]))
        assert normalize(g, f) is normalize(g, normalize(g, f))

    def test_shifted_pair(self):
        g = cyclic(4)
        f = certify(g, g.subset([1, 3]), g.subset([0, 1]))
        nf = normalize(g, f)
        assert nf.is_normalized()
        assert nf.x.members() == (0, 2) and nf.y.members() == (0, 3)

    def test_output_contains_identity(self):
        g = catalog_group("C2xC2")
        f = certify(g, g.subset([1, 3]), g.subset([2, 3]))
        assert f.certified
        nf = normalize(g, f)
        assert 0 in nf.x and 0 in nf.y

    def test_requires_certified_cover(self):
        g = dihedral(10)
        f = certify(g, g.subset([1, 4]), g.subset([2, 3]))
        assert not f.covers_group()
        with pytest.raises(NotCertified):
            normalize(g, f)


class TestInduced:
    def test_c4(self):
        g = cyclic(4)
        f = certify(g, g.subset([0, 2]), g.subset([0, 1]))
        cp = is_central_product(
            g, generated_subgroup(g, f.x), generated_subgroup(g, f.y)
        ).decomposition
        ind = induced_decompositions(g, f, cp)
        assert ind.m_factorization.certified and ind.n_factorization.certified
        # N = Y x (X & Z) seen inside the view of N = C4
        n_push = ind.n_view.push(ind.n_factorization.y)
        assert n_push.members() == (0, 2)

    def test_trivial(self):
        g = quaternion(8)
        f = certify(g, g.full_subset(), g.identity_subset())
        cp = is_central_product(g, g.full_subset(), g.identity_subset()).decomposition
        ind = induced_decompositions(g, f, cp)
        assert ind.m_factorization.x.mask == ind.m_view.table.full_mask

    def test_containment_enforced(self):
        g = cyclic(4)
        f = certify(g, g.subset([0, 2]), g.subset([0, 1]))
        cp = is_central_product(
            g, g.full_subset(), g.identity_subset()
        ).decomposition
        with pytest.raises(ContainmentViolated):
            induced_decompositions(g, f, cp)


class TestDeriveSystem:
    def test_roundtrip_on_oracle_pairs(self):
        for name in ["C8", "C12", "C2xC2xC2", "Q8oC4"]:
            g = catalog_group(name)
            res = enumerate_setdirect(g, normalized_only=True)
            for f in res.factorizations:
                cp, sys_, choices = derive_system(g, f)
                rebuilt = construct_from_system(g, cp, sys_, choices)
                assert rebuilt.x.mask == f.x.mask
                assert rebuilt.y.mask == f.y.mask

    def test_pair_without_a_central_product_is_not_certified(self):
        # flagged certified, but <X> = <(0 1)> and <Y> = 1 do not multiply to S3
        g = symmetric(3)
        f = SetDirectFactorization(g, g.subset([0, 1]), g.subset([0]), True)
        with pytest.raises(NotCertified, match="ProductNotG"):
            derive_system(g, f)


def _plain(value):
    if isinstance(value, Subset):
        return value.mask
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _report_fields(report):
    return {f.name: _plain(getattr(report, f.name)) for f in fields(report)}


def _candidate_pairs(g, rng, count):
    """Normal pairs for the verifier: half arbitrary class unions, half a
    normal subgroup H with classes meeting each coset of H at most once."""
    part = conjugacy_classes(g)
    classes = [c.mask for c in part.classes]
    subgroups = normal_subgroups(g)
    pairs = []
    while len(pairs) < count:
        if len(pairs) % 2:
            x, y = (sum(c for c in classes if rng.random() < 0.4) for _ in range(2))
            if x and y:
                pairs.append((x, y))
            continue
        h = rng.choice(subgroups).mask
        coset = {}
        for r in bits(g.full_mask):
            for e in bits(h):
                coset.setdefault(g.mult[r][e], r)
        y, met = 0, set()
        for c in rng.sample(classes, len(classes)):
            hit = {coset[e] for e in bits(c)}
            if len(hit) == c.bit_count() and not hit & met:
                y |= c
                met |= hit
        pairs.append((h, y))
    return pairs


class TestCentralProductMemo:
    def test_reports_equal_those_of_an_empty_memo(self):
        rng = random.Random(6)
        certified = 0
        for name in SMALL_CATALOG:
            g = catalog_group(name)
            pairs = _candidate_pairs(g, rng, 24)
            shared = [
                verify_main_theorem(g, Subset(g, x), Subset(g, y)) for x, y in pairs
            ]
            for (x, y), got in zip(pairs, shared):
                fresh = fresh_copy(g)
                want = verify_main_theorem(fresh, Subset(fresh, x), Subset(fresh, y))
                assert _report_fields(got) == _report_fields(want), (name, x, y)
                certified += got.verdict
        assert certified > 200  # the slices of certified pairs come from the memo

    def test_derive_and_verify_share_one_decomposition(self, monkeypatch):
        base = catalog_group("Q8oC4")
        x, y = next(
            (x, y)
            for x, y in _candidate_pairs(base, random.Random(1), 40)
            if (r := verify_main_theorem(base, Subset(base, x), Subset(base, y))).verdict
            and len(r.z) > 1
        )
        g = fresh_copy(base)  # nothing derived from it yet
        f = SetDirectFactorization(g, Subset(g, x), Subset(g, y), True)
        cp, system, choices = derive_system(g, f)
        assert len(cp.z) > 1

        recomputed = []
        for module, names in (
            (central, ("_z_orbits", "commutator_set")),
            (factor, ("_z_orbits", "subgroup_view", "commutator_set")),
        ):
            for name in names:
                real = getattr(module, name)
                monkeypatch.setattr(
                    module, name, lambda *a, _f=real, _n=name: recomputed.append(_n) or _f(*a)
                )
        report = verify_main_theorem(g, f.x, f.y)
        assert central._central_product(g, report.m, report.n).decomposition is cp
        rebuilt = construct_from_system(g, cp, system, choices)
        assert (rebuilt.x.mask, rebuilt.y.mask) == (f.x.mask, f.y.mask)
        again, _, _ = derive_system(g, f)
        assert again is cp and recomputed == []

    def test_a_sweep_of_c2_8_stays_at_the_cap(self):
        # uncapped, these calls leave one check per distinct (<X>, <Y>);
        # past the cap a check is computed again, so every twentieth report,
        # those past the cap among them, is compared with a fresh copy's
        g = cyclic_product([2] * 8)
        rng = random.Random("central products C2^8")
        pairs = [tuple(mask_of(rng.sample(range(g.order), rng.randint(1, 9))) for _ in "xy")
                 for _ in range(4400)]
        reports = [verify_main_theorem(g, Subset(g, x), Subset(g, y)) for x, y in pairs]
        memo = g._central_products
        assert len(memo) == _MEMO_HELD < len({(r.m.mask, r.n.mask) for r in reports})
        fresh = fresh_copy(g)
        for (x, y), got in list(zip(pairs, reports))[::20]:
            want = verify_main_theorem(fresh, Subset(fresh, x), Subset(fresh, y))
            assert _report_fields(got) == _report_fields(want), (x, y)
        assert any((r.m.mask, r.n.mask) not in memo for r in reports[::20])

    def test_memo_holds_at_most_the_pairs_of_normal_subgroups(self):
        g = fresh_copy(catalog_group("Q8oQ8"))
        subs = normal_subgroups(g)
        assert len(subs) == 68
        decompositions = enumerate_central_decompositions(g)
        memo = g._central_products
        assert len(memo) <= len(subs) ** 2
        shared = {id(check.decomposition) for check in memo.values() if check}
        assert all(id(d) in shared for d in decompositions)


def _abelian_join(g, h, x):
    """<h, x> for a subgroup h of an abelian group: the cosets x^k h up to
    the first x^k in h."""
    out, y = h, x
    while not out >> y & 1:
        out |= _translate(g, y, h)
        y = g.mult[y][x]
    return out


def _reference_walk(g, mask, steps):
    """Greedy generators of <mask> in an abelian group and its mask; each
    step's (h, x) -> <h, x> goes in `steps`."""
    h, gens = 1 << g.identity, []
    for x in bits(mask):
        if not h >> x & 1:
            steps[h, x] = h = _abelian_join(g, h, x)
            gens.append(x)
    return tuple(gens), h


def _system_on(table, system):
    """The same system, its sets on another table of the same group."""
    return FactorizationSystem(
        Subset(table, system.z.mask),
        *(tuple(Subset(table, s.mask) for s in family)
          for family in (system.m_subgroups, system.n_subgroups, system.a_sets, system.b_sets)),
    )


class TestJoinMemo:
    def test_a_sweep_of_c2_8_fills_the_cap_with_reference_joins(self):
        # uncapped, these 3000 sets leave 11 108 joins; past the cap the
        # answers are computed without being stored
        g = cyclic_product([2] * 8)
        rng = random.Random("joins C2^8")
        steps = {}
        for _ in range(3000):
            mask = mask_of(rng.sample(range(g.order), rng.randint(1, 9)))
            assert _generators(g, mask) == _reference_walk(g, mask, steps), mask
        memo = g._joins
        assert len(memo) == _MEMO_HELD < len(steps)
        for (h, x), grown in memo.items():
            # h is a subgroup, as a state of a reference walk, and x is outside it
            assert not h >> x & 1 and steps.get((h, x)) == grown, (h, x)

    def test_reports_on_a_warm_table_equal_those_on_a_fresh_copy(self):
        rng = random.Random("joins warm")
        for name in SMALL_CATALOG:
            g = fresh_copy(catalog_group(name))
            central = central_subgroups(g)
            for z in central:
                subgroups = [s for s in central if s.mask & ~z.mask == 0]
                for _ in range(8):
                    system = _random_system(g, z, subgroups, rng)
                    want = check_factorization_system(_system_on(fresh_copy(g), system))
                    got = check_factorization_system(system)
                    assert _report_fields(got) == _report_fields(want), (name, z.mask)
            for x, y in _candidate_pairs(g, rng, 12):
                fresh = fresh_copy(g)
                want = verify_main_theorem(fresh, Subset(fresh, x), Subset(fresh, y))
                got = verify_main_theorem(g, Subset(g, x), Subset(g, y))
                assert _report_fields(got) == _report_fields(want), (name, x, y)
            assert g._joins or g.order == 1
