"""Central products and the multiplication action on conjugacy classes."""

import hashlib
import re
import time

import pytest

from setdirect.catalog import (
    catalog_group,
    catalog_names,
    central_product_entry,
    cyclic,
    cyclic_product,
    dihedral,
    quaternion,
    symmetric,
)
from setdirect.central import (
    NORMAL_SUBGROUP_BOUND,
    _certify_central_product,
    central_subgroups,
    class_count_report,
    class_stabilizer,
    enumerate_central_decompositions,
    is_central_product,
    minimal_normal_subgroups,
    normal_subgroups,
    semi_regular_elements,
    z_bracket,
    z_orbits,
)
from setdirect.errors import ElementOutOfRange, GroupError, NotCentral, OrderLimitExceeded
from setdirect.groups import (
    Subset,
    center,
    commutator_set,
    conjugacy_classes,
    generated_subgroup,
    is_normal_subset,
    set_product,
)

from helpers import abelian_subgroups, fresh_copy, is_subgroup_naive


class TestIsCentralProduct:
    def test_klein_four_direct(self):
        g = catalog_group("C2xC2")
        a = generated_subgroup(g, g.subset([1]))
        b = generated_subgroup(g, g.subset([2]))
        check = is_central_product(g, a, b)
        assert check
        assert check.decomposition.z.members() == (0,)

    def test_catalog_central_product_images(self):
        emb = central_product_entry("d8oc4")
        check = is_central_product(emb.group, emb.m_image, emb.n_image)
        assert check
        assert len(check.decomposition.z) == 2

    def test_s3_a3_fails_intersection(self):
        g = symmetric(3)
        a3 = generated_subgroup(g, g.subset([g.index_of_label("(0 1 2)")]))
        check = is_central_product(g, a3, g.full_subset())
        assert not check
        assert check.reason == "IntersectionNotCentral"

    def test_noncentralizing_pair_rejected(self):
        # in D8 the rotations and <r^2, s> intersect centrally but do not
        # centralize one another
        g = dihedral(8)
        rot = generated_subgroup(g, g.subset([1]))
        v4 = generated_subgroup(g, g.subset([2, 4]))
        check = is_central_product(g, rot, v4)
        assert not check
        assert check.reason == "NotCentralizing"

    def test_product_not_g(self):
        g = cyclic(8)
        h = generated_subgroup(g, g.subset([2]))
        check = is_central_product(g, h, h)
        assert check.reason == "ProductNotG"

    def test_not_subgroup(self):
        g = cyclic(4)
        check = is_central_product(g, g.subset([1]), g.full_subset())
        assert check.reason == "NotSubgroup"


def _reason_by_definition(g, m, n):
    """The central-product reason from the whole product set MN and every
    commutator of an element of M with one of N."""
    mult, mem, nem = g.mult, m.members(), n.members()
    if len({mult[a][b] for a in mem for b in nem}) != g.order:
        return "ProductNotG"
    if any(any(mult[z][x] != mult[x][z] for x in range(g.order)) for z in set(mem) & set(nem)):
        return "IntersectionNotCentral"
    if any(mult[a][b] != mult[b][a] for a in mem for b in nem):
        return "NotCentralizing"
    return None


class TestCentralProductReasons:
    def test_reasons_match_the_definition_and_are_pinned(self):
        # every ordered pair of normal subgroups of every catalog group of
        # order <= 32: 6891 pairs
        digest, pairs = hashlib.sha256(), 0
        for name in catalog_names():
            g = catalog_group(name)
            if g.order > 32:
                continue
            subs = normal_subgroups(g)
            for m in subs:
                for n in subs:
                    check = _certify_central_product(g, m, n)
                    assert check.reason == _reason_by_definition(g, m, n), (name, m, n)
                    if check:
                        assert check.decomposition.z.mask == m.mask & n.mask
                    digest.update(f"{name},{m.mask},{n.mask},{check.reason}\n".encode())
                    pairs += 1
        assert pairs == 6891
        assert digest.hexdigest() == (
            "eddcce04f623daef4ac7d449cde22670b13bc15ea76bec0156b55a4502f8249e")


class TestNormalSubgroups:
    def test_s3(self):
        got = {s.members() for s in normal_subgroups(symmetric(3))}
        assert len(got) == 3  # 1, A3, S3
        assert {len(s) for s in got} == {1, 3, 6}

    def test_abelian_matches_bruteforce(self):
        for name in ["C12", "C2xC2xC2", "C8"]:
            g = catalog_group(name)
            got = {frozenset(s.members()) for s in normal_subgroups(g)}
            assert got == set(abelian_subgroups(g))

    def test_all_are_normal_subgroups(self):
        g = catalog_group("S4")
        for s in normal_subgroups(g):
            assert is_normal_subset(g, s)
            assert is_subgroup_naive(g, s.members())

    def test_too_many_raise_before_the_lattice_is_built(self):
        # C2^6 has 2 825 normal subgroups; the whole lattice took 2.05 s
        g = cyclic_product([2] * 6)
        t0 = time.perf_counter()
        with pytest.raises(OrderLimitExceeded,
                           match=f"more than {NORMAL_SUBGROUP_BOUND} normal"):
            normal_subgroups(g)
        assert time.perf_counter() - t0 < 1.0

    def test_minimal_normal(self):
        g = dihedral(10)
        mins = minimal_normal_subgroups(g)
        assert len(mins) == 1
        assert mins[0].members() == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize(
        "name", [n for n in catalog_names() if catalog_group(n).order <= 64]
    )
    def test_minimal_normal_are_the_minimal_of_the_lattice(self, name):
        g = catalog_group(name)
        trivial = 1 << g.identity
        props = [s.mask for s in normal_subgroups(g) if s.mask != trivial]
        reference = [m for m in props if not any(t != m and t & ~m == 0 for t in props)]
        assert [s.mask for s in minimal_normal_subgroups(g)] == reference


class TestEnumerateDecompositions:
    def test_s3_only_trivial(self):
        got = enumerate_central_decompositions(symmetric(3))
        assert len(got) == 1
        assert len(got[0].m) == 6 and len(got[0].n) == 1

    def test_q8_includes_center_pair(self):
        g = quaternion(8)
        got = enumerate_central_decompositions(g)
        keys = {(len(d.m), len(d.n)) for d in got}
        assert (8, 2) in keys and (8, 1) in keys
        assert all(len(d.z) == len(d.m & d.n) for d in got)

    def test_abelian_all_covering_pairs(self):
        g = catalog_group("C2xC2")
        got = enumerate_central_decompositions(g)
        # unordered pairs (M, N) of subgroups with MN = G
        subs = abelian_subgroups(g)
        expect = set()
        for a in subs:
            for b in subs:
                prod = {g.mult[x][y] for x in a for y in b}
                if len(prod) == 4:
                    expect.add(frozenset((a, b)))
        gotset = {
            frozenset((frozenset(d.m.members()), frozenset(d.n.members())))
            for d in got
        }
        assert gotset == expect

    def test_every_central_subgroup_appears_with_g(self):
        for name in ["Q8", "Q16", "C12", "Q8oC4"]:
            g = catalog_group(name)
            got = enumerate_central_decompositions(g)
            full = g.full_mask
            with_g = {d.n.mask for d in got if d.m.mask == full}
            assert {z.mask for z in central_subgroups(g)} <= with_g

    @pytest.mark.parametrize("name", ["Q8oQ8", "D8oC4", "S4"])
    def test_only_pairs_with_mn_g_are_kept(self, name):
        # the product-size test runs before the memo, so the memo holds just
        # the pairs it passes, each with the outcome a full check gives
        g = fresh_copy(catalog_group(name))
        got = enumerate_central_decompositions(g)
        subs = normal_subgroups(g)
        # each unordered pair with MN = G, the larger factor first
        covering = [sorted((m, n), key=lambda s: (len(s), s.mask), reverse=True)
                    for i, m in enumerate(subs) for n in subs[i:]
                    if len(m) * len(n) == g.order * len(m & n)]
        assert set(g._central_products) == {(m.mask, n.mask) for m, n in covering}
        want = [c.decomposition for c in (_certify_central_product(g, m, n) for m, n in covering)
                if c]
        assert got == sorted(want, key=lambda d: (len(d.m), d.m.mask, d.n.mask))

    def test_order_bound(self):
        with pytest.raises(OrderLimitExceeded):
            enumerate_central_decompositions(cyclic(513))

    def test_normal_subgroup_bound(self):
        g = cyclic_product([2] * 5)  # 374 normal subgroups
        for call in (normal_subgroups, enumerate_central_decompositions):
            with pytest.raises(OrderLimitExceeded,
                               match=f"more than {NORMAL_SUBGROUP_BOUND} normal"):
                call(g)
        # the catalog group with the most normal subgroups
        assert len(normal_subgroups(catalog_group("Q8oQ8"))) == 68
        assert len(enumerate_central_decompositions(catalog_group("Q8oQ8"))) == 12


class TestZOrbits:
    def test_trivial_z(self):
        g = symmetric(4)
        data = z_orbits(g, g.full_subset(), g.identity_subset())
        assert len(data.orbits) == len(conjugacy_classes(g))
        assert data.is_semiregular()

    def test_q8_fixed_class(self):
        g = quaternion(8)
        data = z_orbits(g, g.full_subset(), center(g))
        part = conjugacy_classes(g)
        i_class = part.class_of[1]
        orbit = next(o for o in data.orbits if i_class in o.classes)
        assert orbit.classes == (i_class,)
        assert orbit.stabilizer.mask == center(g).mask

    def test_c4_single_orbit(self):
        g = cyclic(4)
        data = z_orbits(g, g.full_subset(), g.full_subset())
        assert len(data.orbits) == 1
        assert len(data.orbits[0].stabilizer) == 1

    def test_orbit_stabilizer_identity(self):
        for name in ["Q16", "Q8oC4", "D8", "C12"]:
            g = catalog_group(name)
            for z in central_subgroups(g):
                data = z_orbits(g, g.full_subset(), z)
                for o in data.orbits:
                    assert len(o.classes) * len(o.stabilizer) == len(z)

    def test_normal_subset_closed_under_z(self):
        g = quaternion(8)
        part = conjugacy_classes(g)
        i_class = Subset(g, part.class_mask(part.class_of[1]))
        data = z_orbits(g, i_class, center(g))
        assert len(data.orbits) == 1

    def test_rejects_noncentral(self):
        g = symmetric(3)
        a3 = generated_subgroup(g, g.subset([g.index_of_label("(0 1 2)")]))
        with pytest.raises(NotCentral):
            z_orbits(g, g.full_subset(), a3)


class TestClassStabilizer:
    def test_identity_element(self):
        g = quaternion(8)
        assert class_stabilizer(g, 0, center(g)).members() == (0,)

    def test_q8_i(self):
        g = quaternion(8)
        got = class_stabilizer(g, 1, center(g))
        assert got.mask == center(g).mask

    def test_abelian_always_trivial(self):
        g = cyclic(12)
        z = generated_subgroup(g, g.subset([4]))
        for x in range(12):
            assert class_stabilizer(g, x, z).members() == (0,)

    @pytest.mark.parametrize("bad", [-1, 32, 1.0, "3", True, None])
    def test_an_index_out_of_range_is_a_typed_error(self, bad):
        g = catalog_group("Q8oQ8")
        reason = "out of range" if type(bad) is int else "is not an integer"
        for caught in (ElementOutOfRange, GroupError, ValueError):
            with pytest.raises(caught, match=re.escape(f"element index {bad!r} {reason}")):
                class_stabilizer(g, bad, center(g))

    def test_double_computation_everywhere(self):
        # the op itself asserts {z : nz in n^G} == [n,G] & Z elementwise
        for name in ["S4", "Q16", "D12", "Q8oQ8"]:
            g = catalog_group(name)
            for z in central_subgroups(g):
                for x in range(g.order):
                    class_stabilizer(g, x, z)


class TestZBracket:
    def test_abelian_component(self):
        g = cyclic(6)
        s, gen = z_bracket(g, g.full_subset(), g.full_subset())
        assert s.members() == (0,) and gen.members() == (0,)

    def test_q8(self):
        g = quaternion(8)
        s, gen = z_bracket(g, g.full_subset(), center(g))
        assert s.member_labels() == ("1", "-1")
        assert gen.mask == s.mask

    def test_d10_trivial_z(self):
        g = dihedral(10)
        s, gen = z_bracket(g, g.full_subset(), g.identity_subset())
        assert s.members() == (0,) and gen.members() == (0,)

    def test_stabilizer_union_in_central_products(self):
        # Z_[K] equals the union of orbit stabilizers for both factors
        for name in ["q8oc4", "q8oq8", "d8oc4"]:
            emb = central_product_entry(name)
            g = emb.group
            z = emb.m_image & emb.n_image
            for k in (emb.m_image, emb.n_image):
                s, _ = z_bracket(g, k, z)
                union = z_orbits(g, k, z).stabilizer_union()
                assert s.mask == union.mask


class TestSemiRegular:
    def test_abelian_all_nonidentity(self):
        g = cyclic(4)
        assert semi_regular_elements(g).members() == (1, 2, 3)

    def test_q8_empty(self):
        assert len(semi_regular_elements(quaternion(8))) == 0

    def test_trivial_center(self):
        assert len(semi_regular_elements(symmetric(4))) == 0

    def test_q8oc4_order4_elements(self):
        g = central_product_entry("q8oc4").group
        semi = semi_regular_elements(g)
        assert len(semi) == 2
        assert all(g.element_order(x) == 4 for x in semi)


class TestClassCountReport:
    def test_trivial_z(self):
        g = symmetric(4)
        rep = class_count_report(g, g.identity_subset())
        assert rep.k_g == rep.k_quotient == rep.orbit_count
        assert rep.semiregular

    def test_q8(self):
        g = quaternion(8)
        rep = class_count_report(g, center(g))
        assert (rep.k_g, rep.k_z, rep.k_quotient, rep.orbit_count) == (5, 2, 4, 4)
        assert not rep.semiregular
        assert not rep.multiplicative

    def test_c4(self):
        g = cyclic(4)
        rep = class_count_report(g, g.subset([0, 2]))
        assert (rep.k_g, rep.k_z, rep.k_quotient) == (4, 2, 2)
        assert rep.semiregular and rep.multiplicative


class TestCentralProductClassStructure:
    """Conjugacy-class structure of certified central products (order <= 64)."""

    NAMES = ["q8oc4", "q8oq8", "d8oc4"]

    def _m_classes_inside(self, g, sub):
        # classes by conjugation with elements of sub only
        mem = sub.members()
        seen, out = set(), []
        for x in mem:
            if x in seen:
                continue
            orbit = {x}
            stack = [x]
            while stack:
                y = stack.pop()
                for h in mem:
                    c = g.conj(y, h)
                    if c not in orbit:
                        orbit.add(c)
                        stack.append(c)
            seen |= orbit
            out.append(frozenset(orbit))
        return out

    def test_factor_classes_coincide_with_ambient(self):
        for name in self.NAMES:
            emb = central_product_entry(name)
            g = emb.group
            part = conjugacy_classes(g)
            for side in (emb.m_image, emb.n_image):
                inner = {frozenset(c) for c in self._m_classes_inside(g, side)}
                ambient = {
                    frozenset(part.classes[i].members())
                    for i in range(len(part))
                    if part.class_mask(i) & ~side.mask == 0
                }
                assert inner == ambient

    def test_mutual_centralization_and_class_factorization(self):
        for name in self.NAMES:
            emb = central_product_entry(name)
            g = emb.group
            check = is_central_product(g, emb.m_image, emb.n_image)
            assert check
            cp = check.decomposition
            assert commutator_set(g, cp.m, cp.n).members() == (0,)
            part = conjugacy_classes(g)
            om = z_orbits(g, cp.m, cp.z)
            on = z_orbits(g, cp.n, cp.z)
            og = z_orbits(g, g.full_subset(), cp.z)
            # each class factors as (class in M) * (class in N)
            pair_of_orbit = {}
            for i in range(len(part)):
                rep = part.classes[i].members()[0]
                m_elt = next(
                    m
                    for m in cp.m
                    if g.mult[g.inv[m]][rep] in cp.n
                )
                n_elt = g.mult[g.inv[m_elt]][rep]
                cm = part.class_of[m_elt]
                cn = part.class_of[n_elt]
                prod, _ = set_product(
                    g, Subset(g, part.class_mask(cm)), Subset(g, part.class_mask(cn))
                )
                assert prod.mask == part.class_mask(i)
                # stabilizer multiplicativity
                sm = class_stabilizer(g, m_elt, cp.z)
                sn = class_stabilizer(g, n_elt, cp.z)
                sc = class_stabilizer(g, rep, cp.z)
                assert set_product(g, sm, sn)[0].mask == sc.mask
                # orbit-pair bijection data
                gi = next(k for k, o in enumerate(og.orbits) if i in o.classes)
                mi = next(k for k, o in enumerate(om.orbits) if cm in o.classes)
                ni = next(k for k, o in enumerate(on.orbits) if cn in o.classes)
                prev = pair_of_orbit.get(gi)
                assert prev is None or prev == (mi, ni)
                pair_of_orbit[gi] = (mi, ni)
            # bijection: injective and counts multiply
            assert len(set(pair_of_orbit.values())) == len(og.orbits)
            assert len(og.orbits) == len(om.orbits) * len(on.orbits)
