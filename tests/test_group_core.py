"""Group construction, classes, centers, products, quotients."""

import copy
import dataclasses
import hashlib
import io
import itertools
import math
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setdirect.catalog import (
    alternating,
    catalog_group,
    catalog_names,
    cyclic,
    cyclic_product,
    dihedral,
    exponent_index,
    group_from_json,
    quaternion,
    symmetric,
)
from setdirect.errors import (
    ContainmentViolated,
    ElementOutOfRange,
    EmptyGeneratingSet,
    ForeignSubset,
    GroupError,
    NotAGroup,
    NotNormalSubgroup,
    OrderLimitExceeded,
)
from setdirect.central import class_stabilizer, normal_subgroups
from setdirect.factor import SetDirectFactorization
from setdirect.groups import (
    MAX_ORDER,
    Subset,
    _closure_mask,
    _generators,
    _is_subgroup_mask,
    bits,
    center,
    central_product_embedding,
    commutator_set,
    conjugacy_classes,
    direct_product,
    generated_subgroup,
    group_from_permutations,
    group_from_table,
    is_normal_subset,
    left_cosets,
    quotient_group,
    set_product,
    mask_of,
    subgroup_view,
)

from helpers import (
    breadth_first_closure,
    fresh_copy,
    is_subgroup_naive,
    naive_center,
    naive_classes,
    naive_closure,
    naive_is_abelian,
    reference_group_from_permutations,
    relabelled,
)


class TestGroupFromTable:
    def test_trivial_group(self):
        g = group_from_table([[0]])
        assert g.order == 1
        assert g.identity == 0

    def test_c2(self):
        g = group_from_table([[0, 1], [1, 0]])
        assert g.order == 2
        assert g.inv == (0, 1)

    def test_identity_not_first(self):
        # C2 written with identity at index 1
        g = group_from_table([[1, 0], [0, 1]])
        assert g.identity == 1

    def test_rejects_non_latin(self):
        with pytest.raises(NotAGroup):
            group_from_table([[0, 0], [1, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(NotAGroup):
            group_from_table([[0, 2], [2, 0]])

    @pytest.mark.parametrize(
        "table",
        [
            [[0, 1.9], [1.2, 0]],
            [[0, "1"], ["1", 0]],
            [[True, False], [False, True]],  # C2 with identity 1, were it read as ints
        ],
        ids=["float", "string", "bool"],
    )
    def test_rejects_non_integer_entries(self, table):
        with pytest.raises(NotAGroup, match="not an integer"):
            group_from_table(table)

    def test_accepts_numpy_integers(self):
        g = group_from_table(np.array([[0, 1], [1, 0]], dtype=np.int16))
        assert g.order == 2 and g.inv == (0, 1)

    def test_rejects_ragged_and_bad_labels(self):
        with pytest.raises(NotAGroup, match="not square"):
            group_from_table([[0, 1], [1]])
        with pytest.raises(NotAGroup, match="labels"):
            group_from_table([[0, 1], [1, 0]], [0, 1])

    def test_rejects_no_identity(self):
        # subtraction mod 3: Latin, right identity only
        t = [[(a - b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(NotAGroup):
            group_from_table(t)

    def test_rejects_nonassociative_loop(self):
        # Swap an intercalate of the C6 table away from the identity row and
        # column: still a Latin square with two-sided identity, but either
        # inverses or associativity must break.
        t = [[(a + b) % 6 for b in range(6)] for a in range(6)]
        # cells (1,2) and (2,1) hold 3; (1,1) holds 2 and (2,2) holds 4 -- find
        # a genuine intercalate instead: t[i][k]=t[j][l]=a, t[i][l]=t[j][k]=b.
        found = None
        for i in range(1, 6):
            for j in range(i + 1, 6):
                for k in range(1, 6):
                    for l in range(k + 1, 6):
                        if t[i][k] == t[j][l] and t[i][l] == t[j][k]:
                            found = (i, j, k, l)
        i, j, k, l = found
        t[i][k], t[i][l] = t[i][l], t[i][k]
        t[j][k], t[j][l] = t[j][l], t[j][k]
        with pytest.raises(NotAGroup):
            group_from_table(t)
        # C258 with the intercalate on rows and columns {1, 130} swapped: no
        # swapped cell holds the identity, so identity and inverses survive
        # and only associativity fails, at (1, 1, 2).
        n, h = 258, 129
        t = [[(a + b) % n for b in range(n)] for a in range(n)]
        for r in (1, 1 + h):
            t[r][1], t[r][1 + h] = t[r][1 + h], t[r][1]
        with pytest.raises(NotAGroup, match="associativity"):
            group_from_table(t)

    def test_associativity_agrees_with_all_triples(self):
        # Light's test over a generating set against the check of all n^3
        # triples, on four order-8 tables and every intercalate swap of them.
        verdicts = set()
        for name in ("C8", "D8", "Q8", "C2xC2xC2"):
            base = [list(row) for row in catalog_group(name).mult]
            n = len(base)
            for t in [base, *_intercalate_swaps(base)]:
                assoc = all(
                    t[t[x][y]][z] == t[x][t[y][z]]
                    for x in range(n)
                    for y in range(n)
                    for z in range(n)
                )
                try:
                    group_from_table(t)
                except NotAGroup as exc:
                    if "associativity" in str(exc):
                        assert not assoc
                        verdicts.add(False)
                else:
                    assert assoc
                    verdicts.add(True)
        assert verdicts == {True, False}


def _intercalate_swaps(base):
    """Each table made from the table `base` by swapping one intercalate
    away from the identity row and column: still a Latin square with a
    two-sided identity."""
    n = len(base)
    tables = []
    for i in range(1, n):
        for j in range(i + 1, n):
            for k in range(1, n):
                for l in range(k + 1, n):
                    if base[i][k] == base[j][l] and base[i][l] == base[j][k]:
                        t = [row[:] for row in base]
                        t[i][k], t[i][l] = t[i][l], t[i][k]
                        t[j][k], t[j][l] = t[j][l], t[j][k]
                        tables.append(t)
    return tables


def test_table_outcomes_are_pinned():
    # group_from_table's NotAGroup message, or "ok", on every intercalate
    # swap of eight tables; SHA-256 taken when Light's test ran its own
    # greedy closure over the table
    digest, outcomes = hashlib.sha256(), []
    for name in ("C8", "D8", "Q8", "C2xC2xC2", "C12", "D12", "Q16", "C3xC2xC2"):
        for t in _intercalate_swaps([list(row) for row in catalog_group(name).mult]):
            try:
                group_from_table(t)
                outcome = "ok"
            except NotAGroup as exc:
                outcome = str(exc)
            outcomes.append(outcome)
            digest.update(f"{name} {outcome}\n".encode())
    assert len(outcomes) == 450
    assert sum("associativity" in o for o in outcomes) == 396
    assert digest.hexdigest() == (
        "de6db410db43cfe8116850b57196da00ead84830e96ec2f67386e445d9253816")


class TestGroupFromPermutations:
    def test_d10_presentation(self):
        g = group_from_permutations([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])
        assert g.order == 10

    def test_c2(self):
        g = group_from_permutations([(1, 0)])
        assert g.order == 2

    def test_s4(self):
        g = group_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
        assert g.order == 24

    def test_identity_is_zero(self):
        g = group_from_permutations([(1, 2, 0)])
        assert g.identity == 0
        assert g.labels[0] == "()"

    def test_order_limit(self):
        with pytest.raises(OrderLimitExceeded):  # S8, of order 40 320
            group_from_permutations([(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)])

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAGroup):
            group_from_permutations([(0, 0, 1)])

    @pytest.mark.parametrize(
        "generators",
        [[[True, False]], [[1.0, 0.0]], [[1, 0], ["0", "1"]], [[1, 0], [1, 2, 0]], [[1, 0], 5]],
        ids=["bool", "float", "string", "two-degrees", "not-a-sequence"],
    )
    def test_rejects_non_integer_or_ragged_generators(self, generators):
        with pytest.raises(NotAGroup):
            group_from_permutations(generators)

    def test_accepts_numpy_integers(self):
        g = group_from_permutations([np.array([1, 2, 0])])
        assert g.order == 3
        assert g.labels == ("()", "(0 1 2)", "(0 2 1)")

    def test_repeated_and_identity_generators(self):
        g = group_from_permutations([(1, 0, 2), (0, 1, 2), (1, 2, 0), (1, 0, 2)])
        ref = reference_group_from_permutations([(1, 0, 2), (0, 1, 2), (1, 2, 0), (1, 0, 2)])
        assert (g.mult, g.inv, g.labels) == (ref.mult, ref.inv, ref.labels)
        assert g.generators == (1, 2)
        assert group_from_permutations([(0, 1)]).generators == ()


def _cycles(degree, *cycles):
    p = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            p[a] = cyc[(i + 1) % len(cyc)]
    return p


# generator sets of the permutation groups the catalog and the CLI files use
PERMUTATION_GROUPS = {
    "S3": [_cycles(3, [0, 1]), _cycles(3, [0, 1, 2])],
    "S4": [_cycles(4, [0, 1]), _cycles(4, [0, 1, 2, 3])],
    "S5": [_cycles(5, [0, 1]), _cycles(5, [0, 1, 2, 3, 4])],
    "A4": [_cycles(4, [0, 1, 2]), _cycles(4, [0, 1, 3])],
    "A5": [_cycles(5, [0, 1, 2]), _cycles(5, [0, 1, 3]), _cycles(5, [0, 1, 4])],
    "D10": [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)],
    "S6": [_cycles(6, [0, 1]), _cycles(6, [0, 1, 2, 3, 4, 5])],
    "S4xS3": [_cycles(7, [0, 1]), _cycles(7, [0, 1, 2, 3]), _cycles(7, [4, 5]),
              _cycles(7, [4, 5, 6])],
    "C2wrC4": [_cycles(8, [0, 1]), _cycles(8, [0, 2, 4, 6], [1, 3, 5, 7])],
}


def _assert_structure_matches_naive(g):
    masks, class_of = naive_classes(g)
    part = conjugacy_classes(g)
    assert [c.mask for c in part.classes] == masks
    assert list(part.class_of) == class_of
    assert center(g).mask == naive_center(g)
    assert g.is_abelian == naive_is_abelian(g)


class TestTablesFromGenerators:
    """The index-arithmetic table build, and classes, centre and
    commutativity from a generating set, against all-element references."""

    @pytest.mark.parametrize("name", sorted(PERMUTATION_GROUPS))
    def test_permutation_table_matches_reference(self, name):
        gens = PERMUTATION_GROUPS[name]
        g = group_from_permutations(gens)
        ref = reference_group_from_permutations(gens)
        assert g.mult == ref.mult
        assert g.inv == ref.inv
        assert g.labels == ref.labels
        _assert_structure_matches_naive(g)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)
        )
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_random_permutation_groups_match_reference(self, gens):
        g = group_from_permutations(gens)
        ref = reference_group_from_permutations(gens)
        assert (g.mult, g.inv, g.labels) == (ref.mult, ref.inv, ref.labels)
        _assert_structure_matches_naive(g)

    @pytest.mark.parametrize(
        "name", [n for n in catalog_names() if catalog_group(n).order <= 64]
    )
    def test_catalog_structure_matches_naive(self, name):
        _assert_structure_matches_naive(catalog_group(name))

    def test_relabelled_table_structure_matches_naive(self):
        g = relabelled(catalog_group("C24"), random.Random(3))
        _assert_structure_matches_naive(g)

    @pytest.mark.parametrize(
        "name", [n for n in catalog_names() if catalog_group(n).order <= 32]
    )
    def test_cached_generating_set_generates(self, name):
        g = catalog_group(name)
        gens = g.generators
        assert g.generators is gens
        assert _closure_mask(g, mask_of(gens)) == g.full_mask
        assert 2 ** len(gens) <= g.order

    def test_table_group_generating_set_generates(self):
        g = group_from_table([list(r) for r in catalog_group("Q8oC4").mult])
        assert _closure_mask(g, mask_of(g.generators)) == g.full_mask
        assert 2 ** len(g.generators) <= g.order


def _one_of_each():
    """A Subset and a SetDirectFactorization of C4, built by keyword."""
    g = catalog_group("C4")
    x = Subset(mask=0b0011, group=g)
    return x, SetDirectFactorization(g, y=Subset(g, 0b0101), x=x, certified=True)


class TestSlots:
    def test_subsets_and_factorizations_have_no_dict(self):
        g = catalog_group("C4")
        x = Subset(g, 0b0011)
        f = SetDirectFactorization(g, x, Subset(g, 0b0101), True)
        for obj in (x, f):
            assert not hasattr(obj, "__dict__")
        assert x == Subset(g, 0b0011) and hash(x) == hash(Subset(g, 0b0011))
        with pytest.raises(AttributeError):
            x.mask = 1

    # Subset and SetDirectFactorization set their slots in a hand-written
    # __init__; they stay frozen, slotted dataclasses with the same fields

    def test_keyword_construction_and_missing_arguments(self):
        x, f = _one_of_each()
        g = x.group
        assert (x.group, x.mask) == (g, 0b0011)
        assert (f.group, f.x, f.y.mask, f.certified) == (g, x, 0b0101, True)
        with pytest.raises(TypeError):
            Subset(g)
        with pytest.raises(TypeError):
            SetDirectFactorization(g, x, x)

    def test_field_names_and_order(self):
        assert [fd.name for fd in dataclasses.fields(Subset)] == ["group", "mask"]
        assert [fd.name for fd in dataclasses.fields(SetDirectFactorization)] == [
            "group", "x", "y", "certified"]

    @pytest.mark.parametrize("which", [0, 1])
    def test_init_sets_every_field(self, which):
        obj = _one_of_each()[which]  # an unset slot raises AttributeError on read
        assert all(hasattr(obj, fd.name) for fd in dataclasses.fields(obj))

    @pytest.mark.parametrize("which", [0, 1])
    def test_every_field_is_frozen(self, which):
        obj = _one_of_each()[which]
        for fd in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, fd.name, getattr(obj, fd.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, fd.name)

    def test_replace(self):
        x, f = _one_of_each()
        assert dataclasses.replace(x, mask=0b1000) == Subset(x.group, 0b1000)
        g = f.group
        assert dataclasses.replace(f, certified=False) == SetDirectFactorization(
            g, x, Subset(g, 0b0101), False)
        assert dataclasses.replace(f) == f

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("clone", ["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_round_trip(self, which, clone):
        """Tables compare by identity, so the deep copies keep the table."""
        obj = _one_of_each()[which]
        g = obj.group
        if clone == "copy":
            got = copy.copy(obj)
        elif clone == "deepcopy":
            got = copy.deepcopy(obj, {id(g): g})
        else:
            buf = io.BytesIO()
            pickler = pickle.Pickler(buf)
            pickler.persistent_id = lambda o: "G" if o is g else None
            pickler.dump(obj)
            buf.seek(0)
            unpickler = pickle.Unpickler(buf)
            unpickler.persistent_load = lambda pid: g
            got = unpickler.load()
        assert got is not obj and type(got) is type(obj)
        assert got == obj and hash(got) == hash(obj)

    def test_repr_is_unchanged(self):
        x, f = _one_of_each()
        assert repr(x) == "Subset(C4: {1,z})"
        assert repr(f) == ("SetDirectFactorization(group=GroupTable('C4', order=4), "
                           "x=Subset(C4: {1,z}), y=Subset(C4: {1,z^2}), certified=True)")


class TestCentralProduct:
    def test_d8_c4_order_and_center(self):
        d8, c4 = dihedral(8), cyclic(4)
        g = central_product_embedding(d8, c4, [(0, 0), (2, 2)]).group
        assert g.order == 8 * 4 // 2
        assert len(center(g)) == 4

    def test_trivial_pairing_is_direct_product(self):
        s3, c3 = symmetric(3), cyclic(3)
        emb = central_product_embedding(s3, c3, [(0, 0)])
        g = emb.group
        assert g.order == 18
        # the coset map on the direct product is itself an isomorphism
        from setdirect.groups import direct_product

        prod = direct_product(s3, c3)
        trivial = prod.subset([prod.identity])
        quo = quotient_group(prod, trivial)
        _, coset_of = left_cosets(prod, trivial)
        assert sorted(coset_of) == list(range(prod.order))
        for a in range(prod.order):
            for b in range(prod.order):
                assert coset_of[prod.mult[a][b]] == quo.mult[coset_of[a]][coset_of[b]]

    def test_q8_q8_center_glue(self):
        q8 = quaternion(8)
        g = central_product_embedding(q8, q8, [(0, 0), (2, 2)]).group
        assert g.order == 32

    def test_factor_images_intersect_in_glued_subgroup(self):
        emb = central_product_embedding(quaternion(8), cyclic(4), [(0, 0), (2, 2)])
        assert (emb.m_image & emb.n_image).mask == emb.z_image.mask
        assert len(emb.m_image) == 8 and len(emb.n_image) == 4


class TestConjugacyClasses:
    def test_s3_sizes(self):
        part = conjugacy_classes(symmetric(3))
        assert sorted(len(c) for c in part.classes) == [1, 2, 3]

    def test_abelian_singletons(self):
        g = cyclic(7)
        part = conjugacy_classes(g)
        assert len(part) == 7
        assert all(len(c) == 1 for c in part.classes)

    def test_d10_classes(self):
        g = dihedral(10)
        part = conjugacy_classes(g)
        got = [c.members() for c in part.classes]
        assert got == [(0,), (1, 4), (2, 3), (5, 6, 7, 8, 9)]

    def test_sizes_divide_order(self):
        for name in ["S4", "Q16", "D12", "A5"]:
            g = catalog_group(name)
            part = conjugacy_classes(g)
            assert sum(part.sizes()) == g.order
            assert all(g.order % s == 0 for s in part.sizes())


class TestCenter:
    def test_abelian_full(self):
        g = cyclic(6)
        assert len(center(g)) == 6

    def test_s3_trivial(self):
        assert center(symmetric(3)).members() == (0,)

    def test_q8(self):
        assert center(quaternion(8)).member_labels() == ("1", "-1")


class TestGeneratedSubgroup:
    def test_identity_only(self):
        g = cyclic(5)
        assert generated_subgroup(g, g.subset([0])).members() == (0,)

    def test_c4_generator(self):
        g = cyclic(4)
        assert len(generated_subgroup(g, g.subset([1]))) == 4

    def test_d10_rotation_class(self):
        g = dihedral(10)
        sub = generated_subgroup(g, g.subset([1, 4]))
        assert sub.members() == (0, 1, 2, 3, 4)

    def test_empty_raises(self):
        g = cyclic(3)
        with pytest.raises(EmptyGeneratingSet):
            generated_subgroup(g, g.empty_subset())

    def test_matches_naive_closure(self):
        g = catalog_group("S4")
        for seed in [(1,), (1, 5), (3, 7, 11)]:
            got = generated_subgroup(g, g.subset(seed))
            assert set(got.members()) == naive_closure(g, seed)

    @pytest.mark.parametrize(
        "name", [n for n in catalog_names() if catalog_group(n).order <= 64] + ["S5"]
    )
    def test_closure_matches_breadth_first_reference(self, name):
        g = catalog_group(name)
        rng = random.Random(f"closure {name}")
        masks = [mask_of(rng.sample(range(g.order), min(k, g.order))) for k in (1, 2, 2, 3, 4)]
        masks += [rng.getrandbits(g.order) | 1 << rng.randrange(g.order) for _ in range(3)]
        for mask in masks:
            assert _closure_mask(g, mask) == breadth_first_closure(g, mask), mask


def _generator_inputs(g, rng):
    """Seeded class unions, every singleton, random masks of all sizes and
    a few small random sets, and the normal subgroups."""
    part = conjugacy_classes(g)
    n, k = g.order, len(part)
    masks = [mask_of(x for c in rng.sample(range(k), rng.randint(1, k)) for x in part.classes[c])
             for _ in range(8)]
    masks += [1 << x for x in range(n)]
    masks += [rng.getrandbits(n) for _ in range(6)]
    masks += [mask_of(rng.sample(range(n), min(s, n))) for s in (2, 2, 3, 3)]
    return masks + [s.mask for s in normal_subgroups(g)]


def test_generators_are_pinned():
    # (gens, closure) of _generators for each input on a new table, again on
    # that table, and on one table kept warm over the group's inputs; SHA-256
    # taken when every call ran the greedy closure from the identity
    digest, calls = hashlib.sha256(), 0
    for name in [n for n in catalog_names() if catalog_group(n).order <= 64]:
        g = catalog_group(name)
        warm = fresh_copy(g)
        for mask in _generator_inputs(g, random.Random(f"generators {name}")):
            fresh = fresh_copy(g)
            got = _generators(fresh, mask)
            assert _generators(fresh, mask) == got, (name, mask)
            assert _generators(warm, mask) == got, (name, mask)
            digest.update(f"{name} {mask} {got}\n".encode())
            calls += 1
    assert calls == 5129
    assert digest.hexdigest() == (
        "f49bb445a440d176139921445bd2f98872caf2aeaee57b34225ec7c5fb83a218")


def _cycles(degree, *cycles):
    p = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            p[a] = cyc[(i + 1) % len(cyc)]
    return p


def test_table_generators_are_the_greedy_walk_and_pinned():
    # SHA-256 over the (name, generators) pairs of new tables, taken when
    # GroupTable.generators ran its own greedy closure apart from the walk
    groups = [catalog_group(n) for n in catalog_names() if catalog_group(n).order <= 64]
    groups += [
        group_from_permutations([_cycles(6, [0, 1]), _cycles(6, [0, 1, 2, 3, 4, 5])], name="S6"),
        group_from_permutations([_cycles(7, [0, 1]), _cycles(7, [0, 1, 2, 3]),
                                 _cycles(7, [4, 5]), _cycles(7, [4, 5, 6])], name="S4xS3"),
        group_from_permutations([_cycles(8, [0, 1]), _cycles(8, [0, 2, 4, 6], [1, 3, 5, 7])],
                                name="C2wrC4"),
    ]
    digest = hashlib.sha256()
    for g in groups:
        got = fresh_copy(g).generators
        digest.update(f"{g.name} {got}\n".encode())
    assert len(groups) == 102
    assert digest.hexdigest() == (
        "bd313d461f2cd82689ca62460ec476a84bd2208e94c853b0b7201941260bb942")


class TestSubgroupTest:
    """_is_subgroup_mask against the pairwise definition H*H <= H, 1 in H."""

    @pytest.mark.parametrize("name", [n for n in catalog_names() if catalog_group(n).order <= 8])
    def test_every_mask_of_a_small_group(self, name):
        g = catalog_group(name)
        for mask in range(1 << g.order):
            assert _is_subgroup_mask(g, mask) == is_subgroup_naive(g, bits(mask)), mask

    @pytest.mark.parametrize(
        "name", [n for n in catalog_names() if 8 < catalog_group(n).order <= 64]
    )
    def test_seeded_masks_normal_subgroups_and_classes(self, name):
        g = catalog_group(name)
        n, one = g.order, 1 << g.identity
        rng = random.Random(f"subgroup test {name}")
        masks = [rng.getrandbits(n) | one for _ in range(12)]
        for k in (1, 1, 2, 2, 3):  # subgroups, not all normal, and near misses
            h = _closure_mask(g, mask_of(rng.sample(range(n), k)))
            outside = [x for x in range(n) if not (h >> x) & 1]
            masks.append(h)
            if outside:
                y = 1 << rng.choice(outside)
                masks.append(h | y)
                if h != one:  # the same size with one member swapped out
                    masks.append(h ^ y ^ 1 << rng.choice([x for x in bits(h) if x != g.identity]))
        masks += [s.mask for s in normal_subgroups(g)]
        masks += [c.mask | one for c in conjugacy_classes(g).classes]
        for mask in masks:
            assert _is_subgroup_mask(g, mask) == is_subgroup_naive(g, bits(mask)), mask


class TestCommutatorSet:
    def test_abelian_trivial(self):
        g = cyclic(9)
        full = g.full_subset()
        assert commutator_set(g, full, full).members() == (0,)

    def test_q8(self):
        g = quaternion(8)
        full = g.full_subset()
        assert commutator_set(g, full, full).member_labels() == ("1", "-1")

    def test_s3_gives_a3(self):
        g = symmetric(3)
        full = g.full_subset()
        comm = commutator_set(g, full, full)
        a3 = generated_subgroup(g, g.subset([g.index_of_label("(0 1 2)")]))
        assert comm.mask == a3.mask


class TestNormalSubsets:
    def test_class_is_normal(self):
        g = symmetric(4)
        part = conjugacy_classes(g)
        for cls in part.classes:
            assert is_normal_subset(g, cls)

    def test_single_transposition_not_normal(self):
        g = symmetric(3)
        t = g.subset([g.index_of_label("(0 1)")])
        assert not is_normal_subset(g, t)

    def test_empty_is_normal(self):
        g = symmetric(3)
        assert is_normal_subset(g, g.empty_subset())

    @pytest.mark.parametrize("other", [cyclic(8).subset([0, 4]), cyclic(4).subset([0, 2])],
                             ids=["larger table", "twin table"])
    def test_a_foreign_subset_is_refused(self, other):
        # on an abelian group no class is walked, so only this check sees it
        with pytest.raises(ForeignSubset):
            is_normal_subset(cyclic(4), other)

    @pytest.mark.parametrize("name", [n for n in catalog_names()
                                      if catalog_group(n).order <= 32])
    def test_matches_the_definition(self, name):
        # random subsets, random unions of classes, and such a union with one
        # element added or removed: normal iff closed under every conjugation
        g = catalog_group(name)
        part = conjugacy_classes(g)
        mult, inv, n = g.mult, g.inv, g.order
        assert part.noncentral == g.full_mask & ~center(g).mask  # the classes walked
        rng = random.Random(f"normal {name}")
        seen = set()
        for _ in range(60):
            union = mask_of(x for c in part.classes if rng.random() < 0.5 for x in bits(c.mask))
            for mask in (rng.getrandbits(n), union, union ^ 1 << rng.randrange(n)):
                want = all(mask >> mult[mult[inv[h]][x]][h] & 1
                           for x in bits(mask) for h in range(n))
                assert is_normal_subset(g, Subset(g, mask)) == want, mask
                seen.add(want)
        assert seen == ({True} if g.is_abelian else {True, False})


class TestSetProduct:
    def test_identity_side(self):
        g = dihedral(8)
        b = g.subset([2, 3, 5])
        prod, counts = set_product(g, g.identity_subset(), b)
        assert prod.mask == b.mask
        assert all(v == 1 for v in counts.values())

    def test_d10_class_pair(self):
        g = dihedral(10)
        prod, counts = set_product(g, g.subset([1, 4]), g.subset([2, 3]))
        assert prod.members() == (1, 2, 3, 4)
        assert all(v == 1 for v in counts.values())

    def test_s3_cycles_times_transpositions(self):
        g = symmetric(3)
        part = conjugacy_classes(g)
        three_cycles = next(c for c in part.classes if len(c) == 2)
        transpositions = next(c for c in part.classes if len(c) == 3)
        prod, counts = set_product(g, three_cycles, transpositions)
        assert len(prod) == 3
        assert sum(counts.values()) == 6
        assert set(counts.values()) == {2}

    def test_size_bounds(self):
        g = catalog_group("D12")
        part = conjugacy_classes(g)
        a = part.classes[1] | part.classes[2]
        b = part.classes[3]
        prod, counts = set_product(g, a, b)
        assert len(prod) <= len(a) * len(b)
        assert sum(counts.values()) == len(a) * len(b)


class TestQuotient:
    def test_trivial_kernel(self):
        g = symmetric(3)
        q = quotient_group(g, g.subset([0]))
        assert q.order == 6

    def test_q8_mod_center_is_klein(self):
        g = quaternion(8)
        q = quotient_group(g, center(g))
        assert q.order == 4
        assert len(conjugacy_classes(q)) == 4
        assert all(q.mult[x][x] == q.identity for x in range(4))

    def test_c4_mod_half(self):
        g = cyclic(4)
        q = quotient_group(g, g.subset([0, 2]))
        assert q.order == 2

    def test_rejects_nonnormal(self):
        g = symmetric(3)
        h = generated_subgroup(g, g.subset([g.index_of_label("(0 1)")]))
        with pytest.raises(NotNormalSubgroup):
            quotient_group(g, h)


class TestSubgroupView:
    def test_roundtrip(self):
        g = dihedral(12)
        h = generated_subgroup(g, g.subset([1]))
        view = subgroup_view(g, h)
        assert view.table.order == 6
        assert view.table.identity == 0
        s = view.table.subset([0, 3])
        assert view.pull(view.push(s)).mask == s.mask

    def test_pull_rejects_a_subset_outside_the_subgroup(self):
        g = dihedral(12)
        view = subgroup_view(g, generated_subgroup(g, g.subset([1])))
        outside = next(x for x in g.elements() if x not in view.to_parent)
        with pytest.raises(ValueError, match="not contained"):
            view.pull(g.subset([0, outside]))

    def test_pull_outside_the_subgroup_is_a_typed_group_error(self):
        g = dihedral(12)
        view = subgroup_view(g, generated_subgroup(g, g.subset([1])))
        outside = next(x for x in g.elements() if x not in view.to_parent)
        with pytest.raises(GroupError) as info:
            view.pull(g.subset([0, outside]))
        assert isinstance(info.value, ContainmentViolated)


def _bad_index(bad) -> str:
    """The start of ElementOutOfRange's message for the index `bad`."""
    reason = "out of range" if type(bad) is int else "is not an integer"
    return re.escape(f"element index {bad!r} {reason}")


class TestElementIndices:
    """An index outside 0..order-1, or one that is not an integer, ends in
    ElementOutOfRange, a GroupError that is also a ValueError; a numpy
    integer is an index."""

    @pytest.mark.parametrize("bad", [-1, 16, 17, 1.5, 3.0, "3", True, None])
    def test_subset_and_singleton(self, bad):
        g = catalog_group("Q8oC4")
        for build in (lambda: g.subset([0, bad]), lambda: g.singleton(bad)):
            with pytest.raises(ElementOutOfRange, match=_bad_index(bad)):
                build()
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize("bad", [-1, 16, 2.0, "3", False, None])
    def test_translate(self, bad):
        g = catalog_group("Q8oC4")
        s = g.subset([0, 1, 5])
        with pytest.raises(ElementOutOfRange, match=_bad_index(bad)):
            s.translate(bad)
        with pytest.raises(ValueError):
            s.translate(bad)
        assert s.translate(15).mask == mask_of(g.mult[15][x] for x in (0, 1, 5))

    @pytest.mark.parametrize("value", ["1", None, 1.5, 1.0, True, False, -1, 16, 2**70])
    def test_what_is_not_an_index_is_no_member(self, value):
        s = catalog_group("Q8oC4").subset([0, 1, 5])
        assert value not in s

    def test_membership_of_indices(self):
        s = catalog_group("Q8oC4").subset([0, 1, 5])
        assert [i for i in range(16) if i in s] == [0, 1, 5]
        assert np.int64(5) in s and np.uint8(2) not in s
        wide = catalog_group("C100").subset([3, 90])  # a mask wider than 64 bits
        assert np.int64(90) in wide and np.int64(89) not in wide

    def test_numpy_integers_are_indices(self):
        g = catalog_group("Q8oC4")
        s = g.subset([np.int64(3), np.int32(5)])
        assert type(s.mask) is int and s == g.subset([3, 5])
        assert g.singleton(np.uint8(15)) == g.singleton(15)
        assert s.translate(np.int16(2)) == s.translate(2)
        z = center(g)
        assert class_stabilizer(g, np.int64(1), z) == class_stabilizer(g, 1, z)


def _refused_peak_bytes(build, *args):
    """Peak traced allocation of a build that must raise OrderLimitExceeded."""
    tracemalloc.start()
    try:
        with pytest.raises(OrderLimitExceeded, match=f"order bound {MAX_ORDER}"):
            build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOrderLimit:
    """Each factory refuses an order just over MAX_ORDER before it builds a
    table: the refusal allocates next to nothing."""

    side = math.isqrt(MAX_ORDER) + 1  # side * side > MAX_ORDER

    @pytest.mark.parametrize(
        "build, args",
        [
            (group_from_table, ([[0]] * (MAX_ORDER + 1),)),
            (group_from_permutations, ([(1, 0, 2, 3, 4, 5, 6, 7),
                                        (1, 2, 3, 4, 5, 6, 7, 0)],)),
            (direct_product, (cyclic(side), cyclic(side))),
            (cyclic, (MAX_ORDER + 1,)),
            (dihedral, (MAX_ORDER + 2 - MAX_ORDER % 2,)),
            (quaternion, (MAX_ORDER + 4 - MAX_ORDER % 4,)),
            (cyclic_product, ([2, MAX_ORDER // 2 + 1],)),
            (group_from_json, ({"kind": "central_product",
                                "left": {"kind": "catalog", "name": "C100"},
                                "right": {"kind": "catalog", "name": "C100"},
                                "pairing": [[0, 0]]},)),
        ],
        ids=["table", "permutations", "direct-product", "cyclic", "dihedral",
             "quaternion", "cyclic-product", "json-central-product-C100-C100"],
    )
    def test_refused_before_allocating(self, build, args):
        catalog_group("C100")  # the cached factor is built outside the trace
        assert _refused_peak_bytes(build, *args) < 10 * 2**20

    def test_large_degree_is_refused(self):
        with pytest.raises(OrderLimitExceeded, match="degree"):
            group_from_permutations([list(range(MAX_ORDER, -1, -1))])
        with pytest.raises(OrderLimitExceeded, match="degree"):
            symmetric(10**9)

    def test_symmetric_and_alternating_by_their_order(self):
        with pytest.raises(OrderLimitExceeded, match="order 362880 "):
            symmetric(9)
        with pytest.raises(OrderLimitExceeded, match="order 181440 "):
            alternating(9)

    @pytest.mark.parametrize("make", [symmetric, alternating])
    def test_an_order_too_long_to_print_is_refused(self, make):
        # 1559! has over 4300 digits, more than str() converts
        with pytest.raises(OrderLimitExceeded, match=r"order over 10\^100 exceeds"):
            make(1559)


class TestCatalog:
    def test_names_resolve_and_case_insensitive(self):
        assert catalog_group("d10").order == 10
        assert catalog_group("D10") is catalog_group("D10")

    def test_quaternion_orders(self):
        assert quaternion(8).order == 8
        assert quaternion(16).order == 16

    def test_alternating(self):
        assert alternating(4).order == 12
        assert alternating(5).order == 60

    def test_cyclic_product_indices(self):
        orders = [3, 3, 2]
        z = cyclic_product(orders)
        g1 = exponent_index(orders, (1, 0, 0))
        g3 = exponent_index(orders, (0, 0, 1))
        assert z.labels[g1] == "g1"
        assert z.mult[g1][g3] == exponent_index(orders, (1, 0, 1))
        assert z.element_order(g1) == 3
        assert z.element_order(g3) == 2

    @pytest.mark.parametrize(
        "orders",
        [[int(p[1:]) for p in name.split("x")] for name in catalog_names() if "x" in name]
        + [[10, 10, 10]],
        ids=lambda orders: "x".join(f"C{o}" for o in orders),
    )
    def test_cyclic_product_is_exponent_arithmetic(self, orders):
        g = cyclic_product(orders)
        exps = np.array(list(itertools.product(*map(range, orders))))  # in index order
        assert [exponent_index(orders, e) for e in exps.tolist()] == list(range(g.order))
        weights = [math.prod(orders[i + 1:]) for i in range(len(orders))]
        mods = np.array(orders)
        assert (np.array(g.mult) == (exps[:, None] + exps[None, :]) % mods @ weights).all()
        assert list(g.inv) == ((-exps) % mods @ weights).tolist()
        assert list(g.labels) == [
            "*".join(f"g{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(ex) if e)
            or "1" for ex in exps.tolist()
        ]
