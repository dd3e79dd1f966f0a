"""The brute-force enumeration against an even more naive reference, plus
transversal search and the property suite."""

import gc
import hashlib
import itertools
import math
import random
import sys
import time
import types

import pytest

from setdirect.catalog import catalog_group, catalog_names, cyclic, quaternion, symmetric
from setdirect.errors import GroupError, SearchSpaceTooLarge, TimeBudgetExceeded
from setdirect.groups import center, conjugacy_classes, generated_subgroup, set_product
from setdirect import oracle
from setdirect.oracle import (
    enumerate_setdirect,
    find_normal_transversal,
    property_suite,
)

from helpers import (
    BUDGET_MARGIN_S,
    naive_factorizations,
    naive_is_direct,
    relabelled,
    translate_orbit_counts,
)


SMALL_GROUPS = ["C4", "C6", "C8", "C12", "S3", "S4", "D8", "D10", "D12", "Q8",
                "Q16", "A4", "C2xC2", "C2xC2xC2", "Q8oC4"]


class TestEnumeration:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_matches_naive_reference(self, name):
        g = catalog_group(name)
        naive = naive_factorizations(g)
        res = enumerate_setdirect(g)
        got = {f.unordered_key() for f in res.factorizations}
        assert got == naive
        assert res.total == len(naive)

    def test_counts_without_expansion_match(self):
        # arithmetic totals equal materialized totals
        for name in ["C12", "C2xC2xC2", "D12"]:
            g = catalog_group(name)
            res = enumerate_setdirect(g)
            assert res.total == len(res.factorizations)

    def test_c4_normalized_nontrivial(self):
        g = cyclic(4)
        res = enumerate_setdirect(g, normalized_only=True, nontrivial_only=True)
        got = {f.unordered_key() for f in res.factorizations}
        assert got == {
            (g.subset([0, 1]).mask, g.subset([0, 2]).mask),
            (g.subset([0, 2]).mask, g.subset([0, 3]).mask),
        }

    def test_s3_only_trivial(self):
        res = enumerate_setdirect(symmetric(3), nontrivial_only=True)
        assert res.factorizations == []
        assert res.total == 1

    def test_a5_no_nontrivial(self):
        res = enumerate_setdirect(catalog_group("A5"), nontrivial_only=True)
        assert res.factorizations == []
        assert res.elapsed < 60

    def test_every_pair_covers_and_multiplies(self):
        g = catalog_group("C12")
        res = enumerate_setdirect(g)
        for f in res.factorizations:
            assert len(f.x) * len(f.y) == g.order
            prod, counts = set_product(g, f.x, f.y)
            assert prod.mask == g.full_mask
            assert all(v == 1 for v in counts.values())

    def test_candidate_volume_bound(self):
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_setdirect(cyclic(64))  # the (8,8) split alone is 5e8

    def test_prime_cyclic_over_26_classes_is_fine(self):
        res = enumerate_setdirect(cyclic(31), nontrivial_only=True)
        assert res.factorizations == [] and res.total == 31

    def test_normalized_entries_are_normalized(self):
        g = catalog_group("C2xC2xC2")
        res = enumerate_setdirect(g, normalized_only=True)
        assert all(f.is_normalized() for f in res.factorizations)
        assert res.normalized == len(res.factorizations)


ORBIT_COUNT_GROUPS = [
    n for n in catalog_names() if catalog_group(n).order <= 24
] + ["C30", "C3xC3xC2"]


class TestShiftOrbitCounts:
    @pytest.mark.parametrize("name", ORBIT_COUNT_GROUPS)
    def test_closed_form_matches_translates(self, name):
        g = catalog_group(name)
        res = enumerate_setdirect(g, normalized_only=True)
        pairs = [(f.x.mask, f.y.mask) for f in res.factorizations]
        assert (res.total, res.nontrivial) == translate_orbit_counts(g, pairs)

    @pytest.mark.parametrize("name, counts", [
        ("C1", (1, 0, 1)),  # X = Y = {1}: the one pair with equal sides
        ("C16", (4624, 4608, 289)),
        ("Q8oC4", (68, 64, 17)),
        ("C36", (14205492, 14205456, 394597)),
    ])
    def test_equal_sides_count_each_pair_once(self, name, counts):
        # with |X| = |Y| a pair can be met from either side, and only its
        # first meeting counts
        res = enumerate_setdirect(catalog_group(name), normalized_only=True)
        assert (res.total, res.nontrivial, res.normalized) == counts

    def test_c34_pinned(self):
        res = enumerate_setdirect(cyclic(34), normalized_only=True)
        assert (res.total, res.nontrivial, res.normalized) == (2228802, 2228768, 65553)


SMALL_CATALOG = [n for n in catalog_names() if catalog_group(n).order <= 32]

# Normalized pair counts of the plain class-union search, before the
# power-map orbits were used (C28 and C30 as pinned in perfbench/reference.py).
PINNED_NORMALIZED = {
    "C20": 1001, "C24": 6625, "C27": 6724, "C28": 13161, "C30": 41611, "C3xC3xC2": 1513,
}


def naive_exponent(g):
    orders = []
    for x in range(g.order):
        k, y = 1, x
        while y != g.identity:
            y, k = g.mult[y][x], k + 1
        orders.append(k)
    return math.lcm(*orders)


class TestPowerMapOrbits:
    @pytest.mark.parametrize("name", SMALL_CATALOG)
    def test_power_maps_are_automorphisms(self, name):
        g = catalog_group(name)
        maps = oracle._power_maps(g, oracle._Deadline(60.0))
        if not g.is_abelian:
            assert maps == []
            return
        e = naive_exponent(g)
        assert len(maps) == sum(1 for k in range(1, e + 1) if math.gcd(k, e) == 1)
        assert maps[0] == tuple(range(g.order))
        assert len(set(maps)) == len(maps)
        for s in maps:
            assert sorted(s) == list(range(g.order))
            for a in range(g.order):
                for b in range(g.order):
                    assert s[g.mult[a][b]] == g.mult[s[a]][s[b]]

    def test_non_abelian_builds_no_tables(self, monkeypatch):
        def refuse(s):
            raise AssertionError("lookup tables built for a non-abelian group")

        monkeypatch.setattr(oracle, "_byte_tables", refuse)
        for name in ["S4", "D24", "Q8oQ8", "D8oC4"]:
            enumerate_setdirect(catalog_group(name), normalized_only=True)

    @pytest.mark.parametrize("name", sorted(PINNED_NORMALIZED))
    def test_listed_pairs_are_the_normalized_factorizations(self, name):
        # Distinct, normalized, direct with |X||Y| = |G|, and as many as the
        # plain search found: so the same set as the plain search's.
        g = catalog_group(name)
        res = enumerate_setdirect(g, normalized_only=True)
        keys = [f.unordered_key() for f in res.factorizations]
        assert len(set(keys)) == len(keys) == res.normalized == PINNED_NORMALIZED[name]
        for f in res.factorizations:
            assert g.identity in f.x and g.identity in f.y
            assert len(f.x) * len(f.y) == g.order
            assert naive_is_direct(g, f.x.members(), f.y.members())

    def test_relabelled_c24_same_counts(self):
        g = relabelled(cyclic(24), random.Random(7))
        res = enumerate_setdirect(g, normalized_only=True)
        assert (res.total, res.nontrivial, res.normalized) == (159000, 158976, 6625)


SHIFT_CLOSURE_GROUPS = ["C12", "C2xC2xC2", "Q16", "D8oC4", "Q8oC4", "C30"]


@pytest.mark.parametrize("name", SHIFT_CLOSURE_GROUPS)
def test_listing_is_closed_under_normalizing_shifts(name):
    # (zX, Y) and (X, wY), for z^-1 in X∩Z and w^-1 in Y∩Z, are normalized
    # factorizations whenever (X, Y) is one, so the listing holds them too
    g = catalog_group(name)
    mult, inv, n = g.mult, g.inv, g.order
    centre = [z for z in range(n) if all(mult[z][x] == mult[x][z] for x in range(n))]
    res = enumerate_setdirect(g, normalized_only=True)
    keys = {f.unordered_key() for f in res.factorizations}
    assert len(keys) == res.normalized
    memo = {}

    def shifts(mask):
        got = memo.get(mask)
        if got is None:
            members = [x for x in range(n) if mask >> x & 1]
            got = memo[mask] = [
                sum(1 << mult[inv[z]][x] for x in members) for z in centre if mask >> z & 1
            ]
        return got

    for xm, ym in keys:
        assert xm >> g.identity & 1 and ym >> g.identity & 1
        for zx in shifts(xm):
            assert (min(zx, ym), max(zx, ym)) in keys
        for wy in shifts(ym):
            assert (min(xm, wy), max(xm, wy)) in keys


def _packed(lo, hi, n=30):
    """A pair of n-bit masks as the oracle packs it: lo << n | hi."""
    return lo << n | hi


LISTING_ORDER_GROUPS = ["C12", "C2xC2xC2", "D8oC4"]


@pytest.mark.parametrize("name", LISTING_ORDER_GROUPS)
def test_listings_ascend_and_are_sorted_once(name, monkeypatch):
    g = catalog_group(name)
    for kw in ({"normalized_only": True}, {}, {"nontrivial_only": True}):
        res = enumerate_setdirect(g, **kw)
        keys = [f.unordered_key() for f in res.factorizations]
        assert keys and all(a < b for a, b in zip(keys, keys[1:]))

    calls = []
    real = oracle._sorted

    def counted(values, deadline):
        calls.append(len(values))
        return real(values, deadline)

    monkeypatch.setattr(oracle, "_sorted", counted)
    res = enumerate_setdirect(g)
    assert calls == [len(res.factorizations)]


ENUMERATOR_GROUPS = ["S5", "D8oC4", "C12", "C3xC3xC2"]


@pytest.mark.parametrize("name", ENUMERATOR_GROUPS)
def test_class_unions_match_combinations_in_order(name):
    g = catalog_group(name)
    part = conjugacy_classes(g)
    sizes = part.sizes()
    masks = [part.class_mask(c) for c in range(len(part))]
    # every index tuple of classes, in lexicographic order, by its total size
    by_total = {}
    for t in sorted(c for r in range(len(sizes) + 1)
                    for c in itertools.combinations(range(len(sizes)), r)):
        mask = 0
        for i in t:
            mask |= masks[i]
        by_total.setdefault(sum(sizes[i] for i in t), []).append(mask)
    for target in range(g.order + 1):
        got = list(oracle._class_unions(sizes, masks, target))
        assert got == by_total.get(target, [])


# SHA-256 of each ordered normalized listing, one "x.mask,y.mask" line per
# pair as scripts/oracle_digest.py hashes it, taken from the search that
# enumerated index tuples and rebuilt its candidates at every node
PINNED_LISTINGS = {
    "C24": "5644755930feeed172547368c1b7c2f93910c3a93090e601513bf5cb3bf3a4a3",
    "C3xC3xC2": "6a400d7abac1566087b910a6f1852d5fb5fe6f13209b4032e3f71e06ac9f4fc8",
}


@pytest.mark.parametrize("name", sorted(PINNED_LISTINGS))
def test_normalized_listing_is_pinned(name):
    res = enumerate_setdirect(catalog_group(name), normalized_only=True)
    h = hashlib.sha256()
    for f in res.factorizations:
        h.update(f"{f.x.mask},{f.y.mask}\n".encode())
    assert h.hexdigest() == PINNED_LISTINGS[name]


def _assert_no_search_frames(exc):
    """The time-out keeps no frame of the search as context or traceback."""
    assert exc.__context__ is None and exc.__cause__ is None
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    # the traceback ends where the exception is raised, not in the search
    assert tb.tb_frame.f_code.co_name == "enumerate_setdirect"


class TestTimeBudget:
    def test_partial_progress_on_timeout(self):
        with pytest.raises(TimeBudgetExceeded) as info:
            enumerate_setdirect(catalog_group("C40"), normalized_only=True, time_budget=0.5)
        assert info.value.phase == "search"
        assert "in the search phase" in str(info.value)
        partial = info.value.partial
        assert partial.normalized > 0
        assert partial.total >= partial.normalized
        assert partial.nontrivial <= partial.total
        assert partial.factorizations == []
        _assert_no_search_frames(info.value)

    def test_timeout_in_the_listing_keeps_no_search_frames(self, monkeypatch):
        g = catalog_group("C24")
        done = enumerate_setdirect(g, normalized_only=True)

        def out_of_time(*args):
            raise oracle._OutOfTime

        monkeypatch.setattr(oracle, "_factorization_list", out_of_time)
        with pytest.raises(TimeBudgetExceeded) as info:
            enumerate_setdirect(g, normalized_only=True)
        assert info.value.phase == "listing"
        assert "in the listing phase" in str(info.value)
        partial = info.value.partial
        assert partial.normalized == done.normalized
        assert (partial.total, partial.nontrivial) == (done.total, done.nontrivial)
        _assert_no_search_frames(info.value)

    @pytest.mark.parametrize("name", ["C40", "C34"])
    def test_run_ends_near_its_budget(self, name):
        g = catalog_group(name)
        t0 = time.perf_counter()
        try:
            enumerate_setdirect(g, normalized_only=True, time_budget=2.0)
        except TimeBudgetExceeded:
            pass
        assert time.perf_counter() - t0 <= 2.0 + BUDGET_MARGIN_S

    def test_sorted_listing_polls_the_deadline(self):
        rng = random.Random(5)
        spread = {_packed(*sorted((rng.getrandbits(30), rng.getrandbits(30))))
                  for _ in range(100_000)}
        # one shared small side, as in C45's 4.8 million pairs with X = <z^15>
        skewed = {_packed(3, rng.getrandbits(30)) for _ in range(100_000)}
        for values in (spread, skewed):
            assert oracle._sorted(values, oracle._Deadline(60.0)) == sorted(values)
            with pytest.raises(oracle._OutOfTime):
                oracle._sorted(values, oracle._Deadline(0.0))
        small = {_packed(1, 9), _packed(3, 5), _packed(1, 2)}  # one plain sort, no poll
        assert oracle._sorted(small, oracle._Deadline(0.0)) == [
            _packed(1, 2), _packed(1, 9), _packed(3, 5)
        ]

    def test_bucket_sorts_read_the_clock(self):
        # A deadline whose poll never reads the clock: only the read before
        # each part's sort (and each part of a large part) can stop it.
        class NoPoll(oracle._Deadline):
            def poll(self):
                pass

        rng = random.Random(6)
        spread = {_packed(rng.getrandbits(30), rng.getrandbits(30)) for _ in range(100_000)}
        skewed = [_packed(3, b) for b in rng.sample(range(1 << 30), 100_000)]
        with pytest.raises(oracle._OutOfTime):
            oracle._sorted(spread, NoPoll(0.0))
        with pytest.raises(oracle._OutOfTime):
            oracle._sorted(skewed, NoPoll(0.0))
        assert oracle._sorted(skewed, NoPoll(60.0)) == sorted(skewed)

    def test_final_merge_reads_the_clock(self):
        # Three chunks' values merge in pieces of at most one chunk each, so
        # in three pieces at least, each after a clock read: a deadline that
        # allows the three chunk sorts two reads more must stop the merge.
        class Reads(oracle._Deadline):
            def __init__(self, allowed):
                super().__init__(60.0)
                self.allowed = allowed

            def check(self):
                self.allowed -= 1
                if self.allowed < 0:
                    raise oracle._OutOfTime

        values = random.Random(7).sample(range(1 << 40), 3 * oracle._SORT_CHUNK)
        with pytest.raises(oracle._OutOfTime):
            oracle._sorted(values, Reads(3 + 2))
        assert oracle._sorted(values, Reads(100)) == sorted(values)

    @pytest.mark.parametrize("budget", [float("nan"), -1.0, float("-inf")])
    def test_nan_or_negative_budget_is_refused(self, budget):
        with pytest.raises(GroupError, match="time budget must be") as info:
            enumerate_setdirect(catalog_group("C36"), normalized_only=True,
                                time_budget=budget)
        assert not isinstance(info.value, TimeBudgetExceeded)

    def test_power_map_checks_read_the_clock(self):
        # 502 maps, each checked on all 253 009 entries of the table
        g = cyclic(503)
        t0 = time.perf_counter()
        with pytest.raises(TimeBudgetExceeded) as info:
            enumerate_setdirect(g, normalized_only=True, time_budget=1.0)
        assert time.perf_counter() - t0 <= 1.0 + BUDGET_MARGIN_S
        assert info.value.phase == "search"

    def test_search_deeper_than_the_stack_reads_the_clock(self):
        # X = {1} leaves Y = G, a cover 997 classes deep
        g = cyclic(997)
        t0 = time.perf_counter()
        with pytest.raises(TimeBudgetExceeded) as info:
            enumerate_setdirect(g, normalized_only=True, time_budget=1.0)
        assert time.perf_counter() - t0 <= 1.0 + BUDGET_MARGIN_S
        assert info.value.phase == "search"

    def test_c45_search_ends_near_its_budget(self):
        # X = <z^15> alone has 4.78 million completions
        t0 = time.perf_counter()
        with pytest.raises(TimeBudgetExceeded) as info:
            enumerate_setdirect(catalog_group("C45"), normalized_only=True, time_budget=1.0)
        assert time.perf_counter() - t0 <= 1.0 + BUDGET_MARGIN_S
        assert info.value.phase == "search"
        assert info.value.partial.normalized > 0

    def test_bulk_steps_of_the_search_read_the_clock(self):
        # A deadline whose poll never reads the clock: only the reads before
        # each bulk step (a node's completions, a chunk of pairs) can stop it.
        class NoPoll(oracle._Deadline):
            def poll(self):
                pass

        found = oracle._Found()
        t0 = time.perf_counter()
        with pytest.raises(oracle._OutOfTime):
            oracle._normalized_pairs(catalog_group("C45"), NoPoll(1.0), found)
        assert time.perf_counter() - t0 <= 1.0 + BUDGET_MARGIN_S
        assert found.pairs

    def test_search_does_not_recurse(self):
        g = catalog_group("C30")
        depth, frame = 0, sys._getframe()
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 25)
        try:
            res = enumerate_setdirect(g, normalized_only=True)
        finally:
            sys.setrecursionlimit(limit)
        assert (res.total, res.nontrivial, res.normalized) == (1248330, 1248300, 41611)

    def test_listing_restores_the_collector(self):
        g = catalog_group("C12")
        assert gc.isenabled()
        enumerate_setdirect(g)
        assert gc.isenabled()
        gc.disable()
        try:
            enumerate_setdirect(g)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestAbelianEnumeration:
    def test_c2(self):
        res = enumerate_setdirect(cyclic(2), normalized_only=False)
        assert res.nontrivial == 0
        assert res.total == 2  # {1} x Z and {z} x Z as unordered pairs

    def test_c4_pairs(self):
        res = enumerate_setdirect(cyclic(4), normalized_only=True)
        assert res.normalized == 3

    def test_transversal_member_of_list(self):
        g = catalog_group("C3xC2xC2")
        res = enumerate_setdirect(g, normalized_only=True)
        g1 = 2  # exponent (1,0,0) in orders (3,2,2) encodes to 4? compute below
        from setdirect.catalog import exponent_index

        orders = (3, 2, 2)
        sub = generated_subgroup(g, g.subset([exponent_index(orders, (1, 0, 0))]))
        y = g.subset(
            [
                0,
                exponent_index(orders, (1, 1, 0)),
                exponent_index(orders, (1, 0, 1)),
                exponent_index(orders, (1, 1, 1)),
            ]
        )
        key = (min(sub.mask, y.mask), max(sub.mask, y.mask))
        assert key in {f.unordered_key() for f in res.factorizations}


class TestTransversalSearch:
    def test_q8_absent(self):
        g = quaternion(8)
        assert find_normal_transversal(g, center(g)) is None

    def test_abelian_always_present(self):
        g = cyclic(12)
        z = generated_subgroup(g, g.subset([4]))
        t = find_normal_transversal(g, z)
        assert t is not None
        assert len(t) == 4

    def test_transversal_property(self):
        g = catalog_group("Q8oC4")
        from setdirect.central import central_subgroups

        for z in central_subgroups(g):
            t = find_normal_transversal(g, z)
            if t is None:
                continue
            prod, counts = set_product(g, z, t)
            assert prod.mask == g.full_mask
            assert all(v == 1 for v in counts.values())

    def test_trivial_z(self):
        g = symmetric(3)
        t = find_normal_transversal(g, g.identity_subset())
        assert t is not None and t.mask == g.full_mask

    def test_more_cosets_than_the_recursion_limit(self):
        g = cyclic(1100)
        t = find_normal_transversal(g, g.identity_subset())
        assert t is not None and t.mask == g.full_mask

    def test_normal_transversals_are_pinned(self):
        # the first transversal in the search order, for every central
        # subgroup of every catalog group of order <= 48: 310 cases
        from setdirect.central import central_subgroups

        digest, cases = hashlib.sha256(), 0
        for name in catalog_names():
            g = catalog_group(name)
            if g.order > 48:
                continue
            for z in central_subgroups(g):
                t = find_normal_transversal(g, z)
                digest.update(f"{name},{z.mask},{None if t is None else t.mask}\n".encode())
                cases += 1
        assert cases == 310
        assert digest.hexdigest() == (
            "27dd61fcf26f47c56e3f54f0a300cfc53a2d92ccb2b906547b6cf20df10e83fa")


SUITE_CHECKS = [
    "direct_pairs_centralize", "intersection_at_most_one", "central_pair_exists",
    "verifier_and_slice_structure", "criteria_agree_on_samples", "association",
    "class_pairs_nondirect",
]


class TestPropertySuite:
    @pytest.mark.parametrize("name", ["D10", "A5", "C12", "S4", "Q8oC4"])
    def test_passes(self, name):
        rep = property_suite(catalog_group(name), samples=60, seed=3)
        assert rep.passed, [(c.name, c.detail) for c in rep.checks if not c.passed]

    def test_a5_runs_class_pair_check(self):
        rep = property_suite(catalog_group("A5"), samples=10, seed=0)
        names = [c.name for c in rep.checks]
        assert "class_pairs_nondirect" in names

    def test_d10_reports_direct_witness(self):
        rep = property_suite(catalog_group("D10"), samples=10, seed=0)
        check = next(c for c in rep.checks if c.name == "class_pairs_nondirect")
        assert check.passed
        assert "direct class pair" in check.detail

    def test_budget_bounds_the_whole_run(self):
        # the oracle takes about 0.4 s of the second; verifying its 41 611
        # pairs one by one takes about 20 s
        g = catalog_group("C30")
        t0 = time.perf_counter()
        with pytest.raises(TimeBudgetExceeded) as info:
            property_suite(g, samples=120, time_budget=1.0)
        assert time.perf_counter() - t0 <= 1.0 + BUDGET_MARGIN_S
        assert info.value.phase in SUITE_CHECKS
        assert info.value.phase in str(info.value)
        done = [c.name for c in info.value.partial.checks]
        assert done == SUITE_CHECKS[:SUITE_CHECKS.index(info.value.phase)]
        assert info.value.partial.passed

    def test_huge_sample_count_ends_in_its_check(self):
        t0 = time.perf_counter()
        with pytest.raises(TimeBudgetExceeded) as info:
            property_suite(cyclic(4), samples=10**14, time_budget=0.1)
        assert time.perf_counter() - t0 <= 0.1 + BUDGET_MARGIN_S
        assert info.value.phase == "criteria_agree_on_samples"
        assert len(info.value.partial.checks) == 4

    def test_oracle_time_out_keeps_its_phase(self):
        with pytest.raises(TimeBudgetExceeded) as info:
            property_suite(catalog_group("C36"), time_budget=0.0)
        assert info.value.phase == "search"
        assert isinstance(info.value.partial, oracle.EnumerationResult)

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_nan_or_negative_budget_is_refused(self, budget):
        with pytest.raises(GroupError, match="time budget must be") as info:
            property_suite(catalog_group("C4"), time_budget=budget)
        assert not isinstance(info.value, TimeBudgetExceeded)

    def test_a_failing_check_reports_its_first_failure(self, monkeypatch):
        def rejecting(G, X, Y):
            return types.SimpleNamespace(verdict=False)

        monkeypatch.setattr(oracle, "verify_main_theorem", rejecting)
        rep = property_suite(cyclic(4), samples=5)
        assert [c.name for c in rep.checks] == SUITE_CHECKS
        failed = [c for c in rep.checks if not c.passed]
        assert [c.name for c in failed] == ["verifier_and_slice_structure"]
        assert failed[0].detail == "verifier rejected (0,) x (0, 1, 2, 3)"  # the first pair
