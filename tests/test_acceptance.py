"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time

import pytest

from setdirect.catalog import (
    catalog_group,
    catalog_names,
    cyclic,
    cyclic_product,
    dihedral,
    exponent_index,
)
from setdirect.central import (
    central_subgroups,
    class_count_report,
    z_orbits,
)
from setdirect.errors import SearchSpaceTooLarge
from setdirect.factor import (
    construct_from_system,
    derive_system,
    is_direct,
    prime_power_factorization,
    verify_main_theorem,
)
from setdirect.groups import (
    Subset,
    _image,
    _is_subgroup_mask,
    _product_mask,
    bits,
    center,
    commutator_set,
    conjugacy_classes,
    generated_subgroup,
    mask_of,
    quotient_group,
)
from setdirect.oracle import enumerate_setdirect, find_normal_transversal


def record(tag, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{tag}] {status} {detail}")
    assert passed, f"{tag}: {detail}"


def test_a01_d10_class_pair_direct():
    t0 = time.perf_counter()
    g = dihedral(10)
    rep = is_direct(g, g.subset([1, 4]), g.subset([2, 3]))
    elapsed = time.perf_counter() - t0
    record(
        "A01",
        rep.verdict and elapsed < 1.0,
        f"D10 {{r,r4}} x {{r2,r3}} direct in {elapsed:.3f}s",
    )


def test_a02_simple_groups_empty():
    simple = ["A5"] + [
        f"C{p}" for p in range(2, 65)
        if all(p % q for q in range(2, p)) and p > 1
    ]
    worst = 0.0
    for name in simple:
        g = catalog_group(name)
        assert g.order <= 360
        res = enumerate_setdirect(g, nontrivial_only=True, time_budget=60.0)
        assert res.factorizations == [], name
        assert res.nontrivial == 0, name
        worst = max(worst, res.elapsed)
    record(
        "A02",
        worst < 60.0,
        f"{len(simple)} simple catalog groups, no nontrivial pairs, "
        f"worst {worst:.2f}s",
    )


def _coset_reps_avoiding(z, h_mask, y_members):
    """Cosets of the subgroup with mask h_mask that avoid the cosets of the
    given elements; returns one representative per admissible coset."""
    excluded = {_image(z.mult[y], h_mask) for y in y_members} | {h_mask}
    reps, seen = [], set()
    for x in range(z.order):
        cm = _image(z.mult[x], h_mask)
        if cm in seen or cm in excluded:
            continue
        seen.add(cm)
        reps.append(x)
    return reps


def test_a03_obstruction_products_under_18():
    t0 = time.perf_counter()
    orders = (3, 3, 2)
    z = cyclic_product(orders)
    g1 = exponent_index(orders, (1, 0, 0))
    y1 = exponent_index(orders, (1, 0, 1))
    y2 = exponent_index(orders, (0, 1, 1))
    y = z.subset([0, y1, y2])
    h = generated_subgroup(z, z.subset([g1]))
    alphas = _coset_reps_avoiding(z, h.mask, (y1, y2))
    assert len(alphas) == 3
    sizes = []
    for a in alphas:
        xm = Subset(z, h.mask | _image(z.mult[a], h.mask))
        assert len(xm) * len(y) == 18
        prod = _product_mask(z, xm.mask, y.mask)
        sizes.append(prod.bit_count())
    elapsed = time.perf_counter() - t0
    record(
        "A03",
        all(s < 18 for s in sizes) and elapsed < 1.0,
        f"C3xC3xC2 slice products {sizes} all < 18 in {elapsed:.3f}s",
    )


def test_a04_obstruction_products_under_36():
    t0 = time.perf_counter()
    orders = (3, 3, 4)
    z = cyclic_product(orders)
    g1 = exponent_index(orders, (1, 0, 0))
    h = generated_subgroup(z, z.subset([g1]))

    def elt(a, b, c):
        return exponent_index(orders, (a, b, c))

    y_cases = [
        (elt(1, 0, 1), elt(0, 1, 1)),     # both factors of order 12
        (elt(1, 0, 1), elt(0, 1, 3)),
        (elt(1, 0, 2), elt(0, 1, 1)),     # orders 6 and 12
        (elt(0, 1, 2), elt(1, 0, 1)),
    ]
    checked, worst = 0, 0
    for y1, y2 in y_cases:
        assert {z.element_order(y1), z.element_order(y2)} <= {6, 12}
        y = z.subset([0, y1, y2])
        assert generated_subgroup(z, y).mask == z.full_mask
        reps = _coset_reps_avoiding(z, h.mask, (y1, y2))
        assert len(reps) == 9
        from itertools import combinations

        for trio in combinations(reps, 3):
            xmask = h.mask
            for a in trio:
                xmask |= _image(z.mult[a], h.mask)
            assert xmask.bit_count() * len(y) == 36
            size = _product_mask(z, xmask, y.mask).bit_count()
            worst = max(worst, size)
            checked += 1
            assert size < 36, (trio, size)
    elapsed = time.perf_counter() - t0
    record(
        "A04",
        checked == 4 * 84 and worst < 36 and elapsed < 10.0,
        f"C3xC3xC4 {checked} slice products all < 36 (max {worst}) "
        f"in {elapsed:.2f}s",
    )


def test_a05_positive_transversal_case():
    t0 = time.perf_counter()
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
    not_subgroup = not _is_subgroup_mask(z, y.mask)
    generates = generated_subgroup(z, y).mask == z.full_mask
    elapsed = time.perf_counter() - t0
    record(
        "A05",
        rep.verdict and not_subgroup and generates and elapsed < 1.0,
        f"C3xC2xC2 = <g1> x Y certified; Y generates but is not a subgroup "
        f"({elapsed:.3f}s)",
    )


def _le(bound):
    return [n for n in catalog_names() if catalog_group(n).order <= bound]


def _candidate_pairs_by_size(G):
    """All (xmask, ymask) class-union pairs with |X| |Y| = |G|.

    Enumerates the full subset space; only for small class counts."""
    part = conjugacy_classes(G)
    k = len(part)
    by_size = {}
    for b in range(1, 1 << k):
        m, s = 0, 0
        for c in range(k):
            if (b >> c) & 1:
                m |= part.class_mask(c)
                s += len(part.classes[c])
        if G.order % s == 0:
            by_size.setdefault(s, []).append(m)
    for d, xs in by_size.items():
        for ym in by_size.get(G.order // d, []):
            for xm in xs:
                yield xm, ym


def _count_candidates(G):
    """Number of class-union pairs with complementary sizes, by DP."""
    part = conjugacy_classes(G)
    sizes = part.sizes()
    counts = {0: 1}
    for s in sizes:
        for total, cnt in sorted(counts.items(), reverse=True):
            counts[total + s] = counts.get(total + s, 0) + cnt
    return sum(
        cnt * counts.get(G.order // d, 0)
        for d, cnt in counts.items()
        if d and G.order % d == 0
    )


def _sampled_candidate_pairs(G, rng, count):
    """Deterministic random class-union pairs with complementary sizes."""
    part = conjugacy_classes(G)
    k = len(part)
    sizes = part.sizes()
    divisors = [d for d in range(1, G.order + 1) if G.order % d == 0]
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        d = rng.choice(divisors)

        def pick(target):
            order = list(range(k))
            rng.shuffle(order)
            m, s = 0, 0
            for c in order:
                if s + sizes[c] <= target:
                    m |= part.class_mask(c)
                    s += sizes[c]
                if s == target:
                    return m
            return None

        xm = pick(d)
        ym = pick(G.order // d)
        if xm and ym:
            out.append((xm, ym))
    return out


def _oracle_membership(G, xm, ym, norm_keys):
    """Membership in the oracle list via the normalizing central shift."""
    zc = center(G).mask
    for z in bits(zc & xm):
        if (ym >> G.inv[z]) & 1:
            nx = _image(G.mult[G.inv[z]], xm)
            ny = _image(G.mult[z], ym)
            if (min(nx, ny), max(nx, ny)) in norm_keys:
                return True
    return False


def test_a06_oracle_verifier_equivalence_upto_24():
    rng = random.Random(24)
    groups = _le(24)
    verified = scanned = 0
    for name in groups:
        G = catalog_group(name)
        res = enumerate_setdirect(G, normalized_only=True)
        norm_keys = {f.unordered_key() for f in res.factorizations}
        for f in res.factorizations:
            rep = verify_main_theorem(G, f.x, f.y)
            assert rep.verdict, (name, f.x.members(), f.y.members())
            verified += 1
        # candidate scan: verifier verdict must equal oracle membership
        n_candidates = _count_candidates(G)
        if n_candidates <= 1200 and len(conjugacy_classes(G)) <= 15:
            candidates = list(_candidate_pairs_by_size(G))
        else:
            candidates = _sampled_candidate_pairs(G, rng, 200)
        for xm, ym in candidates:
            rep = verify_main_theorem(G, Subset(G, xm), Subset(G, ym))
            member = _oracle_membership(G, xm, ym, norm_keys)
            assert rep.verdict == member, (name, xm, ym)
            scanned += 1
    record(
        "A06",
        True,
        f"{len(groups)} groups <= 24: {verified} oracle pairs certified, "
        f"{scanned} candidates agree with membership, zero discrepancies",
    )


def test_a07_a08_criteria_equivalence_and_centralization():
    rng = random.Random(78)
    groups = _le(60)
    target = 10_000
    per_group = target // len(groups) + 1
    samples = direct_count = 0
    for name in groups:
        G = catalog_group(name)
        part = conjugacy_classes(G)
        k = len(part)
        one = 1 << G.identity
        for _ in range(per_group):
            xs = rng.sample(range(k), rng.randint(1, k))
            ys = rng.sample(range(k), rng.randint(1, k))
            X = Subset(G, mask_of(m for c in xs for m in part.classes[c]))
            Y = Subset(G, mask_of(m for c in ys for m in part.classes[c]))
            rep = is_direct(G, X, Y)  # asserts all four criteria agree
            samples += 1
            if rep.verdict:
                direct_count += 1
                assert commutator_set(G, X, Y).mask == one, (name, X, Y)
    record(
        "A07",
        samples >= 10_000,
        f"{samples} sampled pairs over {len(groups)} groups <= 60: "
        f"four directness criteria never disagree",
    )
    record(
        "A08",
        True,
        f"all {direct_count} direct samples satisfy [X,Y] = {{1}}",
    )


def test_a09_transversal_iff_semiregular_iff_counts():
    groups = _le(64)
    agree = 0
    q8_seen = False
    for name in groups:
        G = catalog_group(name)
        k_g = len(conjugacy_classes(G))
        for Z in central_subgroups(G):
            transversal = find_normal_transversal(G, Z)
            action = z_orbits(G, G.full_subset(), Z)
            semiregular = action.is_semiregular()
            quo = quotient_group(G, Z)
            counts_hold = k_g == len(Z) * len(conjugacy_classes(quo))
            assert (transversal is not None) == semiregular == counts_hold, (
                name,
                Z.members(),
            )
            agree += 1
            if name == "Q8" and len(Z) == 2:
                q8_seen = True
                assert transversal is None and not semiregular
                assert k_g == 5 and len(Z) * len(conjugacy_classes(quo)) == 8
    record(
        "A09",
        q8_seen,
        f"{agree} (group, central subgroup) pairs over {len(groups)} groups "
        f"<= 64 agree on all three conditions; Q8 witness 5 != 2*4 included",
    )


def _shift_orbit_reps(G, factorizations):
    zmask = center(G).mask
    reps = {}
    cache = {}

    def min_translate(mask):
        # the least of the central translates x^-1 mask, x in mask: those
        # that contain 1, the same set from every member of the shift orbit
        got = cache.get(mask)
        if got is None:
            got = min(_image(G.mult[G.inv[x]], mask) for x in bits(mask & zmask))
            cache[mask] = got
        return got

    for f in factorizations:
        a, b = min_translate(f.x.mask), min_translate(f.y.mask)
        reps[(min(a, b), max(a, b))] = f
    return reps


def test_a10_constructor_completeness_abelian_upto_32():
    names = [n for n in _le(32) if catalog_group(n).is_abelian]
    rebuilt_total = 0
    for name in names:
        G = catalog_group(name)
        res = enumerate_setdirect(G, normalized_only=True, time_budget=120.0)
        reps = _shift_orbit_reps(G, res.factorizations)
        for f in reps.values():
            cp, sys_, choices = derive_system(G, f)
            rebuilt = construct_from_system(G, cp, sys_, choices)
            assert rebuilt.certified
            assert rebuilt.x.mask == f.x.mask and rebuilt.y.mask == f.y.mask
            rebuilt_total += 1
    record(
        "A10",
        True,
        f"{rebuilt_total} shift-orbit representatives over "
        f"{len(names)} abelian groups <= 32 rebuilt exactly from their "
        f"slice systems, every rebuild certified",
    )


def test_a11_prime_power_corollary():
    results = []
    for n in (4, 8, 9, 16, 27):
        G = cyclic(n)
        f = prime_power_factorization(G, 1)
        assert f.certified and f.is_nontrivial()
        assert not _is_subgroup_mask(G, f.y.mask)
        results.append(f"C{n}:{len(f.x)}x{len(f.y)}")
    record("A11", True, "certified nontrivial, Y never a subgroup: " + " ".join(results))


def test_a12_association_property():
    rng = random.Random(12)
    groups = [n for n in _le(36)]
    hits = 0
    t0 = time.perf_counter()
    while hits < 1000:
        G = catalog_group(rng.choice(groups))
        part = conjugacy_classes(G)
        k = len(part)

        def small():
            picked = rng.sample(range(k), rng.randint(1, min(3, k)))
            return Subset(
                G, mask_of(m for c in picked for m in part.classes[c])
            )

        A, B, C = small(), small(), small()
        if not is_direct(G, A, B).verdict:
            continue
        AB = Subset(G, _product_mask(G, A.mask, B.mask))
        if not is_direct(G, AB, C).verdict:
            continue
        hits += 1
        assert is_direct(G, B, C).verdict, (G.name, A, B, C)
        BC = Subset(G, _product_mask(G, B.mask, C.mask))
        assert is_direct(G, A, BC).verdict, (G.name, A, B, C)
    record(
        "A12",
        hits >= 1000,
        f"{hits} random triples with AB and (AB)C direct: BC and A(BC) "
        f"always direct ({time.perf_counter() - t0:.1f}s)",
    )
