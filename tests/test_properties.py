"""Property-based invariants over random class unions of small catalog groups."""

import random

from hypothesis import given, settings, strategies as st

from setdirect.catalog import catalog_group
from setdirect.factor import is_direct, verify_main_theorem
from setdirect.groups import (
    Subset,
    center,
    commutator_set,
    conjugacy_classes,
    generated_subgroup,
    is_normal_subset,
    mask_of,
    set_product,
)

GROUPS = ["C6", "C8", "C12", "S3", "S4", "D8", "D10", "D12", "Q8", "Q16",
          "A4", "C2xC2xC2", "Q8oC4", "C3xC2xC2"]


def class_union(G, picked):
    part = conjugacy_classes(G)
    k = len(part)
    chosen = sorted({i % k for i in picked})
    m = 0
    for c in chosen:
        m |= part.class_mask(c)
    return Subset(G, m)


group_names = st.sampled_from(GROUPS)
index_lists = st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=6)


@given(name=group_names, xs=index_lists, ys=index_lists)
@settings(max_examples=150, deadline=None)
def test_directness_criteria_agree(name, xs, ys):
    G = catalog_group(name)
    X, Y = class_union(G, xs), class_union(G, ys)
    # is_direct itself asserts the four criteria coincide
    is_direct(G, X, Y)


@given(name=group_names, xs=index_lists, ys=index_lists)
@settings(max_examples=120, deadline=None)
def test_direct_pairs_centralize(name, xs, ys):
    G = catalog_group(name)
    X, Y = class_union(G, xs), class_union(G, ys)
    if is_direct(G, X, Y).verdict:
        assert commutator_set(G, X, Y).members() == (G.identity,)


@given(name=group_names, xs=index_lists, ys=index_lists)
@settings(max_examples=120, deadline=None)
def test_central_shift_preserves_directness(name, xs, ys):
    G = catalog_group(name)
    X, Y = class_union(G, xs), class_union(G, ys)
    before = is_direct(G, X, Y).verdict
    for z in center(G):
        assert is_direct(G, X.translate(z), Y).verdict == before
        assert is_direct(G, X, Y.translate(z)).verdict == before


@given(name=group_names, xs=index_lists, ys=index_lists)
@settings(max_examples=100, deadline=None)
def test_product_size_bounds(name, xs, ys):
    G = catalog_group(name)
    X, Y = class_union(G, xs), class_union(G, ys)
    prod, counts = set_product(G, X, Y)
    assert len(prod) <= len(X) * len(Y)
    assert sum(counts.values()) == len(X) * len(Y)


@given(name=group_names, xs=index_lists)
@settings(max_examples=100, deadline=None)
def test_generated_subgroup_is_minimal_closed(name, xs):
    G = catalog_group(name)
    S = class_union(G, xs)
    H = generated_subgroup(G, S)
    mem = set(H.members())
    assert set(S.members()) <= mem
    assert all(G.mult[a][b] in mem for a in mem for b in mem)
    # brute closure from S agrees
    cur = set(S.members()) | {G.identity}
    while True:
        nxt = {G.mult[a][b] for a in cur for b in cur}
        if nxt <= cur:
            break
        cur |= nxt
    assert cur == mem


@given(name=group_names, xs=index_lists)
@settings(max_examples=80, deadline=None)
def test_normal_subset_iff_class_union(name, xs):
    G = catalog_group(name)
    S = class_union(G, xs)
    assert is_normal_subset(G, S)
    part = conjugacy_classes(G)
    for x in S:
        assert part.class_mask(part.class_of[x]) & ~S.mask == 0


@given(name=group_names, xs=index_lists, ys=index_lists)
@settings(max_examples=60, deadline=None)
def test_verifier_verdict_matches_definition(name, xs, ys):
    G = catalog_group(name)
    X, Y = class_union(G, xs), class_union(G, ys)
    rep = verify_main_theorem(G, X, Y)  # internally asserted either way
    covers = set_product(G, X, Y)[0].mask == G.full_mask
    assert rep.verdict == (is_direct(G, X, Y).verdict and covers)


def test_association_on_seeded_triples():
    rng = random.Random(7)
    hits = 0
    while hits < 120:
        G = catalog_group(rng.choice(GROUPS))
        part = conjugacy_classes(G)
        k = len(part)

        def small_union():
            picked = rng.sample(range(k), rng.randint(1, min(3, k)))
            return Subset(G, mask_of(
                x for c in picked for x in part.classes[c].members()
            ))

        A, B, C = small_union(), small_union(), small_union()
        if not is_direct(G, A, B).verdict:
            continue
        AB, _ = set_product(G, A, B)
        if not is_direct(G, AB, C).verdict:
            continue
        hits += 1
        assert is_direct(G, B, C).verdict
        BC, _ = set_product(G, B, C)
        assert is_direct(G, A, BC).verdict
