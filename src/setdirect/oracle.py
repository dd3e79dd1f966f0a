"""Brute-force ground truth, independent of the structural machinery.

enumerate_setdirect finds every pair of normal subsets (X, Y) with XY = G
and unique representation, straight from the definition: candidates are
unions of conjugacy classes, and the identity-normalized pairs are found by
an exact-cover search.  The small sides X come as union masks, in the
lexicographic order of their classes.  The cover of G by products X·c is
memoized on the covered mask: one flat post-order loop solves each covered
mask once, into the list of class unions that complete it (empty for a dead
end), with one column per element g (the classes c with g in X·c and X·c
direct), built the first time g is the lowest uncovered element.  Each
small side X found stands for an orbit:
- central shifts: for z^-1 in X∩Z, zX is normalized and has the same
  complements Y as X (zX·Y = zG = G, with unique representation);
- power maps: on an abelian group the maps x -> x^k, k a unit modulo the
  exponent, are automorphisms (each is checked on the whole multiplication
  table), and an automorphism s maps a normalized factorization (X, Y) to
  the normalized factorization (sX, sY).
So the search takes one small side X per orbit of the shifts composed with
the power maps, the sets s(zX), and adds the images (zX, Y) and (s(zX), sY)
of each pair (X, Y) it finds; a non-abelian group with a nontrivial centre
has the shifts alone.  Every other factorization is a shift (zX, wY) of a
normalized one by central elements z, w, and shifting preserves directness.
The totals follow from the normalized pairs in closed form (each unordered
normalized pair stands for |Z|^2 / (|X∩Z| |Y∩Z|) unordered factorizations); the
shifts themselves are built only for a full listing.  Nothing here consults
the structural verifier.

An unordered pair of masks lo <= hi is held as the one int lo << |G| | hi
from the search to the listing, so numeric order is the order of (lo, hi).
A run goes search, expand (full listing only), sort (chunks, then one merge
in pieces), listing, each phase under one deadline.  The pairs are added,
expanded and listed in bulk, a list comprehension over at most _CHUNK masks
at a time, and the clock is read before each such step; the search also
polls it once per candidate X and once per exact-cover state.  The
candidate volume and the expansion have fixed caps.
"""

from __future__ import annotations

import gc
import math
import random
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, takewhile
from typing import Optional

from .central import class_stabilizer, minimal_normal_subgroups
from .errors import (
    GroupError,
    NotCentral,
    SearchSpaceTooLarge,
    TimeBudgetExceeded,
    internal_check,
)
from .factor import SetDirectFactorization, is_direct, verify_main_theorem
from .groups import (
    GroupTable,
    Subset,
    _is_subgroup_mask,
    _ltrans,
    _product_mask,
    bits,
    center,
    commutator_set,
    conjugacy_classes,
    left_cosets,
    mask_of,
)

DEFAULT_TIME_BUDGET = 60.0
_EXPANSION_CAP = 2_000_000  # ordered shifts |Z|^2 times the normalized pairs
_CANDIDATE_CAP = 3_000_000  # normalized small sides over all divisor splits


@dataclass
class EnumerationResult:
    """Complete factorization list (or its normalized slice) plus counts."""

    group_id: str
    factorizations: list
    total: int
    nontrivial: int
    normalized: int
    elapsed: float


class _Deadline:
    def __init__(self, seconds: float):
        if not seconds >= 0:  # NaN fails every comparison
            raise GroupError(f"time budget must be 0 seconds or more, got {seconds!r}")
        self.t_end = time.perf_counter() + seconds
        self.calls = 0

    def poll(self):
        """Read the clock once in 4096 calls: before a step of little work."""
        self.calls += 1
        if self.calls & 0xFFF == 0:
            self.check()

    def check(self):
        """Read the clock now: before a step of much work, such as a sort."""
        if time.perf_counter() > self.t_end:
            raise _OutOfTime


class _OutOfTime(Exception):
    pass


def _divisor_splits(n: int):
    return [(d, n // d) for d in range(1, math.isqrt(n) + 1) if n % d == 0]


def _class_unions(sizes, masks, target):
    """Yield the unions of classes (parallel lists of sizes and masks) whose
    sizes sum to target, in lexicographic order of their index tuples."""
    n = len(sizes)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]

    def rec(start, left, mask):
        for i in range(start, n):
            if suffix[i] < left:
                return
            s = sizes[i]
            if s < left:
                yield from rec(i + 1, left - s, mask | masks[i])
            elif s == left:
                yield mask | masks[i]

    yield from rec(0, target, 0) if target else (0,)  # (0,): the empty union


def _count_subsets_by_size(sizes):
    """Subset counts of classes of the given sizes grouped by total (DP)."""
    counts = {0: 1}
    for s in sizes:
        for total, cnt in sorted(counts.items(), reverse=True):
            counts[total + s] = counts.get(total + s, 0) + cnt
    return counts


@dataclass
class _Found:
    """Unordered normalized pairs met so far, with their shift weights.

    pairs holds each pair of masks lo <= hi as the int lo << |G| | hi.
    weights maps (|X∩Z| |Y∩Z|, nontrivial) to the number of unordered
    normalized pairs with that product; it is tallied as the pairs go in, so
    the counts cost no pass over the pairs afterwards.
    """

    pairs: set = field(default_factory=set)
    weights: Counter = field(default_factory=Counter)


_CHUNK = 4096  # masks per bulk step; the clock is read before each step


def _pieces(values, deadline: _Deadline, size: int = _CHUNK):
    """The values in lists of at most `size`, the clock read before each."""
    it = iter(values)
    while True:
        deadline.check()
        piece = list(islice(it, size))
        if not piece:
            return
        yield piece


_SORT_CHUNK = 1 << 16  # one sort of this many pairs takes tens of ms


def _sorted(values, deadline: _Deadline) -> list:
    """Distinct ints in ascending order, without a long unpolled sort.

    One sort of C45's 5.2 million pairs takes seconds with no deadline
    poll.  So a large input is sorted in chunks of _SORT_CHUNK values, and
    the k sorted runs are merged in pieces of at most _SORT_CHUNK values:
    each piece takes, from every run, its values up to a common pivot (found
    by bisection), the least of the runs' values _SORT_CHUNK // k places on,
    so at least one run moves that far; list.sort merges a piece's k
    presorted runs in one pass.  The clock is read before each chunk and
    each piece, and a run is freed as soon as it is used up.
    """
    if len(values) <= _SORT_CHUNK:
        return sorted(values)
    it = iter(values)
    live = []  # (run, index of its first value not yet merged)
    for _ in range(0, len(values), _SORT_CHUNK):
        deadline.check()
        live.append((sorted(islice(it, _SORT_CHUNK)), 0))
    step = max(1, _SORT_CHUNK // len(live))
    out = []
    while live:
        deadline.check()
        pivot = min(run[min(i + step, len(run)) - 1] for run, i in live)
        piece, rest = [], []
        for run, i in live:
            end = bisect_right(run, pivot, i, min(i + step, len(run)))
            piece += run[i:end]
            if end < len(run):
                rest.append((run, end))
        piece.sort()
        out += piece
        live = rest
    return out


def _power_maps(G: GroupTable, deadline: _Deadline) -> list:
    """The maps x -> x^k of an abelian G, for k a unit modulo exp(G).

    Each map is a tuple s with s[x] = x^k, the identity map (k = 1) first;
    there are phi(exp G) of them and they form a group under composition.
    Every map is checked on the whole table to be a bijective homomorphism,
    each after a read of the deadline's clock.
    A non-abelian G gets none.
    """
    n, mult, one = G.order, G.mult, G.identity
    if len(conjugacy_classes(G)) != n:
        return []
    powers = []  # powers[x][j] = x^j, for j below the order of x
    for x in range(n):
        pw, y = [one], x
        while y != one:
            pw.append(y)
            y = mult[y][x]
        powers.append(pw)
    exponent = math.lcm(*(len(pw) for pw in powers))
    maps = []
    for k in range(1, exponent + 1):
        if math.gcd(k, exponent) != 1:
            continue
        deadline.check()
        s = tuple(pw[k % len(pw)] for pw in powers)
        internal_check(len(set(s)) == n, f"x -> x^{k} is not a bijection")
        internal_check(
            all(mult[sa][s[b]] == s[ab]
                for sa, row in zip(s, mult) for b, ab in enumerate(row)),
            f"x -> x^{k} is not a homomorphism",
        )
        maps.append(s)
    return maps


def _byte_tables(s) -> tuple:
    """Lookup tables that map a mask through s a byte at a time: table j
    sends byte j of a mask (bits 8j..8j+7) to the mask of those bits' images."""
    n = len(s)
    tables = []
    for base in range(0, n, 8):
        t = [0] * 256
        for v in range(1, 256):
            low = v & -v
            i = base + low.bit_length() - 1
            t[v] = t[v ^ low] | (1 << s[i] if i < n else 0)
        tables.append(t)
    return tuple(tables)


def _map_mask(tables, mask: int) -> int:
    m = 0
    for t, byte in zip(tables, mask.to_bytes(len(tables), "little")):
        m |= t[byte]
    return m


def _normalized_pairs(G: GroupTable, deadline: _Deadline, found: _Found) -> None:
    """Put every unordered normalized factorization pair, packed, into `found`.

    Each candidate X (a union of classes holding the identity) whose
    orbit no earlier X covers is completed by Knuth's exact cover, memoized
    on the covered mask: ends[covered] lists the unions of classes that
    complete that cover, so two partial Y that cover the same elements are
    solved once.  A flat post-order loop fills it: the lowest uncovered
    element g of a covered mask picks the column of classes c, and each c
    whose product X·c misses the covered elements leads to the mask
    covered | X·c, solved before covered itself; a dead end keeps an empty
    list.  A column is cached per X, so a node reads it rather than
    rebuilding it from the products X·c.  X's own completions are read
    from the ends of its first steps, so its list, the longest, is never
    built.  The pairs of X and of its orbit's images then go in, and their
    shift weights are tallied, in chunks of at most _CHUNK completions, one
    list comprehension per image; a caller that catches _OutOfTime holds
    every pair added before the deadline, each with its weight.
    """
    part = conjugacy_classes(G)
    k = len(part)
    n = G.order
    sizes = part.sizes()
    id_class = part.class_of[G.identity]
    others = [c for c in range(k) if c != id_class]
    o_sizes = [sizes[c] for c in others]
    splits = _divisor_splits(n)
    counts = _count_subsets_by_size(o_sizes)
    volume = sum(counts.get(d - sizes[id_class], 0) for d, _ in splits)
    if volume > _CANDIDATE_CAP:
        raise SearchSpaceTooLarge(
            f"{G.name}: {k} classes give {volume} candidate factors, over "
            f"the cap {_CANDIDATE_CAP}"
        )
    full = G.full_mask
    cmasks = [part.class_mask(c) for c in range(k)]
    mult, inv = G.mult, G.inv
    class_of = part.class_of
    zc = center(G).mask
    pairs, weights = found.pairs, found.weights
    # None stands for the identity map; a non-abelian group gets no others
    maps = [None]
    for s in _power_maps(G, deadline)[1:]:
        deadline.check()
        maps.append(_byte_tables(s))

    pair_products: dict = {}

    def class_pair(cx, cy):
        m = pair_products.get((cx, cy))
        if m is None:
            m = pair_products[cx, cy] = _product_mask(G, cmasks[cx], cmasks[cy])
        return m

    poll = deadline.poll
    o_masks = [cmasks[c] for c in others]
    id_mask = cmasks[id_class]
    for d, e in splits:
        nontrivial = d > 1 and e > 1  # |X| = d, |Y| = e
        covered_x = set()  # the orbits of earlier X
        for xmask in _class_unions(o_sizes, o_masks, d - sizes[id_class]):
            poll()
            xmask |= id_mask
            if xmask in covered_x:
                continue
            # The orbit of X: every s(zX), z^-1 in X∩Z and s a power map or
            # the identity (z = 1 and the identity give X itself).  zX has the
            # same complements Y as X, and the factorizations with small side
            # sX are exactly the (sX, sY).  One map per distinct image; where
            # two maps give one image, the complements of X are closed under
            # either, so they agree.
            shifts = [_ltrans(G, inv[z], xmask) for z in bits(xmask & zc)]
            orbit, images = set(), []
            for tables in maps:
                sxs = []
                for zx in shifts:
                    sx = zx if tables is None else _map_mask(tables, zx)
                    if sx not in orbit:
                        orbit.add(sx)
                        sxs.append(sx)
                if sxs:
                    images.append((tables, sxs))
            covered_x |= orbit
            x_inv = tuple(inv[x] for x in bits(xmask))
            x_classes = {class_of[x] for x in bits(xmask)}

            # lazily built products X * class, with directness by cardinality
            xc_cache: dict = {}

            def x_times(c):
                m = xc_cache.get(c)
                if m is None:
                    m = 0
                    for cx in x_classes:
                        m |= class_pair(cx, c)
                    if m.bit_count() != d * sizes[c]:
                        m = -1  # X * c is not direct; class unusable
                    xc_cache[c] = m
                return m

            # Y is normalized too: it must contain the identity class.
            init = x_times(id_class)
            if init == -1:
                continue
            # Each X * c in a column is direct, so it has d |c| elements and
            # a disjoint one always fits: a cover is complete when it is full.
            columns = [None] * n  # column g: (X * c, c) per usable class c
            ends = {full: [0]}
            succ = {}  # a covered mask being solved: (covered | X * c, c) per step
            stack = [init]  # a mask to solve, or ~mask once its successors are
            while stack:
                covered = stack.pop()
                if covered < 0:  # every successor is solved: join their ends
                    covered = ~covered
                    if covered == init:
                        break  # X's own completions are read step by step below
                    out = []
                    for nxt, cm in succ.pop(covered):
                        out += [cm | t for piece in _pieces(ends[nxt], deadline)
                                for t in piece]
                    ends[covered] = out
                    continue
                poll()
                if covered in ends:
                    continue
                low = ~covered & full
                g = (low & -low).bit_length() - 1
                col = columns[g]
                if col is None:
                    col = columns[g] = [
                        (pm, cmasks[c])
                        for c in sorted({class_of[mult[xi][g]] for xi in x_inv})
                        if (pm := x_times(c)) != -1
                    ]
                steps = succ[covered] = [(covered | pm, cm) for pm, cm in col
                                         if not pm & covered]
                stack.append(~covered)
                stack += [nxt for nxt, _ in steps if nxt not in ends]

            # The pairs of X and its images, a chunk of completions at a time;
            # init is never expanded only when it is full, in the trivial group.
            chunks = ((id_mask | cm, piece) for nxt, cm in succ.get(init, [(init, 0)])
                      for piece in _pieces(ends[nxt], deadline))
            xz = (xmask & zc).bit_count()  # shifts and power maps keep |X∩Z|, |Y∩Z|
            for y0, piece in chunks:
                ys = [y0 | t for t in piece]
                internal_check(set(map(int.bit_count, ys)) == {e},
                               "full cover with |X||Y| != |G|")
                yz = list(map(int.bit_count, [y & zc for y in ys]))
                every = Counter(yz)
                for tables, sxs in images:
                    deadline.check()
                    sys_ = ys if tables is None else [_map_mask(tables, y) for y in ys]
                    for sx in sxs:
                        deadline.check()
                        keys = [sx << n | sy if sx <= sy else sy << n | sx for sy in sys_]
                        if d == e:  # (X, Y) may be met again as (Y, X): tally new pairs
                            tally = Counter(z for key, z in zip(keys, yz) if key not in pairs)
                            pairs.update(keys)
                        else:
                            grown = len(pairs)
                            pairs.update(keys)
                            internal_check(len(pairs) - grown == len(keys),
                                           "a pair with |X| != |Y| was met twice")
                            tally = every
                        for z, cnt in tally.items():
                            weights[xz * z, nontrivial] += cnt
        del covered_x  # a later split has another |X|, so none of it recurs


def _orbit_counts(G: GroupTable, weights: Counter) -> tuple:
    """Exact (total, nontrivial) unordered counts over all central shifts.

    Under the shift action of Z x Z the orbit of an ordered pair (X, Y) has
    |Z|^2 / (|K(X)| |K(Y)|) members, K the stabilizer in Z, and
    (|X∩Z| / |K(X)|) (|Y∩Z| / |K(Y)|) of them are normalized (zX holds the
    identity iff z^-1 lies in X).  So each normalized ordered pair stands
    for |Z|^2 / (|X∩Z| |Y∩Z|) ordered factorizations: popcounts suffice.
    Swapping the sides pairs the ordered factorizations off, and each
    unordered normalized pair {X, Y} stands for as many unordered ones: a
    factorization (A, A) would be a shift of a normalized (X, cX), c
    central, where cx = 1·(cx) = x·c has two representations for each
    x != 1 in X; so X = {1}, the group is trivial, and ({1}, {1}) its one
    pair.
    """
    zz = center(G).mask.bit_count() ** 2

    def total(nontrivial_only):
        got = sum(
            (Fraction(zz * cnt, w) for (w, nt), cnt in weights.items()
             if nt or not nontrivial_only),
            Fraction(0),
        )
        internal_check(got.denominator == 1, "shift orbits do not sum to a whole count")
        return got.numerator

    return total(False), total(True)


def _expand(G: GroupTable, pairs, deadline: _Deadline) -> set:
    """Every central shift (zX, wY) of the packed normalized pairs, packed:
    one list comprehension per pair, the clock read before each piece of
    pairs whose shifts make at most _CHUNK masks."""
    n, full = G.order, G.full_mask
    zs = tuple(bits(center(G).mask))
    if len(zs) ** 2 * max(len(pairs), 1) > _EXPANSION_CAP:
        raise SearchSpaceTooLarge(
            f"expanding {len(pairs)} normalized pairs by {len(zs)}^2 central "
            f"shifts exceeds the cap {_EXPANSION_CAP}; use normalized_only"
        )
    out = set()
    tcache: dict = {}

    def translates(mask):
        got = tcache.get(mask)
        if got is None:
            got = tcache[mask] = [_ltrans(G, z, mask) for z in zs]
        return got

    for piece in _pieces(pairs, deadline, max(1, _CHUNK // len(zs) ** 2)):
        for v in piece:
            tys = translates(v & full)
            out.update([tx << n | ty if tx <= ty else ty << n | tx
                        for tx in translates(v >> n) for ty in tys])
    return out


def _factorization_list(G: GroupTable, listed, deadline: _Deadline) -> list:
    """The sorted packed pairs as factorizations, built with the cyclic
    garbage collector paused and the clock read once per _CHUNK pairs.

    Pairs that share their first mask are contiguous in sorted order, so
    each such run shares one Subset for it.  The objects form no cycles, but
    each full collection walks all of them: listing C42's 2.7 million
    normalized pairs took 31 s with the collector on (one pause of 7 s,
    which no deadline poll can cut short) and 8 s with it paused, on a
    2-vCPU host.  A list cut short by the deadline is dropped before the
    collector resumes, so it does not walk that either.
    """
    n, full = G.order, G.full_mask
    facts = []
    append = facts.append
    x = Subset(G, 0)  # no listed pair has an empty side
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for piece in _pieces(listed, deadline):
            for v in piece:
                if v >> n != x.mask:
                    x = Subset(G, v >> n)
                append(SetDirectFactorization(G, x, Subset(G, v & full), True))
    except _OutOfTime:
        facts.clear()
        raise
    finally:
        if was_enabled:
            gc.enable()
    return facts


def enumerate_setdirect(
    G: GroupTable,
    *,
    normalized_only: bool = False,
    nontrivial_only: bool = False,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> EnumerationResult:
    """Exhaustively enumerate the set-direct factorizations of G.

    Every returned pair satisfies XY = G with unique representation.  The
    search accepts a group when its divisor-pruned candidate volume stays
    under a fixed cap (3 million), and a full listing when its |Z|^2 shifts
    of the normalized pairs stay under another (2 million); past either it
    raises SearchSpaceTooLarge.  The exact cover is memoized on the covered
    mask, so each partial cover is solved once, and runs as a loop over an
    explicit stack: no number of classes meets the recursion limit.  It
    searches one small side X per orbit of the central shifts X -> zX
    (z^-1 in X∩Z) composed with, on an abelian group, the power maps
    x -> x^k (k a unit modulo the exponent, each map checked on the table to
    be an automorphism), and adds the images (zX, Y) and (s(zX), sY) of
    every pair (X, Y) it finds, in bulk.  Counts (total, nontrivial,
    normalized) are always exact; the returned list is either
    all pairs or, with normalized_only, one normalized pair per entry, in
    ascending order of (min mask, max mask) either way.

    The phases run in the order search, expand (full listing only), sort,
    listing; each pair is one packed int through all of them, and the list
    is sorted once.  time_budget bounds them all: each bulk step covers at
    most 4096 masks (or one pair's |Z|^2 shifts) and reads the clock first.
    On a time-out TimeBudgetExceeded.phase names the phase it ran out in,
    and TimeBudgetExceeded.partial holds the normalized pairs found so far
    as `normalized`, and `total`/`nontrivial` summed over those pairs: lower
    bounds of the exact counts.  Its list of factorizations is empty.  A
    NaN or negative time_budget raises GroupError.
    """
    start = time.perf_counter()
    deadline = _Deadline(time_budget)
    found = _Found()
    phase = "search"
    try:
        _normalized_pairs(G, deadline, found)
        listed = found.pairs
        if not normalized_only:
            phase = "expand"
            listed = _expand(G, listed, deadline)
        phase = "sort"
        listed = _sorted(listed, deadline)
        phase = "listing"
        if nontrivial_only:  # a normal singleton is central
            n, full = G.order, G.full_mask
            listed = [v for piece in _pieces(listed, deadline) for v in piece
                      if (v >> n).bit_count() > 1 and (v & full).bit_count() > 1]
        facts = _factorization_list(G, listed, deadline)
    except _OutOfTime:
        facts = None  # raised below, so the exception keeps no search frame as context
    total, nontrivial = _orbit_counts(G, found.weights)
    result = EnumerationResult(
        G.name, facts or [], total, nontrivial, len(found.pairs), time.perf_counter() - start
    )
    if facts is not None:
        return result
    raise TimeBudgetExceeded(
        f"time budget {time_budget}s exhausted on {G.name} in the {phase} phase",
        partial=result,
        phase=phase,
    )


def find_normal_transversal(G: GroupTable, Z: Subset) -> Optional[Subset]:
    """Search for a normal subset meeting every coset of Z exactly once.

    Pure exact cover over unions of conjugacy classes, each class held as
    the mask of the cosets it meets; independent of the orbit machinery.
    One loop over a stack of states (cosets covered, the union so far): the
    lowest uncovered coset of a popped state picks the classes to try, and
    those that miss the covered cosets are pushed in descending order, so
    they are tried in ascending order."""
    if not _is_subgroup_mask(G, Z.mask) or Z.mask & ~center(G).mask:
        raise NotCentral("transversal search needs a central subgroup")
    part = conjugacy_classes(G)
    reps, coset_of = left_cosets(G, Z)
    full = (1 << len(reps)) - 1
    by_coset = [[] for _ in reps]  # the classes meeting each coset once
    class_cosets = []  # per class, the mask of its cosets if it meets each once
    for i, cls in enumerate(part.classes):
        cosets = [coset_of[x] for x in bits(cls.mask)]
        mask = mask_of(cosets)
        class_cosets.append(mask)
        if mask.bit_count() == len(cosets):
            for c in cosets:
                by_coset[c].append(i)

    stack = [(0, 0)]
    while stack:
        covered, tmask = stack.pop()
        if covered == full:
            return Subset(G, tmask)
        low = ~covered & full
        for i in reversed(by_coset[(low & -low).bit_length() - 1]):
            if not class_cosets[i] & covered:
                stack.append((covered | class_cosets[i], tmask | part.class_mask(i)))
    return None


# -- the cross-theorem property suite -----------------------------------------


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    group_id: str
    checks: list
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _random_normal_subset(G: GroupTable, rng: random.Random) -> Subset:
    part = conjugacy_classes(G)
    k = len(part)
    count = rng.randint(1, k)
    picked = rng.sample(range(k), count)
    return Subset(G, mask_of(x for c in picked for x in bits(part.class_mask(c))))


def property_suite(
    G: GroupTable,
    *,
    samples: int = 150,
    seed: int = 0,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> SuiteReport:
    """Cross-check the structural results against enumeration and sampling.

    Runs, in this order, over the oracle's normalized pairs and seeded
    random class unions: centralization of direct pairs, the intersection
    bound, central-pair existence, verifier agreement with the slice/coset
    structure, directness-criteria agreement, the association property, and
    (for groups with a unique non-abelian minimal normal subgroup)
    non-directness of all nontrivial class-pair products.

    time_budget bounds the whole run: the oracle gets what is left of it,
    and the clock is read before each case of a check (a pair, a sample, a
    class pair).  On a time-out in a check TimeBudgetExceeded.phase is that
    check's name and .partial a SuiteReport of the checks finished before
    it; a time-out in the oracle propagates with the oracle's own phase.  A
    NaN or negative time_budget raises GroupError.
    """
    start = time.perf_counter()
    deadline = _Deadline(time_budget)
    rng = random.Random(seed)
    checks = []
    one = 1 << G.identity
    zc = center(G).mask

    def first_failure(name, messages) -> str:
        """The first non-empty message of `messages`, one per case of the
        check `name`, or "" if none is; the clock is read before each case."""
        try:
            deadline.check()
            for message in messages:
                if message:
                    return message
                deadline.check()
            return ""
        except _OutOfTime:
            pass  # raised below, so the exception keeps no case's frame as context
        raise TimeBudgetExceeded(
            f"time budget {time_budget}s exhausted on {G.name} in the {name} check",
            partial=SuiteReport(G.name, checks, time.perf_counter() - start),
            phase=name,
        )

    facts = enumerate_setdirect(
        G, normalized_only=True, time_budget=max(0.0, deadline.t_end - time.perf_counter())
    ).factorizations

    def verifier_failure(f) -> str:
        report = verify_main_theorem(G, f.x, f.y)
        if not report.verdict:
            return f"verifier rejected {f.x.members()} x {f.y.members()}"
        for side, slices in (("Y", report.y_slices), ("X", report.x_slices)):
            for n_rep, sl in slices.items():
                if sl.mask and _product_mask(
                        G, sl.mask, class_stabilizer(G, n_rep, report.z).mask) != sl.mask:
                    return f"{side}-slice at {n_rep} not a union of stabilizer cosets"
        return ""

    def sample_failure() -> str:
        X = _random_normal_subset(G, rng)
        Y = _random_normal_subset(G, rng)
        direct = is_direct(G, X, Y).verdict  # asserts the four criteria agree
        if direct and commutator_set(G, X, Y).mask != one:
            return "direct sample does not centralize"
        return ""

    for name, messages in (
        ("direct_pairs_centralize", (
            "" if commutator_set(G, f.x, f.y).mask == one
            else f"[X,Y] != 1 for {f.x.members()} x {f.y.members()}" for f in facts)),
        ("intersection_at_most_one", (
            "" if (f.x.mask & f.y.mask).bit_count() <= 1
            else f"|X & Y| > 1 for {f.x.members()} x {f.y.members()}" for f in facts)),
        ("central_pair_exists", (
            "" if any(G.inv[z] in f.y for z in bits(zc & f.x.mask))
            else f"no central pair for {f.x.members()}" for f in facts)),
        ("verifier_and_slice_structure", map(verifier_failure, facts)),
        ("criteria_agree_on_samples", (sample_failure() for _ in range(samples))),
    ):
        failure = first_failure(name, messages)
        checks.append(SuiteCheck(name, not failure, failure))

    tried = 0

    def association_failure() -> str:
        nonlocal tried
        A, B, C = (_random_normal_subset(G, rng) for _ in range(3))
        if not (is_direct(G, A, B).verdict and is_direct(
                G, Subset(G, _product_mask(G, A.mask, B.mask)), C).verdict):
            return ""
        tried += 1
        BC = Subset(G, _product_mask(G, B.mask, C.mask))
        if is_direct(G, B, C).verdict and is_direct(G, A, BC).verdict:
            return ""
        return "association property failed"

    attempts = takewhile(lambda _: tried < samples, range(samples * 4))
    failure = first_failure("association", (association_failure() for _ in attempts))
    checks.append(SuiteCheck("association", not failure, f"{tried} triples"))

    minimals = minimal_normal_subgroups(G)
    if len(minimals) == 1 and G.order > 1:
        abelian = commutator_set(G, minimals[0], minimals[0]).mask == one
        part = conjugacy_classes(G)
        nontrivial = [(i, Subset(G, part.class_mask(i)))
                      for i in range(len(part)) if part.class_mask(i) != one]
        witness = first_failure("class_pairs_nondirect", (
            f"direct class pair ({i},{j})" if is_direct(G, ci, cj).verdict else ""
            for i, ci in nontrivial for j, cj in nontrivial if i != j or not abelian))
        checks.append(SuiteCheck(
            "class_pairs_nondirect", abelian or not witness,
            f"skipped: abelian minimal normal subgroup; {witness}" if abelian else witness))

    return SuiteReport(G.name, checks, time.perf_counter() - start)
