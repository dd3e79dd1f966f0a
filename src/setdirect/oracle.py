"""Brute-force ground truth, independent of the structural machinery.

enumerate_setdirect finds every pair of normal subsets (X, Y) with XY = G
and unique representation, straight from the definition: candidates are
unions of conjugacy classes, and the identity-normalized pairs are found by
an exact-cover search; no search here recurses.  The small sides X come as
union masks, in the lexicographic order of their classes, from one loop over
a stack.  The cover of G by products X·c is memoized on the covered mask:
one flat post-order loop solves each covered mask once, into the list of
class unions that complete it (empty for a dead end), with one column per
element g (the classes c with g in X·c and X·c direct), built the first
time g is the lowest uncovered element.  Each small side X found stands for
an orbit:
- central shifts: for z^-1 in X∩Z, zX is normalized and has the same
  complements Y as X (zX·Y = zG = G, with unique representation);
- power maps: on an abelian group the maps x -> x^k, k a unit modulo the
  exponent, are automorphisms (each a tuple of images, proved one on the
  generators, built before the search unless |G| is 1 or prime, as every
  map fixes X = {1}), and an automorphism s maps a normalized
  factorization (X, Y) to the normalized factorization (sX, sY).
So the search takes one small side X per orbit of the shifts composed with
the power maps, the sets s(zX), and adds the images (zX, Y) and (s(zX), sY)
of each pair (X, Y) it finds; a non-abelian group with a nontrivial centre
has the shifts alone.  Every other factorization is a shift (zX, wY) of a
normalized one by central elements z, w, and shifting preserves directness.
The totals follow from the normalized pairs in closed form: each unordered
normalized pair stands for |Z|^2 / (|X∩Z| |Y∩Z|) unordered factorizations,
so the search counts the pairs by that one weight |X∩Z| |Y∩Z|, and the
nontrivial count is the total less the |Z| shifts ({z}, G) of ({1}, G).  The
shifts themselves are built only for a full listing, one Z x Z orbit at a
time: a normalized pair met again lies in an orbit already listed whole.
The search, the listing and find_normal_transversal use the group layer
alone; only property_suite consults the verifier and the central layer.

An unordered pair of masks lo <= hi is held as the one int lo << |G| | hi
from the search to the listing, so numeric order is the order of (lo, hi).
A run goes search, expand (full listing only), sort (chunks, then one merge
in pieces), listing, each phase under one _Deadline, a command's one clock.
The pairs are added, expanded and listed in bulk, a list comprehension over
at most _CHUNK masks at a time (a join of the cover's completion lists takes
each in slices of that many), and the clock is read before each such step;
the search also polls it once per candidate X and once per exact-cover
state.  A candidate X with no completion goes on to the next with no pair
phase.  The candidate volume, the mask bits the search holds and the
expansion have fixed caps.
"""

from __future__ import annotations

import gc
import math
import random
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, takewhile
from numbers import Integral, Real
from typing import Optional

from .central import class_stabilizer, minimal_normal_subgroups
from .errors import (
    GroupError,
    NotCentral,
    SearchSpaceTooLarge,
    TimeBudgetExceeded,
    internal_check,
)
from .factor import is_direct, verify_main_theorem
from .groups import (
    GroupTable,
    SetDirectFactorization,
    Subset,
    _image,
    _is_subgroup_mask,
    _left_cosets,
    _product_mask,
    bits,
    center,
    commutator_set,
    conjugacy_classes,
    mask_of,
)

DEFAULT_TIME_BUDGET = 60.0
DEFAULT_SAMPLES = 120  # the property suite's random cases per sampled check
_EXPANSION_CAP = 2_000_000  # ordered shifts |Z|^2 times the normalized pairs
_CANDIDATE_CAP = 3_000_000  # normalized small sides over all divisor splits
_HELD_BITS_CAP = 700_000_000  # mask bits held at once; C46 holds 579 million


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
    """A command's one clock: a budget of `seconds`, 0 or more, from `start`."""

    def __init__(self, seconds: float):
        # a NaN fails every comparison; a str or None would raise TypeError
        if not isinstance(seconds, Real) or not seconds >= 0:
            raise GroupError(f"time budget must be 0 seconds or more, got {seconds!r}")
        self.seconds = seconds
        self.start = time.perf_counter()
        self.calls = 0

    def poll(self):
        """Read the clock once in 4096 calls: before a step of little work."""
        self.calls += 1
        if self.calls & 0xFFF == 0:
            self.check()

    def check(self):
        """Read the clock now: before a step of much work, such as a sort."""
        if time.perf_counter() - self.start > self.seconds:
            raise _OutOfTime

    def left(self) -> float:
        """The seconds left, never negative, to the millisecond a message shows."""
        return max(0.0, round(self.start + self.seconds - time.perf_counter(), 3))

    def exceeded(self, name: str, phase: str, partial, step: str = "phase") -> TimeBudgetExceeded:
        """The time-out of a run on the group `name` in `phase`, with its partial result."""
        return TimeBudgetExceeded(
            f"time budget {self.seconds}s exhausted on {name} in the {phase} {step}",
            partial=partial, phase=phase)


class _OutOfTime(Exception):
    pass


def _divisor_splits(n: int):
    return [(d, n // d) for d in range(1, math.isqrt(n) + 1) if n % d == 0]


def _class_unions(sizes, masks, target):
    """Yield the unions of classes (parallel lists of sizes and masks) whose
    sizes sum to target, in lexicographic order of their index tuples.

    One loop over a stack of (next class, size still wanted, union so far):
    a state that wants nothing more is a union, and any other pushes the
    states that add one more class, in reverse, so they come off in order.
    """
    n = len(sizes)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]
    stack = [(0, target, 0)]
    while stack:
        start, left, mask = stack.pop()
        if not left:
            yield mask
            continue
        children = []
        for i in range(start, n):
            if suffix[i] < left:
                break
            if sizes[i] <= left:
                children.append((i + 1, left - sizes[i], mask | masks[i]))
        stack += reversed(children)


def _count_subsets_by_size(sizes):
    """Subset counts of classes of the given sizes grouped by total (DP)."""
    counts = {0: 1}
    for s in sizes:
        for total, cnt in sorted(counts.items(), reverse=True):
            counts[total + s] = counts.get(total + s, 0) + cnt
    return counts


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
    Each is checked, after a read of the deadline's clock, to be a bijection
    with s(a·g) = s(a)·s(g) for every a and each g in G.generators, which
    generate G: by induction on the length of a word b in them, and
    associativity (Light's test on a table), s(a·b) = s(a)·s(b), so s is a
    homomorphism.  A non-abelian G gets none.
    """
    n, mult, one = G.order, G.mult, G.identity
    if not G.is_abelian:
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
            all(s[row[g]] == mult[sa][s[g]] for g in G.generators
                for sa, row in zip(s, mult)),
            f"x -> x^{k} is not a homomorphism",
        )
        maps.append(s)
    return maps


def _normalized_pairs(G: GroupTable, deadline: _Deadline, pairs: set, weights: Counter) -> None:
    """Put every unordered normalized factorization pair into `pairs`, each
    pair of masks lo <= hi as the int lo << |G| | hi, and count it in
    `weights` under its shift weight |X∩Z| |Y∩Z|, as it goes in.

    The splits |X| |Y| = |G| are searched in ascending |X|, so the first
    pair in is ({1}, G).  Each candidate X (a union of classes holding the
    identity, in the order of _class_unions) whose orbit no earlier X covers
    is completed by Knuth's exact cover, memoized on the covered mask:
    ends[covered] lists the unions of classes that complete that cover, so
    two partial Y that cover the same elements are solved once.  A flat
    post-order loop fills it: the lowest uncovered element g of a covered
    mask picks the column of classes c, and each c whose product X·c misses
    the covered elements leads to the mask covered | X·c, solved before
    covered itself; a dead end, a mask with no such c, gets its empty list
    at once, with no join.  A column is cached per X, so a node reads it
    rather than rebuilding it from the products X·c.  A join copies each
    successor's non-empty list in slices of at most _CHUNK, the clock read
    before each slice, with no generator per step; an empty list adds
    nothing and reads no clock.  X's own completions are read from the ends
    of its first steps, so its list, the longest, is never built.  When
    every first step ends empty, X is a dead end (621 of C30's 679
    candidates that reach the cover are) and the search goes on to the next
    candidate with no pair phase: no hold, no chunks, no tally.  Otherwise
    the pairs of X and of its orbit's images go in, and their shift weights
    are tallied, in chunks of at most _CHUNK completions, one list
    comprehension per image; a caller that catches _OutOfTime holds every
    pair added before the deadline, each with its weight.  An image is a
    mask carried through a power map, a tuple, by _image.  Before a list is
    joined and before X's pairs go in, hold() counts the bits then held, and
    past _HELD_BITS_CAP raises SearchSpaceTooLarge; a dead end, of a mask
    or of X, adds no completion and no pair, so skipping its hold() skips no
    refusal.
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
    # None stands for the identity map; X = {1}, the one small side of a
    # prime order, is fixed by every map
    maps = [None] + (_power_maps(G, deadline)[1:] if len(splits) > 1 else [])

    def hold(completions, new_pairs):  # |G| bits per completion of X, 2|G| per pair
        held = (completions + 2 * (len(pairs) + new_pairs)) * n
        if held > _HELD_BITS_CAP:
            raise SearchSpaceTooLarge(f"{G.name}: the search would hold {held} bits "
                                      f"of masks, over the cap {_HELD_BITS_CAP}")

    @cache
    def class_pair(cx, cy):
        return _product_mask(G, cmasks[cx], cmasks[cy])

    poll = deadline.poll
    o_masks = [cmasks[c] for c in others]
    id_mask = cmasks[id_class]
    for d, e in splits:
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
            shifts = [_image(mult[inv[z]], xmask) for z in bits(xmask & zc)]
            orbit, images = set(), []
            for s in maps:
                sxs = []
                for zx in shifts:
                    sx = zx if s is None else _image(s, zx)
                    if sx not in orbit:
                        orbit.add(sx)
                        sxs.append(sx)
                if sxs:
                    images.append((s, sxs))
            covered_x |= orbit
            x_inv = tuple(inv[x] for x in bits(xmask))
            x_classes = {class_of[x] for x in bits(xmask)}

            # lazily built products X * class, with directness by cardinality;
            # a dict, not functools.cache: one x_times is made per candidate X,
            # and a cache wrapper took 2.0 us to make against 0.2 us for this
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
            held = 0  # completions in the lists of ends
            succ = {}  # a covered mask being solved: (covered | X * c, c) per step
            stack = [init]  # a mask to solve, or ~mask once its successors are
            while stack:
                covered = stack.pop()
                if covered < 0:  # every successor is solved: join their ends
                    covered = ~covered
                    if covered == init:
                        break  # X's own completions are read step by step below
                    steps = succ.pop(covered)
                    held += sum(len(ends[nxt]) for nxt, _ in steps)
                    hold(held, 0)
                    out = []
                    for nxt, cm in steps:
                        for i in range(0, len(ends[nxt]), _CHUNK):
                            deadline.check()
                            out += [cm | t for t in ends[nxt][i:i + _CHUNK]]
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
                if not steps:  # a dead end: nothing to join
                    ends[covered] = []
                    continue
                stack.append(~covered)
                stack += [nxt for nxt, _ in steps if nxt not in ends]

            # The pairs of X and its images, a chunk of completions at a time;
            # init is never expanded only when it is full, in the trivial group.
            firsts = succ.get(init, [(init, 0)])
            if not (found := sum(len(ends[nxt]) for nxt, _ in firsts)):
                continue  # a dead end: X has no complement, so no pair goes in
            hold(held, found * sum(len(sxs) for _, sxs in images))
            chunks = ((id_mask | cm, piece) for nxt, cm in firsts
                      for piece in _pieces(ends[nxt], deadline))
            xz = (xmask & zc).bit_count()  # shifts and power maps keep |X∩Z|, |Y∩Z|
            for y0, piece in chunks:
                ys = [y0 | t for t in piece]
                internal_check(set(map(int.bit_count, ys)) == {e},
                               "full cover with |X||Y| != |G|")
                yz = list(map(int.bit_count, [y & zc for y in ys]))
                every = Counter(yz)
                for s, sxs in images:
                    deadline.check()
                    sys_ = ys if s is None else [_image(s, y) for y in ys]
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
                            weights[xz * z] += cnt
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

    A normalized side of size 1 is {1}, whose one complement is G, so the
    trivial factorizations are the |Z| shifts ({z}, G) of ({1}, G), and
    nontrivial = total - |Z|.  A partial tally with total > 0 holds that
    pair too: the split (1, |G|) is searched first, and its one candidate
    X = {1} adds ({1}, G) before any other pair.  So total - |Z| stays a
    lower bound.  The trivial group's ({1}, {1}) gives total 1, nontrivial 0.
    """
    nz = center(G).mask.bit_count()
    got = sum((Fraction(nz * nz * cnt, w) for w, cnt in weights.items()), Fraction(0))
    internal_check(got.denominator == 1, "shift orbits do not sum to a whole count")
    total = got.numerator
    return total, total - nz if total else 0


def _expand(G: GroupTable, pairs, deadline: _Deadline) -> set:
    """Every central shift (zX, wY) of the packed normalized pairs, packed,
    one Z x Z orbit at a time.

    The output holds whole orbits, and each pair lies in its own (z = w =
    1), so a normalized pair already in the output lies in an orbit listed
    before and is skipped: each orbit costs 2|Z| _image calls and |Z|^2 keys
    once, however many normalized pairs it holds (up to |X∩Z| |Y∩Z|:
    C16's 289 lie in 49 orbits, 12 544 keys, where one expansion per pair
    packed 73 984).  One list comprehension per orbit, the clock read
    before each piece of pairs whose shifts make at most _CHUNK masks."""
    n, full = G.order, G.full_mask
    zs = tuple(bits(center(G).mask))
    if len(zs) ** 2 * max(len(pairs), 1) > _EXPANSION_CAP:
        raise SearchSpaceTooLarge(
            f"expanding {len(pairs)} normalized pairs by {len(zs)}^2 central "
            f"shifts exceeds the cap {_EXPANSION_CAP}; use normalized_only"
        )
    out, rows = set(), [G.mult[z] for z in zs]
    for piece in _pieces(pairs, deadline, max(1, _CHUNK // len(zs) ** 2)):
        for v in piece:
            if v in out:  # listed with the whole orbit of an earlier pair
                continue
            txs = [_image(row, v >> n) for row in rows]
            tys = [_image(row, v & full) for row in rows]
            out.update([tx << n | ty if tx <= ty else ty << n | tx
                        for tx in txs for ty in tys])
    return out


def _factorization_list(G: GroupTable, listed, deadline: _Deadline) -> list:
    """The sorted packed pairs as factorizations, built with the cyclic
    garbage collector paused and the clock read once per _CHUNK pairs.

    Pairs that share their first mask are contiguous in sorted order, so
    each such run shares one Subset for it.  Each pair costs one Subset and
    one SetDirectFactorization, whose hand-written __init__s set their slots
    directly: about 650 ns a pair on C16, C28 and C30, where the generated
    frozen __init__s took about 950 (Python 3.11, 2-vCPU host).  The objects
    form no cycles, but each full collection walks all of them, in one pause
    that no deadline poll can cut short: listing C40's 901 681 normalized
    pairs took 1.7 s with the collector on and 0.7 s with it paused.  A list
    cut short by the deadline is dropped before the collector resumes, so it
    does not walk that either.
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
    raises SearchSpaceTooLarge, as it does before the masks it holds, one
    X's completions and the pairs, would pass 700 million bits: so C2p from
    C58 up, where X = {1, z} has 2^(p-1) complements.  The exact cover is
    memoized on the covered mask, so each partial cover is solved once, and
    runs as a loop over an explicit stack: no number of classes meets the
    recursion limit.  It searches one small side X per orbit of the central
    shifts X -> zX (z^-1 in X∩Z) composed with, on an abelian group, the
    power maps x -> x^k (k a unit modulo the exponent, each map proved an
    automorphism on the generators), and adds the images (zX, Y) and (s(zX),
    sY) of every pair (X, Y) it finds, in bulk.  Counts (total, nontrivial,
    normalized) are always exact: total sums the shift orbits of the
    normalized pairs, counted by their weights |X∩Z| |Y∩Z|, and nontrivial
    is total - |Z|, less the trivial factorizations ({z}, G).  The returned
    list is either all pairs or, with normalized_only, one normalized pair
    per entry, in ascending order of (min mask, max mask) either way.

    The phases run in the order search, expand (full listing only), sort,
    listing; each pair is one packed int through all of them, and the list
    is sorted once.  time_budget bounds them all: each bulk step covers at
    most 4096 masks (or one pair's |Z|^2 shifts) and reads the clock first:
    on C45 (normalized_only, 3 s, 2-vCPU host) it raised at most 0.23 s late,
    and freeing the 5 million pairs its traceback holds ended 0.35 s late.
    On a time-out TimeBudgetExceeded.phase names the phase it ran out in,
    and TimeBudgetExceeded.partial holds the normalized pairs found so far
    as `normalized`, and `total`/`nontrivial` summed over those pairs: lower
    bounds of the exact counts, both 0 before any pair is found.  Its list
    of factorizations is empty.  A time_budget that is not a real number,
    or is NaN or negative, raises GroupError.
    """
    deadline = _Deadline(time_budget)
    pairs, weights = set(), Counter()
    phase = "search"
    try:
        _normalized_pairs(G, deadline, pairs, weights)
        listed = pairs
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
    total, nontrivial = _orbit_counts(G, weights)
    result = EnumerationResult(
        G.name, facts or [], total, nontrivial, len(pairs), time.perf_counter() - deadline.start
    )
    if facts is not None:
        return result
    raise deadline.exceeded(G.name, phase, result)


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
    reps, coset_of = _left_cosets(G, Z.mask)
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


def check_sample_count(samples) -> None:
    """Raise GroupError unless samples is an integer 0 or more."""
    if not isinstance(samples, Integral) or samples < 0:
        raise GroupError(f"sample count must be an integer, 0 or more, got {samples!r}")


def property_suite(
    G: GroupTable,
    *,
    samples: int = DEFAULT_SAMPLES,
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
    time_budget that is not a real number, or is NaN or negative, and a
    samples that is not an integer 0 or more, raise GroupError.
    """
    deadline = _Deadline(time_budget)
    check_sample_count(samples)
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
        partial = SuiteReport(G.name, checks, time.perf_counter() - deadline.start)
        raise deadline.exceeded(G.name, name, partial, "check")

    facts = enumerate_setdirect(
        G, normalized_only=True, time_budget=deadline.left()).factorizations

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

    return SuiteReport(G.name, checks, time.perf_counter() - deadline.start)
