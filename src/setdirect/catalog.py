"""Built-in catalog of small groups plus JSON group specifications.

Catalog names are case-insensitive.  Dihedral groups are named by their
order (D10 is the dihedral group with 10 elements); cyclic products use
names like C3xC3xC2 with generator labels g1, g2, ...
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from .errors import NotAGroup
from .groups import (
    GroupTable,
    central_product_embedding,
    check_order,
    direct_product,
    group_from_permutations,
    group_from_table,
)


def cyclic(n: int, *, name: Optional[str] = None) -> GroupTable:
    if n < 1:
        raise NotAGroup("cyclic group order must be positive")
    check_order(n)
    mult = [[(a + b) % n for b in range(n)] for a in range(n)]
    inv = [(-a) % n for a in range(n)]
    labels = ["1"] + ["z" if a == 1 else f"z^{a}" for a in range(1, n)]
    return GroupTable(mult, inv, 0, labels, name=name or f"C{n}")


def dihedral(order: int, *, name: Optional[str] = None) -> GroupTable:
    """Dihedral group of the given (even, >= 2) order: r^a and r^a s, the
    elements a and n + a for n = order / 2."""
    if order < 2 or order % 2:
        raise NotAGroup("dihedral order must be even and at least 2")
    check_order(order)
    n = order // 2
    # r^a s^j r^b s^k = r^(a -+ b) s^(j xor k)
    mult = [[(a - b if j else a + b) % n + n * (j ^ k) for k in (0, 1) for b in range(n)]
            for j in (0, 1) for a in range(n)]
    inv = [(-a) % n for a in range(n)] + list(range(n, order))
    rot = ["1"] + ["r" if a == 1 else f"r{a}" for a in range(1, n)]
    ref = ["s"] + ["rs" if a == 1 else f"r{a}s" for a in range(1, n)]
    return GroupTable(mult, inv, 0, rot + ref, name=name or f"D{order}")


def quaternion(order: int, *, name: Optional[str] = None) -> GroupTable:
    """Generalized quaternion group of order 4m: a^i and a^i b, b^2 = a^m,
    the elements i and n + i for n = 2m."""
    if order < 8 or order % 4:
        raise NotAGroup("generalized quaternion order must be 4m with m >= 2")
    check_order(order)
    m = order // 4
    n = 2 * m
    # a^i a^k b^l = a^(i+k) b^l;  a^i b a^k b^l = a^(i-k) b^(l+1), b^2 = a^m
    mult = [[(i + k) % n + n * l if j == 0 else (i - k + m * l) % n + n * (1 - l)
             for l in (0, 1) for k in range(n)] for j in (0, 1) for i in range(n)]
    inv = [(-i) % n for i in range(n)] + [(i + m) % n + n for i in range(n)]
    if order == 8:
        labels = ["1", "i", "-1", "-i", "j", "k", "-j", "-k"]
    else:
        pw = ["1"] + ["a" if i == 1 else f"a{i}" for i in range(1, n)]
        labels = pw + [("b" if i == 0 else ("ab" if i == 1 else f"a{i}b")) for i in range(n)]
    return GroupTable(mult, inv, 0, labels, name=name or f"Q{order}")


def symmetric(n: int, *, name: Optional[str] = None) -> GroupTable:
    if n < 1:
        raise NotAGroup("symmetric degree must be positive")
    if n == 1:
        return group_from_table([[0]], ["()"], name=name or "S1")
    check_order(n, "degree")  # n! >= n, and the factorial stays cheap
    check_order(math.factorial(n))
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_permutations(gens, name=name or f"S{n}")


def alternating(n: int, *, name: Optional[str] = None) -> GroupTable:
    if n < 3:
        return group_from_table([[0]], ["()"], name=name or f"A{n}")
    check_order(n, "degree")
    check_order(math.factorial(n) // 2)
    gens = []
    for k in range(2, n):
        p = list(range(n))
        p[0], p[1], p[k] = p[1], p[k], p[0]
        gens.append(tuple(p))
    return group_from_permutations(gens, name=name or f"A{n}")


def cyclic_product(orders: Sequence[int], *, name: Optional[str] = None) -> GroupTable:
    """Direct product of cyclic groups with generator labels g1, g2, ...

    Element exponent_index(orders, e) is g1^e1 * g2^e2 * ...; the table is
    the left fold of direct_product over the cyclic factors, whose packing
    a*|B| + b is that index."""
    orders = tuple(int(o) for o in orders)
    if not orders or any(o < 1 for o in orders):
        raise NotAGroup("cyclic factor orders must be positive")
    n = math.prod(orders)
    check_order(n)
    G = cyclic(orders[0])
    for o in orders[1:]:
        G = direct_product(G, cyclic(o))

    def lab(x):
        exps = []
        for o in reversed(orders):
            exps.append(x % o)
            x //= o
        parts = []
        for i, e in enumerate(reversed(exps)):
            if e == 1:
                parts.append(f"g{i+1}")
            elif e:
                parts.append(f"g{i+1}^{e}")
        return "*".join(parts) if parts else "1"

    default = "x".join(f"C{o}" for o in orders)
    return GroupTable(G.mult, G.inv, 0, [lab(x) for x in range(n)], name=name or default)


def exponent_index(orders: Sequence[int], exps: Sequence[int]) -> int:
    """Element index in cyclic_product(orders) for the given exponent tuple."""
    x = 0
    for e, o in zip(exps, orders):
        x = x * o + (e % o)
    return x


# The catalog central products by their two factors.  Each pairing
# [(0, 0), (2, 2)] glues the identities and the central involutions of index
# 2: -1 in Q8, r^2 in D8 (Z(D8) = {1, r^2}) and z^2 in C4.
_CENTRAL_FACTORS = {
    "Q8oC4": ((quaternion, 8), (cyclic, 4)),
    "Q8oQ8": ((quaternion, 8), (quaternion, 8)),
    "D8oC4": ((dihedral, 8), (cyclic, 4)),
}
_CENTRAL_PRODUCTS = {name.lower(): name for name in _CENTRAL_FACTORS}


@lru_cache(maxsize=None)
def central_product_entry(name: str):
    """Catalog central products with their canonical factor images."""
    name = _CENTRAL_PRODUCTS[name.lower()]
    (left, a), (right, b) = _CENTRAL_FACTORS[name]
    return central_product_embedding(left(a), right(b), [(0, 0), (2, 2)], name=name)


def catalog_names() -> tuple:
    names = [f"C{n}" for n in range(1, 65)]
    names += [f"D{2 * n}" for n in range(2, 21)]
    names += ["Q8", "Q16"]
    names += [f"S{n}" for n in range(2, 6)]
    names += [f"A{n}" for n in range(3, 6)]
    names += ["C2xC2", "C2xC2xC2", "C3xC2xC2", "C3xC3xC2", "C3xC3xC4"]
    names += ["Q8oC4", "Q8oQ8", "D8oC4"]
    return tuple(names)


_FAMILIES = {"c": cyclic, "d": dihedral, "q": quaternion, "s": symmetric, "a": alternating}
# ASCII digits, as int() takes other digits that it then rejects; nine at
# most, which already name an order far past MAX_ORDER
_INDEXED = re.compile(r"([cdqsa])([0-9]{1,9})")


@lru_cache(maxsize=None)
def catalog_group(name: str) -> GroupTable:
    """Look up (or build) a catalog group; names are case-insensitive."""
    key = name.strip().lower()
    if key in _CENTRAL_PRODUCTS:
        return central_product_entry(key).group
    parts = key.split("x")
    found = [_INDEXED.fullmatch(p) for p in parts]
    if len(parts) == 1 and found[0]:
        return _FAMILIES[found[0][1]](int(found[0][2]))
    if all(m and m[1] == "c" for m in found):
        return cyclic_product([int(m[2]) for m in found],
                              name="x".join(p.upper() for p in parts))
    raise KeyError(f"unknown catalog group {name!r}")


def group_from_json(obj) -> GroupTable:
    """Build a group from the JSON group-specification format.

    Kinds: "permutations" (generators, plus a degree that must be their
    length if given), "table" (mult + labels),
    "catalog" (name), "central_product" (left/right specs + pairing).  A
    malformed specification raises NotAGroup.
    """
    if not isinstance(obj, dict):
        raise NotAGroup(f"a group specification is a JSON object, not {type(obj).__name__}")
    try:
        return _group_from_spec(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise NotAGroup(f"malformed {obj.get('kind')!r} group specification: {exc!r}") from exc


def _group_from_spec(obj: dict) -> GroupTable:
    kind = obj.get("kind")
    if kind == "permutations":
        gens = obj["generators"]
        if "degree" in obj:
            degree = obj["degree"]
            if type(degree) is not int or any(len(g) != degree for g in gens):
                raise NotAGroup(f"degree {degree!r} is not the length of every generator")
        return group_from_permutations(gens)
    if kind == "table":
        return group_from_table(obj["mult"], obj.get("labels"))
    if kind == "catalog":
        if not isinstance(obj["name"], str):
            raise NotAGroup(f"catalog name {obj['name']!r} is not a string")
        return catalog_group(obj["name"])
    if kind == "central_product":
        left = group_from_json(obj["left"])
        right = group_from_json(obj["right"])
        pairing = [tuple(p) for p in obj["pairing"]]
        return central_product_embedding(left, right, pairing).group
    raise NotAGroup(f"unknown group kind {kind!r}")


def load_group(spec: str) -> GroupTable:
    """Resolve a CLI group spec: a catalog name or a path to a JSON file."""
    path = Path(spec)
    try:
        is_file = path.is_file()
    except OSError:  # a name too long to be a path, say
        is_file = False
    if spec.endswith(".json") or is_file:
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise NotAGroup(f"cannot read group file {spec!r}: {exc}") from exc
        g = group_from_json(obj)
        if g.name == "G" or g.name.startswith("perm-group"):
            g.name = path.stem
        return g
    try:
        return catalog_group(spec)
    except KeyError:
        raise NotAGroup(f"{spec!r} is neither a catalog name nor a group file")
