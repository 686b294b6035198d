"""Censuses over the order-120 group: root classes, and conjugation orbits
of the order-4, order-3 and order-5 material under the diagonal subgroup.

Orbit items are normalized pairs: {x, -x} for the order-4 elements, {x, x^-1}
for the order-3 elements, and sign-classes for the order-5 material.  The
exponent convention throughout is x^y = y^-1 x y.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .groupkit import FiniteGroup
from .qmat2 import MINUS_IDENTITY, QMat2
from .quat import ZERO as Q_ZERO, scalar_group, so3_image
from .reflgroup import Root, build_o1, diagonal_subgroup, roots, word_index

ROOT_LABELS = ("neutrino-like",) + ("electron-like",) * 3 + ("quark-like",) * 6


@dataclass(frozen=True)
class RootClass:
    """One of the 10 scalar-multiple classes of roots; the label is display
    metadata only."""

    base_index: int
    label: str
    members: tuple[Root, ...]


@dataclass(frozen=True)
class OrbitCensus:
    item_kind: str
    items: tuple[frozenset[int], ...]
    orbits: tuple[frozenset[int], ...]  # sets of item positions
    listed: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(o) for o in self.orbits))

    def to_json(self) -> dict:
        return {
            "item_kind": self.item_kind,
            "item_count": len(self.items),
            "orbit_sizes": list(self.orbit_sizes),
            "listed_words": {k: list(v) for k, v in self.listed.items()},
        }


def root_census() -> tuple[RootClass, ...]:
    """The 120 roots as 10 classes of 12; class 0 is the one with vanishing
    second component (its reflection acts on the first coordinate only)."""
    buckets: dict[int, list[Root]] = {}
    for r in roots():
        buckets.setdefault(r.class_index, []).append(r)
    if sorted(buckets) != list(range(10)) or any(len(v) != 12 for v in buckets.values()):
        raise ValueError("roots do not form 10 classes of 12")
    if any(r.spinor.c2 != Q_ZERO for r in buckets[0]):
        raise ValueError("class 0 has a member with nonzero second component")
    return tuple(
        RootClass(i, ROOT_LABELS[i], tuple(buckets[i])) for i in range(10)
    )


def root_bookkeeping() -> dict:
    classes = root_census()
    by_label: dict[str, int] = {}
    for c in classes:
        by_label[c.label] = by_label.get(c.label, 0) + len(c.members)
    so3_order, so3_nonabelian = so3_image()
    return {
        "classes": len(classes),
        "class_size": 12,
        "states_by_label": by_label,
        "total": sum(by_label.values()),
        "scalar_group_order": len(scalar_group()),
        "so3_image_order": so3_order,
        "so3_image_nonabelian": so3_nonabelian,
    }


# -- shared index plumbing ----------------------------------------------

def _group_data():
    G = build_o1()
    return G, diagonal_subgroup(), G.index(MINUS_IDENTITY)


def _sign_pair(G, minus: int, i: int) -> frozenset[int]:
    return frozenset({i, G.table[i][minus]})


def _orbit_of(census_orbits, items, item: frozenset[int]) -> int:
    pos = items.index(item)
    for k, orbit in enumerate(census_orbits):
        if pos in orbit:
            return k
    raise ValueError("item not covered by any orbit")


# -- order 4 ------------------------------------------------------------

ORDER4_LISTED = {
    "inside-subgroup": ("h", "gh", "hg"),
    "photon-like": ("f", "f^g", "f^gg", "f^h", "f^gh", "f^hg"),
    "paired-products": ("f^ghf", "f^hgf", "f^ghfg", "f^hgfg", "f^ghfgg", "f^hgfgg"),
}


def _listed_index(G: FiniteGroup[QMat2], token: str) -> int:
    if "^" in token:
        base, by = token.split("^")
        return G.conj_idx(word_index(base), word_index(by))
    return word_index(token)


def order4_census() -> OrbitCensus:
    """Diagonal conjugation orbits on the 15 sign-pairs of order-4 elements.

    The observed orbit structure is 3+3+3+6: the family listed here as
    paired-products is the union of two genuine 3-orbits (the f^{gh...}
    words and the f^{hg...} words) that together exhaust the pairs outside
    the first two families.  order4_claims records which expectations hold.
    """
    G, h_idx, minus = _group_data()
    elems = [i for i in range(len(G)) if G.element_order(i) == 4]
    if len(elems) != 30:
        raise ValueError(f"{len(elems)} order-4 elements, expected 30")
    items = sorted({_sign_pair(G, minus, i) for i in elems}, key=min)
    if len(items) != 15:
        raise ValueError("order-4 elements do not form 15 sign-pairs")
    orbits = G.conjugation_orbits(h_idx, items)
    return OrbitCensus("sign-pair-order4", tuple(items), tuple(orbits),
                       ORDER4_LISTED)


def order4_claims() -> list[dict]:
    """Pass/fail record of the stated order-4 orbit expectations."""
    G, _, minus = _group_data()
    census = order4_census()
    items = list(census.items)
    checks = [
        {"name": "15 sign-pairs of order-4 elements", "expected": "15",
         "actual": str(len(items)), "pass": len(items) == 15},
        {"name": "orbit sizes 3+6+6", "expected": "(3, 6, 6)",
         "actual": str(census.orbit_sizes),
         "pass": census.orbit_sizes == (3, 6, 6)},
    ]
    for name, tokens in ORDER4_LISTED.items():
        ks = {
            _orbit_of(census.orbits, items,
                      _sign_pair(G, minus, _listed_index(G, t)))
            for t in tokens
        }
        union = set()
        for k in ks:
            union |= set(census.orbits[k])
        one_orbit = len(ks) == 1 and len(union) == len(tokens)
        checks.append({
            "name": f"family {name} is one orbit of {len(tokens)}",
            "expected": "1 orbit",
            "actual": f"{len(ks)} orbit(s) spanning {len(union)} pairs",
            "pass": one_orbit,
        })
    return checks


def q8_subgroups() -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
    """(all, normalized): the order-8 subgroups, and those normalized by g.

    Every order-8 subgroup here is a quaternion group: it has a unique
    involution, which is checked.
    """
    G, _, _ = _group_data()
    elems = [i for i in range(len(G)) if G.element_order(i) == 4]
    found: set[frozenset[int]] = set()
    for x, y in combinations(elems, 2):
        s = G.subgroup_indices([x, y])
        if len(s) == 8:
            found.add(s)
    for s in found:
        if sum(1 for i in s if G.element_order(i) == 2) != 1:
            raise ValueError("order-8 subgroup with more than one involution")
    g_idx = word_index("g")
    normalized = tuple(
        s for s in found
        if frozenset(G.conj_idx(i, g_idx) for i in s) == s
    )
    return tuple(sorted(found, key=min)), normalized


def order4_structure() -> dict:
    """Q8 bookkeeping and the product-pairing of the third orbit.

    The photon-like orbit must fill the order-4 part of the two g-normalized
    quaternion subgroups; the paired-products orbit must admit a perfect
    matching of its six sign-pairs whose pairwise products land in the
    diagonal subgroup.
    """
    G, h_idx, minus = _group_data()
    census = order4_census()
    all_q8, normalized = q8_subgroups()

    photon_pairs = {
        _sign_pair(G, minus, _listed_index(G, t))
        for t in ORDER4_LISTED["photon-like"]
    }
    union4 = {
        i for s in normalized for i in s if G.element_order(i) == 4
    }
    photon_in_q8 = union4 == {i for p in photon_pairs for i in p}

    third = [
        _sign_pair(G, minus, _listed_index(G, t))
        for t in ORDER4_LISTED["paired-products"]
    ]
    matching = _product_matching(G, h_idx, third)
    return {
        "q8_total": len(all_q8),
        "q8_normalized_by_g": len(normalized),
        "photon_orbit_fills_q8_pair": photon_in_q8,
        "product_matching": matching,
        "orbit_sizes": list(census.orbit_sizes),
    }


def _product_matching(G, h_idx, pairs: list[frozenset[int]]):
    """Perfect matching of sign-pairs whose representative products lie in
    the subgroup, found by backtracking; None if there is none."""

    def good(p: frozenset[int], q: frozenset[int]) -> bool:
        # products of the four representative choices differ only by sign,
        # and the subgroup contains -identity, so one test per order suffices
        x, y = min(p), min(q)
        return G.table[x][y] in h_idx or G.table[y][x] in h_idx

    def solve(remaining: list[int]) -> list[tuple[int, int]] | None:
        if not remaining:
            return []
        a = remaining[0]
        for b in remaining[1:]:
            if good(pairs[a], pairs[b]):
                rest = solve([r for r in remaining[1:] if r != b])
                if rest is not None:
                    return [(a, b)] + rest
        return None

    return solve(list(range(len(pairs))))


# -- order 3 ------------------------------------------------------------

ORDER3_LISTED = {
    "fixed": ("g",),
    "pion-like": ("fh", "fh^g", "fh^gg"),
    "kaon-like": ("g^f", "g^fg", "g^fgg", "g^fh", "g^fgh", "g^fggh"),
}


def order3_census() -> OrbitCensus:
    """The 10 inverse-pairs of order-3 elements split 1+3+6, with the fixed
    pair {g, g^2} and the two listed families in the stated orbits."""
    G, h_idx, _ = _group_data()
    elems = [i for i in range(len(G)) if G.element_order(i) == 3]
    if len(elems) != 20:
        raise ValueError(f"{len(elems)} order-3 elements, expected 20")
    items = sorted({frozenset({i, G.inverse[i]}) for i in elems}, key=min)
    if len(items) != 10:
        raise ValueError("order-3 elements do not form 10 inverse-pairs")
    orbits = G.conjugation_orbits(h_idx, items)
    census = OrbitCensus("inverse-pair-order3", tuple(items), tuple(orbits),
                         ORDER3_LISTED)
    if census.orbit_sizes != (1, 3, 6):
        raise ValueError(f"order-3 orbit sizes {census.orbit_sizes}")
    for name, tokens in ORDER3_LISTED.items():
        ks = set()
        for t in tokens:
            i = _listed_index(G, t)
            ks.add(_orbit_of(orbits, items, frozenset({i, G.inverse[i]})))
        if len(ks) != 1 or len(orbits[ks.pop()]) != len(tokens):
            raise ValueError(f"listed family {name} is not one full orbit")
    # the listed inverses pair up: (fh)^-1 = hf since f^2 = h^2 = -1
    if G.inverse[word_index("fh")] != word_index("hf"):
        raise ValueError("(fh)^-1 != hf")
    return census


# -- order 5 ------------------------------------------------------------

ORDER5_GENERATORS = ("gfh", "fhg", "ghfg", "ghf", "hfg", "gfhg")


def order5_census() -> dict:
    """Six cyclic groups mod sign covering the 48 elements of order 5 or 10.

    Each listed generator yields 4 nontrivial sign-classes; the six sets are
    distinct and exhaust the order-5/10 material.
    """
    G, _, minus = _group_data()
    elems = [i for i in range(len(G)) if G.element_order(i) in (5, 10)]
    if len(elems) != 48:
        raise ValueError(f"{len(elems)} order-5/10 elements, expected 48")
    all_classes = {_sign_pair(G, minus, i) for i in elems}
    groups = []
    for w in ORDER5_GENERATORS:
        i = word_index(w)
        sub = G.subgroup_indices([i, minus])
        classes = frozenset(
            _sign_pair(G, minus, j) for j in sub if j not in (0, minus)
        )
        if len(classes) != 4 or not classes <= all_classes:
            raise ValueError(f"generator {w} does not give 4 order-5 sign-classes")
        groups.append((w, classes))
    sets = [c for _, c in groups]
    if len(set(sets)) != 6:
        raise ValueError("listed order-5 cyclic groups are not distinct")
    covered = frozenset().union(*sets)
    if covered != frozenset(all_classes):
        raise ValueError("order-5 cyclic groups do not cover all sign-classes")
    return {
        "cyclic_groups": len(groups),
        "sign_classes_each": 4,
        "sign_classes_total": len(all_classes),
        "generators": list(ORDER5_GENERATORS),
        "covered": True,
    }


def order_totals() -> dict[int, int]:
    """Element counts by order; must sum to 120 over {1,2,3,4,5,6,10}."""
    hist = build_o1().order_histogram()
    if sum(hist.values()) != 120:
        raise ValueError("order histogram does not sum to 120")
    return hist
