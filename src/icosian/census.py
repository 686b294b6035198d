"""Censuses over the order-120 group: root classes, and conjugation orbits
of the order-4, order-3 and order-5 material under the diagonal subgroup.

Orbit items are normalized pairs: {x, -x} for the order-4 elements, {x, x^-1}
for the order-3 elements, and sign-classes for the order-5 material.  The
exponent convention throughout is x^y = y^-1 x y.
"""
from __future__ import annotations

from functools import cache, partial
from itertools import combinations

from .claim import Claim
from .groupkit import FiniteGroup
from .qmat2 import MINUS_IDENTITY, QMat2
from .quat import ZERO as Q_ZERO, scalar_group, so3_image
from .record import Record
from .reflgroup import build_o1, diagonal_subgroup, roots, word_index

ROOT_LABELS = ("neutrino-like",) + ("electron-like",) * 3 + ("quark-like",) * 6


class OrbitCensus(Record):
    __slots__ = ("item_kind", "items", "orbits", "listed")

    def __init__(self, item_kind: str, items: tuple[frozenset[int], ...],
                 orbits: tuple[frozenset[int], ...],  # sets of item positions
                 listed: dict[str, tuple[str, ...]]):
        object.__setattr__(self, "item_kind", item_kind)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "orbits", orbits)
        object.__setattr__(self, "listed", listed)

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


def root_bookkeeping() -> dict:
    """The roots as labelled classes of one size, both read off ``roots()``
    (10 classes of 12); class 0 is the one with vanishing second component
    (its reflection acts on the first coordinate only)."""
    classes = roots()
    if any(r.c2 != Q_ZERO for r in classes[0]):
        raise ValueError("class 0 has a member with nonzero second component")
    sizes = sorted({len(members) for members in classes})
    if len(sizes) != 1:
        raise ValueError(f"root classes of sizes {sizes}, not of one size")
    by_label: dict[str, int] = {}
    for label, members in zip(ROOT_LABELS, classes):
        by_label[label] = by_label.get(label, 0) + len(members)
    so3_order, so3_nonabelian = so3_image()
    return {
        "classes": len(classes),
        "class_size": sizes[0],
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


def _listed_index(G: FiniteGroup[QMat2], token: str) -> int:
    if "^" in token:
        base, by = token.split("^")
        return G.conj_idx(word_index(base), word_index(by))
    return word_index(token)


def _family_claims(G, census: OrbitCensus, item_of) -> list[Claim]:
    """For each listed family, the claim that the items of its words, under
    item_of(index), make up one whole orbit."""
    claims = []
    for name, tokens in census.listed.items():
        pos = [census.items.index(item_of(_listed_index(G, t))) for t in tokens]
        hit = [orbit for orbit in census.orbits if not orbit.isdisjoint(pos)]
        spanned = sum(len(orbit) for orbit in hit)  # orbits are disjoint
        claims.append(Claim(f"family {name} is one orbit of {len(tokens)}",
                            "1 orbit", f"{len(hit)} orbit(s) spanning {spanned} pairs",
                            len(hit) == 1 and spanned == len(tokens)))
    return claims


def _pair_census(kind: str, order: int, count: int, pair_of, listed) -> OrbitCensus:
    """Diagonal conjugation orbits on the pairs pair_of(i) of the elements
    of one order.  Each pair holds exactly two elements of that order, so
    counting the pairs counts the elements too."""
    G, h_idx, _ = _group_data()
    items = sorted({pair_of(i) for i in range(len(G)) if G.element_order(i) == order},
                   key=min)
    if len(items) != count:
        raise ValueError(f"{len(items)} {kind} items, expected {count}")
    orbits = G.conjugation_orbits(h_idx, items)
    return OrbitCensus(kind, tuple(items), tuple(orbits), listed)


# -- order 4 ------------------------------------------------------------

ORDER4_LISTED = {
    "inside-subgroup": ("h", "gh", "hg"),
    "photon-like": ("f", "f^g", "f^gg", "f^h", "f^gh", "f^hg"),
    "paired-products": ("f^ghf", "f^hgf", "f^ghfg", "f^hgfg", "f^ghfgg", "f^hgfgg"),
}


@cache
def order4_census() -> OrbitCensus:
    """Diagonal conjugation orbits on the 15 sign-pairs of order-4 elements.

    The observed orbit structure is 3+3+3+6: the family listed here as
    paired-products is the union of two genuine 3-orbits (the f^{gh...}
    words and the f^{hg...} words) that together exhaust the pairs outside
    the first two families.  order4_claims records which expectations hold.
    """
    G, _, minus = _group_data()
    return _pair_census("sign-pair-order4", 4, 15, partial(_sign_pair, G, minus),
                        ORDER4_LISTED)


def order4_claims() -> list[Claim]:
    """Pass/fail record of the stated order-4 orbit expectations."""
    G, _, minus = _group_data()
    census = order4_census()
    return [
        Claim.of("15 sign-pairs of order-4 elements", 15, len(census.items)),
        Claim.of("orbit sizes 3+6+6", (3, 6, 6), census.orbit_sizes),
        *_family_claims(G, census, partial(_sign_pair, G, minus)),
    ]


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
    """The couples of sign-pairs whose representative products lie in the
    subgroup, if they pair off every sign-pair exactly once; None otherwise."""
    # products of the four representative choices differ only by sign, and
    # the subgroup contains -identity, so one test per order suffices
    t = G.table
    couples = [
        (a, b) for a, b in combinations(range(len(pairs)), 2)
        if t[min(pairs[a])][min(pairs[b])] in h_idx
        or t[min(pairs[b])][min(pairs[a])] in h_idx
    ]
    matched = sorted(i for couple in couples for i in couple)
    return couples if matched == list(range(len(pairs))) else None


# -- order 3 ------------------------------------------------------------

ORDER3_LISTED = {
    "fixed": ("g",),
    "pion-like": ("fh", "fh^g", "fh^gg"),
    "kaon-like": ("g^f", "g^fg", "g^fgg", "g^fh", "g^fgh", "g^fggh"),
}


def order3_census() -> OrbitCensus:
    """The 10 inverse-pairs of order-3 elements split 1+3+6, with the fixed
    pair {g, g^2} and the two listed families in the stated orbits."""
    G = build_o1()

    def inverse_pair(i: int) -> frozenset[int]:
        return frozenset({i, G.inverse[i]})

    census = _pair_census("inverse-pair-order3", 3, 10, inverse_pair, ORDER3_LISTED)
    if census.orbit_sizes != (1, 3, 6):
        raise ValueError(f"order-3 orbit sizes {census.orbit_sizes}")
    for c in _family_claims(G, census, inverse_pair):
        if not c.ok:
            raise ValueError(f"{c.name} fails: {c.actual}")
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
    sets = []
    for w in ORDER5_GENERATORS:
        i = word_index(w)
        sub = G.subgroup_indices([i, minus])
        classes = frozenset(
            _sign_pair(G, minus, j) for j in sub if j not in (0, minus)
        )
        if len(classes) != 4 or not classes <= all_classes:
            raise ValueError(f"generator {w} does not give 4 order-5 sign-classes")
        sets.append(classes)
    if len(set(sets)) != 6:
        raise ValueError("listed order-5 cyclic groups are not distinct")
    covered = frozenset().union(*sets)
    if covered != frozenset(all_classes):
        raise ValueError("order-5 cyclic groups do not cover all sign-classes")
    return {
        "cyclic_groups": len(sets),
        "sign_classes_each": 4,
        "sign_classes_total": len(all_classes),
        "generators": list(ORDER5_GENERATORS),
        "covered": True,
    }
