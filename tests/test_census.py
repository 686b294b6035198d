from itertools import combinations

import pytest

from icosian import census
from icosian.checks import run_checks
from icosian.qmat2 import QMat2
from icosian.quat import ZERO as Q_ZERO
from icosian.reflgroup import (
    build_o1,
    diagonal_subgroup,
    reflection_group,
    roots,
    word_index,
)


def test_root_census_shape():
    classes = roots()
    assert len(classes) == 10
    assert all(len(c) == 12 for c in classes)
    labels = list(census.ROOT_LABELS)
    assert len(labels) == 10
    assert labels.count("neutrino-like") == 1
    assert labels.count("electron-like") == 3
    assert labels.count("quark-like") == 6


def test_neutrino_class_has_zero_second_component():
    assert census.ROOT_LABELS[0] == "neutrino-like"
    assert all(r.c2 == Q_ZERO for r in roots()[0])


def test_root_bookkeeping():
    b = census.root_bookkeeping()
    assert b["states_by_label"] == {
        "neutrino-like": 12, "electron-like": 36, "quark-like": 72,
    }
    assert b["total"] == 120
    assert b["scalar_group_order"] == 12
    assert b["so3_image_order"] == 6
    assert b["so3_image_nonabelian"] is True


@pytest.mark.parametrize("short", [1, 10], ids=["one-class", "every-class"])
def test_census_roots_fails_on_classes_of_11(monkeypatch, short):
    # the class size is read off the roots: one class of 11 makes the sizes
    # differ, and ten classes of 11 report 11, not 12
    classes = roots()
    monkeypatch.setattr(census, "roots", lambda: tuple(
        c[:11] if k < short else c for k, c in enumerate(classes)))
    (result,) = run_checks("census.roots").results
    assert result.status == "fail"
    assert ("of sizes [11, 12]" if short == 1 else "(10, 11, ") in result.actual


def test_order4_census_pairs():
    c = census.order4_census()
    assert len(c.items) == 15
    assert all(len(p) == 2 for p in c.items)


def test_order4_actual_orbit_sizes():
    # the stated 3+6+6 does not hold; the observed structure is 3+3+3+6,
    # with the listed six-element third family a union of two 3-orbits
    assert census.order4_census().orbit_sizes == (3, 3, 3, 6)


def test_order4_claims_record_the_defect():
    claims = {c.name: c.ok for c in census.order4_claims()}
    assert claims["15 sign-pairs of order-4 elements"]
    assert claims["family inside-subgroup is one orbit of 3"]
    assert claims["family photon-like is one orbit of 6"]
    assert not claims["orbit sizes 3+6+6"]
    assert not claims["family paired-products is one orbit of 6"]


def test_q8_subgroups():
    all_q8, normalized = census.q8_subgroups()
    assert len(all_q8) == 5
    assert len(normalized) == 2


def test_q8_subgroups_close_each_pair_of_sign_pairs_once(monkeypatch):
    # one order-4 element per sign-pair: C(15, 2) = 105 closures, one for
    # each pair of different sign-pairs
    G = build_o1()
    items = census.order4_census().items
    item_of = {i: item for item in items for i in item}
    closed = []
    within = G.closure_within

    def recording(gens, limit):
        closed.append(frozenset(item_of[i] for i in gens))
        return within(gens, limit)

    monkeypatch.setattr(G, "closure_within", recording)
    census.q8_subgroups()
    assert len(closed) == 105
    assert set(closed) == {frozenset(pair) for pair in combinations(items, 2)}


def test_order4_structure():
    s = census.order4_structure()
    assert s["q8_total"] == 5
    assert s["q8_normalized_by_g"] == 2
    assert s["photon_orbit_fills_q8_pair"] is True
    matching = s["product_matching"]
    assert matching is not None
    assert len(matching) == 3
    assert len({i for pair in matching for i in pair}) == 6


def reference_matching(G, h_idx, pairs):
    """A perfect matching of sign-pairs whose products lie in the subgroup,
    found by backtracking; None if there is none: _product_matching's
    reference."""

    def good(p, q):
        x, y = min(p), min(q)
        return G.table[x][y] in h_idx or G.table[y][x] in h_idx

    def solve(remaining):
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


def paired_product_pairs():
    G, h_idx, minus = census._group_data()
    pairs = [census._sign_pair(G, minus, census._listed_index(G, t))
             for t in census.ORDER4_LISTED["paired-products"]]
    return G, h_idx, pairs


def test_product_matching_matches_the_backtracking_reference():
    G, h_idx, pairs = paired_product_pairs()
    want = [(0, 1), (2, 3), (4, 5)]
    assert census._product_matching(G, h_idx, pairs) == want
    assert reference_matching(G, h_idx, pairs) == want


def test_product_matching_rejects_surplus_couples():
    # with H = G every couple is good: a matching exists, but the good
    # couples do not pair off each sign-pair exactly once
    G, _, pairs = paired_product_pairs()
    everything = frozenset(range(len(G)))
    assert census._product_matching(G, everything, pairs) is None
    assert reference_matching(G, everything, pairs) is not None


def test_product_matching_without_good_couples():
    G, _, pairs = paired_product_pairs()
    identity = frozenset({0})
    assert census._product_matching(G, identity, pairs) is None
    assert reference_matching(G, identity, pairs) is None


def test_order3_census():
    c = census.order3_census()
    assert len(c.items) == 10
    assert c.orbit_sizes == (1, 3, 6)


def test_order5_census():
    c = census.order5_census()
    assert c["cyclic_groups"] == 6
    assert c["sign_classes_each"] == 4
    assert c["sign_classes_total"] == 24
    assert c["covered"] is True


def test_index_work_makes_no_matrix_products(monkeypatch):
    # once G is closed, its subgroups, words and censuses are index work on
    # its Cayley graph
    build_o1()
    calls = 0
    mul = QMat2.__mul__

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(QMat2, "__mul__", counting_mul)
    diagonal_subgroup.cache_clear()
    reflection_group.cache_clear()
    census.order4_census.cache_clear()
    diagonal_subgroup(), reflection_group(), word_index("fghfgh")
    census.order4_claims(), census.order4_structure()
    census.order3_census(), census.order5_census()
    assert calls == 0


def test_orbit_checks_build_each_pair_census_once(monkeypatch):
    # the order-4 census is cached, so orbits.order4 and orbits.q8 share it
    calls = 0
    pair_census = census._pair_census

    def counting(*args):
        nonlocal calls
        calls += 1
        return pair_census(*args)

    monkeypatch.setattr(census, "_pair_census", counting)
    census.order4_census.cache_clear()
    run_checks("orbits")
    assert calls == 2
