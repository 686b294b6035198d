import random

import pytest

from icosian.groupkit import ClosureError, FiniteGroup
from icosian.qmat2 import IDENTITY
from icosian.reflgroup import build_o1, gamma_group, generators


def perm_mul(p, q):
    return tuple(p[i] for i in q)


IDENT4 = (0, 1, 2, 3)
S3_GENS = [(1, 0, 2, 3), (0, 2, 1, 3)]


def s3():
    return FiniteGroup.closure(S3_GENS, perm_mul, IDENT4)


def test_closure_order():
    assert len(s3()) == 6


def test_identity_is_first():
    assert s3().elements[0] == IDENT4


def test_closure_cap():
    with pytest.raises(ClosureError):
        FiniteGroup.closure(S3_GENS, perm_mul, IDENT4, cap=3)


def test_table_and_inverse():
    g = s3()
    for i in range(len(g)):
        assert g.mul_idx(i, g.inverse[i]) == 0
        assert g.mul_idx(g.inverse[i], i) == 0


def test_element_orders():
    g = s3()
    assert sorted(g.element_order(i) for i in range(len(g))) == [1, 2, 2, 2, 3, 3]
    assert g.order_histogram() == {1: 1, 2: 3, 3: 2}


def test_words_evaluate_back():
    g = s3()
    for i, w in enumerate(g.words):
        acc = 0
        for j in w:
            acc = g.table[acc][g.generator_indices[j]]
        assert acc == i


def test_conjugacy_classes_of_s3():
    g = s3()
    sizes = sorted(len(c) for c in g.conjugacy.classes)
    assert sizes == [1, 2, 3]
    # class_of is consistent with classes
    for k, cls in enumerate(g.conjugacy.classes):
        for i in cls:
            assert g.conjugacy.class_of[i] == k


def test_conj_idx_convention():
    g = s3()
    t = g.table
    for x in range(len(g)):
        for y in range(len(g)):
            assert g.conj_idx(x, y) == t[t[g.inverse[y]][x]][y]


def test_subgroup_indices():
    g = s3()
    assert g.subgroup_indices([0]) == frozenset({0})
    rot = next(i for i in range(len(g)) if g.element_order(i) == 3)
    assert len(g.subgroup_indices([rot])) == 3


def test_subgroup_materialization():
    # closing the generators as a group of their own gives the same set
    g = s3()
    for i in range(len(g)):
        sub = FiniteGroup.closure([g.elements[i]], perm_mul, IDENT4)
        assert {g.index(x) for x in sub.elements} == g.subgroup_indices([i])


def test_is_maximal():
    g = s3()
    rot = next(i for i in range(len(g)) if g.element_order(i) == 3)
    a3 = g.subgroup_indices([rot])
    assert g.is_maximal(a3)
    assert not g.is_maximal(frozenset({0}))


def test_is_maximal_rejects_non_subgroup():
    g = s3()
    non_subgroup = frozenset({1, 2})  # misses the identity
    assert not g.is_subgroup_set(non_subgroup)
    with pytest.raises(ClosureError):
        g.is_maximal(non_subgroup)


def test_conjugation_orbits_well_defined():
    g = s3()
    transpositions = [frozenset({i}) for i in range(len(g)) if g.element_order(i) == 2]
    orbits = g.conjugation_orbits(range(len(g)), transpositions)
    assert [len(o) for o in orbits] == [3]


def test_conjugation_orbits_rejects_unstable_items():
    g = s3()
    one_transposition = next(i for i in range(len(g)) if g.element_order(i) == 2)
    # conjugation moves this item to transpositions outside the item list
    with pytest.raises(ClosureError):
        g.conjugation_orbits(range(len(g)), [frozenset({one_transposition})])


# the table is composed from generator edges; the exhaustive product of
# every pair is the reference these compare it with

def assert_rows_match_products(g, rows):
    for i in rows:
        for j in range(len(g)):
            assert g.table[i][j] == g.index(g.mul(g.elements[i], g.elements[j]))


def test_table_matches_exhaustive_products_s3():
    g = s3()
    assert_rows_match_products(g, range(len(g)))


def test_table_matches_exhaustive_products_gamma():
    g = gamma_group()
    assert_rows_match_products(g, range(len(g)))


def test_table_matches_products_on_generator_edges_and_sample_rows():
    g = build_o1()
    for i in range(len(g)):
        for s, gen in enumerate(g.generator_indices):
            want = g.index(g.mul(g.elements[i], g.elements[gen]))
            assert g.table[i][gen] == g.edges[i][s] == want
    assert_rows_match_products(g, random.Random(3).sample(range(len(g)), 6))


def test_table_inverse_conjugacy_use_only_edge_products():
    calls = 0

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return a * b

    g = FiniteGroup.closure(list(generators()), counting_mul, IDENTITY)
    g.table, g.inverse, g.conjugacy
    assert calls == len(g) * len(generators()) == 360
