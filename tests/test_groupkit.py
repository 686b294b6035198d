import operator
import random

import pytest

from icosian.census import q8_subgroups
from icosian.groupkit import ClosureError, ConjugacyPartition, FiniteGroup, coset_table, relators
from icosian.qmat2 import IDENTITY
from icosian.quat import scalar_group
from icosian.reflgroup import (
    GAMMA_LETTERS, GAMMA_RELATIONS, G_RELATIONS, LETTERS, build_o1, diagonal_subgroup,
    gamma_group, gamma_matrices, generators, reflection_group,
)


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
    # a group closes at a cap equal to its order, and not one below
    assert len(FiniteGroup.closure(S3_GENS, perm_mul, IDENT4, cap=6)) == 6
    with pytest.raises(ClosureError, match="closure exceeded cap 5"):
        FiniteGroup.closure(S3_GENS, perm_mul, IDENT4, cap=5)


def test_index_of_a_value_outside_the_group_names_it():
    g = s3()
    assert g.index((0, 2, 1, 3)) == g.edges[0][1]
    with pytest.raises(ClosureError, match=r"\(3, 2, 1, 0\) is not an element"):
        g.index((3, 2, 1, 0))


def test_table_and_inverse():
    g = s3()
    for i in range(len(g)):
        assert g.table[i][g.inverse[i]] == 0
        assert g.table[g.inverse[i]][i] == 0


def test_element_orders():
    g = s3()
    assert sorted(g.element_order(i) for i in range(len(g))) == [1, 2, 2, 2, 3, 3]
    assert g.order_histogram() == {1: 1, 2: 3, 3: 2}


def test_element_order_rejects_a_corrupt_graph():
    # with one edges row reversed the composed table is no group table:
    # the powers of element 1 never return to the identity
    g = s3()
    g.edges = list(g.edges)
    g.edges[1] = g.edges[1][::-1]
    with pytest.raises(ClosureError):
        g.element_order(1)


def test_words_evaluate_back():
    # each BFS word folds back to its element, by index and by exact product
    g = s3()
    assert g.word(0) == ()
    for i in range(len(g)):
        w = g.word(i)
        assert g.word_index(w) == i
        acc = IDENT4
        for j in w:
            acc = perm_mul(acc, S3_GENS[j])
        assert acc == g.elements[i]


def test_conjugacy_classes_of_s3():
    g = s3()
    sizes = sorted(len(c) for c in g.conjugacy.classes)
    assert sizes == [1, 2, 3]
    # class_of is consistent with classes
    for k, cls in enumerate(g.conjugacy.classes):
        for i in cls:
            assert g.conjugacy.class_of[i] == k


def test_conj_idx_convention():
    for g in (s3(), gamma_group(), build_o1()):
        t = g.table
        for y in range(len(g)):
            row = g.conj_row(y)
            assert g.conj_row(y) is row  # built once, then kept
            for x in range(len(g)):
                assert row[x] == g.conj_idx(x, y) == t[t[g.inverse[y]][x]][y]
        assert len(g._conj_rows) == len(g)


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
    rot = next(i for i in range(len(g)) if g.element_order(i) == 3)
    for non_subgroup in (frozenset({1, 2}),     # misses the identity
                         frozenset({0, rot})):  # misses rot^2
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


def test_conjugation_orbits_reject_empty_and_overlapping_items():
    g, s = build_o1(), s3()
    minus = g.index(-IDENTITY)
    # conjugation fixes 1 and -1, so each item is mapped onto itself; the
    # items still overlap in the identity
    with pytest.raises(ClosureError):
        g.conjugation_orbits(range(len(g)), [frozenset({0}), frozenset({0, minus})])
    # the trivial subgroup acts by no generator at all
    with pytest.raises(ClosureError):
        s.conjugation_orbits([0], [frozenset({0}), frozenset({0, 1})])
    for items in ([frozenset(), frozenset({0})], [frozenset({0}), frozenset()]):
        with pytest.raises(ClosureError):
            s.conjugation_orbits(range(len(s)), items)


def test_an_item_sent_into_a_larger_item_raises():
    g = s3()
    t1, t2, t3 = (i for i in range(len(g)) if g.element_order(i) == 2)
    with pytest.raises(ClosureError):
        g.conjugation_orbits(range(len(g)), [frozenset({t1}), frozenset({t2, t3})])


# coset enumeration: orders of known presentations, and the tables against
# the product closure of the same generators

def words(letters, *ws):
    """Relators for ``coset_table``: a letter, or its inverse in upper case."""
    return [[2 * letters.index(c.lower()) + c.isupper() for c in w] for w in ws]


@pytest.mark.parametrize("letters, rels, order", [
    ("ab", ("aa", "bbb", "ab" * 5), 60),
    ("ab", ("aa", "bbb", "ab" * 4), 24),
    # 2I = <s, t | (st)^2 = s^3 = t^5>
    ("st", ("ststSSS", "SSSttttt"), 120),
    # <s, t | s^2 = t^3 = (st)^5> is 2I x C19: its abelianisation is Z/19
    ("st", ("ssTTT", "ss" + "TS" * 5), 2280),
    ("ab", ("aa", "bbb", "ab" * 7, "abAB" * 4), 168),
], ids=["A5", "S4", "2I", "2I x C19", "PSL(2, 7)"])
def test_coset_enumeration_orders(letters, rels, order):
    assert len(coset_table(len(letters), words(letters, *rels), cap=10_000)) == order


def test_g_relators_need_minus_one_squared():
    # -1 := ff, and the relation ff = -1 itself gives the relator f^4;
    # without it the six relations present a group of order 360
    f4, gh, h2, g3, fg, fh = relators(LETTERS, G_RELATIONS)
    assert f4 == [0, 0, 0, 0] and gh == [2, 4, 2, 4, 0, 0] and h2 == [4, 4, 0, 0]
    assert len(coset_table(3, [f4, gh, h2, g3, fg, fh], cap=1000)) == 120
    assert len(coset_table(3, [gh, h2, g3, fg, fh], cap=10_000)) == 360


def test_a_sign_needs_a_relation_naming_minus_one():
    with pytest.raises(ValueError, match="names -1"):
        relators("ab", (("ab", -1, "ba"),))


def test_coset_enumeration_stops_at_its_cap():
    # <a, b | a^2, b^3> is the infinite modular group
    with pytest.raises(ClosureError, match="coset enumeration exceeded cap 500"):
        coset_table(2, words("ab", "aa", "bbb"), cap=500)


A5_GENS = [(1, 0, 3, 2, 4), (2, 1, 4, 3, 0)]  # (0 1)(2 3) and (0 2 4)


@pytest.mark.parametrize("gens, mul, identity, letters, relations", [
    (A5_GENS, perm_mul, tuple(range(5)), "ab",
     (("aa", 1, ""), ("bbb", 1, ""), ("ab" * 5, 1, ""))),
    (list(generators()), operator.mul, IDENTITY, LETTERS, G_RELATIONS),
    (list(gamma_matrices()), operator.mul, IDENTITY, GAMMA_LETTERS, GAMMA_RELATIONS),
], ids=["A5", "G", "gamma"])
def test_presentation_table_is_the_closure_cayley_graph(gens, mul, identity, letters,
                                                        relations):
    # numbered breadth-first in generator order, the table is the closure's
    # graph index for index, and the tree images are its elements in order
    closed = FiniteGroup.closure(gens, mul, identity)
    presented = FiniteGroup.from_presentation(gens, mul, identity, letters, relations)
    assert presented.edges == closed.edges
    assert presented.elements == closed.elements
    assert (presented.parent, presented.letter) == (closed.parent, closed.letter)


def test_presentation_table_rejects_a_failing_relation():
    # (ab)^5 read as (ab)^4 on the A5 generators
    relations = (("aa", 1, ""), ("bbb", 1, ""), ("abababab", 1, ""))
    with pytest.raises(ValueError, match=r"^relations fail: abababab = 1$"):
        FiniteGroup.from_presentation(A5_GENS, perm_mul, tuple(range(5)), "ab", relations)


# the table is composed from generator edges; the exhaustive product of
# every pair is the reference these compare it with

def assert_rows_match_products(g, mul, rows):
    for i in rows:
        for j in range(len(g)):
            assert g.table[i][j] == g.index(mul(g.elements[i], g.elements[j]))


def test_table_matches_exhaustive_products_s3():
    g = s3()
    assert_rows_match_products(g, perm_mul, range(len(g)))


def test_table_matches_exhaustive_products_gamma():
    g = gamma_group()
    assert_rows_match_products(g, operator.mul, range(len(g)))


def test_table_matches_products_on_generator_edges_and_sample_rows():
    g = build_o1()
    gens = generators()
    for i in range(len(g)):
        for s, gen in enumerate(gens):
            want = g.index(g.elements[i] * gen)
            assert g.table[i][g.edges[0][s]] == g.edges[i][s] == want
    assert_rows_match_products(g, operator.mul,
                               random.Random(3).sample(range(len(g)), 6))


def test_table_inverse_conjugacy_use_only_edge_products():
    calls = 0

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return a * b

    g = FiniteGroup.closure(list(generators()), counting_mul, IDENTITY)
    g.table, g.inverse, g.conjugacy
    assert calls == len(g) * len(generators()) == 360


# conjugation_orbits and is_maximal act through a generating set; the
# all-of-H and all-of-sub forms they replaced are the references here

def reference_conjugation_orbits(g, h_indices, items):
    """Every item conjugated by every element of H."""
    item_index = {item: k for k, item in enumerate(items)}
    images = []
    for item in items:
        row = []
        for y in h_indices:
            img = frozenset(g.conj_idx(i, y) for i in item)
            if img not in item_index:
                raise ClosureError("conjugation does not preserve the item set")
            row.append(item_index[img])
        images.append(row)
    orbits, seen = [], set()
    for k in range(len(items)):
        if k in seen:
            continue
        orbit, stack = {k}, [k]
        while stack:
            for img in images[stack.pop()]:
                if img not in orbit:
                    orbit.add(img)
                    stack.append(img)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def reference_is_maximal(g, sub):
    """Closes all of sub with each extra element."""
    if len(sub) == len(g):
        return False
    return all(len(g.subgroup_indices(list(sub) + [x])) == len(g)
               for x in range(len(g)) if x not in sub)


def g_families(g):
    """The census item families: order-3 inverse pairs, order-4 sign pairs
    and all +-pairs."""
    t, minus = g.table, g.index(-IDENTITY)
    pm = [frozenset({i, t[minus][i]}) for i in range(len(g))]
    return [
        sorted({frozenset({i, g.inverse[i]}) for i in range(len(g))
                if g.element_order(i) == 3}, key=min),
        sorted({pm[i] for i in range(len(g)) if g.element_order(i) == 4}, key=min),
        sorted(set(pm), key=min),
    ]


def small_families(g):
    """Every element alone, and every inverse pair."""
    return [[frozenset({i}) for i in range(len(g))],
            sorted({frozenset({i, g.inverse[i]}) for i in range(len(g))}, key=min)]


def g_subgroups():
    g = build_o1()
    rng = random.Random(11)
    subs = [diagonal_subgroup(), reflection_group()]
    for _ in range(40):
        subs.append(g.subgroup_indices(
            rng.randrange(len(g)) for _ in range(rng.randint(1, 3))))
    return subs


def all_subgroups(g):
    """Every subgroup, found by adjoining one element at a time from {0}."""
    subs = {frozenset({0}): [0]}
    frontier = list(subs.items())
    while frontier:
        grown = []
        for h, gens in frontier:
            for x in range(len(g)):
                s = g.subgroup_indices(gens + [x])
                if s not in subs:
                    subs[s] = gens + [x]
                    grown.append((s, gens + [x]))
        frontier = grown
    return list(subs)


def reference_cases():
    """(group, subgroups, item families) on which to compare."""
    gamma = gamma_group()
    return [
        (build_o1(), g_subgroups(), g_families(build_o1())),
        (s3(), all_subgroups(s3()), small_families(s3())),
        (gamma, all_subgroups(gamma), small_families(gamma)),
    ]


def test_conjugation_orbits_match_all_of_h_reference():
    for g, subs, families in reference_cases():
        for h in subs:
            for items in families:
                assert g.conjugation_orbits(h, items) == \
                    reference_conjugation_orbits(g, h, items)


def test_is_maximal_matches_all_of_sub_reference():
    answers = []
    for g, subs, _ in reference_cases():
        for sub in subs:
            answers.append(g.is_maximal(sub))
            assert answers[-1] == reference_is_maximal(g, sub)
    assert True in answers and False in answers


def test_generating_set():
    for g, subs, _ in reference_cases():
        for h in subs:
            gens = g.generating_set(h)
            assert set(gens) <= h
            assert g.subgroup_indices(gens) == h
            for k, x in enumerate(gens):
                assert x not in g.subgroup_indices(gens[:k])
            assert 2 ** len(gens) <= len(h)


def closure_to_the_end(g, gens):
    """The breadth-first closure on the table with no stop at Lagrange's
    bound."""
    t = g.table
    seen, queue = {0}, [0]
    for i in queue:
        for s in gens:
            p = t[i][s]
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return frozenset(seen)


def test_subgroup_closures_match_the_closure_without_the_lagrange_stop():
    # the gamma group has subgroups of order 16, half of 32, and S3 has A3
    # of order 3, half of 6: a stop at half the group, not past it, fails;
    # closure_within is the whole subgroup within its limit, and past it a
    # part of the subgroup with more than limit elements, which a stop at
    # the limit, not past it, can leave short
    for g, subs, _ in reference_cases():
        for h in subs:
            gens = list(g.generating_set(h))
            for x in range(len(g)):
                whole = closure_to_the_end(g, gens + [x])
                assert g.subgroup_indices(gens + [x]) == whole
                for limit in (1, 2, 4, 8, 12, 60):
                    part = g.closure_within(gens + [x], limit)
                    if len(whole) <= limit:
                        assert part == whole
                    else:
                        assert part <= whole and len(part) > limit
    assert any(len(h) == 16 for h in all_subgroups(gamma_group()))
    assert any(len(h) == 3 for h in all_subgroups(s3()))


def test_closures_of_the_whole_group_share_one_set():
    for g in small_groups():
        assert g.whole == frozenset(range(len(g)))
        assert g.subgroup_indices(g.generating_set(range(len(g)))) is g.whole
        assert g.subgroup_indices(range(len(g))) is g.whole
    g = build_o1()
    assert g.subgroup_indices(g.edges[0]) is g.whole  # f, g, h


def test_generating_sets_are_kept_once_per_subgroup():
    g, fresh = build_o1(), FiniteGroup.closure(list(generators()), operator.mul, IDENTITY)
    n = len(g)
    q8_all, _ = q8_subgroups()
    subs = {*q8_all, frozenset(range(n)), diagonal_subgroup()}
    # one entry per distinct subgroup, whatever iterable names it
    assert fresh.generating_set(range(n)) == fresh.generating_set(frozenset(range(n)))
    assert len(fresh._generating_sets) == 1
    for h in subs:
        gens = g.generating_set(h)
        assert g.generating_set(set(h)) is gens  # kept, under any iterable
        assert gens == fresh.generating_set(sorted(h))
        assert g.subgroup_indices(gens) == h
    assert len(fresh._generating_sets) == len(subs)
    # a set that is not a subgroup gets an answer but no entry
    not_closed = frozenset({0, g.edges[0][1]})
    assert fresh.subgroup_indices(fresh.generating_set(not_closed)) != not_closed
    assert not_closed not in fresh._generating_sets


def test_unstable_items_raise_when_only_a_later_generator_moves_them():
    g = s3()
    a, b = g.generating_set(range(len(g)))
    items = [frozenset({0}), frozenset({a})]
    assert g.conj_idx(a, a) == a          # the first generator keeps the items
    assert g.conj_idx(a, b) not in (0, a)  # the second moves {a} off the list
    with pytest.raises(ClosureError):
        reference_conjugation_orbits(g, range(len(g)), items)
    with pytest.raises(ClosureError):
        g.conjugation_orbits(range(len(g)), items)


def test_repeated_orbit_queries_match_the_reference():
    # a fresh group, so the first pass builds each family's index maps and
    # permutations and the second reads them back
    g = FiniteGroup.closure(list(generators()), operator.mul, IDENTITY)
    families = g_families(g)
    rng = random.Random(24)
    subs = [g.subgroup_indices(rng.randrange(len(g)) for _ in range(rng.randint(1, 2)))
            for _ in range(15)]
    for _ in range(2):
        for h in subs:
            for items in families:
                assert g.conjugation_orbits(h, items) == \
                    reference_conjugation_orbits(g, h, items)


def test_item_families_are_kept_once_with_at_most_one_permutation_per_element():
    g = FiniteGroup.closure(list(generators()), operator.mul, IDENTITY)
    families = g_families(g)
    for h in [*g_subgroups(), g.whole]:
        for items in families:
            g.conjugation_orbits(h, items)
            g.conjugation_orbits(h, list(items))  # the same family, another list
    g.conjugacy
    assert len(g._families) == len(families) + 1  # and the single elements
    for items in families:
        assert set(g._families[tuple(items)].perms) <= set(range(len(g)))
    for family in g._families.values():
        assert 0 < len(family.perms) <= len(g)
    # a family that is not disjoint, or has an empty item, is not kept
    minus = g.index(-IDENTITY)
    for items in ([frozenset({0}), frozenset({0, minus})], [frozenset()]):
        for _ in range(2):
            with pytest.raises(ClosureError):
                g.conjugation_orbits(g.whole, items)
        assert tuple(items) not in g._families


def test_unstable_items_raise_on_every_call():
    g = s3()
    a, b = g.generating_set(range(len(g)))
    items = [frozenset({0}), frozenset({a})]
    for _ in range(3):
        with pytest.raises(ClosureError):
            g.conjugation_orbits(range(len(g)), items)
    # the first generator's permutation held and is kept; the second's failed
    assert set(g._families[tuple(items)].perms) == {a}
    assert g.conjugation_orbits([0, a], items) == [frozenset({0}), frozenset({1})]


def test_is_maximal_closes_few_generators(monkeypatch):
    g = build_o1()
    sizes = []
    subgroup_indices = g.subgroup_indices

    def guarded(gen_indices):
        gens = list(gen_indices)
        sizes.append(len(gens))
        return subgroup_indices(gens)
    monkeypatch.setattr(g, "subgroup_indices", guarded)
    assert g.is_maximal(diagonal_subgroup())
    assert sizes and max(sizes) <= 5


# conjugacy classes are conjugation orbits and inverses are read off the
# table; the all-conjugators classes and the n^2 table scan they replaced are
# the references here

def reference_conjugacy(g):
    """Every element conjugated by every element of the group."""
    n = len(g)
    class_of = [-1] * n
    classes = []
    for i in range(n):
        if class_of[i] >= 0:
            continue
        cls = frozenset(g.conj_idx(i, y) for y in range(n))
        for j in cls:
            class_of[j] = len(classes)
        classes.append(cls)
    order = sorted(range(len(classes)), key=lambda c: (
        g.element_order(min(classes[c])), len(classes[c]), min(classes[c])))
    remap = {old: new for new, old in enumerate(order)}
    return ConjugacyPartition(tuple(classes[old] for old in order),
                              tuple(remap[c] for c in class_of))


def reference_inverse(g):
    inv = [-1] * len(g)
    for i, row in enumerate(g.table):
        for j, p in enumerate(row):
            if p == 0:
                inv[i] = j
    return tuple(inv)


def small_groups():
    return [build_o1(), gamma_group(), scalar_group(), s3()]


def test_conjugacy_matches_all_conjugators_reference():
    for g in small_groups():
        assert g.conjugacy == reference_conjugacy(g)


def test_inverse_matches_table_scan_reference():
    for g in small_groups():
        assert g.inverse == reference_inverse(g)
    g = s3()
    g.table = [row[:] for row in g.table]  # shadows the cached table
    g.table[1][g.table[1].index(0)] = 1
    with pytest.raises(ClosureError):
        g.inverse
