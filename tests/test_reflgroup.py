from functools import reduce
from operator import mul

import pytest

from icosian.goldnum import integer_pairs
from icosian.groupkit import FiniteGroup
from icosian.linalg import rank
from icosian.qmat2 import IDENTITY, MINUS_IDENTITY, QMat2, Spinor2, spinor_norm2
from icosian.quat import I, OMEGA, ONE as Q_ONE, PHI, Quat, THETA, ZERO as Q_ZERO, scalar_group
from icosian.reflgroup import (
    GAMMA_LETTERS,
    GAMMA_RELATIONS,
    G_RELATIONS,
    LETTERS,
    THIRD,
    base_spinors,
    build_o1,
    closure_with_relations,
    diagonal_subgroup,
    gamma_group,
    gamma_matrices,
    gamma_reflections,
    generators,
    group_reflections,
    reflection_group,
    reflection_matrices,
    reflection_of,
    roots,
    two_reflection_census,
    word_index,
    word_string,
)


def test_generator_relations():
    f, g, h = generators()
    assert f * f == MINUS_IDENTITY
    assert h * h == MINUS_IDENTITY
    assert (g * h) * (g * h) == MINUS_IDENTITY
    assert g * g * g == IDENTITY
    fg = f * g
    assert fg * fg * fg == IDENTITY
    fh = f * h
    assert fh * fh * fh == IDENTITY


def word_product(gens, letters, word):
    """Reference: the matrix product of a word, one QMat2 product per letter."""
    return reduce(mul, (gens[letters.index(c)] for c in word), IDENTITY)


def test_relation_tables_are_the_defining_relations():
    # f^2 = (gh)^2 = h^2 = -1 and g^3 = (fg)^3 = (fh)^3 = 1; the Clifford
    # relations g0^2 = 1, ga^2 = -1 and ga gb = -gb ga
    assert set(G_RELATIONS) == {("ff", -1, ""), ("ghgh", -1, ""), ("hh", -1, ""),
                                ("ggg", 1, ""), ("fgfgfg", 1, ""), ("fhfhfh", 1, "")}
    squares = {("00", 1, ""), ("11", -1, ""), ("22", -1, ""), ("33", -1, "")}
    anticommute = {(a + b, -1, b + a) for a in "0123" for b in "0123" if a < b}
    assert set(GAMMA_RELATIONS) == squares | anticommute
    assert len(GAMMA_RELATIONS) == 10


@pytest.mark.parametrize("gens, letters, relations", [
    (generators(), LETTERS, G_RELATIONS),
    (gamma_matrices(), GAMMA_LETTERS, GAMMA_RELATIONS),
], ids=["G", "gamma"])
def test_relation_words_hold_by_matrix_products(gens, letters, relations):
    # the exact oracle, independent of the Cayley graph: each lhs = +-rhs on
    # the matrices themselves, so a word with rhs '' is +-IDENTITY
    for lhs, sign, rhs in relations:
        want = word_product(gens, letters, rhs)
        assert word_product(gens, letters, lhs) == (want if sign > 0 else -want)


def test_a_mistyped_relation_word_is_named():
    mistyped = tuple(("fgfgf", 1, "") if rel == ("fgfgfg", 1, "") else rel
                     for rel in G_RELATIONS)
    with pytest.raises(ValueError) as err:
        closure_with_relations(generators(), LETTERS, mistyped)
    assert str(err.value) == "relations fail: fgfgf = 1"


def test_the_omega_convention_is_caught_by_the_relations_only():
    # f built from omega instead of omega^2 (see the generators docstring):
    # the group still closes at 120, and only (fg)^3 = 1 fails
    w, w2 = OMEGA, OMEGA * OMEGA
    c = (w - w2) * THIRD
    f = QMat2.diag(c, c) * QMat2(Q_ONE, w2 * PHI - w, w2 * PHI - w2, w * PHI)
    _, g, h = generators()
    assert len(FiniteGroup.closure([f, g, h], mul, IDENTITY)) == 120
    with pytest.raises(ValueError) as err:
        closure_with_relations((f, g, h), LETTERS, G_RELATIONS)
    assert str(err.value) == "relations fail: fgfgfg = 1"


def test_a_flipped_clifford_sign_is_named():
    flipped = tuple(("01", 1, "10") if rel == ("01", -1, "10") else rel
                    for rel in GAMMA_RELATIONS)
    with pytest.raises(ValueError) as err:
        closure_with_relations(gamma_matrices(), GAMMA_LETTERS, flipped)
    assert str(err.value) == "relations fail: 01 = 10"


def test_a_group_without_minus_identity_fails_its_signed_relations():
    # <g0> = {1, g0} holds no -1: g0^2 = 1 holds and g0^2 = -1 fails by
    # ValueError, not by a KeyError from the index lookup
    g0 = gamma_matrices()[0]
    with pytest.raises(ValueError) as err:
        closure_with_relations((g0,), "0", (("00", 1, ""), ("00", -1, "")))
    assert str(err.value) == "relations fail: 00 = -1"


def test_g_and_h_do_not_commute():
    _, g, h = generators()
    assert g * h != h * g


def test_group_order_120():
    assert len(build_o1()) == 120


def test_diagonal_subgroup_order_12_and_maximal():
    g = build_o1()
    d = diagonal_subgroup()
    assert len(d) == 12
    assert g.is_maximal(d)


def test_diagonal_subgroup_is_the_diagonal_matrices():
    # the index set from <g, h> against the matrices' own entries
    g = build_o1()
    diagonal = {i for i, m in enumerate(g.elements)
                if m.m12 == Q_ZERO and m.m21 == Q_ZERO}
    assert diagonal_subgroup() == diagonal


def test_order_histogram():
    assert build_o1().order_histogram() == {
        1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24,
    }


def test_conjugacy_class_sizes():
    g = build_o1()
    sizes = sorted(len(c) for c in g.conjugacy.classes)
    assert sizes == [1, 1, 12, 12, 12, 12, 20, 20, 30]


def test_roots_count_and_norm():
    rs = [r for cls in roots() for r in cls]
    assert len(rs) == 120
    assert len(set(rs)) == 120
    assert all(spinor_norm2(r) == Quat.of(3) for r in rs)


def test_root_classes_are_base_spinors_times_scalars():
    for base, cls in zip(base_spinors(), roots(), strict=True):
        assert list(cls) == [base.scale(s) for s in scalar_group().elements]


def test_twenty_reflections_six_to_one():
    refl = reflection_matrices()
    assert len(refl) == 20
    by_matrix = {}
    for cls in roots():
        for r in cls:
            by_matrix.setdefault(reflection_of(r), []).append(r)
    assert len(by_matrix) == 20
    assert all(len(v) == 6 for v in by_matrix.values())


def test_one_root_per_scalar_coset_gives_every_reflection():
    # reflection_matrices reflects two roots of each class; all 120 roots
    # give the same 20 matrices, in the same first-seen order
    assert reflection_matrices() == tuple(
        dict.fromkeys(reflection_of(r) for cls in roots() for r in cls))
    # the root of the phi coset gives the inverse of the class's reflection
    other = scalar_group().index(PHI)
    for cls in roots():
        assert reflection_of(cls[0]) * reflection_of(cls[other]) == IDENTITY


def test_reflections_have_order_3_in_inverse_pairs():
    g = build_o1()
    idxs = [g.index(m) for m in reflection_matrices()]
    assert all(g.element_order(i) == 3 for i in idxs)
    pairs = {frozenset({i, g.inverse[i]}) for i in idxs}
    assert len(pairs) == 10


def test_anchor_reflection_is_g():
    _, g, _ = generators()
    assert reflection_of(Spinor2(THETA, Q_ZERO)) == g


def test_reflection_group_equals_generator_group():
    g = build_o1()
    assert reflection_group() == frozenset(range(len(g)))
    # reference: the 20 reflections closed as a group of their own
    exact = FiniteGroup.closure(list(reflection_matrices()),
                                lambda a, b: a * b, IDENTITY)
    assert set(exact.elements) == set(g.elements)


def test_fixed_space_census_matches_reflections():
    g = build_o1()
    refl_idx = {g.index(m) for m in reflection_matrices()}
    assert set(group_reflections(g)) == refl_idx


# left multiplication by q = w + xi + yj + zk as a 4x4 matrix on (w, x, y, z):
# entry (k, c) is sign * q[component] for the pair at position c of row k
_LEFT_MUL = (
    ((0, 1), (1, -1), (2, -1), (3, -1)),
    ((1, 1), (0, 1), (3, -1), (2, 1)),
    ((2, 1), (3, 1), (0, 1), (1, -1)),
    ((3, 1), (2, -1), (1, 1), (0, 1)),
)


def fixed_space_dim(m: QMat2) -> int:
    """Reference for ``group_reflections``: the golden-field dimension of
    {x : m x = x}, 8 minus the rank of the 8x8 exact system of m - 1.  Each
    row is a signed permutation of one block row's Z[sqrt5] integers (the
    left-multiplication rows of its two entries), read off ``(m - 1).ints``."""
    d = (m - IDENTITY).ints
    rows = [[sign * d[start + 8 * half + 2 * c + part]
             for half in (0, 1) for c, sign in pattern for part in (0, 1)]
            for start in (0, 16) for pattern in _LEFT_MUL]
    return 8 - rank(rows)


def test_projector_census_matches_fixed_space_reference():
    # every order-3 element of G is one of the 20 reflections, so the
    # diagonal group <diag(omega, omega), diag(omega, 1)> supplies order-3
    # elements with no fixed vector, diag(omega, omega^2) among them
    g = build_o1()
    diag = FiniteGroup.closure([QMat2.diag(OMEGA, OMEGA), QMat2.diag(OMEGA, Q_ONE)],
                               mul, IDENTITY)
    for group in (g, diag):
        order3 = [i for i in range(len(group)) if group.element_order(i) == 3]
        assert group_reflections(group) == \
            [i for i in order3 if fixed_space_dim(group.elements[i]) > 0]
    order3 = [i for i in range(len(diag)) if diag.element_order(i) == 3]
    assert len(order3) == 8 and len(group_reflections(diag)) == 4
    assert len(group_reflections(g)) == 20


def test_fixed_space_dims():
    _, g, _ = generators()
    assert fixed_space_dim(g) == 4  # fixes the second coordinate line
    assert fixed_space_dim(IDENTITY) == 8
    assert fixed_space_dim(MINUS_IDENTITY) == 0


def _left_mul_matrix(q: Quat):
    a, b, c, d = q.w, q.x, q.y, q.z
    return [
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ]


def _fixed_space_dim_by_gold(m):
    """Reference: the 8x8 system of m - 1 built from Gold entries."""
    d = m - IDENTITY
    blocks = [
        (_left_mul_matrix(d.m11), _left_mul_matrix(d.m12)),
        (_left_mul_matrix(d.m21), _left_mul_matrix(d.m22)),
    ]
    rows = [integer_pairs(rl + rr)[0]
            for left, right in blocks for rl, rr in zip(left, right)]
    return 8 - rank(rows)


def test_fixed_space_dim_matches_gold_reference_on_all_of_g():
    g = build_o1()
    dims = [fixed_space_dim(m) for m in g.elements]
    assert dims == [_fixed_space_dim_by_gold(m) for m in g.elements]
    assert sorted(set(dims)) == [0, 4, 8]


def test_two_reflection_census_is_75_not_100():
    # the 24 order-5 elements and -identity are not products of two
    # reflections; only their negatives are
    assert two_reflection_census(build_o1()) == 75


def test_quaternion_model_two_reflection_census_is_75():
    # an independent model of the group inside the unit quaternions, with
    # its 20 order-3 elements as the reflections, gives the same count
    group = FiniteGroup.closure([I, OMEGA, PHI], lambda p, q: p * q, Q_ONE)
    assert len(group) == 120
    refl = {x for x in group.elements if x != Q_ONE and x * x * x == Q_ONE}
    assert len(refl) == 20
    products = {a * b for a in refl for b in refl}
    assert sum(1 for x in group.elements
               if x not in refl and x in products) == 75


def test_word_evaluation():
    f, g, h = generators()
    group = build_o1()
    assert word_index("") == 0
    assert group.elements[word_index("fgh")] == f * g * h
    assert group.elements[word_index("ghfgg")] == g * h * f * g * g
    assert word_string(0) == "e"
    for i in range(1, len(group)):
        assert word_index(word_string(i)) == i


def test_gamma_group_order_32():
    assert len(gamma_group()) == 32


def test_gamma_reflections_are_the_ten_listed():
    group = gamma_group()
    found, listed = gamma_reflections()
    assert len(found) == 10
    assert set(found) == set(listed)
    assert all(m * m == IDENTITY for m in (group.elements[i] for i in found))
    # the listed words 0, 01, 02, 03, 123 and their negatives are the
    # matrix products they name
    g0, g1, g2, g3 = gamma_matrices()
    products = [g0, g0 * g1, g0 * g2, g0 * g3, g1 * g2 * g3]
    assert [group.elements[i] for i in listed] == products + [-m for m in products]


def test_gamma_centre_is_its_size_one_classes():
    # the centre gamma_reflections reads off the classes, against the
    # elements that commute with every element
    group = gamma_group()
    t, n = group.table, len(group)
    commuting = {i for i in range(n) if all(t[i][j] == t[j][i] for j in range(n))}
    assert commuting == {i for cls in group.conjugacy.classes if len(cls) == 1 for i in cls}
    assert commuting == {0, group.index(MINUS_IDENTITY)}
