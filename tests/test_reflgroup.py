from icosian.groupkit import FiniteGroup
from icosian.qmat2 import IDENTITY, MINUS_IDENTITY, Spinor2, spinor_norm2
from icosian.quat import I, OMEGA, ONE as Q_ONE, PHI, Quat, THETA, ZERO as Q_ZERO
from icosian.reflgroup import (
    build_o1,
    diagonal_subgroup,
    fixed_space_dim,
    gamma_group,
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
    rs = roots()
    assert len(rs) == 120
    assert len({r.spinor for r in rs}) == 120
    assert all(spinor_norm2(r.spinor) == Quat.of(3) for r in rs)


def test_twenty_reflections_six_to_one():
    refl = reflection_matrices()
    assert len(refl) == 20
    by_matrix = {}
    for r in roots():
        by_matrix.setdefault(reflection_of(r.spinor), []).append(r)
    assert len(by_matrix) == 20
    assert all(len(v) == 6 for v in by_matrix.values())


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


def test_fixed_space_dims():
    _, g, _ = generators()
    assert fixed_space_dim(g) == 4  # fixes the second coordinate line
    assert fixed_space_dim(IDENTITY) == 8
    assert fixed_space_dim(MINUS_IDENTITY) == 0


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
    found, listed = gamma_reflections()
    assert len(found) == 10
    assert set(found) == set(listed)
    assert all(m * m == IDENTITY for m in found)
