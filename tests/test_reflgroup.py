from icosian.goldnum import integer_pairs
from icosian.groupkit import FiniteGroup
from icosian.linalg import rank
from icosian.qmat2 import IDENTITY, MINUS_IDENTITY, Spinor2, spinor_norm2
from icosian.quat import I, OMEGA, ONE as Q_ONE, PHI, Quat, THETA, ZERO as Q_ZERO, scalar_group
from icosian.reflgroup import (
    base_spinors,
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
    found, listed = gamma_reflections()
    assert len(found) == 10
    assert set(found) == set(listed)
    assert all(m * m == IDENTITY for m in found)


def test_gamma_centre_is_its_size_one_classes():
    # the centre gamma_reflections reads off the classes, against the
    # elements that commute with every element
    group = gamma_group()
    t, n = group.table, len(group)
    commuting = {i for i in range(n) if all(t[i][j] == t[j][i] for j in range(n))}
    assert commuting == {i for cls in group.conjugacy.classes if len(cls) == 1 for i in cls}
    assert commuting == {0, group.index(MINUS_IDENTITY)}
