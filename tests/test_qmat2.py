from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from icosian.goldnum import Gold
from icosian.qmat2 import IDENTITY, MINUS_IDENTITY, QMat2, Spinor2, inner, spinor_norm2
from icosian.quat import ONE as Q_ONE, ZERO as Q_ZERO, Quat
from icosian.reflgroup import THIRD, build_o1, generators
from conftest import quats

spinors = st.builds(Spinor2, quats, quats)
mats = st.builds(QMat2, quats, quats, quats, quats)


def entrywise_product(m: QMat2, n: QMat2) -> QMat2:
    """The matrix product as Quat products and sums: the kernel's reference."""
    return QMat2(
        m.m11 * n.m11 + m.m12 * n.m21,
        m.m11 * n.m12 + m.m12 * n.m22,
        m.m21 * n.m11 + m.m22 * n.m21,
        m.m21 * n.m12 + m.m22 * n.m22,
    )


ZERO_MAT = QMat2.diag(Q_ZERO, Q_ZERO)
THIRDS = QMat2(Quat(Gold(1, 2, 3), Gold(-2, 0, 3), Gold(0, 1, 3), Gold(5)),
               Quat.of(1, 0, -1, 2), Quat(Gold(4, 0, 3), Gold(0), Gold(1), Gold(0, -1, 3)),
               Quat(Gold(2, 1, 3), Gold(0), Gold(-1, 1, 3), Gold(7, 0, 3)))
QUARTERS = QMat2(Quat(Gold(3, -1, 4), Gold(1, 0, 4), Gold(-7, 3, 4), Gold(0, 1, 2)),
                 Quat(Gold(1, 1, 4), Gold(0), Gold(5, 0, 4), Gold(-1)),
                 Quat.of(0, 2, 0, -3), Quat(Gold(0, 3, 4), Gold(1, 0, 2), Gold(1), Gold(-3, 1, 4)))


@given(mats, mats)
@example(ZERO_MAT, ZERO_MAT)
@example(ZERO_MAT, IDENTITY)
@example(IDENTITY, THIRDS)
@example(THIRDS, QUARTERS)
def test_product_matches_entrywise_formula(a, b):
    assert a * b == entrywise_product(a, b)


def test_generator_edge_products_match_entrywise_formula():
    group, gens = build_o1(), generators()
    for x in group.elements:
        for gen in gens:
            assert x * gen == entrywise_product(x, gen)


def test_identity():
    assert IDENTITY * IDENTITY == IDENTITY
    assert MINUS_IDENTITY * MINUS_IDENTITY == IDENTITY


@given(mats, mats, mats)
def test_matrix_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * IDENTITY == a
    assert IDENTITY * a == a


@given(spinors, spinors, quats)
def test_inner_sesquilinear(r, x, s):
    # conjugate-linear in the first slot, linear in the second
    assert inner(r.scale(s), x) == s.conj() * inner(r, x)
    assert inner(r, x.scale(s)) == inner(r, x) * s


@given(spinors, spinors, spinors)
def test_inner_additive(r, x, y):
    total = Spinor2(x.c1 + y.c1, x.c2 + y.c2)
    assert inner(r, total) == inner(r, x) + inner(r, y)


@given(spinors)
def test_norm_is_real_nonnegative(x):
    n = spinor_norm2(x)
    assert bool(n.w) or n == Quat.of(0)
    assert n.x == Gold(0) and n.y == Gold(0) and n.z == Gold(0)


@given(mats)
def test_complex_char_trace_of_sum(m):
    assert (m + m).complex_char_trace() == m.complex_char_trace() * 2


@given(mats, mats)
def test_trace_cyclic(a, b):
    assert (a * b).complex_char_trace() == (b * a).complex_char_trace()


@given(mats)
def test_galois_multiplicative(a):
    assert (a * a).galois() == a.galois() * a.galois()
    assert (a + a * a).galois() == a.galois() + (a * a).galois()


def test_key_distinguishes():
    a = QMat2.diag(Q_ONE, Q_ONE)
    b = QMat2.diag(Q_ONE, -Q_ONE)
    assert a.key() != b.key()


def assert_canonical(m: QMat2):
    assert len(m.ints) == 32 and m.den > 0 and gcd(m.den, *m.ints) == 1
    rebuilt = QMat2(m.m11, m.m12, m.m21, m.m22)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert (rebuilt.ints, rebuilt.den) == (m.ints, m.den)


def test_canonical_form_of_group_elements_and_products():
    elements = list(build_o1().elements)
    for m, n in zip(elements, elements[7:] + elements[:7]):
        assert_canonical(m)
        assert_canonical(m * n)


def test_fixed_matrices_round_trip():
    for m in (THIRDS, QUARTERS, ZERO_MAT, IDENTITY, THIRDS * QUARTERS):
        assert_canonical(m)
    assert THIRDS.den == 3 and QUARTERS.den == 4
    assert (ZERO_MAT.ints, ZERO_MAT.den) == ((0,) * 32, 1)


def test_equal_matrices_by_different_routes_are_equal_and_hash_equal():
    routes = [
        ((IDENTITY + IDENTITY + IDENTITY).scale(THIRD), IDENTITY),
        (THIRDS - THIRDS, ZERO_MAT),
        (QUARTERS + THIRDS - THIRDS, QUARTERS),
        (THIRDS.scale(Gold(3)).scale(THIRD), THIRDS),
        (-(-QUARTERS), QUARTERS),
        (THIRDS.galois().galois(), THIRDS),
        (MINUS_IDENTITY * THIRDS, -THIRDS),
    ]
    for got, want in routes:
        assert_canonical(got)
        assert got == want and hash(got) == hash(want)


def test_equal_integers_over_different_denominators_differ():
    half = IDENTITY.scale(Gold(1, 0, 2))
    assert half.ints == IDENTITY.ints and half.den == 2
    assert half != IDENTITY and half + half == IDENTITY


def test_matrices_are_immutable():
    with pytest.raises(AttributeError):
        IDENTITY.den = 2


def test_spinors_are_immutable():
    s = Spinor2(Q_ONE, Q_ZERO)
    with pytest.raises(AttributeError):
        s.c1 = Q_ZERO
    assert s.c1 == Q_ONE


@given(spinors)
def test_equal_spinors_hash_equally(s):
    # right scaling by one rebuilds both components by a Hamilton product
    t = s.scale(Q_ONE)
    assert t is not s and t == s and hash(t) == hash(s)
    assert s != (s.c1, s.c2)
