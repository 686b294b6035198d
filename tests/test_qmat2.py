from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from icosian.goldnum import Gold
from icosian.qmat2 import IDENTITY, MINUS_IDENTITY, QMat2, Spinor2, ZERO
from icosian.quat import ONE as Q_ONE, ZERO as Q_ZERO, Quat
from icosian.reflgroup import THIRD, build_o1, generators
from conftest import mats, quats
from reference import Q5, conj, inner, mat, mmul, qadd, qmul, quat, spinor

spinors = st.builds(Spinor2, quats, quats)


THIRDS = QMat2(Quat(Gold(1, 2, 3), Gold(-2, 0, 3), Gold(0, 1, 3), Gold(5)),
               Quat.of(1, 0, -1, 2), Quat(Gold(4, 0, 3), Gold(0), Gold(1), Gold(0, -1, 3)),
               Quat(Gold(2, 1, 3), Gold(0), Gold(-1, 1, 3), Gold(7, 0, 3)))
QUARTERS = QMat2(Quat(Gold(3, -1, 4), Gold(1, 0, 4), Gold(-7, 3, 4), Gold(0, 1, 2)),
                 Quat(Gold(1, 1, 4), Gold(0), Gold(5, 0, 4), Gold(-1)),
                 Quat.of(0, 2, 0, -3), Quat(Gold(0, 3, 4), Gold(1, 0, 2), Gold(1), Gold(-3, 1, 4)))


def re_trace(m: QMat2) -> Q5:
    """Re m11 + Re m22, half the character 4b, off ``QMat2.re_trace``."""
    return Q5(*m.re_trace(), m.den)


@given(mats, mats)
@example(ZERO, ZERO)
@example(ZERO, IDENTITY)
@example(IDENTITY, THIRDS)
@example(THIRDS, QUARTERS)
def test_product_matches_entrywise_formula(a, b):
    assert mat(a * b) == mmul(mat(a), mat(b))


E12 = QMat2(Q_ZERO, Q_ONE, Q_ZERO, Q_ZERO)
E21 = QMat2(Q_ZERO, Q_ZERO, Q_ONE, Q_ZERO)


def test_product_kernel_matches_entrywise_route_on_fixed_pairs():
    elements = list(build_o1().elements)
    for m, n in zip(elements, elements[7:] + elements[:7]):
        assert mat(m * n) == mmul(mat(m), mat(n))
    fixed = (THIRDS, QUARTERS, E12, E21)
    for m in fixed:
        for n in fixed:
            assert mat(m * n) == mmul(mat(m), mat(n))
    assert E12 * E21 == QMat2.diag(Q_ONE, Q_ZERO) and E21 * E21 == ZERO


def test_generator_edge_products_match_entrywise_formula():
    # the 360 exact products that build G, each against the entrywise formula
    group, gens = build_o1(), generators()
    elements, gen_mats = [mat(x) for x in group.elements], [mat(g) for g in gens]
    for i, x in enumerate(group.elements):
        for s, gen in enumerate(gens):
            want = mmul(elements[i], gen_mats[s])
            assert mat(x * gen) == want
            assert elements[group.edges[i][s]] == want


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
    r_x = inner(spinor(r), spinor(x))
    assert inner(spinor(r.scale(s)), spinor(x)) == qmul(conj(quat(s)), r_x)
    assert inner(spinor(r), spinor(x.scale(s))) == qmul(r_x, quat(s))


@given(spinors, spinors, spinors)
def test_inner_additive(r, x, y):
    total = Spinor2(x.c1 + y.c1, x.c2 + y.c2)
    r = spinor(r)
    assert inner(r, spinor(total)) == qadd(inner(r, spinor(x)), inner(r, spinor(y)))


@given(spinors)
def test_norm_is_real_nonnegative(x):
    n = inner(spinor(x), spinor(x))
    assert bool(n[0]) or n == (Q5(0),) * 4
    assert n[1:] == (Q5(0),) * 3
    # the integer norms of the two components sum to its real part
    (a, b, d), (c, e, f) = x.c1.norm(), x.c2.norm()
    assert n[0] == Q5(a, b, d) + Q5(c, e, f)


@given(mats)
def test_complex_char_trace_of_sum(m):
    assert re_trace(m + m) == re_trace(m) * Q5(2)


@given(mats, mats)
def test_trace_cyclic(a, b):
    assert re_trace(a * b) == re_trace(b * a)


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
    for m in (THIRDS, QUARTERS, ZERO, IDENTITY, THIRDS * QUARTERS):
        assert_canonical(m)
    assert THIRDS.den == 3 and QUARTERS.den == 4
    assert (ZERO.ints, ZERO.den) == ((0,) * 32, 1)


def scalar(q: Quat) -> QMat2:
    """q times the identity: left multiplication by it scales every entry."""
    return QMat2.diag(q, q)


def test_equal_matrices_by_different_routes_are_equal_and_hash_equal():
    routes = [
        (scalar(THIRD) * (IDENTITY + IDENTITY + IDENTITY), IDENTITY),
        (THIRDS - THIRDS, ZERO),
        (QUARTERS + THIRDS - THIRDS, QUARTERS),
        (scalar(THIRD) * (scalar(Quat.of(3)) * THIRDS), THIRDS),
        (-(-QUARTERS), QUARTERS),
        (THIRDS.galois().galois(), THIRDS),
        (MINUS_IDENTITY * THIRDS, -THIRDS),
    ]
    for got, want in routes:
        assert_canonical(got)
        assert got == want and hash(got) == hash(want)


def test_equal_integers_over_different_denominators_differ():
    half = scalar(Quat.of(Gold(1, 0, 2))) * IDENTITY
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
