from operator import mul

import pytest
from hypothesis import example, given

from icosian import quat
from icosian.goldnum import Gold
from icosian.groupkit import FiniteGroup
from icosian.qmat2 import QMat2
from icosian.quat import (
    I, J, K, OMEGA, ONE, PHI, Quat, THETA, ZERO,
    scalar_group, so3_image,
)
from icosian.reflgroup import build_o1, generators
from conftest import quats


def textbook_product(p: Quat, q: Quat) -> Quat:
    """The Hamilton product as 16 Gold products: the reference for the kernel."""
    a, b, c, d = p.w, p.x, p.y, p.z
    e, f, g, h = q.w, q.x, q.y, q.z
    return Quat(
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def textbook_matrix_product(m: QMat2, n: QMat2) -> QMat2:
    return QMat2(
        textbook_product(m.m11, n.m11) + textbook_product(m.m12, n.m21),
        textbook_product(m.m11, n.m12) + textbook_product(m.m12, n.m22),
        textbook_product(m.m21, n.m11) + textbook_product(m.m22, n.m21),
        textbook_product(m.m21, n.m12) + textbook_product(m.m22, n.m22),
    )


def test_hamilton_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == J * J == K * K == -ONE


def test_omega_is_cube_root():
    assert OMEGA * OMEGA * OMEGA == ONE
    assert OMEGA != ONE
    assert OMEGA + OMEGA * OMEGA == -ONE


def test_phi_relations():
    assert PHI * PHI == -ONE
    wp = OMEGA * PHI
    assert wp * wp == -ONE


def test_of_rejects_floats():
    with pytest.raises(TypeError):
        Quat.of(0.5)


def test_theta():
    assert THETA == I + J + K
    assert THETA * THETA == Quat.of(-3)
    assert not THETA.w


def test_scalar_group_order_12():
    assert len(scalar_group()) == 12


def test_so3_image():
    order, nonabelian = so3_image()
    assert order == 6
    assert nonabelian


def reference_so3_image(group):
    """Sign classes and the commutator test by quaternion products."""
    els = group.elements
    classes = {frozenset({i, group.index(-q)}) for i, q in enumerate(els)}
    nonabelian = any(x * y != y * x and x * y != -(y * x) for x in els for y in els)
    return len(classes), nonabelian


def test_so3_image_index_work_matches_quaternion_products(monkeypatch):
    group = scalar_group()
    assert so3_image() == reference_so3_image(group)
    t, minus = group.table, group.index(-ONE)
    for i, x in enumerate(group.elements):
        assert t[i][minus] == group.index(-x)
        for j, y in enumerate(group.elements):
            assert (t[i][j] not in (t[j][i], t[t[j][i]][minus])) == \
                (x * y != y * x and x * y != -(y * x))
    # the quaternion group <i, j> mod sign is the Klein four-group: there
    # every pair commutes only up to sign, so the sign alternative decides
    assert reference_so3_image(FiniteGroup.closure([I, J], mul, ONE)) == (4, False)
    for gens in ([I, J], [OMEGA, -ONE], [I, OMEGA, PHI]):
        other = FiniteGroup.closure(gens, mul, ONE)
        monkeypatch.setattr(quat, "scalar_group", lambda: other)
        assert so3_image() == reference_so3_image(other)


def test_omega_phi_do_not_commute():
    assert OMEGA * PHI != PHI * OMEGA


@given(quats, quats)
@example(ZERO, ZERO)
@example(ZERO, PHI)
@example(PHI, OMEGA)
@example(Quat(Gold(1, 2, 3), Gold(-2, 0, 3), Gold(0, 1, 3), Gold(5)),
         Quat(Gold(3, -1, 4), Gold(1, 0, 4), Gold(-7, 3, 4), Gold(0, 1, 2)))
def test_product_matches_textbook_formula(p, q):
    assert p * q == textbook_product(p, q)


def test_generator_edge_products_match_textbook_formula():
    # the 360 exact products that build G, each against the entrywise formula
    group, gens = build_o1(), generators()
    for i, x in enumerate(group.elements):
        for s, gen in enumerate(gens):
            want = textbook_matrix_product(x, gen)
            assert x * gen == want
            assert group.elements[group.edges[i][s]] == want


@given(quats, quats)
@example(Quat.of(-2, 0, 5, 1), Quat.of(1, 2, 3, 4))
def test_norm_multiplicative(p, q):
    assert (p * q).norm2() == p.norm2() * q.norm2()


@given(quats, quats)
def test_conj_antihomomorphism(p, q):
    assert (p * q).conj() == q.conj() * p.conj()


@given(quats)
def test_conj_fixes_real_part(q):
    r = q + q.conj()
    assert bool(r.w) or r == ZERO
    assert r.w == q.w * Gold(2)


def test_quaternions_are_immutable():
    q = Quat.of(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        q.w = Gold(0)
    assert q == Quat.of(1, 2, 3, 4)


@given(quats)
def test_equal_quaternions_hash_equally_and_differ_from_tuples(q):
    p = q * ONE  # a new object by the integer kernel
    assert p is not q and p == q and hash(p) == hash(q)
    assert q != (q.w, q.x, q.y, q.z)


def test_integer_times_quaternion_is_not_repetition():
    # the product is only q * scalar; a tuple type would repeat q twice
    with pytest.raises(TypeError):
        2 * I
    assert I * 2 == Quat.of(0, 2)
