import pytest
from hypothesis import example, given

from icosian.goldnum import Gold
from icosian.quat import (
    I, J, K, OMEGA, ONE, PHI, Quat, THETA, ZERO,
    scalar_group, so3_image,
)
from conftest import nonzero_quats, quats


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


def test_omega_phi_do_not_commute():
    assert OMEGA * PHI != PHI * OMEGA


@given(quats, quats)
@example(Quat.of(-2, 0, 5, 1), Quat.of(1, 2, 3, 4))
def test_norm_multiplicative(p, q):
    assert (p * q).norm2() == p.norm2() * q.norm2()


@given(quats, quats)
def test_conj_antihomomorphism(p, q):
    assert (p * q).conj() == q.conj() * p.conj()


@given(nonzero_quats)
def test_inverse(q):
    assert q * q.inverse() == ONE
    assert q.inverse() * q == ONE


@given(quats, quats)
def test_galois_homomorphism(p, q):
    assert (p * q).galois() == p.galois() * q.galois()
    assert (p + q).galois() == p.galois() + q.galois()


@given(quats)
def test_conj_fixes_real_part(q):
    r = q + q.conj()
    assert bool(r.w) or r == ZERO
    assert r.w == q.w * Gold(2)
