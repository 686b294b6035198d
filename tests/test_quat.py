from math import gcd
from operator import mul

import pytest
from hypothesis import example, given

from icosian.goldnum import Gold
from icosian.groupkit import FiniteGroup
from icosian.qmat2 import IDENTITY, QMat2
from icosian.quat import (
    I, J, K, OMEGA, ONE, PHI, Quat, THETA, ZERO,
    scalar_group, so3_image,
)
from icosian.reflgroup import build_o1, generators
from conftest import quats
from reference import Q5, norm, qmul, quat, value


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
        monkeypatch.setattr("icosian.quat.scalar_group", lambda: other)
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
    assert quat(p * q) == qmul(quat(p), quat(q))


def test_generator_edge_products_match_textbook_formula():
    # the 2,880 quaternion products in the entries of the 360 edge products
    # that build G, each through Quat's own product
    group, gens = build_o1(), generators()
    for x in group.elements:
        rows = ((x.m11, x.m12), (x.m21, x.m22))
        for gen in gens:
            cols = ((gen.m11, gen.m21), (gen.m12, gen.m22))
            for row in rows:
                for col in cols:
                    for p, q in zip(row, col):
                        assert quat(p * q) == qmul(quat(p), quat(q))


@given(quats, quats)
@example(Quat.of(-2, 0, 5, 1), Quat.of(1, 2, 3, 4))
def test_norm_multiplicative(p, q):
    assert norm(quat(p * q)) == norm(quat(p)) * norm(quat(q))


@given(quats, quats)
def test_conj_antihomomorphism(p, q):
    assert (p * q).conj() == q.conj() * p.conj()


@given(quats)
def test_conj_fixes_real_part(q):
    r = q + q.conj()
    assert bool(r.w) or r == ZERO
    assert value(r.w) == value(q.w) * Q5(2)
    assert Gold(*q.re(), q.den) == q.w


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
    # a quaternion multiplies only a quaternion, so a scalar is written as
    # one (Quat.of(2)); a tuple type would repeat I twice instead of raising
    with pytest.raises(TypeError):
        I * 2
    with pytest.raises(TypeError):
        2 * I
    with pytest.raises(TypeError):
        IDENTITY * I


def g_entries() -> list[Quat]:
    """The 480 quaternion entries of the elements of G."""
    return [q for m in build_o1().elements for q in (m.m11, m.m12, m.m21, m.m22)]


def assert_canonical(q: Quat):
    assert len(q.ints) == 8 and q.den > 0 and gcd(q.den, *q.ints) == 1
    rebuilt = Quat(q.w, q.x, q.y, q.z)
    assert rebuilt == q and hash(rebuilt) == hash(q)
    assert (rebuilt.ints, rebuilt.den) == (q.ints, q.den)


def test_entries_of_g_are_canonical_and_round_trip():
    entries = g_entries()
    assert len(entries) == 480
    for q in entries:
        assert_canonical(q)


def test_equal_quaternions_by_different_routes_are_equal_and_hash_equal():
    three, third = Quat.of(3), Quat.of(Gold(1, 0, 3))
    for q in g_entries()[::7] + [OMEGA, PHI, THETA, ZERO]:
        for got in (q - q + q, q.conj().conj(), -(-q), q * three * third,
                    third * q * three, q * ONE, ONE * q):
            assert_canonical(got)
            assert got == q and hash(got) == hash(q)


def test_equal_integers_over_different_denominators_differ():
    half = ONE * Quat.of(Gold(1, 0, 2))
    assert half.ints == ONE.ints and half.den == 2
    assert half != ONE and half + half == ONE
    two = Quat.of(2)
    assert OMEGA * two != OMEGA and (OMEGA * two).ints == OMEGA.ints


def test_integer_fields_are_immutable():
    q = Quat.of(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        q.ints = (0,) * 8
    with pytest.raises(AttributeError):
        q.den = 2
    assert q == Quat.of(1, 2, 3, 4)


def test_integer_quaternion_arithmetic_builds_no_gold(monkeypatch):
    entries = g_entries()[:40]
    built = []
    init = Gold.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(Gold, "__init__", counting_init)
    for p, q in zip(entries, entries[1:] + [OMEGA, PHI]):
        p * q, p + q, p - q, -p, p.conj()
    assert built == []


def reference_str(q: Quat) -> str:
    """Quaternion printing through the Gold coefficients: the reference for
    printing from the integers."""
    parts = []
    for coeff, unit in ((q.w, ""), (q.x, "i"), (q.y, "j"), (q.z, "k")):
        if coeff:
            s = str(coeff)
            if unit and s == "1":
                s = ""
            elif unit and s == "-1":
                s = "-"
            parts.append(s + unit if unit else s)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def reference_key(m: QMat2) -> str:
    return (f"[[{reference_str(m.m11)}, {reference_str(m.m12)}],"
            f" [{reference_str(m.m21)}, {reference_str(m.m22)}]]")


SQRT5 = Gold(0, 1)
G0 = Gold(0)
PRINTED = [
    (ZERO, "0"),
    (ONE, "1"),
    (-ONE, "-1"),
    (I, "i"),
    (-I, "-i"),
    (Quat(G0, G0, Gold(1), Gold(-1)), "j-k"),
    (Quat(SQRT5, SQRT5, -SQRT5, G0), "√5+√5i-√5j"),
    (Quat(-SQRT5, G0, G0, SQRT5), "-√5+√5k"),
    # the quaternion's den is 2; the w and k coefficients are integers
    (Quat(Gold(1), Gold(1, 0, 2), G0, Gold(-1)), "1+1/2i-k"),
    # den 6: each coefficient prints in its own lowest terms
    (Quat(Gold(1, 0, 2), Gold(0, 2, 3), Gold(1, 1, 2), Gold(-1, 0, 6)),
     "1/2+2/3√5i+1/2+1/2√5j-1/6k"),
    (OMEGA, "-1/2+1/2i+1/2j+1/2k"),
    # a coefficient with both parts prints unbracketed, as it always has
    (PHI, "1/2i-1/4+1/4√5j-1/4-1/4√5k"),
    (THETA, "i+j+k"),
]


@pytest.mark.parametrize("q,text", PRINTED)
def test_printing_matches_gold_coefficients(q, text):
    assert str(q) == reference_str(q) == text


@given(quats)
@example(Quat(Gold(2), Gold(0, -1), Gold(3, 0, 4), Gold(0)))
def test_printing_matches_gold_coefficients_on_draws(q):
    assert str(q) == reference_str(q)


def test_keys_of_g_match_gold_coefficients():
    for m in build_o1().elements:
        assert m.key() == reference_key(m)
        for q in (m.m11, m.m12, m.m21, m.m22):
            assert str(q) == reference_str(q)
