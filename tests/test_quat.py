from math import gcd
from operator import mul

import pytest
from hypothesis import example, given

from icosian import quat
from icosian.goldnum import Gold
from icosian.groupkit import FiniteGroup
from icosian.qmat2 import IDENTITY, QMat2
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


def norm2(q: Quat) -> Gold:
    """w^2 + x^2 + y^2 + z^2 summed on Golds: the norm oracle, apart from the kernel."""
    return q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z


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
    assert norm2(p * q) == norm2(p) * norm2(q)


@given(quats, quats)
def test_conj_antihomomorphism(p, q):
    assert (p * q).conj() == q.conj() * p.conj()


@given(quats)
def test_conj_fixes_real_part(q):
    r = q + q.conj()
    assert bool(r.w) or r == ZERO
    assert r.w == q.w * Gold(2)
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
        I * Gold(2)
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


def test_norm2_is_summed_on_golds_not_by_the_kernel(monkeypatch):
    def no_kernel(x, y):
        raise AssertionError("norm2 went through hamilton")
    monkeypatch.setattr(quat, "hamilton", no_kernel)
    assert norm2(THETA) == Gold(3)
    assert norm2(PHI) == norm2(OMEGA) == Gold(1)
    assert norm2(Quat(Gold(1, 1, 2), Gold(1), Gold(0, 1, 3), Gold(2))) == \
        Gold(1, 1, 2) * Gold(1, 1, 2) + Gold(5) + Gold(5, 0, 9)


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
