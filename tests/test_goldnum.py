import operator
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from icosian.chars import CharVector
from icosian.goldnum import Gold, GoldVector
from icosian.qmat2 import IDENTITY
from icosian.quat import I, ONE as Q_ONE, Quat
from conftest import golds, nonzero_golds

SQRT5 = Gold(0, 1)
TAU = Gold(1, 1, 2)     # (1 + sqrt5)/2
SIGMA = Gold(1, -1, 2)  # (1 - sqrt5)/2
HALF = Gold(1, 0, 2)


def test_canonical_form():
    assert Gold(2, 4, 6) == Gold(1, 2, 3)
    assert Gold(1, 0, -2) == Gold(-1, 0, 2)
    assert Gold(0, 0, 7) == Gold(0)


def test_of_rejects_floats():
    with pytest.raises(TypeError):
        Gold(0.1)
    with pytest.raises(TypeError):
        Gold(1, 0.5)


def test_fractions_are_neither_values_nor_operands():
    with pytest.raises(TypeError):
        Gold(Fraction(1, 2))
    with pytest.raises(TypeError):
        Gold(1) + Fraction(1, 2)
    with pytest.raises(TypeError):
        Quat.of(Fraction(1, 3))
    with pytest.raises(TypeError):
        I * Fraction(1, 2)
    assert Gold(1, 0, 2) != Fraction(1, 2)


def test_tau_sigma():
    assert TAU + SIGMA == Gold(1)
    assert TAU * SIGMA == Gold(-1)
    assert TAU - SIGMA == SQRT5
    assert TAU * TAU == TAU + Gold(1)
    assert CharVector([TAU]) * CharVector([TAU]).galois() == CharVector([Gold(-1)])


def test_sqrt5_squares_to_five():
    assert SQRT5 * SQRT5 == Gold(5)


def test_galois():
    assert GoldVector([TAU]).galois() == GoldVector([SIGMA])
    assert GoldVector([SQRT5]).galois() == GoldVector([-SQRT5])
    assert GoldVector([HALF]).galois() == GoldVector([HALF])


def test_division():
    x = Gold(3, 2, 7)
    assert x * x.inverse() == Gold(1)
    assert TAU.inverse() == TAU - Gold(1)  # 1/tau = tau - 1
    with pytest.raises(ZeroDivisionError):
        Gold(0).inverse()
    with pytest.raises(ZeroDivisionError):
        Gold(1, 0, 0)


def test_str_rendering():
    assert str(TAU) == "1/2+1/2√5"
    assert str(Gold(2)) == "2"
    assert str(-SQRT5) == "-√5"
    assert str(Gold(0)) == "0"


def test_json_roundtrip():
    x = Gold(3, -2, 7)
    d = x.to_json()
    (na, da), (nb, db) = d["a"], d["b"]
    assert Gold(na * db, nb * da, da * db) == x


def test_mixed_int_arithmetic():
    assert TAU * 2 == Gold(1, 1)
    assert 1 + SIGMA == Gold(3, -1, 2)
    assert 1 - TAU == SIGMA
    assert 2 * (Gold(1) + Gold(1)).inverse() == Gold(1)
    assert 1 * TAU.inverse() == TAU - Gold(1)
    assert 1 - TAU * 2 == -SQRT5


@pytest.mark.parametrize("op, symbol", [
    (operator.sub, "-"), (operator.truediv, "/"),
    (operator.add, r"\+"), (operator.mul, r"\*"),
])
def test_reflected_float_operands_are_unsupported(op, symbol):
    with pytest.raises(TypeError, match=f"for {symbol}: 'float' and 'Gold'"):
        op(0.5, Gold(1))


@given(golds, golds, golds)
def test_field_axioms_additive(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + Gold(0) == x
    assert x + (-x) == Gold(0)


@given(golds, golds, golds)
def test_field_axioms_multiplicative(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * Gold(1) == x
    assert x * (y + z) == x * y + x * z


@given(nonzero_golds)
def test_inverse_law(x):
    assert x * x.inverse() == Gold(1)


@given(golds, golds)
def test_galois_is_homomorphism(x, y):
    # on class functions, whose product is pointwise
    u, v = CharVector([x, y]), CharVector([y, x])
    assert (u + v).galois() == u.galois() + v.galois()
    assert (u * v).galois() == u.galois() * v.galois()
    assert u.galois().galois() == u


def test_vectors_of_different_classes_do_not_combine():
    # the ints of two classes differ in length and meaning, so zipping them
    # is no sum
    chi = CharVector([Gold(1), TAU, SIGMA, Gold(0)])
    for op, symbol, x, y in [(operator.add, r"\+", Q_ONE, IDENTITY),
                             (operator.sub, "-", IDENTITY, I),
                             (operator.mul, r"\*", chi, I),
                             (operator.add, r"\+", Q_ONE, 1)]:
        with pytest.raises(TypeError, match=f"for {symbol}: '{type(x).__name__}'"):
            op(x, y)


integers = st.integers(min_value=-60, max_value=60)
values = st.one_of(golds, integers, integers.map(Gold))


@given(values, values)
@example(Gold(3), 3)
@example(Gold(6, 0, 2), 3)
def test_equal_values_hash_equal(x, y):
    if x == y:
        assert hash(x) == hash(y)


def test_gold_is_immutable():
    table = {Gold(1): "one"}
    key = next(iter(table))
    for name in ("na", "nb", "den"):
        with pytest.raises(AttributeError):
            setattr(key, name, 2)
    assert (key.na, key.nb, key.den) == (1, 0, 1)
    assert table[Gold(1)] == "one" and Gold(2) not in table


def test_printing_and_json_match_fractions():
    for x in (Gold(-3, 6, 4), Gold(0, -2, 6), Gold(5, 5, 10), Gold(10**30, -1, 3)):
        a, b = Fraction(x.na, x.den), Fraction(x.nb, x.den)
        assert (x.a, x.b) == (a, b)
        assert x.to_json() == {"a": [a.numerator, a.denominator],
                               "b": [b.numerator, b.denominator]}
    assert str(Gold(-3, 6, 4)) == "-3/4+3/2√5"
    assert str(Gold(0, -2, 6)) == "-1/3√5"
    assert str(Gold(5, 5, 10)) == "1/2+1/2√5"
    assert str(Gold(3, 2, 2)) == "3/2+√5"
