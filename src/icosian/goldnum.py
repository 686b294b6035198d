"""Exact arithmetic in the golden field Q(sqrt 5).

A value is stored as (na + nb*sqrt5)/den with arbitrary-precision integers,
normalized so den > 0 and gcd(na, nb, den) = 1.  Canonical form is enforced
at construction, so structural equality is field equality and Gold values
can be used directly as dictionary keys.  The rational components are
exposed as Fractions via the ``a`` and ``b`` properties.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Ratish = int | Fraction


class Gold:
    """An element a + b*sqrt(5) of Q(sqrt5), exact."""

    __slots__ = ("na", "nb", "den")

    def __init__(self, na: int, nb: int = 0, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            na, nb, den = -na, -nb, -den
        g = gcd(na, nb, den)
        if g > 1:
            na //= g
            nb //= g
            den //= g
        self.na = na
        self.nb = nb
        self.den = den

    @staticmethod
    def of(a: Ratish, b: Ratish = 0) -> "Gold":
        for v in (a, b):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"Gold.of takes int or Fraction, not"
                                f" {type(v).__name__}")
        a = Fraction(a)
        b = Fraction(b)
        den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        return Gold(a.numerator * (den // a.denominator),
                    b.numerator * (den // b.denominator), den)

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Gold):
            return self.na == other.na and self.nb == other.nb and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Gold.of(other)
        return NotImplemented

    def __hash__(self) -> int:
        # rational values hash as the int or Fraction they equal
        if self.nb:
            return hash((self.na, self.nb, self.den))
        if self.den == 1:
            return hash(self.na)
        return _fraction_hash(self.na, self.den)

    def __bool__(self) -> bool:
        return bool(self.na or self.nb)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Gold(self.na * other.den + other.na * self.den,
                    self.nb * other.den + other.nb * self.den,
                    self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Gold(self.na * other.den - other.na * self.den,
                    self.nb * other.den - other.nb * self.den,
                    self.den * other.den)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Gold":
        return Gold(-self.na, -self.nb, self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b*s5)(c + d*s5) = (ac + 5bd) + (ad + bc)*s5
        return Gold(self.na * other.na + 5 * self.nb * other.nb,
                    self.na * other.nb + self.nb * other.na,
                    self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Gold":
        # 1/((a + b*s5)) = (a - b*s5)/(a^2 - 5 b^2); the norm vanishes only at 0
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(sqrt5)")
        n = self.na * self.na - 5 * self.nb * self.nb
        return Gold(self.den * self.na, -self.den * self.nb, n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def galois(self) -> "Gold":
        """The field automorphism sqrt5 -> -sqrt5."""
        return Gold(self.na, -self.nb, self.den)

    @property
    def is_integer(self) -> bool:
        return self.nb == 0 and self.den == 1

    def __str__(self) -> str:
        if self.nb == 0:
            return _fmt_rat(self.a)
        if self.b == 1:
            root = "√5"
        elif self.b == -1:
            root = "-√5"
        else:
            root = _fmt_rat(self.b) + "√5"
        if self.na == 0:
            return root
        sep = "+" if not root.startswith("-") else ""
        return _fmt_rat(self.a) + sep + root

    def __repr__(self) -> str:
        return f"Gold({self.na}, {self.nb}, {self.den})"

    def to_json(self) -> dict:
        return {
            "a": [self.a.numerator, self.a.denominator],
            "b": [self.b.numerator, self.b.denominator],
        }


@lru_cache(maxsize=1024)
def _fraction_hash(num: int, den: int) -> int:
    # a few distinct denominators recur across a whole run; building the
    # Fraction costs ten times the cache lookup
    return hash(Fraction(num, den))


def integer_pairs(values: Sequence[Gold]) -> tuple[list[int], int]:
    """The values as interleaved Z[sqrt5] integer pairs over one denominator.

    Returns ``([a0, b0, a1, b1, ...], d)`` with d > 0 the least common
    denominator, so that ``values[k] == Gold(a_k, b_k, d)``.  This is the
    one place that knows the format; the quaternion product and the
    elimination run on these integers.
    """
    den = lcm(*[v.den for v in values])
    out = []
    for v in values:
        f = den // v.den
        out += (v.na, v.nb) if f == 1 else (v.na * f, v.nb * f)
    return out, den


def dot(xs: Sequence[Gold], ys: Sequence[Gold], weights: Sequence[int],
        den: int = 1) -> Gold:
    """sum of w*x*y over the three sequences, divided by den.

    Summed on Z[sqrt5] integers: with x = (a + a5*sqrt5)/p and
    y = (b + b5*sqrt5)/q termwise, the result is one Gold over p*q*den.
    """
    x, p = integer_pairs(xs)
    y, q = integer_pairs(ys)
    return Gold(*dot_pairs(x, y, weights), p * q * den)


def dot_pairs(x: Sequence[int], y: Sequence[int],
              weights: Sequence[int]) -> tuple[int, int]:
    """sum of w*x*y on ``integer_pairs`` ints: its rational and sqrt5 parts."""
    rat = root = 0
    for w, a, a5, b, b5 in zip(weights, x[0::2], x[1::2], y[0::2], y[1::2]):
        rat += w * (a * b + 5 * a5 * b5)
        root += w * (a * b5 + a5 * b)
    return rat, root


def _coerce(x):
    if isinstance(x, Gold):
        return x
    if isinstance(x, int):
        return Gold(x)
    if isinstance(x, Fraction):
        return Gold(x.numerator, 0, x.denominator)
    return NotImplemented


def _fmt_rat(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


ZERO = Gold(0)
ONE = Gold(1)
TAU = Gold(1, 1, 2)     # (1 + sqrt5)/2
SIGMA = Gold(1, -1, 2)  # (1 - sqrt5)/2
