"""Exact arithmetic in the golden field Q(sqrt 5).

A value is stored as (na + nb*sqrt5)/den with arbitrary-precision integers,
normalized so den > 0 and gcd(na, nb, den) = 1.  Canonical form is enforced
at construction, so structural equality is field equality and Gold values
can be used directly as dictionary keys; assigning a field raises
AttributeError.  Values are built from and combined with Golds and ints
only: a float or any other number raises TypeError, as a constructor
argument or as an operand.  Printing, JSON and hashing read the three
integers; only the ``a`` and ``b`` properties import ``fractions``.

``GoldVector`` holds a fixed-length vector of values the same way, as
Z[sqrt5] integer pairs over one denominator; quaternions, quaternion
matrices and class functions are GoldVectors.  ``gold_str`` prints a value
from its integers, so a vector prints without building a Gold.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import gcd, lcm

_set = object.__setattr__


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
        _set(self, "na", na)
        _set(self, "nb", nb)
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"Gold is immutable: cannot set {name!r}")

    @property
    def a(self):
        """The rational part, as a Fraction."""
        from fractions import Fraction
        return Fraction(self.na, self.den)

    @property
    def b(self):
        """The sqrt5 part, as a Fraction."""
        from fractions import Fraction
        return Fraction(self.nb, self.den)

    def __eq__(self, other) -> bool:
        other = as_gold(other)
        if other is NotImplemented:
            return NotImplemented
        return self.na == other.na and self.nb == other.nb and self.den == other.den

    def __hash__(self) -> int:
        # an integer value hashes as the int it equals
        if self.is_integer:
            return hash(self.na)
        return hash((self.na, self.nb, self.den))

    def __bool__(self) -> bool:
        return bool(self.na or self.nb)

    def __add__(self, other):
        other = as_gold(other)
        if other is NotImplemented:
            return NotImplemented
        return Gold(self.na * other.den + other.na * self.den,
                    self.nb * other.den + other.nb * self.den,
                    self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gold(other)
        if other is NotImplemented:
            return NotImplemented
        return Gold(self.na * other.den - other.na * self.den,
                    self.nb * other.den - other.nb * self.den,
                    self.den * other.den)

    def __rsub__(self, other):
        other = as_gold(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Gold":
        return Gold(-self.na, -self.nb, self.den)

    def __mul__(self, other):
        other = as_gold(other)
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

    @property
    def is_integer(self) -> bool:
        return self.nb == 0 and self.den == 1

    def __str__(self) -> str:
        return gold_str(self.na, self.nb, self.den)

    def __repr__(self) -> str:
        return f"Gold({self.na}, {self.nb}, {self.den})"

    def to_json(self) -> dict:
        return {"a": _lowest(self.na, self.den), "b": _lowest(self.nb, self.den)}


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


class GoldVector:
    """A vector of Q(sqrt5) values of fixed length, immutable.

    The values are held as Z[sqrt5] integers in ``integer_pairs`` order
    (``ints``) over one denominator (``den``), in canonical form: den > 0
    and gcd(den, *ints) == 1.  So structural equality is value equality,
    one tuple hash serves, and sums and negation run on the integers and
    build no Gold.  Quaternions, quaternion matrices and class functions
    are GoldVectors; vectors of different classes are never equal, and
    are neither added nor subtracted.
    """

    __slots__ = ("ints", "den")

    def __init__(self, values: Sequence[Gold]):
        # the least common denominator of canonical Golds leaves the whole
        # list canonical: a prime of it divides the den of some value to the
        # full power, and that value's pair is not divisible by it
        ints, den = integer_pairs(values)
        _set(self, "ints", tuple(ints))
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable:"
                             f" cannot set {name!r}")

    @classmethod
    def _canonical(cls, ints: tuple[int, ...], den: int):
        """The vector with these ints over den, which are in canonical form."""
        v = object.__new__(cls)
        _set(v, "ints", ints)
        _set(v, "den", den)
        return v

    @classmethod
    def _reduced(cls, ints: Sequence[int], den: int):
        """The vector with these ints over den > 0, by one gcd reduction."""
        g = gcd(den, *ints)
        if g > 1:
            return cls._canonical(tuple([x // g for x in ints]), den // g)
        return cls._canonical(tuple(ints), den)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.den == other.den and self.ints == other.ints
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        p, q = self.den, other.den
        pairs = zip(self.ints, other.ints, strict=True)
        return self._reduced([x * q + y * p for x, y in pairs], p * q)

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        p, q = self.den, other.den
        pairs = zip(self.ints, other.ints, strict=True)
        return self._reduced([x * q - y * p for x, y in pairs], p * q)

    def __neg__(self):
        return self._canonical(tuple([-x for x in self.ints]), self.den)

    def galois(self):
        """The sqrt5 -> -sqrt5 automorphism: the sqrt5 half of each pair negated."""
        ints = list(self.ints)
        ints[1::2] = [-b for b in ints[1::2]]
        return self._canonical(tuple(ints), self.den)


def flatten(v: GoldVector) -> list[Gold]:
    """The values of v as Golds, in order: for printing and the tests' oracles."""
    return [Gold(a, b, v.den) for a, b in zip(v.ints[0::2], v.ints[1::2])]


def dot_pairs(x: Sequence[int], y: Sequence[int],
              weights: Sequence[int]) -> tuple[int, int]:
    """sum of w*x*y on ``integer_pairs`` ints: its rational and sqrt5 parts."""
    rat = root = 0
    for w, a, a5, b, b5 in zip(weights, x[0::2], x[1::2], y[0::2], y[1::2], strict=True):
        rat += w * (a * b + 5 * a5 * b5)
        root += w * (a * b5 + a5 * b)
    return rat, root


def as_gold(x):
    """x as a Gold if it is a Gold or an int, else NotImplemented."""
    if isinstance(x, Gold):
        return x
    if isinstance(x, int):
        return Gold(x)
    return NotImplemented


def _lowest(num: int, den: int) -> list[int]:
    """[numerator, denominator] of num/den, den > 0, in lowest terms."""
    g = gcd(num, den)
    return [num // g, den // g]


def _fmt_rat(num: int, den: int) -> str:
    n, d = _lowest(num, den)
    return str(n) if d == 1 else f"{n}/{d}"


def gold_str(na: int, nb: int, den: int) -> str:
    """The value (na + nb*sqrt5)/den, den > 0, as ``Gold`` prints it: each
    part in lowest terms, so the text does not depend on a common factor."""
    if nb == 0:
        return _fmt_rat(na, den)
    if nb == den:
        root = "√5"
    elif nb == -den:
        root = "-√5"
    else:
        root = _fmt_rat(nb, den) + "√5"
    if na == 0:
        return root
    sep = "+" if not root.startswith("-") else ""
    return _fmt_rat(na, den) + sep + root

