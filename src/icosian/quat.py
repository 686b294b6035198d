"""Quaternions over the golden field, and the distinguished scalars.

The two scalars omega (order 3) and phi (order 4) satisfy
phi^2 = (omega*phi)^2 = omega + omega^2 = -1 and generate a group of
order 12; theta = omega - omega^2 = i + j + k squares to -3.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from operator import mul

from .goldnum import Gold, ZERO as G_ZERO, SIGMA, TAU, integer_pairs
from .groupkit import FiniteGroup


class Quat:
    """w + x i + y j + z k with Gold coefficients; immutable, equal and
    hashed by its four coefficients."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: Gold, x: Gold, y: Gold, z: Gold):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):
        raise AttributeError(f"Quat is immutable: cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if isinstance(other, Quat):
            return (self.w == other.w and self.x == other.x
                    and self.y == other.y and self.z == other.z)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.w, self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"Quat(w={self.w!r}, x={self.x!r}, y={self.y!r}, z={self.z!r})"

    @staticmethod
    def of(w=0, x=0, y=0, z=0) -> "Quat":
        return Quat(_g(w), _g(x), _g(y), _g(z))

    def __add__(self, other: "Quat") -> "Quat":
        return Quat(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quat") -> "Quat":
        return Quat(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quat":
        return Quat(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quat):
            u, p = integer_pairs((self.w, self.x, self.y, self.z))
            v, q = integer_pairs((other.w, other.x, other.y, other.z))
            return from_integer_pairs(hamilton(u, v), p * q)
        if isinstance(other, (Gold, int, Fraction)):
            s = _g(other)
            return Quat(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    def conj(self) -> "Quat":
        return Quat(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> Gold:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __str__(self) -> str:
        parts = []
        for coeff, unit in ((self.w, ""), (self.x, "i"), (self.y, "j"), (self.z, "k")):
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


def hamilton(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    """The Hamilton product on Z[sqrt5] integers.

    x and y hold the coefficients (w, x, y, z) of two quaternions in the
    ``integer_pairs`` format, 8 ints each (rational part, sqrt5 part, ...)
    over a common denominator; the result is the product's 8 ints over the
    product of the two denominators.  Each of the 16 terms is
    (u + u5*sqrt5)(v + v5*sqrt5) = (u*v + 5*u5*v5) + (u*v5 + u5*v)*sqrt5.
    """
    a, a5, b, b5, c, c5, d, d5 = x
    e, e5, f, f5, g, g5, h, h5 = y
    return (
        a*e - b*f - c*g - d*h + 5 * (a5*e5 - b5*f5 - c5*g5 - d5*h5),
        a*e5 + a5*e - b*f5 - b5*f - c*g5 - c5*g - d*h5 - d5*h,
        a*f + b*e + c*h - d*g + 5 * (a5*f5 + b5*e5 + c5*h5 - d5*g5),
        a*f5 + a5*f + b*e5 + b5*e + c*h5 + c5*h - d*g5 - d5*g,
        a*g - b*h + c*e + d*f + 5 * (a5*g5 - b5*h5 + c5*e5 + d5*f5),
        a*g5 + a5*g - b*h5 - b5*h + c*e5 + c5*e + d*f5 + d5*f,
        a*h + b*g - c*f + d*e + 5 * (a5*h5 + b5*g5 - c5*f5 + d5*e5),
        a*h5 + a5*h + b*g5 + b5*g - c*f5 - c5*f + d*e5 + d5*e,
    )


def from_integer_pairs(ints: Sequence[int], den: int) -> Quat:
    """The quaternion whose 8 ``integer_pairs`` ints over den are given."""
    return Quat(Gold(ints[0], ints[1], den), Gold(ints[2], ints[3], den),
                Gold(ints[4], ints[5], den), Gold(ints[6], ints[7], den))


def _g(v) -> Gold:
    return v if isinstance(v, Gold) else Gold.of(v)


ZERO = Quat.of(0)
ONE = Quat.of(1)
I = Quat.of(0, 1)
J = Quat.of(0, 0, 1)
K = Quat.of(0, 0, 0, 1)

h2 = Fraction(1, 2)
OMEGA = Quat.of(-h2, h2, h2, h2)
# (i - sigma j - tau k)/2; the 1/2 makes it a unit with PHI^2 = -1
PHI = Quat(G_ZERO, Gold.of(h2), SIGMA * Gold.of(-h2), TAU * Gold.of(-h2))
THETA = OMEGA - OMEGA * OMEGA  # = i + j + k, squares to -3


@cache
def scalar_group() -> FiniteGroup[Quat]:
    """The group generated by omega and phi; must close at order 12."""
    group = FiniteGroup.closure([OMEGA, PHI], mul, ONE, cap=100)
    if len(group) != 12:
        raise ValueError(f"scalar group closed at order {len(group)}, expected 12")
    return group


def so3_image() -> tuple[int, bool]:
    """Order of the scalar group mod {+-1} and whether the quotient is nonabelian.

    Index work on the Cayley table: the sign class of i is {i, i*(-1)}, and
    the quotient is nonabelian when some x*y is neither y*x nor -(y*x).
    """
    group = scalar_group()
    t = group.table
    minus = group.index(-ONE)
    order = len({frozenset({i, t[i][minus]}) for i in range(len(group))})
    nonabelian = any(
        t[i][j] != t[j][i] and t[i][j] != t[t[j][i]][minus]
        for i in range(len(group))
        for j in range(len(group))
    )
    return order, nonabelian
