"""Quaternions over the golden field, and the distinguished scalars.

The two scalars omega (order 3) and phi (order 4) satisfy
phi^2 = (omega*phi)^2 = omega + omega^2 = -1 and generate a group of
order 12; theta = omega - omega^2 = i + j + k squares to -3.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from operator import mul

from .goldnum import Gold, GoldVector, gold_str
from .groupkit import FiniteGroup


class Quat(GoldVector):
    """w + x i + y j + z k over the golden field; immutable.

    A GoldVector of its four coefficients: 8 Z[sqrt5] integers over one
    denominator.  The product (one ``hamilton`` call and one gcd reduction)
    the conjugate and the norm run on the integers, as the sums do, and so
    does printing, and none builds a Gold; the coefficients ``w``, ``x``, ``y``,
    ``z`` are built as Golds on demand.
    """

    __slots__ = ()

    def __init__(self, w: Gold, x: Gold, y: Gold, z: Gold):
        super().__init__((w, x, y, z))

    @property
    def w(self) -> Gold:
        return Gold(self.ints[0], self.ints[1], self.den)

    @property
    def x(self) -> Gold:
        return Gold(self.ints[2], self.ints[3], self.den)

    @property
    def y(self) -> Gold:
        return Gold(self.ints[4], self.ints[5], self.den)

    @property
    def z(self) -> Gold:
        return Gold(self.ints[6], self.ints[7], self.den)

    def re(self) -> tuple[int, int]:
        """The real part w as the Z[sqrt5] pair (a, b) of (a + b*sqrt5)/den."""
        return self.ints[0:2]

    def norm(self) -> tuple[int, int, int]:
        """q conj(q) = sum of (u + v*sqrt5)^2 over the coefficients, as (a, b, d)."""
        m = self.ints
        return (sum([u * u + 5 * v * v for u, v in zip(m[0::2], m[1::2])]),
                2 * sum(map(mul, m[0::2], m[1::2])), self.den * self.den)

    def __repr__(self) -> str:
        return f"Quat(w={self.w!r}, x={self.x!r}, y={self.y!r}, z={self.z!r})"

    @staticmethod
    def of(w=0, x=0, y=0, z=0) -> "Quat":
        return Quat(_g(w), _g(x), _g(y), _g(z))

    def __mul__(self, other):
        if isinstance(other, Quat):
            return Quat._reduced(hamilton(self.ints, other.ints), self.den * other.den)
        return NotImplemented

    def conj(self) -> "Quat":
        ints = self.ints
        return Quat._canonical(ints[:2] + tuple([-v for v in ints[2:]]), self.den)

    def __str__(self) -> str:
        parts = []
        m = self.ints
        for a, b, unit in zip(m[0::2], m[1::2], ("", "i", "j", "k")):
            if a or b:
                s = gold_str(a, b, self.den)
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


def _g(v) -> Gold:
    return v if isinstance(v, Gold) else Gold(v)


ZERO = Quat.of(0)
ONE = Quat.of(1)
I = Quat.of(0, 1)
J = Quat.of(0, 0, 1)
K = Quat.of(0, 0, 0, 1)

OMEGA = Quat(Gold(-1, 0, 2), Gold(1, 0, 2), Gold(1, 0, 2), Gold(1, 0, 2))
# (i - sigma j - tau k)/2 with sigma, tau = (1 -+ sqrt5)/2; the 1/2 makes it
# a unit with PHI^2 = -1
PHI = Quat(Gold(0), Gold(1, 0, 2), Gold(-1, 1, 4), Gold(-1, -1, 4))
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
