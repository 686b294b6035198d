"""2x2 quaternion matrices and rank-2 spinors.

Spinors form a right quaternion module; matrices act from the left, so the
action commutes with right scalar multiplication.  The Hermitian form
conjugates its first argument.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from .goldnum import GoldVector
from .quat import Quat, ONE as Q_ONE, ZERO as Q_ZERO
from .record import Record


class Spinor2(Record):
    """Column vector (c1, c2) in the rank-2 right quaternion module."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1: Quat, c2: Quat):
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    def scale(self, s: Quat) -> "Spinor2":
        """Right scalar multiplication."""
        return Spinor2(self.c1 * s, self.c2 * s)

    def __str__(self) -> str:
        return f"({self.c1}, {self.c2})"


def inner(r: Spinor2, x: Spinor2) -> Quat:
    """Hermitian form, conjugate-linear in the first slot."""
    return r.c1.conj() * x.c1 + r.c2.conj() * x.c2


def spinor_norm2(r: Spinor2) -> Quat:
    return inner(r, r)


class QMat2(GoldVector):
    """A 2x2 matrix of quaternions over the golden field.

    A GoldVector of its 16 coefficients (entries in reading order, each as
    w, x, y, z): 32 Z[sqrt5] integers over one denominator.  The product
    (one ``hamilton_dot`` call per entry and one gcd reduction) runs on the
    integers, as the sums and the Galois map do, and builds no Gold; the
    entries ``m11`` ... ``m22`` are built as Quats on demand.
    """

    __slots__ = ()

    def __init__(self, m11: Quat, m12: Quat, m21: Quat, m22: Quat):
        # the least common denominator of canonical quaternions leaves the
        # whole list canonical: a prime of it divides the den of some entry
        # to the full power, and that entry's ints are not all divisible by it
        entries = (m11, m12, m21, m22)
        den = lcm(*[q.den for q in entries])
        object.__setattr__(self, "ints", tuple([x * (den // q.den) for q in entries
                                                for x in q.ints]))
        object.__setattr__(self, "den", den)

    @property
    def m11(self) -> Quat:
        return Quat._reduced(self.ints[0:8], self.den)

    @property
    def m12(self) -> Quat:
        return Quat._reduced(self.ints[8:16], self.den)

    @property
    def m21(self) -> Quat:
        return Quat._reduced(self.ints[16:24], self.den)

    @property
    def m22(self) -> Quat:
        return Quat._reduced(self.ints[24:32], self.den)

    @staticmethod
    def diag(a: Quat, b: Quat) -> "QMat2":
        return QMat2(a, Q_ZERO, Q_ZERO, b)

    @staticmethod
    def offdiag(a: Quat, b: Quat) -> "QMat2":
        return QMat2(Q_ZERO, a, b, Q_ZERO)

    def __mul__(self, other):
        if isinstance(other, QMat2):
            # entry (r, c) is the row m_r1, m_r2 dotted with the column n_1c,
            # n_2c; rows are contiguous in ints, columns are 16 ints apart
            m, n = self.ints, other.ints
            r1, r2 = m[:16], m[16:]
            c1, c2 = n[0:8] + n[16:24], n[8:16] + n[24:32]
            return QMat2._reduced(hamilton_dot(r1, c1) + hamilton_dot(r1, c2)
                                  + hamilton_dot(r2, c1) + hamilton_dot(r2, c2),
                                  self.den * other.den)
        return NotImplemented

    def re_trace(self) -> tuple[int, int]:
        """Re m11 + Re m22 as the Z[sqrt5] pair (a, b) of (a + b*sqrt5)/den."""
        m = self.ints
        return m[0] + m[24], m[1] + m[25]

    def adjoint(self) -> "QMat2":
        """The conjugate transpose: entry (r, c) is the conjugate of entry (c, r)."""
        m = self.ints
        return QMat2._canonical(tuple([v if p < 2 else -v for start in (0, 16, 8, 24)
                                       for p, v in enumerate(m[start:start + 8])]), self.den)

    def key(self) -> str:
        """Canonical serialization, usable as an indexing key."""
        return f"[[{self.m11}, {self.m12}], [{self.m21}, {self.m22}]]"

    def __repr__(self) -> str:
        return f"QMat2{self.key()}"


def hamilton_dot(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    """x1*y1 + x2*y2 for quaternions x = (x1, x2) and y = (y1, y2), on Z[sqrt5]
    integers: one entry of a QMat2 product.

    x and y hold two quaternions each in the ``quat.hamilton`` format, 16 ints
    over a common denominator; the result is the sum's 8 ints over the product
    of the two denominators.  Each product's terms are ``hamilton``'s (upper
    case for the second), summed before the one multiplication by 5.
    """
    a, a5, b, b5, c, c5, d, d5, A, A5, B, B5, C, C5, D, D5 = x
    e, e5, f, f5, g, g5, h, h5, E, E5, F, F5, G, G5, H, H5 = y
    return (
        a*e - b*f - c*g - d*h + A*E - B*F - C*G - D*H
        + 5 * (a5*e5 - b5*f5 - c5*g5 - d5*h5 + A5*E5 - B5*F5 - C5*G5 - D5*H5),
        a*e5 + a5*e - b*f5 - b5*f - c*g5 - c5*g - d*h5 - d5*h
        + A*E5 + A5*E - B*F5 - B5*F - C*G5 - C5*G - D*H5 - D5*H,
        a*f + b*e + c*h - d*g + A*F + B*E + C*H - D*G
        + 5 * (a5*f5 + b5*e5 + c5*h5 - d5*g5 + A5*F5 + B5*E5 + C5*H5 - D5*G5),
        a*f5 + a5*f + b*e5 + b5*e + c*h5 + c5*h - d*g5 - d5*g
        + A*F5 + A5*F + B*E5 + B5*E + C*H5 + C5*H - D*G5 - D5*G,
        a*g - b*h + c*e + d*f + A*G - B*H + C*E + D*F
        + 5 * (a5*g5 - b5*h5 + c5*e5 + d5*f5 + A5*G5 - B5*H5 + C5*E5 + D5*F5),
        a*g5 + a5*g - b*h5 - b5*h + c*e5 + c5*e + d*f5 + d5*f
        + A*G5 + A5*G - B*H5 - B5*H + C*E5 + C5*E + D*F5 + D5*F,
        a*h + b*g - c*f + d*e + A*H + B*G - C*F + D*E
        + 5 * (a5*h5 + b5*g5 - c5*f5 + d5*e5 + A5*H5 + B5*G5 - C5*F5 + D5*E5),
        a*h5 + a5*h + b*g5 + b5*g - c*f5 - c5*f + d*e5 + d5*e
        + A*H5 + A5*H + B*G5 + B5*G - C*F5 - C5*F + D*E5 + D5*E,
    )


ZERO = QMat2.diag(Q_ZERO, Q_ZERO)
IDENTITY = QMat2.diag(Q_ONE, Q_ONE)
MINUS_IDENTITY = -IDENTITY
