"""2x2 quaternion matrices and rank-2 spinors.

Spinors form a right quaternion module; matrices act from the left, so the
action commutes with right scalar multiplication.
"""
from __future__ import annotations

from math import lcm
from operator import add

from .goldnum import GoldVector
from .quat import Quat, ONE as Q_ONE, ZERO as Q_ZERO, hamilton
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


class QMat2(GoldVector):
    """A 2x2 matrix of quaternions over the golden field.

    A GoldVector of its 16 coefficients (entries in reading order, each as
    w, x, y, z): 32 Z[sqrt5] integers over one denominator.  The product
    (two ``quat.hamilton`` calls per entry, summed, and one gcd reduction)
    runs on the integers, as the sums and the Galois map do, and builds no
    Gold; the entries ``m11`` ... ``m22`` are built as Quats on demand.
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
            # entry (r, c) is m_r1 n_1c + m_r2 n_2c: the four m_r1 n_1c, then
            # the four m_r2 n_2c, each in reading order, summed on the integers
            m, n = self.ints, other.ints
            m11, m12, m21, m22 = m[0:8], m[8:16], m[16:24], m[24:32]
            n11, n12, n21, n22 = n[0:8], n[8:16], n[16:24], n[24:32]
            first = (hamilton(m11, n11) + hamilton(m11, n12)
                     + hamilton(m21, n11) + hamilton(m21, n12))
            second = (hamilton(m12, n21) + hamilton(m12, n22)
                      + hamilton(m22, n21) + hamilton(m22, n22))
            return QMat2._reduced(tuple(map(add, first, second)), self.den * other.den)
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


ZERO = QMat2.diag(Q_ZERO, Q_ZERO)
IDENTITY = QMat2.diag(Q_ONE, Q_ONE)
MINUS_IDENTITY = -IDENTITY
