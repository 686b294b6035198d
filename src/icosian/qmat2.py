"""2x2 quaternion matrices and rank-2 spinors.

Spinors form a right quaternion module; matrices act from the left, so the
action commutes with right scalar multiplication.  The Hermitian form
conjugates its first argument.
"""
from __future__ import annotations

from dataclasses import dataclass

from .goldnum import Gold, integer_pairs
from .quat import Quat, ONE as Q_ONE, ZERO as Q_ZERO, from_integer_pairs, hamilton


@dataclass(frozen=True, slots=True)
class Spinor2:
    """Column vector (c1, c2) in the rank-2 right quaternion module."""

    c1: Quat
    c2: Quat

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


@dataclass(frozen=True, slots=True)
class QMat2:
    m11: Quat
    m12: Quat
    m21: Quat
    m22: Quat

    @staticmethod
    def diag(a: Quat, b: Quat) -> "QMat2":
        return QMat2(a, Q_ZERO, Q_ZERO, b)

    @staticmethod
    def offdiag(a: Quat, b: Quat) -> "QMat2":
        return QMat2(Q_ZERO, a, b, Q_ZERO)

    def __mul__(self, other):
        if isinstance(other, QMat2):
            # entry (r, c) is m_r1*n_1c + m_r2*n_2c; both Hamilton products
            # are over p*q, so they add as integers before one reduction
            m, p = integer_pairs(flatten(self))
            n, q = integer_pairs(flatten(other))
            den = p * q
            entries = []
            for r in (0, 16):  # m_r1 starts at r, m_r2 at r + 8
                for c in (0, 8):  # n_1c starts at c, n_2c at c + 16
                    u = hamilton(m[r:r + 8], n[c:c + 8])
                    v = hamilton(m[r + 8:r + 16], n[c + 16:c + 24])
                    entries.append(from_integer_pairs(
                        [s + t for s, t in zip(u, v)], den))
            return QMat2(*entries)
        return NotImplemented

    def __add__(self, other: "QMat2") -> "QMat2":
        return QMat2(self.m11 + other.m11, self.m12 + other.m12,
                     self.m21 + other.m21, self.m22 + other.m22)

    def __sub__(self, other: "QMat2") -> "QMat2":
        return QMat2(self.m11 - other.m11, self.m12 - other.m12,
                     self.m21 - other.m21, self.m22 - other.m22)

    def __neg__(self) -> "QMat2":
        return QMat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def scale(self, s) -> "QMat2":
        """Left scalar multiplication (entrywise s * m_ij)."""
        if isinstance(s, Quat):
            return QMat2(s * self.m11, s * self.m12, s * self.m21, s * self.m22)
        return QMat2(self.m11 * s, self.m12 * s, self.m21 * s, self.m22 * s)

    def galois(self) -> "QMat2":
        return QMat2(self.m11.galois(), self.m12.galois(),
                     self.m21.galois(), self.m22.galois())

    def complex_char_trace(self) -> Gold:
        """2*(Re m11 + Re m22): the complex trace of the 4-dim complexification."""
        return (self.m11.w + self.m22.w) * 2

    def key(self) -> str:
        """Canonical serialization, usable as an indexing key."""
        return f"[[{self.m11}, {self.m12}], [{self.m21}, {self.m22}]]"


def flatten(m: QMat2) -> list[Gold]:
    """16 coordinates: entries in reading order, each as (w, x, y, z)."""
    out = []
    for q in (m.m11, m.m12, m.m21, m.m22):
        out += [q.w, q.x, q.y, q.z]
    return out


IDENTITY = QMat2.diag(Q_ONE, Q_ONE)
MINUS_IDENTITY = -IDENTITY
