"""2x2 quaternion matrices and rank-2 spinors.

Spinors form a right quaternion module; matrices act from the left, so the
action commutes with right scalar multiplication.  The Hermitian form
conjugates its first argument.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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


class QMat2:
    """A 2x2 matrix of quaternions over the golden field.

    Its 16 coefficients (entries in reading order, each as w, x, y, z) are
    held as 32 Z[sqrt5] integers in ``integer_pairs`` order over one
    denominator, in canonical form: den > 0 and gcd(den, *ints) == 1.  So
    structural equality is matrix equality, and the product, sums and Galois
    map run on the integers and build no Gold.
    """

    __slots__ = ("ints", "den")

    def __init__(self, m11: Quat, m12: Quat, m21: Quat, m22: Quat):
        # the least common denominator of canonical Golds leaves the whole
        # list canonical: a prime of it divides the den of some value to the
        # full power, and that value's pair is not divisible by it
        ints, den = integer_pairs([c for q in (m11, m12, m21, m22)
                                   for c in (q.w, q.x, q.y, q.z)])
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"QMat2 is immutable: cannot set {name!r}")

    @property
    def m11(self) -> Quat:
        return from_integer_pairs(self.ints[0:8], self.den)

    @property
    def m12(self) -> Quat:
        return from_integer_pairs(self.ints[8:16], self.den)

    @property
    def m21(self) -> Quat:
        return from_integer_pairs(self.ints[16:24], self.den)

    @property
    def m22(self) -> Quat:
        return from_integer_pairs(self.ints[24:32], self.den)

    @staticmethod
    def diag(a: Quat, b: Quat) -> "QMat2":
        return QMat2(a, Q_ZERO, Q_ZERO, b)

    @staticmethod
    def offdiag(a: Quat, b: Quat) -> "QMat2":
        return QMat2(Q_ZERO, a, b, Q_ZERO)

    def __eq__(self, other) -> bool:
        if isinstance(other, QMat2):
            return self.den == other.den and self.ints == other.ints
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __mul__(self, other):
        if isinstance(other, QMat2):
            # entry (r, c) is m_r1*n_1c + m_r2*n_2c; both Hamilton products
            # are over p*q, so they add as integers before one reduction
            m, n = self.ints, other.ints
            out = []
            for r in (0, 16):  # m_r1 starts at r, m_r2 at r + 8
                for c in (0, 8):  # n_1c starts at c, n_2c at c + 16
                    u = hamilton(m[r:r + 8], n[c:c + 8])
                    v = hamilton(m[r + 8:r + 16], n[c + 16:c + 24])
                    out += [s + t for s, t in zip(u, v)]
            return _reduced(out, self.den * other.den)
        return NotImplemented

    def __add__(self, other: "QMat2") -> "QMat2":
        p, q = self.den, other.den
        return _reduced([x * q + y * p for x, y in zip(self.ints, other.ints)], p * q)

    def __sub__(self, other: "QMat2") -> "QMat2":
        p, q = self.den, other.den
        return _reduced([x * q - y * p for x, y in zip(self.ints, other.ints)], p * q)

    def __neg__(self) -> "QMat2":
        return _canonical(tuple([-x for x in self.ints]), self.den)

    def scale(self, s) -> "QMat2":
        """Left scalar multiplication (entrywise s * m_ij); s is a Quat or a
        golden-field scalar, which commutes with every entry."""
        if not isinstance(s, Quat):
            s = Quat.of(s)
        u, q = integer_pairs((s.w, s.x, s.y, s.z))
        m = self.ints
        return _reduced([x for k in range(0, 32, 8) for x in hamilton(u, m[k:k + 8])],
                        q * self.den)

    def galois(self) -> "QMat2":
        """The sqrt5 -> -sqrt5 automorphism: the sqrt5 half of each pair negated."""
        ints = list(self.ints)
        ints[1::2] = [-b for b in ints[1::2]]
        return _canonical(tuple(ints), self.den)

    def complex_char_trace(self) -> Gold:
        """2*(Re m11 + Re m22): the complex trace of the 4-dim complexification."""
        m = self.ints
        return Gold(2 * (m[0] + m[24]), 2 * (m[1] + m[25]), self.den)

    def key(self) -> str:
        """Canonical serialization, usable as an indexing key."""
        return f"[[{self.m11}, {self.m12}], [{self.m21}, {self.m22}]]"

    def __repr__(self) -> str:
        return f"QMat2{self.key()}"


def _canonical(ints: tuple[int, ...], den: int) -> QMat2:
    """The matrix with these ints over den, which are in canonical form."""
    m = object.__new__(QMat2)
    object.__setattr__(m, "ints", ints)
    object.__setattr__(m, "den", den)
    return m


def _reduced(ints: list[int], den: int) -> QMat2:
    """The matrix with these ints over den > 0, by one gcd reduction."""
    g = gcd(den, *ints)
    if g > 1:
        return _canonical(tuple([x // g for x in ints]), den // g)
    return _canonical(tuple(ints), den)


def flatten(m: QMat2) -> list[Gold]:
    """16 coordinates: entries in reading order, each as (w, x, y, z)."""
    return [Gold(a, b, m.den) for a, b in zip(m.ints[0::2], m.ints[1::2])]


IDENTITY = QMat2.diag(Q_ONE, Q_ONE)
MINUS_IDENTITY = -IDENTITY
