"""The tests' one exact reference arithmetic, importing nothing from icosian.

Q(sqrt5) values, quaternions and 2x2 quaternion matrices by their textbook
formulas, the Hermitian spinor form, the class-function inner product and an
elimination over Q(sqrt5).  A quaternion is a tuple (w, x, y, z) of values, a
matrix the tuple (m11, m12, m21, m22) of its entries and a spinor the pair
(c1, c2).  icosian values are read only through their public accessors: the
entries ``m11`` ... ``m22`` and ``c1``, ``c2``, the coefficients ``w`` ...
``z``, and a coefficient's rational and sqrt5 parts ``a`` and ``b``, which
are Fractions.
"""
from math import gcd


class Q5:
    """(p + q*sqrt5)/d for integers p, q and d != 0.  Construction divides
    out gcd(p, q, d) only to keep the integers small; equality
    cross-multiplies, so it does not rely on a canonical form."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: int, q: int = 0, d: int = 1):
        g = gcd(p, q, d)
        self.p, self.q, self.d = (p // g, q // g, d // g) if g > 1 else (p, q, d)

    def __add__(self, other: "Q5") -> "Q5":
        if self.d == other.d:
            return Q5(self.p + other.p, self.q + other.q, self.d)
        return Q5(self.p * other.d + other.p * self.d,
                  self.q * other.d + other.q * self.d, self.d * other.d)

    def __neg__(self) -> "Q5":
        return Q5(-self.p, -self.q, self.d)

    def __sub__(self, other: "Q5") -> "Q5":
        return self + -other

    def __mul__(self, other: "Q5") -> "Q5":
        return Q5(self.p * other.p + 5 * self.q * other.q,
                  self.p * other.q + self.q * other.p, self.d * other.d)

    def inverse(self) -> "Q5":
        """d (p - q*sqrt5) / (p^2 - 5 q^2); the norm vanishes only at zero."""
        return Q5(self.d * self.p, -self.d * self.q, self.p * self.p - 5 * self.q * self.q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Q5):
            return NotImplemented
        return self.p * other.d == other.p * self.d and self.q * other.d == other.q * self.d

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    def __repr__(self) -> str:
        return f"Q5({self.p}, {self.q}, {self.d})"


def value(c) -> Q5:
    """A coefficient, read by its Fraction parts ``a`` and ``b``."""
    a, b = c.a, c.b
    return Q5(a.numerator * b.denominator, b.numerator * a.denominator,
              a.denominator * b.denominator)


def values(coefficients) -> list[Q5]:
    return [value(c) for c in coefficients]


def quat(q) -> tuple:
    return value(q.w), value(q.x), value(q.y), value(q.z)


def mat(m) -> tuple:
    return quat(m.m11), quat(m.m12), quat(m.m21), quat(m.m22)


def spinor(s) -> tuple:
    return quat(s.c1), quat(s.c2)


def qmul(p: tuple, q: tuple) -> tuple:
    """The Hamilton product, from i^2 = j^2 = k^2 = ijk = -1."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def qadd(p: tuple, q: tuple) -> tuple:
    return tuple(x + y for x, y in zip(p, q, strict=True))


def conj(q: tuple) -> tuple:
    return q[0], -q[1], -q[2], -q[3]


def norm(q: tuple) -> Q5:
    """w^2 + x^2 + y^2 + z^2."""
    return dot([1] * 4, q, q)


def mmul(m: tuple, n: tuple) -> tuple:
    """The 2x2 matrix product, entry (r, c) = m_r1 n_1c + m_r2 n_2c."""
    m11, m12, m21, m22 = m
    n11, n12, n21, n22 = n
    return (qadd(qmul(m11, n11), qmul(m12, n21)), qadd(qmul(m11, n12), qmul(m12, n22)),
            qadd(qmul(m21, n11), qmul(m22, n21)), qadd(qmul(m21, n12), qmul(m22, n22)))


def madd(m: tuple, n: tuple) -> tuple:
    return tuple(qadd(x, y) for x, y in zip(m, n, strict=True))


def inner(r: tuple, x: tuple) -> tuple:
    """The Hermitian form conj(r1) x1 + conj(r2) x2, conjugate-linear in r."""
    return qadd(qmul(conj(r[0]), x[0]), qmul(conj(r[1]), x[1]))


def dot(weights, x, y) -> Q5:
    """The sum of w * x_k * y_k, for integer weights w."""
    return sum((Q5(w) * a * b for w, a, b in zip(weights, x, y, strict=True)), Q5(0))


def class_inner(sizes, x, y) -> Q5:
    """The inner product of real class functions: (1/|G|) sum of
    size * x * y over the classes, with |G| = sum(sizes)."""
    return dot(sizes, x, y) * Q5(1, 0, sum(sizes))


def rank(vectors) -> int:
    """Rank over Q(sqrt5): each vector is reduced against the rows kept so
    far, each scaled to 1 at its pivot, and kept if anything is left."""
    rows = []
    for v in vectors:
        for pivot, row in rows:
            c = v[pivot]
            if c:
                v = [x - c * y for x, y in zip(v, row, strict=True)]
        pivot = next((k for k, x in enumerate(v) if x), None)
        if pivot is not None:
            inv = v[pivot].inverse()
            rows.append((pivot, [x * inv for x in v]))
    return len(rows)


def contains(vectors, v) -> bool:
    return rank([*vectors, v]) == rank(vectors)
