"""The order-120 quaternionic reflection group on 2 spinor coordinates.

The group G is closed once, from the f, g, h generator matrices.  Its words
and subgroups (the diagonal subgroup, the group the 20 order-3 reflections
of the 120 norm-3 roots generate) are index work on that closure's Cayley
graph.  The order-32 relative is closed from the four gamma matrices of the
signature-(1,3) Clifford algebra.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import mul

from .goldnum import Gold
from .groupkit import FiniteGroup
from .linalg import rank
from .qmat2 import IDENTITY, MINUS_IDENTITY, QMat2, Spinor2, spinor_norm2
from .quat import I, J, K, OMEGA, ONE as Q_ONE, PHI, Quat, THETA, ZERO as Q_ZERO, scalar_group

THIRD = Gold.of(Fraction(1, 3))
LETTERS = "fgh"  # the generators, in closure order


@cache
def generators() -> tuple[QMat2, QMat2, QMat2]:
    """The (f, g, h) matrix generators; relations are enforced on construction.

    f is built from the conjugate cube root w = omega^2: with omega itself the
    relation (fg)^3 = 1 fails (it gives -1), so g = diag(omega, 1) pins the
    other choice inside f.  Both choices satisfy the scalar relations.
    """
    w = OMEGA * OMEGA
    w2 = OMEGA
    f = QMat2(
        Q_ONE, w2 * PHI - w,
        w2 * PHI - w2, w * PHI,
    ).scale((w - w2) * THIRD)
    g = QMat2.diag(OMEGA, Q_ONE)
    h = QMat2.diag(PHI, PHI)
    _check_relations(f, g, h)
    return f, g, h


def _check_relations(f: QMat2, g: QMat2, h: QMat2) -> None:
    neg = MINUS_IDENTITY
    checks = [
        (f * f, neg), (g * h * g * h, neg), (h * h, neg),
        (g * g * g, IDENTITY),
        ((f * g) * (f * g) * (f * g), IDENTITY),
        ((f * h) * (f * h) * (f * h), IDENTITY),
    ]
    for got, want in checks:
        if got != want:
            raise ValueError("generator relation failed; wrong omega/phi convention")


@cache
def base_spinors() -> tuple[Spinor2, ...]:
    """The 10 base spinors: (theta, 0) plus three omega-indexed families.

    Components are quaternion-conjugated relative to the naive left-module
    reading; with scalars acting on the right this is the unique reading under
    which all 120 multiples are distinct and every derived reflection lies in
    the group.
    """
    w = [Q_ONE, OMEGA, OMEGA * OMEGA]
    naive = [Spinor2(THETA, Q_ZERO)]
    naive += [Spinor2((PHI + Q_ONE) * w[c], Q_ONE) for c in range(3)]
    naive += [Spinor2(w[c], (PHI - Q_ONE) * w[1]) for c in range(3)]
    naive += [Spinor2(w[c], (PHI - Q_ONE) * w[2]) for c in range(3)]
    return tuple(Spinor2(s.c1.conj(), s.c2.conj()) for s in naive)


@cache
def roots() -> tuple[tuple[Spinor2, ...], ...]:
    """All 120 roots as 10 classes of 12: class k is base spinor k times the
    12 scalars, right-multiplied, in scalar-group order."""
    scalars = scalar_group().elements
    classes = tuple(tuple(base.scale(s) for s in scalars) for base in base_spinors())
    flat = [sp for cls in classes for sp in cls]
    for sp in flat:
        if spinor_norm2(sp) != Quat.of(3):
            raise ValueError(f"root {sp} has squared norm != 3")
    if len(set(flat)) != len(flat):
        raise ValueError("duplicate root; scalar/spinor convention error")
    return classes


def reflection_of(r: Spinor2) -> QMat2:
    """The order-3 reflection M_ij = delta_ij - r_i (1-omega) conj(r_j) / 3."""
    one_minus_w = Q_ONE - OMEGA
    comps = (r.c1, r.c2)

    def entry(i, j):
        d = Q_ONE if i == j else Q_ZERO
        return d - (comps[i] * one_minus_w * comps[j].conj()) * THIRD

    return QMat2(entry(0, 0), entry(0, 1), entry(1, 0), entry(1, 1))


@cache
def reflection_matrices() -> tuple[QMat2, ...]:
    """The 20 distinct reflections of the 120 roots, in first-seen order.

    The reflection of r*s sees the unit scalar s only through s(1-omega)s^-1.
    The six scalars of <omega, -1> commute with omega, so they give r's own
    reflection; the other six, the coset of phi, turn omega into omega^2 and
    give its inverse.  So one root per coset of each class gives all of them.
    """
    other = scalar_group().index(PHI)
    return tuple(dict.fromkeys(reflection_of(r)
                               for cls in roots() for r in (cls[0], cls[other])))


@cache
def build_o1() -> FiniteGroup[QMat2]:
    """The full group from the f, g, h generators; must close at order 120."""
    return FiniteGroup.closure(list(generators()), mul, IDENTITY, cap=10_000)


def word_index(letters: str) -> int:
    """Index in G of a product of generator letters, e.g. 'fgh' -> f*g*h
    ('' is the identity), folded along Cayley-graph edges."""
    return build_o1().word_index(LETTERS.index(c) for c in letters)


def word_string(i: int) -> str:
    """The BFS word of element i of G in the letters f, g, h ('e' for 0)."""
    return "".join(LETTERS[s] for s in build_o1().word(i)) or "e"


@cache
def reflection_group() -> frozenset[int]:
    """The subgroup of G the 20 reflections generate, as an index set."""
    group = build_o1()
    return group.subgroup_indices(group.index(m) for m in reflection_matrices())


@cache
def diagonal_subgroup() -> frozenset[int]:
    """<g, h>, the order-12 subgroup of diagonal matrices, as an index set."""
    return build_o1().subgroup_indices([word_index("g"), word_index("h")])


# left multiplication by q = w + xi + yj + zk as a 4x4 matrix on (w, x, y, z):
# entry (k, c) is sign * q[component] for the pair at position c of row k
_LEFT_MUL = (
    ((0, 1), (1, -1), (2, -1), (3, -1)),
    ((1, 1), (0, 1), (3, -1), (2, 1)),
    ((2, 1), (3, 1), (0, 1), (1, -1)),
    ((3, 1), (2, -1), (1, 1), (0, 1)),
)


def fixed_space_dim(m: QMat2) -> int:
    """Golden-field dimension of {x : m x = x}: 8 minus the rank of the 8x8
    exact system of m - 1.  Each row is a signed permutation of one block
    row's Z[sqrt5] integers (the left-multiplication rows of its two
    entries), read straight off ``(m - 1).ints``."""
    d = (m - IDENTITY).ints
    rows = [[sign * d[start + 8 * half + 2 * c + part]
             for half in (0, 1) for c, sign in pattern for part in (0, 1)]
            for start in (0, 16) for pattern in _LEFT_MUL]
    return 8 - rank(rows)


def group_reflections(group: FiniteGroup[QMat2]) -> list[int]:
    """Indices of order-3 elements with a nontrivial fixed space."""
    return [
        i
        for i in range(len(group))
        if group.element_order(i) == 3 and fixed_space_dim(group.elements[i]) > 0
    ]


def two_reflection_census(group: FiniteGroup[QMat2]) -> int:
    """How many non-reflection elements are products of two reflections."""
    refl = {group.index(m) for m in reflection_matrices()}
    t = group.table
    products = {t[a][b] for a in refl for b in refl}
    return sum(1 for x in range(len(group)) if x not in refl and x in products)


@cache
def gamma_matrices() -> tuple[QMat2, QMat2, QMat2, QMat2]:
    """Gamma matrices for signature (1,3) inside the 2x2 quaternion algebra."""
    g0 = QMat2.diag(Q_ONE, -Q_ONE)
    g1 = QMat2.offdiag(I, I)
    g2 = QMat2.offdiag(J, J)
    g3 = QMat2.offdiag(K, K)
    gammas = (g0, g1, g2, g3)
    for a in range(4):
        sq = gammas[a] * gammas[a]
        want = IDENTITY if a == 0 else MINUS_IDENTITY
        if sq != want:
            raise ValueError("gamma square has wrong sign")
        for b in range(a + 1, 4):
            if gammas[a] * gammas[b] != -(gammas[b] * gammas[a]):
                raise ValueError("gamma matrices do not anticommute")
    return gammas


@cache
def gamma_group() -> FiniteGroup[QMat2]:
    """The finite group generated by the gammas; must close at order 32."""
    return FiniteGroup.closure(list(gamma_matrices()), mul, IDENTITY, cap=1000)


def gamma_reflections() -> tuple[list[QMat2], list[QMat2]]:
    """(census, expected): non-central involutions vs the ten listed products."""
    group = gamma_group()
    t = group.table
    central = {i for cls in group.conjugacy.classes if len(cls) == 1 for i in cls}
    census = [
        group.elements[i]
        for i in range(len(group))
        if i not in central and t[i][i] == 0
    ]
    g0, g1, g2, g3 = gamma_matrices()
    listed = []
    for m in (g0, g0 * g1, g0 * g2, g0 * g3, g1 * g2 * g3):
        listed += [m, -m]
    return census, listed
