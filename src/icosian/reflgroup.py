"""The order-120 quaternionic reflection group on 2 spinor coordinates.

The group G is closed once, from the f, g, h generator matrices.  Its words
and subgroups (the diagonal subgroup, the group the 20 order-3 reflections
of the 120 norm-3 roots generate) are index work on that closure's Cayley
graph.  The order-32 relative is closed from the four gamma matrices of the
signature-(1,3) Clifford algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .goldnum import Gold
from .groupkit import FiniteGroup
from .linalg import nullity
from .qmat2 import IDENTITY, MINUS_IDENTITY, QMat2, Spinor2, spinor_norm2
from .quat import I, J, K, OMEGA, ONE as Q_ONE, PHI, Quat, THETA, ZERO as Q_ZERO, scalar_group

THIRD = Gold.of(Fraction(1, 3))
LETTERS = "fgh"  # the generators, in closure order


@dataclass(frozen=True)
class Root:
    """A norm-3 spinor, tagged by base-spinor class and scalar multiple."""

    spinor: Spinor2
    class_index: int   # which of the 10 base spinors
    scalar_index: int  # which of the 12 scalar multiples


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
def roots() -> tuple[Root, ...]:
    """All 120 roots: base spinors times the 12 scalars, right-multiplied."""
    scalars = scalar_group().elements
    out = []
    seen = set()
    for ci, base in enumerate(base_spinors()):
        for si, s in enumerate(scalars):
            sp = base.scale(s)
            if spinor_norm2(sp) != Quat.of(3):
                raise ValueError(f"root {sp} has squared norm != 3")
            if sp in seen:
                raise ValueError("duplicate root; scalar/spinor convention error")
            seen.add(sp)
            out.append(Root(sp, ci, si))
    return tuple(out)


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
    """The 20 distinct reflections of the 120 roots, in first-seen order."""
    seen: dict[QMat2, None] = {}
    for r in roots():
        seen.setdefault(reflection_of(r.spinor))
    return tuple(seen)


def _mat_mul(a: QMat2, b: QMat2) -> QMat2:
    return a * b


@cache
def build_o1() -> FiniteGroup[QMat2]:
    """The full group from the f, g, h generators; must close at order 120."""
    return FiniteGroup.closure(list(generators()), _mat_mul, IDENTITY, cap=10_000)


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


def _left_mul_matrix(q: Quat) -> list[list[Gold]]:
    a, b, c, d = q.w, q.x, q.y, q.z
    return [
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ]


def fixed_space_dim(m: QMat2) -> int:
    """Golden-field dimension of {x : m x = x}, via an 8x8 exact nullspace."""
    d = m - IDENTITY
    blocks = [
        (_left_mul_matrix(d.m11), _left_mul_matrix(d.m12)),
        (_left_mul_matrix(d.m21), _left_mul_matrix(d.m22)),
    ]
    rows = []
    for left, right in blocks:
        for rl, rr in zip(left, right):
            rows.append(rl + rr)
    return nullity(rows)


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
    return FiniteGroup.closure(list(gamma_matrices()), _mat_mul, IDENTITY, cap=1000)


def gamma_reflections() -> tuple[list[QMat2], list[QMat2]]:
    """(census, expected): non-central involutions vs the ten listed products."""
    group = gamma_group()
    t = group.table
    central = [
        i
        for i in range(len(group))
        if all(t[i][j] == t[j][i] for j in range(len(group)))
    ]
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
