"""The order-120 quaternionic reflection group on 2 spinor coordinates.

The group G is closed once, from the f, g, h generator matrices.  Its
defining relations, words and subgroups (the diagonal subgroup, the group
the 20 order-3 reflections of the 120 norm-3 roots generate) are index work
on that closure's Cayley graph, as are the Clifford relations of the order-32
gamma group closed from the four gamma matrices of signature (1,3).
"""
from __future__ import annotations

from functools import cache
from operator import mul

from .goldnum import Gold
from .groupkit import FiniteGroup
from .qmat2 import IDENTITY, MINUS_IDENTITY, QMat2, Spinor2, ZERO, spinor_norm2
from .quat import I, J, K, OMEGA, ONE as Q_ONE, PHI, Quat, THETA, ZERO as Q_ZERO, scalar_group

THIRD = Quat.of(Gold(1, 0, 3))
LETTERS = "fgh"  # the generators, in closure order


@cache
def generators() -> tuple[QMat2, QMat2, QMat2]:
    """The (f, g, h) matrix generators; ``build_o1`` checks their relations.

    f is built from the conjugate cube root w = omega^2: with omega itself G
    still closes at 120 but (fg)^3 = -1, so only that relation fails; g =
    diag(omega, 1) pins the choice.  Both satisfy the scalar relations.
    """
    w = OMEGA * OMEGA
    w2 = OMEGA
    c = (w - w2) * THIRD
    f = QMat2.diag(c, c) * QMat2(
        Q_ONE, w2 * PHI - w,
        w2 * PHI - w2, w * PHI,
    )
    g = QMat2.diag(OMEGA, Q_ONE)
    h = QMat2.diag(PHI, PHI)
    return f, g, h


# A relation (lhs, sign, rhs) says lhs = sign * rhs in a group's letters, '' for 1
G_RELATIONS = (("ff", -1, ""), ("ghgh", -1, ""), ("hh", -1, ""),
               ("ggg", 1, ""), ("fgfgfg", 1, ""), ("fhfhfh", 1, ""))


def closure_with_relations(gens: tuple[QMat2, ...], letters: str, relations: tuple,
                           cap: int = 10_000) -> FiniteGroup[QMat2]:
    """Close the group of the generators, one letter each, and read both
    sides of each relation on its Cayley graph by ``word_index``, -1 along
    the word of MINUS_IDENTITY.  Raises ValueError naming each failing one."""
    group = FiniteGroup.closure(list(gens), mul, IDENTITY, cap=cap)
    try:
        minus = group.word(group.index(MINUS_IDENTITY))
    except KeyError:  # no -I: each relation with sign -1 fails
        minus = None
    failed = []
    for lhs, sign, rhs in relations:
        prefix = () if sign > 0 else minus
        if prefix is None or (group.word_index(map(letters.index, lhs))
                              != group.word_index([*prefix, *map(letters.index, rhs)])):
            failed.append(f"{lhs} = {'-' if sign < 0 else ''}{rhs or '1'}")
    if failed:
        raise ValueError(f"relations fail: {'; '.join(failed)}")
    return group


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
    three = Q_ONE + Q_ONE + Q_ONE
    for sp in flat:
        if spinor_norm2(sp) != three:
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
    """The full group from the f, g, h generators, closed up to 1000 elements
    and G_RELATIONS checked on its Cayley graph; group.order certifies 120."""
    return closure_with_relations(generators(), LETTERS, G_RELATIONS, cap=1000)


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


def group_reflections(group: FiniteGroup[QMat2]) -> list[int]:
    """Indices of order-3 elements with a nontrivial fixed space.

    For m with m^3 = 1, (1 + m + m^2)/3 projects onto Fix(m) = {x : m x = x}:
    (m - 1)(1 + m + m^2) = m^3 - 1 = 0, so its image is fixed, and it is the
    identity on a fixed vector.  So Fix(m) is nonzero exactly when
    1 + m + m^2 is, with m^2 read off the table.
    """
    t, elements = group.table, group.elements
    return [
        i
        for i in range(len(group))
        if group.element_order(i) == 3
        and IDENTITY + elements[i] + elements[t[i][i]] != ZERO
    ]


def two_reflection_census(group: FiniteGroup[QMat2]) -> int:
    """How many non-reflection elements are products of two reflections."""
    refl = {group.index(m) for m in reflection_matrices()}
    t = group.table
    products = {t[a][b] for a in refl for b in refl}
    return sum(1 for x in range(len(group)) if x not in refl and x in products)


GAMMA_LETTERS = "0123"  # gamma_0 .. gamma_3, in closure order
GAMMA_RELATIONS = (("00", 1, ""), ("11", -1, ""), ("22", -1, ""), ("33", -1, ""),
                   ("01", -1, "10"), ("02", -1, "20"), ("03", -1, "30"),
                   ("12", -1, "21"), ("13", -1, "31"), ("23", -1, "32"))


@cache
def gamma_matrices() -> tuple[QMat2, QMat2, QMat2, QMat2]:
    """Gamma matrices for signature (1,3) inside the 2x2 quaternion algebra."""
    return (QMat2.diag(Q_ONE, -Q_ONE), QMat2.offdiag(I, I),
            QMat2.offdiag(J, J), QMat2.offdiag(K, K))


@cache
def gamma_group() -> FiniteGroup[QMat2]:
    """The group the gammas generate, GAMMA_RELATIONS checked on its Cayley
    graph; the check gamma.group certifies that it closes at order 32."""
    return closure_with_relations(gamma_matrices(), GAMMA_LETTERS, GAMMA_RELATIONS, cap=1000)


def gamma_reflections() -> tuple[list[int], list[int]]:
    """(census, expected) as indices: non-central involutions vs the listed words."""
    group = gamma_group()
    t, minus = group.table, group.index(MINUS_IDENTITY)
    central = {i for cls in group.conjugacy.classes if len(cls) == 1 for i in cls}
    census = [i for i in range(len(group)) if i not in central and t[i][i] == 0]
    listed = [group.word_index(map(GAMMA_LETTERS.index, w))
              for w in ("0", "01", "02", "03", "123")]
    return census, listed + [t[minus][i] for i in listed]
