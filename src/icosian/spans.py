"""Exact linear spans and generated matrix algebras over the golden field.

A 2x2 quaternion matrix has 16 golden-field coordinates, held as 32 Z[sqrt5]
integers over one denominator (``QMat2.ints``); spans and product-closures
pass those integers straight to the exact elimination, so neither builds a
Gold value (``flatten`` gives the coordinates as Golds).  Up to 16 elements
of G are ranked instead by their Gram matrix under the trace form, read off
the Cayley table and one trace value per element.  The reports certify the
small generated algebras (the commutative rank-3 one, its rank-6 extension
with a complex corner and a quaternion corner, and the full 16-dimensional
algebra generated by the reflections).
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from math import lcm

from .claim import Claim
from .goldnum import flatten  # noqa: F401  (re-exported: the coordinates as Golds)
from .groupkit import ClosureError
from .linalg import Echelon, rank
from .qmat2 import IDENTITY, QMat2, ZERO
from .quat import ONE as Q_ONE, PHI, THETA, ZERO as Q_ZERO
from .reflgroup import THIRD, build_o1, generators, reflection_matrices


def span_dim(mats: list[QMat2]) -> int:
    """Golden-field dimension of the span of the matrices.

    Up to 16 elements of G take the Gram route (``gram_rank``), by their
    indices; any other matrix, and more than 16 inputs, are ranked on their
    32 integers each, an elimination that stops at rank 16.
    """
    if len(mats) <= 16:
        index = build_o1().index
        try:
            indices = [index(m) for m in mats]
        except ClosureError:  # a matrix outside G: only its own rows rank it
            pass
        else:
            return gram_rank(indices)
    return rank([m.ints for m in mats])


def trace_pairs(elements: Sequence[QMat2], inverse: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """tau(m) = Re m11 + Re m22 of each element (``QMat2.re_trace``), as
    Z[sqrt5] integer pairs over one common denominator.

    The group must be unitary, x* = x^-1, for ``gram_rank`` to be sound, so
    every element's conjugate transpose is first compared, on the integers,
    with the element ``inverse`` names; a mismatch raises ValueError.
    """
    for m, k in zip(elements, inverse, strict=True):
        if m.adjoint() != elements[k]:
            raise ValueError(f"{m!r} is not unitary: its conjugate transpose"
                             " is not its inverse")
    den = lcm(*[m.den for m in elements])
    return tuple([tuple([v * (den // m.den) for v in m.re_trace()]) for m in elements])


@cache
def g_trace_pairs() -> tuple[tuple[int, int], ...]:
    """``trace_pairs`` of G, built on the first Gram query and kept."""
    group = build_o1()
    return trace_pairs(group.elements, group.inverse)


def gram_rank(indices: Sequence[int]) -> int:
    """Rank of the span of the elements of G with these indices, as the rank
    of their Gram matrix [tau(x_i^-1 x_j)], with x_i^-1 x_j read off the
    Cayley table.

    Sound since G is unitary (``trace_pairs`` checks it): x* = x^-1, so
    tau(x^-1 y) = Re tr(x* y), the sum over the 16 coordinates of x times
    those of y, as Re(conj(a) b) is the dot product of quaternions a, b.
    So the Gram matrix is A A^T for the k x 16 coordinate matrix A.  Under
    either real embedding of Q(sqrt5), which changes no rank, that form is
    a sum of squares, positive definite: A A^T v = 0 gives
    |A^T v|^2 = v^T A A^T v = 0, so A^T v = 0.  The two kernels agree, so
    the Gram matrix has the rank of the vectors, and k inputs make a k x k
    system in place of k rows of 16 coordinates.
    """
    group = build_o1()
    table, inverse, tau = group.table, group.inverse, g_trace_pairs()
    rows = []
    for i in indices:
        row = table[inverse[i]]
        rows.append([v for j in indices for v in tau[row[j]]])
    return rank(rows)


def algebra_closure(mats: list[QMat2]) -> tuple[int, list[QMat2]]:
    """Smallest product-closed subspace containing mats, for any matrices.

    Returns its dimension and a matrix basis.  This exact closure is the
    certificate behind the ``algebra.dims`` check and the only route for
    matrices outside G.  Closes on generator edges:
    each basis element is multiplied once on the left by each independent
    input, and products that enlarge the span join the basis and take their
    turn later.  This is sound: the algebra is spanned by the words in the
    inputs, every word longer than one letter is s*w with s an input and w a
    shorter word, left multiplication by s is linear, and a dependent input
    acts as a combination of the independent ones.  So the final span, which
    holds the inputs and is mapped into itself by left multiplication with
    each independent input, holds every word; each basis element is a word.
    """
    ech = Echelon(16)
    inputs: list[QMat2] = []
    for m in mats:
        if ech.add(m.ints):
            inputs.append(m)
    basis = list(inputs)
    k = 0
    # a span of all 16 coordinates is the whole matrix algebra, closed already
    while k < len(basis) and ech.dim < ech.width:
        w = basis[k]
        for s in inputs:
            p = s * w
            if ech.add(p.ints):
                basis.append(p)
        k += 1
    return ech.dim, basis


def algebra_closure_dim(mats: list[QMat2]) -> int:
    """Dimension of the algebra that elements of G generate, by index work.

    Inside a finite group the generated algebra is the span of the generated
    subgroup H: the algebra holds H, since each inverse is a positive power,
    and the span of H is closed under products, since H is a group.  So the
    inputs' indices are closed to H on the Cayley table and the rank of H's
    elements is returned; no matrix product is made.  The rank is a function
    of H alone, so it is taken once per subgroup (G has 76) and memoised on
    H's index set.  ``[]`` gives 0, as the algebra has no unit of its own.
    A matrix outside G raises ClosureError, a ValueError
    (``algebra_closure`` takes any matrices).  The first call builds G.
    """
    if not mats:
        return 0
    group = build_o1()
    return subgroup_span_dim(group.subgroup_indices([group.index(m) for m in mats]))


@cache
def subgroup_span_dim(sub: frozenset[int]) -> int:
    """Rank of the span of the subgroup of G with these indices."""
    elements = build_o1().elements
    return span_dim([elements[i] for i in sub])


def is_galois_stable(mats: list[QMat2]) -> bool:
    """Whether the span is preserved by the sqrt5 -> -sqrt5 automorphism."""
    ech = Echelon(16)
    for m in mats:
        ech.add(m.ints)
    return all(ech.contains(m.galois().ints) for m in mats)


def _eq_check(name: str, got: QMat2, want: QMat2) -> Claim:
    return Claim(name, want.key(), got.key(), got == want)


@cache
def neutrino_dims() -> tuple[int, int]:
    """Dimensions of the algebras generated by 1, g, g^2 and with h adjoined."""
    _, g, h = generators()
    return (algebra_closure([IDENTITY, g, g * g])[0],
            algebra_closure([IDENTITY, g, g * g, h])[0])


@cache
def reflection_dims() -> tuple[int, int]:
    """Dimensions of the algebra the 20 reflections generate and of the span
    of the 120 group elements."""
    return (algebra_closure(list(reflection_matrices()))[0],
            subgroup_span_dim(build_o1().whole))


@cache
def neutrino_basis() -> tuple[QMat2, QMat2, QMat2, QMat2, QMat2, QMat2]:
    """(e1, e2, t, y, a, b): the six displayed combinations of 1, g, h."""
    _, g, h = generators()
    one, third = IDENTITY, QMat2.diag(THIRD, THIRD)
    g2 = g * g
    e1 = third * (one + g + g2)               # diag(0, 1)
    e2 = third * (one + one - g - g2)         # diag(1, 0)
    t = g - g2                                # diag(theta, 0)
    y = h * e1                                # diag(0, phi)
    a = h * e2                                # diag(phi, 0)
    b = h * t                                 # diag(phi*theta, 0)
    return e1, e2, t, y, a, b


def neutrino_algebra_report() -> list[Claim]:
    """Certify the rank-3 commutative algebra and its rank-6 extension.

    The six displayed diagonal forms are checked exactly, along with the
    idempotent laws and the corner multiplication tables (a complex corner
    on e1, a quaternion corner on e2).
    """
    _, g, _ = generators()
    e1, e2, t, y, a, b = neutrino_basis()
    dim3, dim6 = neutrino_dims()
    stable = is_galois_stable([IDENTITY, g, g * g])
    checks = [
        _eq_check("(1+g+g^2)/3 = diag(0,1)", e1, QMat2.diag(Q_ZERO, Q_ONE)),
        _eq_check("(2-g-g^2)/3 = diag(1,0)", e2, QMat2.diag(Q_ONE, Q_ZERO)),
        _eq_check("g-g^2 = diag(theta,0)", t, QMat2.diag(THETA, Q_ZERO)),
        _eq_check("h(1+g+g^2)/3 = diag(0,phi)", y, QMat2.diag(Q_ZERO, PHI)),
        _eq_check("h(2-g-g^2)/3 = diag(phi,0)", a, QMat2.diag(PHI, Q_ZERO)),
        _eq_check("h(g-g^2) = diag(phi*theta,0)", b, QMat2.diag(PHI * THETA, Q_ZERO)),
        _eq_check("e1 idempotent", e1 * e1, e1),
        _eq_check("e2 idempotent", e2 * e2, e2),
        _eq_check("e1*e2 = 0", e1 * e2, ZERO),
        _eq_check("e2*e1 = 0", e2 * e1, ZERO),
        _eq_check("e1+e2 = identity", e1 + e2, IDENTITY),
        # quaternion corner on e2: basis 1, phi, theta, phi*theta
        _eq_check("corner phi^2 = -1", a * a, -e2),
        _eq_check("corner theta^2 = -3", t * t, -e2 - e2 - e2),
        _eq_check("corner phi*theta anticommutes", a * t, -(t * a)),
        _eq_check("corner (phi)(theta) = phi*theta", a * t, b),
        # complex corner on e1: basis 1, phi
        _eq_check("corner y^2 = -e1", y * y, -e1),
        _eq_check("corners commute: y*a = 0", y * a, ZERO),
        Claim.of("dim of algebra <1,g,g^2>", 3, dim3),
        Claim.of("dim with h adjoined", 6, dim6),
        # the rank-6 span is not galois-stable (phi's corner spans only
        # {1, phi}); its golden dimension still equals the real dimension
        # because golden scalars embed in the reals, so stability is not
        # asserted here
        Claim.of("galois-stable rank-3 span", True, stable),
    ]
    return checks


def _commutator(a: QMat2, b: QMat2) -> QMat2:
    return a * b - b * a


def su2_u1_split_report() -> list[Claim]:
    """Certify the corner split of the rank-6 algebra into su(2)-like and
    u(1)-like parts.

    The three first-corner generators close under commutation with golden
    coefficients; the second-corner generator commutes with all of them.
    """
    e1, e2, t, y, a, b = neutrino_basis()
    checks = [
        _eq_check("a acts in first corner only", e2 * a * e2, a),
        _eq_check("t acts in first corner only", e2 * t * e2, t),
        _eq_check("b acts in first corner only", e2 * b * e2, b),
        _eq_check("y acts in second corner only", e1 * y * e1, y),
        _eq_check("[a,t] = 2b", _commutator(a, t), b + b),
        _eq_check("[a,b] = -2t", _commutator(a, b), -(t + t)),
        _eq_check("[t,b] = 6a", _commutator(t, b), a + a + a + a + a + a),
        _eq_check("a anticommutes with t", a * t, -(t * a)),
        _eq_check("a anticommutes with b", a * b, -(b * a)),
        _eq_check("t anticommutes with b", t * b, -(b * t)),
        _eq_check("a^2 = -e2 corner identity", a * a, -e2),
        _eq_check("[y,a] = 0", _commutator(y, a), ZERO),
        _eq_check("[y,t] = 0", _commutator(y, t), ZERO),
        _eq_check("[y,b] = 0", _commutator(y, b), ZERO),
    ]
    return checks


def reflection_algebra_report() -> list[Claim]:
    """The 20 reflections generate the full 16-dimensional matrix algebra;
    the 120 group elements span no more."""
    dim_refl, dim_group = reflection_dims()
    stable = is_galois_stable(list(reflection_matrices()))
    return [
        Claim.of("algebra generated by 20 reflections", 16, dim_refl),
        Claim.of("span of all 120 group elements", 16, dim_group),
        Claim.of("galois-stable reflection span", True, stable),
    ]
