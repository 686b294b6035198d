"""Character table of the order-120 group, tensor decompositions, branching.

The nine irreducible characters are built from exact data: the unit-quaternion
lift, a group closure matched to G's Cayley graph, gives the two
2-dimensional characters (swapped by the golden Galois map), the conjugation
action on pure quaternions gives the 3-dimensional ones, the matrix
representation itself gives 4b, and the remaining three are defined by
tensor products and validated by exact orthonormality.

A class function is a ``CharVector``, a GoldVector of its nine values: 18
Z[sqrt5] integers over one denominator, in class order.  Construction,
products, sums, the Galois map, decomposition (the one inner product with
the irreducibles, which certifies the table) and branching (a recursion in
CharVector products) run on those integers, in ``LABELS`` order.
"""
from __future__ import annotations

from functools import cache, cached_property
from math import lcm
from operator import mul

from .goldnum import GoldVector, dot_pairs, flatten, gold_str
from .groupkit import ClosureError, FiniteGroup
from .qmat2 import QMat2
from .quat import I, OMEGA, ONE as Q_ONE, PHI, Quat
from .reflgroup import build_o1, word_string

LABELS = ("1", "2a", "2b", "3a", "3b", "4a", "4b", "5", "6")


class CharVector(GoldVector):
    """A class function: one value per conjugacy class, in class order."""

    __slots__ = ()

    def degree(self) -> int:
        """chi(1), the value on the identity class, which comes first."""
        return self.ints[0] // self.den

    def __mul__(self, other: "CharVector") -> "CharVector":
        if other.__class__ is not self.__class__:
            return NotImplemented
        # pointwise (a + b*sqrt5)(c + d*sqrt5) = (ac + 5bd) + (ad + bc)*sqrt5
        x, y = self.ints, other.ints
        out = []
        for a, b, c, d in zip(x[0::2], x[1::2], y[0::2], y[1::2], strict=True):
            out += (a * c + 5 * b * d, a * d + b * c)
        return CharVector._reduced(out, self.den * other.den)


def build_quat_lift(group: FiniteGroup[QMat2]) -> tuple[Quat, ...]:
    """Unit-quaternion image of every element: the closure of the images
    f -> i, g -> omega, h -> phi, whose Cayley graph must equal the group's.

    Equal labelled graphs give lift[edges[i][s]] == lift[i] * images[s] on
    every edge, |G|*|S| products made once by the closure; by induction on
    word length the lift is multiplicative on all |G|^2 pairs.  Otherwise
    (a different graph, or a closure past |G|) it raises ValueError.
    """
    try:
        lift = FiniteGroup.closure((I, OMEGA, PHI), mul, Q_ONE, cap=len(group))
    except ClosureError:
        raise ValueError("quaternion lift is not multiplicative") from None
    if lift.edges != group.edges:
        raise ValueError("quaternion lift is not multiplicative")
    return tuple(lift.elements)


class CharTable:
    """The nine irreducible characters over the nine conjugacy classes."""

    def __init__(self, group: FiniteGroup[QMat2]):
        self.group = group
        self.lift = build_quat_lift(group)
        part = group.conjugacy
        self.partition = part
        self.classes = part.classes
        self.class_sizes = tuple(len(c) for c in self.classes)
        self.class_orders = tuple(group.element_order(min(c)) for c in self.classes)
        self.class_reps = tuple(min(c) for c in self.classes)
        self.irreducibles = self._build()
        self.by_label = dict(zip(LABELS, self.irreducibles))
        # one multiplicity 1 and eight 0s per irreducible: all 81 pairings
        for label, chi in self.by_label.items():
            if self.decompose(chi) != {label: 1}:
                raise ValueError(f"character {label} is not irreducible")
        self._spins: list[CharVector] = []  # hyperspin(0), hyperspin(1), ...

    # -- construction ---------------------------------------------------

    def class_function(self, fn) -> CharVector:
        """Build a CharVector from an element-indexed function, checking
        constancy on classes.  fn(i) is (a, b, d), the value (a + b*sqrt5)/d
        as Z[sqrt5] integers over d > 0, compared on the integers."""
        values = []
        for cls, rep in zip(self.classes, self.class_reps):
            a, b, d = fn(rep)
            for i in cls:
                x, y, e = fn(i)
                if x * d != a * e or y * d != b * e:
                    raise ValueError("function is not constant on a conjugacy class")
            values.append((a, b, d))
        den = lcm(*[d for _, _, d in values])
        return CharVector._reduced([v * (den // d) for a, b, d in values for v in (a, b)], den)

    def _build(self) -> tuple[CharVector, ...]:
        """The irreducibles in LABELS order."""
        lift, elements = self.lift, self.group.elements

        def two_w(i):
            # twice the real part w = (a + b*sqrt5)/d of the lift
            (a, b), d = lift[i].re(), lift[i].den
            return 2 * a, 2 * b, d

        def trace_3a(i):
            # conjugation action on pure quaternions: trace 4*w^2 - 1
            (a, b), d = lift[i].re(), lift[i].den
            return 4 * (a * a + 5 * b * b) - d * d, 8 * a * b, d * d

        def trace_4b(i):
            # 2*(Re m11 + Re m22): the trace of the 4-dim complexification
            a, b = elements[i].re_trace()
            return 2 * a, 2 * b, elements[i].den

        chi1 = CharVector._canonical((1, 0) * len(self.classes), 1)
        chi2a = self.class_function(two_w)
        chi2b = chi2a.galois()
        chi3a = self.class_function(trace_3a)
        chi3b = chi3a.galois()
        chi4b = self.class_function(trace_4b)
        chi4a = chi2a * chi2b
        chi5 = chi2b * chi4b - chi3b
        chi6 = chi2b * chi3a
        return (chi1, chi2a, chi2b, chi3a, chi3b, chi4a, chi4b, chi5, chi6)

    # -- arithmetic -----------------------------------------------------

    def columns_orthogonal(self) -> bool:
        """Whether the sum over characters of chi(c)*chi(d) is |G|/size(c) for
        classes c == d and 0 otherwise, on Z[sqrt5] integers: weighting
        character k by (den/den_k)^2 puts every product over den^2."""
        den = lcm(*[chi.den for chi in self.irreducibles])
        weights = [(den // chi.den) ** 2 for chi in self.irreducibles]
        columns = [[v for chi in self.irreducibles for v in chi.ints[2 * c:2 * c + 2]]
                   for c in range(len(self.classes))]
        return all(
            tuple(v * self.class_sizes[c] for v in dot_pairs(x, y, weights))
            == ((len(self.group) * den * den, 0) if c == d else (0, 0))
            for c, x in enumerate(columns)
            for d, y in enumerate(columns)
        )

    def decompose(self, chi: CharVector) -> dict[str, int]:
        """Multiplicities of the irreducibles in chi; exact reconstruction
        is enforced.  One pass on Z[sqrt5] integers: with chi = x/p and each
        irreducible y/q, its multiplicity is the sum of size*x*y over p*q*|G|,
        read as two integer dot products of x with the irreducible's weight
        rows; the sum of m*y, over the least common q, must equal chi."""
        x, p = self._values(chi), chi.den
        den = lcm(*[irr.den for irr in self.irreducibles])
        mults: dict[str, int] = {}
        recon = [0] * len(x)
        for label, irr, (w_rat, w_root) in zip(LABELS, self.irreducibles, self._weights):
            rat, root = sum(map(mul, x, w_rat)), sum(map(mul, x, w_root))
            n = p * irr.den * len(self.group)
            m, rest = divmod(rat, n)
            if root or rest or m < 0:
                raise ValueError(f"multiplicity of {label} is {gold_str(rat, root, n)},"
                                 " not a non-negative integer")
            if m:
                mults[label] = m
                f = m * (den // irr.den)
                recon = [r + f * v for r, v in zip(recon, irr.ints)]
        if [r * p for r in recon] != [v * den for v in x]:
            raise ValueError("decomposition does not reconstruct the character")
        return mults

    @cached_property
    def _weights(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per irreducible y, the rows w_rat, w_root with sum(x * w_rat) and
        sum(x * w_root) the rational and sqrt5 parts of the sum of size*x*y,
        for x in ``integer_pairs`` form: (a + a5 sqrt5)(b + b5 sqrt5) =
        (ab + 5 a5 b5) + (a b5 + a5 b) sqrt5."""
        rows = []
        for irr in self.irreducibles:
            w_rat, w_root = [], []
            for s, b, b5 in zip(self.class_sizes, irr.ints[0::2], irr.ints[1::2]):
                w_rat += (s * b, 5 * s * b5)
                w_root += (s * b5, s * b)
            rows.append((tuple(w_rat), tuple(w_root)))
        return tuple(rows)

    def _values(self, chi: CharVector) -> tuple[int, ...]:
        """chi's integers, checked to hold one value per class."""
        if len(chi.ints) != 2 * len(self.classes):
            raise ValueError(f"class function has {len(chi.ints) // 2} values,"
                             f" not {len(self.classes)}")
        return chi.ints

    def fs_indicator(self, chi: CharVector) -> int:
        """Frobenius-Schur indicator (1/|G|) sum chi(x^2): the inner product
        of the class function x -> chi(x^2) with the trivial character, on
        Z[sqrt5] integers.  Squaring maps each class into one class, so that
        function is read at the class representatives."""
        x, t, class_of = self._values(chi), self.group.table, self.partition.class_of
        pairs = list(zip(x[0::2], x[1::2]))
        squares = [v for r in self.class_reps for v in pairs[class_of[t[r][r]]]]
        rat, root = dot_pairs(squares, self.by_label["1"].ints, self.class_sizes)
        n = chi.den * len(self.group)
        ind, rest = divmod(rat, n)
        if root or rest or abs(ind) > 1:
            raise ValueError(f"indicator {gold_str(rat, root, n)} outside {{-1, 0, 1}}")
        return ind

    # -- branching from the ambient SU(2) -------------------------------

    def hyperspin(self, two_j: int) -> CharVector:
        """Restriction character for the spin-(two_j/2) representation, by
        chi_{n+1} = chi_2a * chi_n - chi_{n-1} from chi_0 = 1 and
        chi_1 = chi_2a, in CharVector arithmetic.  The characters are kept
        as one sequence, extended only past the largest two_j asked so far."""
        if two_j < 0:
            raise ValueError("two_j must be non-negative")
        spins, x = self._spins, self.by_label["2a"]
        if not spins:
            spins.append(self.by_label["1"])
        while len(spins) <= two_j:
            spins.append(x * spins[-1] - spins[-2] if len(spins) > 1 else x)
        return spins[two_j]

    def hyperspin_table(self, max_two_j: int) -> list[tuple[int, dict[str, int]]]:
        return [(tj, self.decompose(self.hyperspin(tj))) for tj in range(max_two_j + 1)]

    def to_json(self) -> dict:
        return {
            "classes": [
                {
                    "size": s,
                    "element_order": o,
                    "representative_word": word_string(r),
                }
                for s, o, r in zip(self.class_sizes, self.class_orders, self.class_reps)
            ],
            "irreducibles": [{"label": label, "values": [v.to_json() for v in flatten(chi)]}
                             for label, chi in self.by_label.items()],
        }


@cache
def char_table() -> CharTable:
    return CharTable(build_o1())


def format_decomposition(mults: dict[str, int]) -> str:
    parts = []
    for label in LABELS:
        parts += [label] * mults.get(label, 0)
    return "+".join(parts)


# -- gauge dimension bookkeeping ----------------------------------------

# The paper's choice, not a fact of G: the dimensions the rank-4 gauge group
# keeps of each symplectic factor (2a, 2b, 4b, 6), and how the loss splits.
KEPT_DIMS = (3, 1, 3, 8)
LOST_SPLIT_DETAIL = ((2,), (1, 3, 3), (1, 6, 6))


def gauge_bookkeeping() -> tuple[dict, dict]:
    """Dimension count for cutting the symplectic factors of R[G] down to the
    familiar rank-4 gauge group, for both allocations of weak SU(2) vs
    non-relativistic spin; the numbers coincide, only the interpretation
    differs.

    A character of indicator -1 and dimension d gives a factor M_{d/2}(H),
    whose unit group Sp(d/2) has dimension (d/2)(d+1); these are read off
    the table in LABELS order and paired with KEPT_DIMS one to one."""
    ct = char_table()
    dims = [chi.degree() for chi in ct.irreducibles if ct.fs_indicator(chi) == -1]
    symplectic = [d * (d + 1) // 2 for d in dims]
    lost_per_factor = [s - k for s, k in zip(symplectic, KEPT_DIMS, strict=True)]
    split = [sum(part) for part in LOST_SPLIT_DETAIL]
    # equal multisets of nonzero losses: so the split also sums to the loss
    if sorted(split) != sorted(x for x in lost_per_factor if x):
        raise ValueError("split does not match per-factor losses")
    total, kept = sum(symplectic), sum(KEPT_DIMS)
    return tuple({
        "variant": variant,
        "symplectic_dims": list(symplectic),
        "kept_dims": list(KEPT_DIMS),
        "total": total,
        "kept": kept,
        "lost": total - kept,
        "lost_split": list(split),
        "lost_split_detail": [list(part) for part in LOST_SPLIT_DETAIL],
    } for variant in ("spin-on-2a-weak-on-4b", "spin-on-4b-weak-on-2a"))
