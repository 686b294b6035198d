"""Character table of the order-120 group, tensor decompositions, branching.

The nine irreducible characters are built from exact data: the unit-quaternion
lift gives the two 2-dimensional characters (swapped by the golden Galois
map), the conjugation action on pure quaternions gives the 3-dimensional
ones, the matrix representation itself gives 4b, and the remaining three are
defined by tensor products and validated by exact orthonormality.
"""
from __future__ import annotations

from functools import cache

from .goldnum import Gold, ONE as G_ONE, dot, dot_pairs, integer_pairs
from .groupkit import FiniteGroup
from .qmat2 import QMat2
from .quat import I, OMEGA, ONE as Q_ONE, PHI, Quat
from .record import Record
from .reflgroup import build_o1, word_string

LABELS = ("1", "2a", "2b", "3a", "3b", "4a", "4b", "5", "6")


class CharVector(Record):
    """A class function with Gold values, one per conjugacy class."""

    __slots__ = ("values", "label")

    def __init__(self, values: tuple[Gold, ...], label: str | None = None):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "label", label)

    @property
    def dim(self) -> Gold:
        return self.values[0]  # identity class is first

    def __add__(self, other: "CharVector") -> "CharVector":
        return CharVector(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "CharVector") -> "CharVector":
        return CharVector(tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "CharVector") -> "CharVector":
        return CharVector(tuple(a * b for a, b in zip(self.values, other.values)))

    def galois(self) -> "CharVector":
        return CharVector(tuple(v.galois() for v in self.values))

    def relabel(self, label: str) -> "CharVector":
        return CharVector(self.values, label)

    def to_json(self) -> dict:
        return {"label": self.label, "values": [v.to_json() for v in self.values]}


def build_quat_lift(group: FiniteGroup[QMat2]) -> tuple[Quat, ...]:
    """Unit-quaternion image of every element, along its BFS word.

    The lift is checked on every Cayley-graph edge,
    lift[edges[i][s]] == lift[i] * images[s], which is |G|*|S| products; by
    induction on word length this makes it multiplicative on all |G|^2
    pairs.  Failure would mean the assignment is not a homomorphism.
    """
    images = (I, OMEGA, PHI)
    lift = [Q_ONE]
    for k in range(1, len(group)):
        lift.append(lift[group.parent[k]] * images[group.letter[k]])
    for i, row in enumerate(group.edges):
        for s, target in enumerate(row):
            if lift[target] != lift[i] * images[s]:
                raise ValueError("quaternion lift is not multiplicative")
    return tuple(lift)


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
        self.by_label = {chi.label: chi for chi in self.irreducibles}
        # decompose's irreducibles as Z[sqrt5] integers over one denominator
        ys, self._irr_den = integer_pairs([v for irr in self.irreducibles for v in irr.values])
        n = 2 * len(self.classes)
        self._irr_ints = [ys[k:k + n] for k in range(0, len(ys), n)]
        # hyperspin's 2a as integer pairs over 2; halving its recursion's
        # products is exact when they lie in Z[phi], a = b mod 2
        ints, den = integer_pairs(self.by_label["2a"].values)
        self._two_a = [(c * 2 // den, d * 2 // den) for c, d in zip(ints[0::2], ints[1::2])]
        self._two_a_in_z_phi = not (2 % den or any((c - d) % 2 for c, d in self._two_a))

    # -- construction ---------------------------------------------------

    def class_function(self, fn) -> CharVector:
        """Build a CharVector from an element-indexed function, checking
        constancy on classes.  fn(i) is (a, b, d), the value (a + b*sqrt5)/d
        as Z[sqrt5] integers over d > 0, compared on the integers; one Gold
        is built per class."""
        values = []
        for cls, rep in zip(self.classes, self.class_reps):
            a, b, d = fn(rep)
            for i in cls:
                x, y, e = fn(i)
                if x * d != a * e or y * d != b * e:
                    raise ValueError("function is not constant on a conjugacy class")
            values.append(Gold(a, b, d))
        return CharVector(tuple(values))

    def _build(self) -> tuple[CharVector, ...]:
        lift = self.lift

        def two_w(i):
            # twice the real part w = (a + b*sqrt5)/d of the lift
            (a, b), d = lift[i].ints[0:2], lift[i].den
            return 2 * a, 2 * b, d

        def trace_3a(i):
            # conjugation action on pure quaternions: trace 4*w^2 - 1
            (a, b), d = lift[i].ints[0:2], lift[i].den
            return 4 * (a * a + 5 * b * b) - d * d, 8 * a * b, d * d

        chi1 = CharVector(tuple(G_ONE for _ in self.classes), "1")
        chi2a = self.class_function(two_w).relabel("2a")
        chi2b = chi2a.galois().relabel("2b")
        chi3a = self.class_function(trace_3a).relabel("3a")
        chi3b = chi3a.galois().relabel("3b")
        chi4b = self.class_function(
            lambda i: _triple(self.group.elements[i].complex_char_trace())
        ).relabel("4b")
        chi4a = (chi2a * chi2b).relabel("4a")
        chi6 = (chi2b * chi3a).relabel("6")
        chi5 = (chi2b * chi4b - chi3b).relabel("5")
        irr = (chi1, chi2a, chi2b, chi3a, chi3b, chi4a, chi4b, chi5, chi6)
        irr = tuple(sorted(irr, key=lambda c: LABELS.index(c.label)))
        for chi in irr:
            if self.inner(chi, chi) != G_ONE:
                raise ValueError(f"character {chi.label} is not irreducible")
        return irr

    # -- arithmetic -----------------------------------------------------

    def inner(self, chi: CharVector, psi: CharVector) -> Gold:
        """(1/|G|) sum over classes of size * chi * psi (real-valued table),
        summed on Z[sqrt5] integers."""
        return dot(chi.values, psi.values, self.class_sizes, len(self.group))

    def decompose(self, chi: CharVector) -> dict[str, int]:
        """Multiplicities of the irreducibles in chi; exact reconstruction
        is enforced.  One pass on Z[sqrt5] integers: with chi = x/p and the
        irreducibles y/q, the sum of m*y must equal x*q/p."""
        x, p = integer_pairs(chi.values)
        q = self._irr_den
        den = p * q * len(self.group)
        mults: dict[str, int] = {}
        recon = [0] * len(x)
        for irr, y in zip(self.irreducibles, self._irr_ints):
            rat, root = dot_pairs(x, y, self.class_sizes)
            m, rest = divmod(rat, den)
            if root or rest or m < 0:
                raise ValueError(f"multiplicity of {irr.label} is"
                                 f" {Gold(rat, root, den)}, not a non-negative"
                                 " integer")
            if m:
                mults[irr.label] = m
                recon = [r + m * v for r, v in zip(recon, y)]
        if [r * p for r in recon] != [v * q for v in x]:
            raise ValueError("decomposition does not reconstruct the character")
        return mults

    def fs_indicator(self, chi: CharVector) -> int:
        """Frobenius-Schur indicator (1/|G|) sum chi(x^2): the inner product
        of the class function x -> chi(x^2) with the trivial character."""
        table = self.group.table
        class_of = self.partition.class_of
        values = [_triple(v) for v in chi.values]
        squares = self.class_function(lambda i: values[class_of[table[i][i]]])
        ind = self.inner(squares, self.by_label["1"])
        if not ind.is_integer or abs(ind.na) > 1:
            raise ValueError(f"indicator {ind} outside {{-1, 0, 1}}")
        return ind.na

    # -- branching from the ambient SU(2) -------------------------------

    def hyperspin(self, two_j: int) -> CharVector:
        """Restriction character for the spin-(two_j/2) representation, by
        chi_{n+1} = chi_2a * chi_n - chi_{n-1} on Z[sqrt5] integer pairs over
        2: the values lie in Z[phi], pairs (a, b) with a = b mod 2, so halving
        each product (ac + 5bd, ad + bc) is exact."""
        if two_j < 0:
            raise ValueError("two_j must be non-negative")
        if not self._two_a_in_z_phi:
            raise ValueError("character 2a takes a value outside Z[phi]")
        x = self._two_a
        prev, cur = [(0, 0)] * len(x), [(2, 0)] * len(x)  # 2j = -1 and 2j = 0
        for _ in range(two_j):
            prev, cur = cur, [((a * c + 5 * b * d) // 2 - a0, (a * d + b * c) // 2 - b0)
                              for (c, d), (a, b), (a0, b0) in zip(x, cur, prev)]
        return CharVector(tuple(Gold(a, b, 2) for a, b in cur))

    def hyperspin_table(self, max_two_j: int = 7) -> list[tuple[int, dict[str, int]]]:
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
            "irreducibles": [chi.to_json() for chi in self.irreducibles],
        }


def _triple(v: Gold) -> tuple[int, int, int]:
    """v as the (a, b, d) of ``CharTable.class_function``."""
    return v.na, v.nb, v.den


@cache
def char_table() -> CharTable:
    return CharTable(build_o1())


def format_decomposition(mults: dict[str, int]) -> str:
    parts = []
    for label in LABELS:
        parts += [label] * mults.get(label, 0)
    return "+".join(parts)


# -- gauge dimension bookkeeping ----------------------------------------

class GaugeBookkeeping(Record):
    """Dimension count for cutting the four symplectic factors down to the
    familiar rank-4 gauge group."""

    __slots__ = ("variant", "symplectic_dims", "kept_dims", "lost_split_detail")

    def __init__(self, variant: str,
                 symplectic_dims: tuple[int, ...] = (3, 3, 10, 21),
                 kept_dims: tuple[int, ...] = (3, 1, 3, 8),
                 lost_split_detail: tuple[tuple[int, ...], ...] = ((2,), (1, 3, 3), (1, 6, 6))):
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "symplectic_dims", symplectic_dims)
        object.__setattr__(self, "kept_dims", kept_dims)
        object.__setattr__(self, "lost_split_detail", lost_split_detail)

    @property
    def total(self) -> int:
        return sum(self.symplectic_dims)

    @property
    def kept(self) -> int:
        return sum(self.kept_dims)

    @property
    def lost(self) -> int:
        return self.total - self.kept

    @property
    def lost_per_factor(self) -> tuple[int, ...]:
        return tuple(s - k for s, k in zip(self.symplectic_dims, self.kept_dims))

    @property
    def lost_split(self) -> tuple[int, ...]:
        return tuple(sum(part) for part in self.lost_split_detail)

    def check(self) -> None:
        if sum(self.lost_split) != self.lost:
            raise ValueError("lost split does not sum to lost dimensions")
        if sorted(self.lost_split) != sorted(x for x in self.lost_per_factor if x):
            raise ValueError("split does not match per-factor losses")

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "symplectic_dims": list(self.symplectic_dims),
            "kept_dims": list(self.kept_dims),
            "total": self.total,
            "kept": self.kept,
            "lost": self.lost,
            "lost_split": list(self.lost_split),
            "lost_split_detail": [list(p) for p in self.lost_split_detail],
        }


def gauge_bookkeeping() -> tuple[GaugeBookkeeping, GaugeBookkeeping]:
    """Both allocations of weak SU(2) vs non-relativistic spin; the numbers
    coincide, only the interpretation differs."""
    a = GaugeBookkeeping(variant="spin-on-2a-weak-on-4b")
    b = GaugeBookkeeping(variant="spin-on-4b-weak-on-2a")
    a.check()
    b.check()
    return a, b
