from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from icosian import linalg
from icosian.goldnum import Gold, integer_pairs
from icosian.linalg import Echelon, rank
from icosian.reflgroup import build_o1
from icosian.spans import span_dim
from conftest import golds, nonzero_golds


def ints(vec):
    """A Gold vector as an Echelon row: its integer pairs, denominator dropped."""
    return integer_pairs(vec)[0]


def reference_reduce(vec, rows, pivots):
    """Reduce vec modulo reduced echelon rows (leading coefficient 1 at each pivot)."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        if v[p]:
            c = v[p]
            v = [a - c * b for a, b in zip(v, row)]
    return v


class ReferenceEchelon:
    """Reduced row echelon form in Gold arithmetic, with back-substitution."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def contains(self, vec):
        return not any(reference_reduce(vec, self.rows, self.pivots))

    def add(self, vec):
        v = reference_reduce(vec, self.rows, self.pivots)
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is None:
            return False
        inv = v[pivot].inverse()
        v = [a * inv for a in v]
        for k, row in enumerate(self.rows):
            if row[pivot]:
                c = row[pivot]
                self.rows[k] = [a - c * b for a, b in zip(row, v)]
        pos = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.rows))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pivot)
        return True


def primitive(a, b):
    g = gcd(*a, *b)
    return ([x // g for x in a], [x // g for x in b]) if g > 1 else (a, b)


class PerStepPrimitiveEchelon:
    """The integer elimination that makes v primitive after every step and,
    like Echelon, stops at the first nonzero column that has no row; its
    rows, interleaved in ``integer_pairs`` order and stored from the pivot
    on under their pivot column, are Echelon's reference."""

    def __init__(self, width):
        self.rows = [None] * width

    def add(self, vec):
        ints, _ = integer_pairs(vec)
        a, b = ints[0::2], ints[1::2]
        for pivot in range(len(a)):
            c, d = a[pivot], b[pivot]
            if not (c or d):
                continue
            if self.rows[pivot] is None:
                break
            ra, rb = self.rows[pivot]
            n = ra[pivot]
            a, b = primitive([n * x - c * y - 5 * d * z for x, y, z in zip(a, ra, rb)],
                             [n * x - c * z - d * y for x, y, z in zip(b, ra, rb)])
        else:
            return
        c, d = a[pivot], b[pivot]
        if c * c - 5 * d * d < 0:
            c, d = -c, -d
        self.rows[pivot] = primitive([c * x - 5 * d * y for x, y in zip(a, b)],
                                     [c * y - d * x for x, y in zip(a, b)])

    def stored_rows(self):
        return [None if row is None else [x for pair in zip(*row) for x in pair][2 * p:]
                for p, row in enumerate(self.rows)]


def combine(coeffs, rows):
    out = [Gold(0)] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [a + c * b for a, b in zip(out, row)]
    return out


@st.composite
def planted_systems(draw):
    """Rows that are Gold combinations of a few random rows, plus probe vectors."""
    width = draw(st.integers(1, 6))
    vec = st.lists(golds, min_size=width, max_size=width)
    base = draw(st.lists(vec, min_size=1, max_size=4))
    coeffs = st.lists(golds, min_size=len(base), max_size=len(base))
    rows = [combine(draw(coeffs), base) for _ in range(draw(st.integers(1, 6)))]
    probes = [combine(draw(coeffs), base) for _ in range(2)] + draw(st.lists(vec, max_size=2))
    return rows, probes


@given(planted_systems())
# a negative rational pivot, which only changes sign, and a pivot with a
# sqrt5 part, which is multiplied by its conjugate
@example(([[Gold(-3), Gold(1, 1, 2)], [Gold(2), Gold(5)]], [[Gold(1), Gold(0, 1)]]))
@example(([[Gold(1, -1, 2), Gold(3)], [Gold(0, 1), Gold(1, 1)]], [[Gold(2), Gold(1)]]))
def test_elimination_agrees_with_reference(system):
    rows, probes = system
    ref, ech = ReferenceEchelon(), Echelon(len(rows[0]))
    per_step = PerStepPrimitiveEchelon(len(rows[0]))
    for row in rows:
        assert ech.add(ints(row)) == ref.add(row)
        per_step.add(row)
    assert rank([ints(row) for row in rows]) == ech.dim == len(ref.rows)
    # one content gcd per new row leaves the stored rows as they are when v
    # is made primitive after every elimination step
    assert ech.rows == per_step.stored_rows()
    assert all(row[1] == 0 < row[0] for row in ech.rows if row is not None)
    for p in probes + rows:
        assert ech.contains(ints(p)) == ref.contains(p)


def test_a_free_column_before_a_later_pivot_becomes_the_pivot():
    # v is nonzero at column 1, which has no row, before the row with pivot
    # 2: elimination stops there, so v is stored as it came, not reduced
    # against that later row
    ech, ref = Echelon(4), ReferenceEchelon()
    later = [Gold(0), Gold(0), Gold(1), Gold(0, 1)]
    v = [Gold(0), Gold(1, 1, 2), Gold(2, 1), Gold(1)]
    assert ech.add(ints(later)) and ref.add(later)
    assert not ech.contains(ints(v)) and not ref.contains(v)
    assert ech.add(ints(v)) and ref.add(v)
    assert [p for p, row in enumerate(ech.rows) if row] == [1, 2]
    row = ech.rows[1]
    assert len(row) == 6 and row[0] > 0 and row[1] == 0 and any(row[2:4])
    # v's integers over 2 times sqrt5 - 1 (minus the pivot's conjugate, so
    # that the pivot is 4 > 0), from column 1 on and made primitive
    assert row == [2, 0, 3, 1, -1, 1]
    tau = Gold(1, 1, 2)
    probes = [
        [a + b for a, b in zip(v, later)],
        [x * tau for x in v],
        [Gold(0), Gold(0), Gold(0), Gold(3, -1, 2)],
        [Gold(0), Gold(1), Gold(0), Gold(0)],
        [Gold(2), Gold(1), Gold(0, 1), Gold(1)],
        [Gold(1), Gold(0), Gold(0), Gold(0)],
        [Gold(0), Gold(0), Gold(0), Gold(1)],
    ]
    for p in probes:
        assert ech.contains(ints(p)) == ref.contains(p)
        assert ech.add(ints(p)) == ref.add(p)
    assert ech.dim == len(ref.rows) == 4


@given(st.integers(1, 6).flatmap(lambda w: st.tuples(
    st.lists(nonzero_golds, min_size=w, max_size=w),
    st.lists(st.lists(golds, min_size=w, max_size=w), min_size=w, max_size=w))))
def test_full_span_absorbs_everything(data):
    diagonal, fill = data
    width = len(diagonal)
    ech = Echelon(width)
    for i in range(width):
        # a nonzero entry at i and zeros before it: independent rows
        assert ech.add(ints([Gold(0)] * i + [diagonal[i]] + fill[i][i + 1:]))
    assert ech.dim == ech.width == width
    for vec in fill:
        assert not ech.add(ints(vec))
        assert ech.contains(ints(vec))


def test_add_rejects_a_pivot_that_is_not_a_positive_rational_integer(monkeypatch):
    # a corrupted row fails at once, instead of leaving elimination unable
    # to clear its pivot while the rows' integers grow
    primitive = linalg._primitive
    monkeypatch.setattr(linalg, "_primitive", lambda v: [-x for x in primitive(v)])
    ech = Echelon(2)
    with pytest.raises(ArithmeticError, match="not a positive rational integer"):
        ech.add(ints([Gold(1, 1, 2), Gold(3)]))
    assert ech.dim == 0 and ech.rows == [None, None]


def test_elimination_makes_no_gold_products(monkeypatch):
    elements = list(build_o1().elements)
    calls = 0
    mul = Gold.__mul__

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(Gold, "__mul__", counting_mul)
    monkeypatch.setattr(Gold, "__rmul__", counting_mul)
    assert span_dim(elements) == 16
    assert calls == 0
