"""Exact Gaussian elimination over the golden field.

A vector of width n enters as its 2n Z[sqrt5] integers in
``goldnum.integer_pairs`` order (rational part, sqrt5 part, ...) with the
common denominator dropped, since scaling a vector leaves its span unchanged.
That is the one row format: a QMat2 passes its ``ints``, and a list of Gold
values converts with ``integer_pairs``.  Rows are primitive, in echelon form
sorted by pivot, with a positive rational integer at the pivot.  Elimination
is fraction-free, with one content gcd per new row: no Gold value is built.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import gcd


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _partner(v: Sequence[int]) -> list[int]:
    """The vector times sqrt5, so that (c + d*sqrt5)*v is c*v + d*partner."""
    out = list(v)
    out[0::2] = [5 * b for b in v[1::2]]
    out[1::2] = v[0::2]
    return out


class Echelon:
    """Incrementally maintained row echelon basis of width golden-field
    coordinates, on rows of 2 * width integers."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.partners: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Sequence[int]) -> Sequence[int]:
        """v eliminated against every row, up to a positive factor: each
        step scales v by a positive pivot, and only a new row is made
        primitive, which removes that factor."""
        for row, partner, p in zip(self.rows, self.partners, self.pivots):
            c, d = v[2 * p], v[2 * p + 1]
            if c or d:
                # v <- n*v - (c + d*sqrt5)*row, with n the row's pivot entry
                # (a positive rational integer), clears v[p] and touches only
                # columns after it
                n = row[2 * p]
                v = [n * x - c * y - d * z for x, y, z in zip(v, row, partner)]
        return v

    def contains(self, vec: Sequence[int]) -> bool:
        if self.dim == self.width:
            return True
        return not any(self._reduce(vec))

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        if self.dim == self.width:
            return False
        v = self._reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        pivot //= 2
        # multiply by the conjugate of the pivot entry, whose norm then sits
        # at the pivot as a rational integer; make it positive
        c, d = v[2 * pivot], v[2 * pivot + 1]
        if c * c - 5 * d * d < 0:
            c, d = -c, -d
        row = _primitive([c * x - d * z for x, z in zip(v, _partner(v))])
        pos = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.rows))
        self.rows.insert(pos, row)
        self.partners.insert(pos, _partner(row))
        self.pivots.insert(pos, pivot)
        return True


def rank(vectors: list[Sequence[int]]) -> int:
    """Rank of integer rows in the ``integer_pairs`` order."""
    if not vectors:
        return 0
    ech = Echelon(len(vectors[0]) // 2)
    for v in vectors:
        ech.add(v)
    return ech.dim
