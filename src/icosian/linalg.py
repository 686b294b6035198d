"""Exact Gaussian elimination over the golden field.

Scaling a vector by its common denominator leaves its span unchanged, so each
Gold vector enters as Z[sqrt5] integers (``goldnum.integer_pairs``).  Rows are
kept primitive, in echelon form sorted by pivot, with a positive rational
integer at the pivot, and elimination is fraction-free: no Gold value is built.
"""
from __future__ import annotations

from math import gcd

from .goldnum import Gold, integer_pairs

# A row is a pair (rational parts, sqrt5 parts) of integer lists.
Row = tuple[list[int], list[int]]


def _primitive(a: list[int], b: list[int]) -> Row:
    g = gcd(*a, *b)
    if g > 1:
        return [x // g for x in a], [x // g for x in b]
    return a, b


class Echelon:
    """Incrementally maintained row echelon basis."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[Row] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: list[Gold]) -> Row:
        ints, _ = integer_pairs(vec)
        a, b = ints[0::2], ints[1::2]
        for (ra, rb), p in zip(self.rows, self.pivots):
            c, d = a[p], b[p]
            if c or d:
                # v <- n*v - (c + d*sqrt5)*row, with n = row[p] a rational
                # integer, clears v[p] and touches only columns after it
                n, d5 = ra[p], 5 * d
                a, b = _primitive(
                    [n * x - c * y - d5 * z for x, y, z in zip(a, ra, rb)],
                    [n * x - c * z - d * y for x, y, z in zip(b, ra, rb)])
        return a, b

    def contains(self, vec: list[Gold]) -> bool:
        if self.dim == self.width:
            return True
        a, b = self._reduce(vec)
        return not (any(a) or any(b))

    def add(self, vec: list[Gold]) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        if self.dim == self.width:
            return False
        a, b = self._reduce(vec)
        pivot = next((i for i, (x, y) in enumerate(zip(a, b)) if x or y), None)
        if pivot is None:
            return False
        # multiply by the conjugate of the pivot entry, whose norm then sits
        # at the pivot as a rational integer; make it positive
        c, d = a[pivot], b[pivot]
        if c * c - 5 * d * d < 0:
            c, d = -c, -d
        d5 = 5 * d
        row = _primitive([c * x - d5 * y for x, y in zip(a, b)],
                         [c * y - d * x for x, y in zip(a, b)])
        pos = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.rows))
        self.rows.insert(pos, row)
        self.pivots.insert(pos, pivot)
        return True


def rank(vectors: list[list[Gold]]) -> int:
    if not vectors:
        return 0
    ech = Echelon(len(vectors[0]))
    for v in vectors:
        ech.add(v)
    return ech.dim

