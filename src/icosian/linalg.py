"""Exact Gaussian elimination over the golden field.

A vector of width n enters as its 2n Z[sqrt5] integers in
``goldnum.integer_pairs`` order (rational part, sqrt5 part, ...) with the
common denominator dropped, since scaling a vector leaves its span unchanged.
That is the one row format: a QMat2 passes its ``ints``, and a list of Gold
values converts with ``integer_pairs``.  Rows are primitive, in echelon form,
with a positive rational integer at the pivot; each is kept under its pivot
column and stored from that column on, since it is zero before it.
Elimination is fraction-free, with one content gcd per new row: no Gold value
is built.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import gcd


def _primitive(v: Sequence[int]) -> list[int]:
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else list(v)


def _partner(v: Sequence[int]) -> list[int]:
    """The vector times sqrt5, so that (c + d*sqrt5)*v is c*v + d*partner."""
    out = list(v)
    out[0::2] = [5 * b for b in v[1::2]]
    out[1::2] = v[0::2]
    return out


class Echelon:
    """Incrementally maintained row echelon basis of width golden-field
    coordinates, on rows of 2 * width integers.

    ``rows[p]`` is the row whose pivot is column p, as its integers from 2p
    on, or None when no row has that pivot; ``partners[p]`` is that row
    times sqrt5."""

    def __init__(self, width: int):
        self.width = width
        self.dim = 0
        self.rows: list[list[int] | None] = [None] * width
        self.partners: list[list[int] | None] = [None] * width

    def _reduce(self, v: Sequence[int]) -> tuple[int, Sequence[int]] | None:
        """Eliminate v column by column, up to a positive factor: each step
        scales v by a positive pivot.  Returns None when v reduces to zero,
        that is when v is in the span; else (p, tail) with p the first
        column where the reduced v is nonzero and has no row, and tail the
        reduced v from 2p on.  v is then outside the span, and the rows with
        later pivots are not used: the reduced v vanishes before p, so a
        combination of rows equal to it would lead with a row whose pivot
        is p, and there is none."""
        rows, partners = self.rows, self.partners
        start = 0  # v holds the reduced vector from column start on
        for p in range(self.width):
            k = 2 * (p - start)
            c, d = v[k], v[k + 1]
            if c or d:
                row = rows[p]
                if row is None:
                    return p, v[k:]
                # v <- n*v - (c + d*sqrt5)*row, with n the row's pivot entry
                # (a positive rational integer), clears v at p and touches
                # only the columns after it
                n = row[0]
                v = [n * x - c * y - d * z for x, y, z in zip(v[k:], row, partners[p])]
                start = p
        return None

    def contains(self, vec: Sequence[int]) -> bool:
        if self.dim == self.width:
            return True
        return self._reduce(vec) is None

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        if self.dim == self.width:
            return False
        free = self._reduce(vec)
        if free is None:
            return False
        pivot, v = free
        c, d = v[0], v[1]
        if d:
            # multiply by the conjugate of the pivot entry, whose norm then
            # sits at the pivot as a rational integer; make it positive
            if c * c - 5 * d * d < 0:
                c, d = -c, -d
            v = [c * x - d * z for x, z in zip(v, _partner(v))]
        elif c < 0:
            # a rational pivot only needs its sign made positive
            v = [-x for x in v]
        row = _primitive(v)
        if not row[1] == 0 < row[0]:
            raise ArithmeticError(f"pivot entry {row[0]}, {row[1]} is not a positive"
                                  " rational integer")
        self.rows[pivot] = row
        self.partners[pivot] = _partner(row)
        self.dim += 1
        return True


def rank(vectors: list[Sequence[int]]) -> int:
    """Rank of integer rows in the ``integer_pairs`` order."""
    if not vectors:
        return 0
    ech = Echelon(len(vectors[0]) // 2)
    for v in vectors:
        ech.add(v)
    return ech.dim
