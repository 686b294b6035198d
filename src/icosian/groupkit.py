"""Generic finite-group engine over any hashable element type.

Works with any associative multiplication with an identity; groups are built
by breadth-first product closure with a deterministic element ordering.  The
closure records the right-Cayley graph, and the multiplication is called only
on its generator edges; the Cayley table and every further query (orders,
conjugacy, subgroups, orbits) is integer index work on that graph.  What a
query derives from the group alone (a conjugation permutation, the
generating set of a subgroup, the index maps of an orbit item family) is
kept for the next one.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate
from typing import Callable, Generic, Hashable, Iterable, NamedTuple, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


class ClosureError(ValueError):
    """Raised when a closure exceeds its cap or an input is inconsistent."""


class ConjugacyPartition(NamedTuple):
    classes: tuple[frozenset[int], ...]
    class_of: tuple[int, ...]


class _ItemFamily(NamedTuple):
    """The index maps of one orbit item family: ``where`` sends each member
    to its item, members run item by item in it, ``owner[i]`` is the item of
    the i-th member and ``starts[k]`` the position of item k's first member;
    ``perms`` holds each conjugating element's validated item permutation."""
    where: dict[int, int]
    owner: list[int]
    starts: list[int]
    perms: dict[int, list[int]]


class FiniteGroup(Generic[T]):
    """A finite group as an indexed element list plus its right-Cayley graph.

    Element 0 is the identity.  ``edges[i][s]`` is the index of
    ``elements[i] * generators[s]``, so ``edges[0]`` holds the generators.
    Every other element k was first reached from ``parent[k]`` (an earlier
    index) by the generator ``letter[k]``; ``word(k)`` walks that BFS word,
    which names the element in the generators.
    """

    def __init__(
        self,
        index: dict[T, int],  # element -> its position, in position order
        edges: list[tuple[int, ...]],
        parent: list[int],
        letter: list[int],
    ):
        self.elements = list(index)
        self._index = index
        self.edges = edges
        self.parent = parent
        self.letter = letter
        # kept on first use: conjugation permutations by conjugating element
        # (at most |G|), generating sets by subgroup, and orbit item families
        self._conj_rows: dict[int, tuple[int, ...]] = {}
        self._generating_sets: dict[frozenset[int], tuple[int, ...]] = {}
        self._families: dict[tuple[frozenset[int], ...], _ItemFamily] = {}

    @classmethod
    def closure(
        cls,
        generators: Sequence[T],
        mul: Callable[[T, T], T],
        identity: T,
        cap: int = 10_000,
    ) -> "FiniteGroup[T]":
        """Breadth-first closure under right multiplication by the generators.

        ``mul`` runs once per (element, generator) pair, |G|*|S| times in all.
        """
        if not generators:
            raise ClosureError("empty generator list")
        elements: list[T] = [identity]
        parent, letter = [-1], [-1]
        edges: list[tuple[int, ...]] = []
        index = {identity: 0}
        i = 0
        while i < len(elements):  # BFS: elements are expanded in index order
            row = []
            for j, gen in enumerate(generators):
                p = mul(elements[i], gen)
                if p not in index:
                    if len(elements) >= cap:
                        raise ClosureError(f"closure exceeded cap {cap}")
                    index[p] = len(elements)
                    elements.append(p)
                    parent.append(i)
                    letter.append(j)
                row.append(index[p])
            edges.append(tuple(row))
            i += 1
        return cls(index, edges, parent, letter)

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, x: T) -> int:
        return self._index[x]

    def word(self, k: int) -> tuple[int, ...]:
        """Generator positions of the BFS word of element k (() for 0)."""
        out = []
        while k:
            out.append(self.letter[k])
            k = self.parent[k]
        return tuple(reversed(out))

    def word_index(self, positions: Iterable[int]) -> int:
        """Index of the product of the generators at these positions."""
        i = 0
        for s in positions:
            i = self.edges[i][s]
        return i

    @cached_property
    def table(self) -> list[list[int]]:
        """Cayley table on indices, composed from the Cayley graph alone.

        Sound without a product per pair: a finite set of invertible elements
        closed under right multiplication by the generators is the group they
        generate (each inverse is a positive power), and since
        ``elements[k] = elements[parent[k]] * generators[letter[k]]``,
        associativity of the product makes
        ``row[k] = edges[row[parent[k]]][letter[k]]`` the index of
        ``elements[i] * elements[k]`` for row i.
        """
        edges, parent, letter = self.edges, self.parent, self.letter
        rows = []
        for i in range(len(self.elements)):
            row = [i]
            for k in range(1, len(self.elements)):
                row.append(edges[row[parent[k]]][letter[k]])
            rows.append(row)
        return rows

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """The inverse of i is where row i of the table meets the identity."""
        try:
            return tuple(row.index(0) for row in self.table)
        except ValueError:
            raise ClosureError("element without inverse; not a group") from None

    def conj_row(self, y: int) -> tuple[int, ...]:
        """Conjugation by y as a permutation of the indices: ``row[x]`` is
        x^y = y^-1 x y, read off the table.  Built on first use and kept,
        so there is at most one row per element of the group."""
        row = self._conj_rows.get(y)
        if row is None:
            t = self.table
            times_y = [r[y] for r in t]
            row = self._conj_rows[y] = tuple([times_y[a] for a in t[self.inverse[y]]])
        return row

    def conj_idx(self, x: int, y: int) -> int:
        """x^y := y^-1 x y."""
        return self.conj_row(y)[x]

    def element_order(self, i: int) -> int:
        """Least n with i^n the identity; no element of a group of order N
        needs more than N steps, so a table that is not a group table raises
        instead of looping."""
        t = self.table
        acc = i
        for n in range(1, len(self) + 1):
            if acc == 0:
                return n
            acc = t[acc][i]
        raise ClosureError(f"element {i} has no order; not a group table")

    def order_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(self.element_order(i) for i in range(len(self))).items()))

    # -- conjugacy ------------------------------------------------------

    @cached_property
    def conjugacy(self) -> ConjugacyPartition:
        """The conjugacy classes: the conjugation orbits of the single
        elements under the whole group, which ``conjugation_orbits`` finds by
        acting through a generating set only (its docstring gives the
        argument).  Classes are ordered by element order, then size, then
        smallest index."""
        n = len(self.elements)
        orbits = self.conjugation_orbits(self.whole, [frozenset({i}) for i in range(n)])
        classes = tuple(sorted(
            orbits, key=lambda c: (self.element_order(min(c)), len(c), min(c))))
        class_of = [0] * n
        for k, cls in enumerate(classes):
            for i in cls:
                class_of[i] = k
        return ConjugacyPartition(classes, tuple(class_of))

    # -- subgroups ------------------------------------------------------

    @cached_property
    def whole(self) -> frozenset[int]:
        """Every index: the group as its own subgroup, one shared set."""
        return frozenset(range(len(self.elements)))

    def closure_within(self, gen_indices: Iterable[int], limit: int) -> set[int]:
        """The indices a breadth-first closure of the given elements reaches
        on the Cayley table, stopping once it holds more than ``limit``.

        Every index reached lies in the subgroup H they generate, so a result
        of at most ``limit`` indices is the whole of H, and a larger one shows
        |H| > limit.
        """
        t = self.table
        gens = list(dict.fromkeys(gen_indices))
        seen = {0}
        queue = [0]
        for i in queue:  # the list grows as the closure runs
            row = t[i]
            for g in gens:
                p = row[g]
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
            if len(seen) > limit:
                break
        return seen

    def subgroup_indices(self, gen_indices: Iterable[int]) -> frozenset[int]:
        """Smallest subgroup containing the given elements, as an index set.

        ``closure_within`` stopped at Lagrange's bound: a proper subgroup
        has index at least 2, so at most half the group's elements.  Once
        more than ``len(self) // 2`` are reached, H is the whole group, and
        ``whole`` is returned, one shared set, so the memos keyed on it
        (``generating_set``, ``spans.subgroup_span_dim``) find it by identity.
        """
        half = len(self.elements) // 2
        seen = self.closure_within(gen_indices, half)
        return self.whole if len(seen) > half else frozenset(seen)

    def generating_set(self, indices: Iterable[int]) -> tuple[int, ...]:
        """A subset of the indices that generates the same subgroup.

        Walks the sorted indices and keeps an element only if the ones kept
        so far do not generate it.  Each kept element enlarges the subgroup
        generated so far, which by Lagrange at least doubles its order, so
        at most log2|H| elements are kept for a subgroup H.  The answer for
        a subgroup (a set equal to the subgroup it generates) is kept, so
        there is at most one entry per subgroup queried.
        """
        key = frozenset(indices)
        gens = self._generating_sets.get(key)
        if gens is not None:
            return gens
        kept: list[int] = []
        span = frozenset({0})
        for i in sorted(key):
            if i not in span:
                kept.append(i)
                span = self.subgroup_indices(kept)
        gens = tuple(kept)
        if span == key:
            self._generating_sets[key] = gens
        return gens

    def is_maximal(self, sub: frozenset[int]) -> bool:
        """True iff sub is a proper subgroup that every extra element completes.

        A set is a subgroup exactly when it equals the subgroup it generates.
        Each candidate closes ``[*generating_set(sub), x]``, which generates
        the same subgroup as sub with x adjoined.  One candidate per double
        coset HxH is enough: <H, hxh'> = <H, x> for h, h' in H, since hxh'
        lies in <H, x> and x = h^-1 (hxh') h'^-1 lies in <H, hxh'>.
        """
        gens = self.generating_set(sub)
        if self.subgroup_indices(gens) != sub:
            raise ClosureError("not a subgroup of this group")
        n = len(self)
        if len(sub) == n:
            return False
        t = self.table
        decided = set(sub)
        for x in range(n):
            if x in decided:
                continue
            if len(self.subgroup_indices([*gens, x])) != n:
                return False
            decided.update(t[t[h][x]][k] for h in sub for k in sub)
        return True

    # -- conjugation orbits ---------------------------------------------

    def conjugation_orbits(
        self, h_indices: Iterable[int], items: Sequence[frozenset[int]]
    ) -> list[frozenset[int]]:
        """Partition item sets into orbits under conjugation by the given subgroup.

        Items are non-empty, pairwise disjoint element-index sets (e.g.
        {x, -x} pairs); an empty or overlapping item raises ``ClosureError``.
        Conjugation must map each item onto an item, otherwise the action is
        not well defined.  Each generator's action on the items is read as
        an index map, through the family's element -> item map: every member
        of an item must land in one item.  That makes the image an item, by
        counting: a conjugation c is injective and maps the finite union U
        of the items into U, so it permutes U.  Each item is then the union
        of the images of the items that land in it, so, the items being
        non-empty, every item is landed in; the map on items is onto, hence
        a permutation, and each item is the image of the one item landing
        in it, of its own size.  The family's index maps and each
        conjugating element's permutation, once validated, are kept under
        ``tuple(items)``: at most |G| permutations per family.  A family
        that is not disjoint, and a permutation that fails, is not kept, so
        a repeated call raises again.

        Only a generating set of H acts (``generating_set``), which is sound:
        conjugation by a generator is a bijection of G, so it maps the finite
        item set injectively, and if into itself then onto it; a permutation
        of the items for every generator makes every element of H, a product
        of generators, permute them too.  So ``ClosureError`` fires exactly
        when some element of H moves an item off the list.  And since each
        inverse in a finite group is a positive power, the H-orbits are the
        components reached by following the generators' images forward.
        """
        key = tuple(items)
        family = self._families.get(key)
        if family is None:
            sizes = [len(item) for item in items]
            where = {x: k for k, item in enumerate(items) for x in item}
            if 0 in sizes or len(where) != sum(sizes):
                raise ClosureError("items must be non-empty and disjoint")
            family = self._families[key] = _ItemFamily(
                where, list(where.values()), list(accumulate(sizes, initial=0))[:-1], {})
        where, owner, starts, kept = family
        perms = []
        for y in self.generating_set(h_indices):
            perm = kept.get(y)
            if perm is None:
                landed = list(map(where.get, map(self.conj_row(y).__getitem__, where)))
                perm = [landed[s] for s in starts]
                if None in perm or [perm[k] for k in owner] != landed:
                    raise ClosureError("conjugation does not preserve the item set")
                kept[y] = perm
            perms.append(perm)
        seen = [False] * len(items)
        orbits = []
        for k in range(len(items)):
            if seen[k]:
                continue
            seen[k] = True
            orbit = [k]
            for m in orbit:  # the list grows as the orbit is found
                for perm in perms:
                    j = perm[m]
                    if not seen[j]:
                        seen[j] = True
                        orbit.append(j)
            orbits.append(frozenset(orbit))
        return orbits
