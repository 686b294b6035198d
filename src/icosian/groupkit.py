"""Generic finite-group engine over any hashable element type.

Works with any associative multiplication with an identity; groups are built
by breadth-first product closure with a deterministic element ordering.  The
closure records the right-Cayley graph, and the multiplication is called only
on its generator edges; the Cayley table and every further query (orders,
conjugacy, subgroups, orbits) is integer index work on that graph.
"""
from __future__ import annotations

from collections import Counter, deque
from functools import cached_property
from typing import Callable, Generic, Hashable, Iterable, NamedTuple, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


class ClosureError(RuntimeError):
    """Raised when a closure exceeds its cap or an input is inconsistent."""


class ConjugacyPartition(NamedTuple):
    classes: tuple[frozenset[int], ...]
    class_of: tuple[int, ...]


class FiniteGroup(Generic[T]):
    """A finite group as an indexed element list plus its right-Cayley graph.

    Element 0 is the identity.  ``edges[i][s]`` is the index of
    ``elements[i] * generators[s]``, so ``edges[0]`` holds the generators.
    Every other element k was first reached from ``parent[k]`` (an earlier
    index) by the generator ``letter[k]``; ``word(k)`` walks that BFS word,
    usable to transport the group through any homomorphism given images of
    the generators.
    """

    def __init__(
        self,
        elements: list[T],
        edges: list[tuple[int, ...]],
        parent: list[int],
        letter: list[int],
    ):
        self.elements = elements
        self.edges = edges
        self.parent = parent
        self.letter = letter
        self._index = {x: i for i, x in enumerate(elements)}
        if len(self._index) != len(elements):
            raise ClosureError("duplicate elements in group construction")

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
        return cls(elements, edges, parent, letter)

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

    def conj_idx(self, x: int, y: int) -> int:
        """x^y := y^-1 x y."""
        t = self.table
        return t[t[self.inverse[y]][x]][y]

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
        orbits = self.conjugation_orbits(range(n), [frozenset({i}) for i in range(n)])
        classes = tuple(sorted(
            orbits, key=lambda c: (self.element_order(min(c)), len(c), min(c))))
        class_of = [0] * n
        for k, cls in enumerate(classes):
            for i in cls:
                class_of[i] = k
        return ConjugacyPartition(classes, tuple(class_of))

    # -- subgroups ------------------------------------------------------

    def subgroup_indices(self, gen_indices: Iterable[int]) -> frozenset[int]:
        """Smallest subgroup containing the given elements, as an index set."""
        t = self.table
        seen = {0}
        gens = list(dict.fromkeys(gen_indices))
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for g in gens:
                p = t[i][g]
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return frozenset(seen)

    def generating_set(self, indices: Iterable[int]) -> list[int]:
        """A subset of the indices that generates the same subgroup.

        Walks the sorted indices and keeps an element only if the ones kept
        so far do not generate it.  Each kept element enlarges the subgroup
        generated so far, which by Lagrange at least doubles its order, so
        at most log2|H| elements are kept for a subgroup H.
        """
        gens: list[int] = []
        span = frozenset({0})
        for i in sorted(indices):
            if i not in span:
                gens.append(i)
                span = self.subgroup_indices(gens)
        return gens

    def is_maximal(self, sub: frozenset[int]) -> bool:
        """True iff sub is a proper subgroup that every extra element completes.

        A set is a subgroup exactly when it equals the subgroup it generates.
        Each candidate closes ``generating_set(sub) + [x]``, which generates
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
            if len(self.subgroup_indices(gens + [x])) != n:
                return False
            decided.update(t[t[h][x]][k] for h in sub for k in sub)
        return True

    # -- conjugation orbits ---------------------------------------------

    def conjugation_orbits(
        self, h_indices: Iterable[int], items: Sequence[frozenset[int]]
    ) -> list[frozenset[int]]:
        """Partition item sets into orbits under conjugation by the given subgroup.

        Items are element-index sets (e.g. {x, -x} pairs); conjugation must map
        each item onto an item, otherwise the action is not well defined.

        Only a generating set of H acts (``generating_set``), which is sound:
        conjugation by a generator is a bijection of G, so it maps the finite
        item set injectively, and if into itself then onto it; a permutation
        of the items for every generator makes every element of H, a product
        of generators, permute them too.  So ``ClosureError`` fires exactly
        when some element of H moves an item off the list.  And since each
        inverse in a finite group is a positive power, the H-orbits are the
        components reached by following the generators' images forward.
        """
        item_index = {item: k for k, item in enumerate(items)}
        gens = self.generating_set(h_indices)
        images = []
        for item in items:
            row = []
            for y in gens:
                img = frozenset(self.conj_idx(i, y) for i in item)
                if img not in item_index:
                    raise ClosureError("conjugation does not preserve the item set")
                row.append(item_index[img])
            images.append(row)
        seen = [False] * len(items)
        orbits = []
        for k in range(len(items)):
            if seen[k]:
                continue
            orbit = set()
            queue = deque([k])
            seen[k] = True
            while queue:
                m = queue.popleft()
                orbit.add(m)
                for img in images[m]:
                    if not seen[img]:
                        seen[img] = True
                        queue.append(img)
            orbits.append(frozenset(orbit))
        return orbits
