"""Finite posets as up-set rows: their up-sets, by doubling, and Heyting implication.

The up-sets of a finite poset form a finite locale, and two layers use
one: the upper completion (:mod:`.beables`) is exactly the up-sets of
the members ordered by support inclusion, the dual order over a space
of duals, and the sieves of a varying set (:mod:`.topos`) are the
up-sets above an anchor.  Both take the up-set enumeration
(:func:`up_sets`) and the implication (:func:`implication`) from here,
the core's one spelling.  Nothing here reads a coevent: the dual order
is ``CoeventToposInstance.poset``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Optional, Sequence

from .errors import MismatchedSpace
from .eventalg import Record, set_bits


class FinitePoset(Record):
    """A finite partial order held as its up-set rows.

    ``up[i]`` is the bitmask, over the element order, of the elements at
    or above ``elements[i]``.  The constructor checks the order's laws;
    the dual order (``CoeventToposInstance.poset``) holds them by
    construction.  Its up-sets are :func:`up_sets` of ``up``.
    """

    elements: tuple[Hashable, ...]
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("poset elements must be distinct")
        if len(self.up) != n or any(row < 0 or row >> n for row in self.up):
            raise ValueError("up-set rows must be one bitmask over the elements per element")
        for i, row in enumerate(self.up):
            if not row >> i & 1:
                raise ValueError(f"relation is not reflexive at {self.elements[i]}")
            for j in set_bits(row & ~(1 << i)):
                if self.up[j] >> i & 1:
                    raise ValueError(
                        f"relation is not antisymmetric on "
                        f"({self.elements[i]}, {self.elements[j]})"
                    )
                beyond = self.up[j] & ~row
                if beyond:
                    k = (beyond & -beyond).bit_length() - 1
                    raise ValueError(
                        f"relation is not transitive through "
                        f"({self.elements[i]}, {self.elements[j]}, {self.elements[k]})"
                    )

    @classmethod
    def from_pairs(
        cls, elements: Sequence[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]
    ) -> "FinitePoset":
        """Reflexive-transitive closure of the given strict covers."""
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        up = [1 << i for i in range(len(elements))]
        for a, b in pairs:
            up[index[a]] |= 1 << index[b]
        for k in range(len(up)):
            for i, row in enumerate(up):
                if row >> k & 1:
                    up[i] = row | up[k]
        return cls(elements, tuple(up))

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> dict[Hashable, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def index(self, x: Hashable) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise MismatchedSpace(f"{x} is not an element of the poset")

    def leq(self, x: Hashable, y: Hashable) -> bool:
        return bool(self.up[self.index(x)] >> self.index(y) & 1)

    def is_up_set(self, bits: int) -> bool:
        """True iff the elements in ``bits`` are upward closed."""
        up = self.up
        return all(up[j] & ~bits == 0 for j in set_bits(bits))

    def is_antichain(self) -> bool:
        return all(row == 1 << i for i, row in enumerate(self.up))


def up_sets(up: Sequence[int], within: int) -> list[int]:
    """The up-sets inside the up-set ``within`` of the order whose up-set
    rows are ``up``, ascending.

    Built by doubling over ``within``'s elements in a linear extension:
    an element's strict up-set is smaller than its own, so ascending
    ``up[j].bit_count()`` is one, and each of its elements comes earlier.
    Element j keeps the sets built so far, the up-sets of the elements
    before it, and adds ``u | 1 << j`` for each u that holds its strict
    up-set.  When each row has no element above its own index, as the
    dual order in ascending-principal order has, index order is a linear
    extension in which each new set is larger than every old one, so the
    list is built ascending; any other order is sorted at the end.
    """
    order = set_bits(within)
    ascending = all(up[j] >> j == 1 for j in order)
    if not ascending:
        order = sorted(order, key=lambda j: up[j].bit_count())
    sets = [0]
    for j in order:
        bit = 1 << j
        strict = up[j] ^ bit
        sets += [u | bit for u in sets if u & strict == strict]
    return sets if ascending else sorted(sets)


def implication(up: Sequence[int], a: int, b: int, within: Optional[int] = None) -> int:
    """Heyting implication a => b of up-sets inside the up-set ``within`` (by
    default all) of the order with up-set rows ``up``: the largest up-set whose
    meet with a lies in b, the elements whose whole up-set avoids a minus b."""
    if within is None:
        within = (1 << len(up)) - 1
    outside = a & ~b
    bits = 0
    for j in set_bits(within):
        if up[j] & outside == 0:
            bits |= 1 << j
    return bits
