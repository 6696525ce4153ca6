"""Finite posets as bitmask rows: up-sets and their Heyting implication.

The up-sets of a finite poset form a finite locale, and two layers use
one: the upper completion over a space of duals (:mod:`.beables`) is
exactly the up-sets of the dual order, and the sieves of a varying set
(:mod:`.topos`) are the up-sets above an anchor.  Both take the up-set
test and the implication from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from .coevent import CoeventSpace
from .errors import MismatchedSpace


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order, validated at construction.

    Each element's up-set (itself and everything above it) is kept as a
    bitmask over the element order.
    """

    elements: tuple[Hashable, ...]
    matrix: tuple[tuple[bool, ...], ...]  # matrix[i][j] iff elements[i] <= elements[j]

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("poset elements must be distinct")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("relation matrix must be square over the elements")
        for i in range(n):
            if not self.matrix[i][i]:
                raise ValueError(f"relation is not reflexive at {self.elements[i]}")
            for j in range(n):
                if i != j and self.matrix[i][j] and self.matrix[j][i]:
                    raise ValueError(
                        f"relation is not antisymmetric on "
                        f"({self.elements[i]}, {self.elements[j]})"
                    )
                if self.matrix[i][j]:
                    for k in range(n):
                        if self.matrix[j][k] and not self.matrix[i][k]:
                            raise ValueError(
                                f"relation is not transitive through "
                                f"({self.elements[i]}, {self.elements[j]}, "
                                f"{self.elements[k]})"
                            )
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(self.elements)})
        object.__setattr__(
            self,
            "_up",
            tuple(sum(1 << j for j, le in enumerate(row) if le) for row in self.matrix),
        )

    @classmethod
    def from_pairs(
        cls, elements: Sequence[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]
    ) -> "FinitePoset":
        """Reflexive-transitive closure of the given strict covers."""
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        rel = [[i == j for j in range(n)] for i in range(n)]
        for a, b in pairs:
            rel[index[a]][index[b]] = True
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    for j in range(n):
                        if rel[k][j]:
                            rel[i][j] = True
        return cls(elements, tuple(tuple(row) for row in rel))

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, x: Hashable) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise MismatchedSpace(f"{x} is not an element of the poset")

    def leq(self, x: Hashable, y: Hashable) -> bool:
        return self.matrix[self.index(x)][self.index(y)]

    def up_bits(self, i: int) -> int:
        """Bitmask of the elements above elements[i] (inclusive)."""
        return self._up[i]

    def is_up_set(self, bits: int) -> bool:
        """True iff the elements in ``bits`` are upward closed."""
        up = self._up
        return all(
            up[j] & bits == up[j] for j in range(len(up)) if bits >> j & 1
        )

    def implication(self, a: int, b: int, within: Optional[int] = None) -> int:
        """Heyting implication a => b among the up-sets inside ``within``.

        ``within`` is an up-set (by default the whole poset) and a, b are
        up-sets inside it.  The result is the largest such up-set whose
        meet with a lies in b: the elements whose whole up-set avoids
        a minus b.
        """
        up = self._up
        if within is None:
            within = (1 << len(up)) - 1
        outside = a & ~b
        bits = 0
        for j in range(len(up)):
            if within >> j & 1 and up[j] & outside == 0:
                bits |= 1 << j
        return bits

    def is_antichain(self) -> bool:
        return all(up == 1 << i for i, up in enumerate(self._up))


def poset_of_coevents(space: CoeventSpace) -> FinitePoset:
    """The dual order on a space of nonzero multiplicative coevents.

    A dual sits below another exactly when its principal event contains
    the other's.
    """
    principals = [phi.principal_mask for phi in space.members]
    if None in principals:
        raise ValueError(
            "dual order requires every member to be a nonzero multiplicative coevent"
        )
    matrix = tuple(
        tuple(q & p == q for q in principals) for p in principals
    )
    return FinitePoset(tuple(space.members), matrix)
