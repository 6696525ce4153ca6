"""The general-order topos: the tests' oracle for sieves, subobjects of a
constant set and the subobject classifier over any finite partial order.

``coevents.topos`` computes the construction over a space of duals from
the space's rows alone.  This module keeps the construction for an
arbitrary order, held as up-set rows (:class:`FinitePoset`, whose
constructor checks the order's laws), so that the tests can compare the
library's answers with it on the dual order (:func:`dual_order`, the
support selection as :func:`support_subobject`) and check the laws on
chains, antichains, diamonds and grids.  Truth values are sieves, the
up-sets of :class:`~coevents.poset.UpSets` inside an anchor's up-set; a
subobject of the constant set is held as its columns.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

from coevents.coevent import CoeventSpace
from coevents.errors import CapExceeded, CoeventsError, MismatchedSpace
from coevents.eventalg import Record, set_bits, unchecked
from coevents.poset import UpSets
from coevents.topos import SIEVE_ENUMERATION_CAP


class NotASubobject(CoeventsError):
    """A selection is not monotone, so it is not a subobject."""


class FinitePoset(Record):
    """A finite partial order held as its up-set rows.

    ``up[i]`` is the bitmask, over the element order, of the elements at
    or above ``elements[i]``.  The constructor checks the order's laws.
    Its up-sets are ``UpSets(up, within)``.
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


class Sieve(Record):
    """An upper set of elements above an anchor: one local truth value."""

    poset: FinitePoset
    at: Hashable
    bits: int

    def __post_init__(self) -> None:
        up = self.poset.up
        anchor = up[self.poset.index(self.at)]
        if self.bits & ~anchor:
            raise ValueError("sieve members must lie above the anchor")
        if self.bits not in UpSets(up, anchor):
            raise ValueError("sieve members must be upward closed")

    @property
    def members(self) -> tuple[Hashable, ...]:
        elements = self.poset.elements
        return tuple(elements[j] for j in set_bits(self.bits))

    def __contains__(self, x: Hashable) -> bool:
        return bool(self.bits >> self.poset.index(x) & 1)

    def __str__(self) -> str:
        return f"@{self.at}: [{', '.join(str(e) for e in self.members)}]"


def sieves_at(
    poset: FinitePoset, p: Hashable, cap: int = SIEVE_ENUMERATION_CAP
) -> tuple[Sieve, ...]:
    """All sieves anchored at p, in ascending bitmask order: the listed
    ``UpSets`` inside p's up-set."""
    if len(poset) > cap:
        raise CapExceeded("sieve enumeration", cap, len(poset))
    lattice = UpSets(poset.up, poset.up[poset.index(p)])
    return tuple(unchecked(Sieve, poset=poset, at=p, bits=bits) for bits in lattice.listed)


def sieve_meet(a: Sieve, b: Sieve) -> Sieve:
    _require_same_anchor(a, b)
    return unchecked(Sieve, poset=a.poset, at=a.at, bits=a.bits & b.bits)


def sieve_join(a: Sieve, b: Sieve) -> Sieve:
    _require_same_anchor(a, b)
    return unchecked(Sieve, poset=a.poset, at=a.at, bits=a.bits | b.bits)


def sieve_implication(a: Sieve, b: Sieve) -> Sieve:
    """Heyting implication in the locale of sieves at a common anchor."""
    _require_same_anchor(a, b)
    poset = a.poset
    bits = UpSets(poset.up, poset.up[poset.index(a.at)]).implies(a.bits, b.bits)
    return unchecked(Sieve, poset=poset, at=a.at, bits=bits)


def _require_same_anchor(a: Sieve, b: Sieve) -> None:
    if a.poset != b.poset or a.at != b.at:
        raise MismatchedSpace("sieves at different anchors")


class SubobjectOfConstant(Record, eq=False):
    """A candidate selection of a subset of the ambient set at each element.

    Held as its columns: ``columns[x]`` is the elements whose selection
    holds x, as bits over the element order, so χ at p is ``columns[x] &
    up[p]``.  The constructor turns the selections into columns once.
    """

    poset: FinitePoset
    columns: Mapping[Hashable, int]

    def __init__(self, poset: FinitePoset, ambient: Iterable, selections: Iterable) -> None:
        selections, ambient = tuple(map(frozenset, selections)), frozenset(ambient)
        if len(selections) != len(poset):
            raise ValueError("one selection per poset element required")
        if not all(sel <= ambient for sel in selections):
            raise ValueError("selections must be subsets of the ambient set")
        columns = {x: sum(1 << i for i, sel in enumerate(selections) if x in sel) for x in ambient}
        self.__dict__.update(poset=poset, columns=columns)

    @property
    def ambient(self) -> frozenset:
        return frozenset(self.columns)

    def selection(self, p: Hashable) -> frozenset:
        i = self.poset.index(p)
        return frozenset(x for x, column in self.columns.items() if column >> i & 1)

    @cached_property
    def _verdict(self) -> tuple[bool, tuple[tuple[Hashable, Hashable], ...]]:
        return is_subobject(self)  # decided once, for every characteristic map


def is_subobject(s: SubobjectOfConstant) -> tuple[bool, tuple[tuple[Hashable, Hashable], ...]]:
    """Monotonicity: every column is an up-set.  The witnesses are the pairs
    (p, q), q above p and outside a column holding p, by p's index, then q's."""
    up, elements = s.poset.up, s.poset.elements
    missing = [0] * len(up)
    for column in s.columns.values():
        for i in set_bits(column):
            missing[i] |= up[i] & ~column
    witnesses = [(elements[i], elements[j]) for i, row in enumerate(missing) for j in set_bits(row)]
    return not witnesses, tuple(witnesses)


def _require_subobject(s: SubobjectOfConstant) -> None:
    ok, witnesses = s._verdict
    if not ok:
        raise NotASubobject(f"selection is not monotone; witnesses {witnesses[:3]}")


def characteristic_map(s: SubobjectOfConstant, p: Hashable, x: Hashable) -> Sieve:
    """The sieve of contexts above p at which x belongs to the selection:
    x's column ANDed with p's up-set row.  Monotonicity is the cached
    verdict.  Natural with no check: χ(p, x) restricted to q >= p is
    ``columns[x] & up[p] & up[q]``, which is χ(q, x), as up[q] ⊆ up[p] on
    a transitive order."""
    _require_subobject(s)
    if x not in s.columns:
        raise ValueError(f"{x} is not in the ambient set")
    return unchecked(Sieve, poset=s.poset, at=p, bits=s.columns[x] & s.poset.up[s.poset.index(p)])


class SubobjectClassifier(Record, eq=False):
    """The varying set of sieves with restriction as transition."""

    poset: FinitePoset
    fibers: tuple[tuple[Sieve, ...], ...]

    def sieves(self, p: Hashable) -> tuple[Sieve, ...]:
        return self.fibers[self.poset.index(p)]

    def transition(self, sieve: Sieve, q: Hashable) -> Sieve:
        """Restriction to the contexts above q (requires anchor <= q)."""
        if sieve.poset != self.poset:
            raise MismatchedSpace("sieve over a different poset")
        if not self.poset.leq(sieve.at, q):
            raise ValueError("restriction target must be above the sieve's anchor")
        bits = sieve.bits & self.poset.up[self.poset.index(q)]
        return unchecked(Sieve, poset=self.poset, at=q, bits=bits)


def classifier(poset: FinitePoset, cap: int = SIEVE_ENUMERATION_CAP) -> SubobjectClassifier:
    fibers = tuple(sieves_at(poset, p, cap) for p in poset.elements)
    return SubobjectClassifier(poset, fibers)


def classifier_functoriality_failures(
    omega: SubobjectClassifier,
) -> tuple[tuple[Hashable, Hashable, Hashable], ...]:
    """Triples (p, p, p), one per sieve in p's fiber that fails the identity law.

    Restricting a sieve to q keeps the bits of q's up-set row.  A Sieve's
    bits lie inside its anchor's row, so the identity law holds at p iff
    each sieve there is anchored at p.  The composition law cannot fail:
    the order is transitive (checked by ``FinitePoset``), so up[k] is
    inside up[j] whenever j <= k, and restricting to j then k keeps the
    same bits as restricting to k.  The tests walk both laws through
    ``transition``.
    """
    return tuple(
        (p, p, p)
        for p, fiber in zip(omega.poset.elements, omega.fibers)
        for sieve in fiber
        if sieve.at != p
    )


def dual_order(space: CoeventSpace) -> FinitePoset:
    """The space's members in their dual order, through the checked
    constructor: p* <= q* iff q is inside p, so the rows are ``up_rows``."""
    return FinitePoset(space.members, space.up_rows)


def support_subobject(space: CoeventSpace) -> SubobjectOfConstant:
    """The support selection over the dual order, through the checked
    constructor: each member selects the events it maps to 1."""
    events = tuple(space.algebra.events())
    return SubobjectOfConstant(
        dual_order(space), events, [[a for a in events if phi(a)] for phi in space.members]
    )
