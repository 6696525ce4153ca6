"""Sieves over a finite poset, subobjects of a constant set, and the
subobject classifier.

Truth values are sieves (upper sets above an anchor), the up-sets of
:class:`~coevents.poset.UpSets` inside the anchor's up-set; the
classifier bundles them with the restriction maps.  A subobject of the
constant set is held as its columns (:class:`SubobjectOfConstant`).  The
construction is then instantiated over the poset of multiplicative
coevents in their dual order, where the support selection is a genuine
subobject of the constant set of history events.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Mapping

from .coevent import (
    Coevent,
    CoeventSpace,
    dual_principals,
    enumerate_multiplicative,
    multiplicative_scheme,
)
from .errors import CapExceeded, MismatchedSpace, NotASubobject
from .eventalg import Event, EventAlgebra, Record, set_bits, unchecked
from .measure import Measure
from .poset import FinitePoset, UpSets

#: Sieve enumeration lists every up-set above an anchor.
SIEVE_ENUMERATION_CAP = 12

#: The dual-ordered coevent poset has 2**n - 1 elements.
MCE_INSTANCE_CAP = 4


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
    x's column ANDed with p's up-set row, the rule :func:`chi_vsupp` reads
    with A's tau row as the column.  Monotonicity is the cached verdict.
    Natural with no check: χ(p, x) restricted to q >= p is ``columns[x] &
    up[p] & up[q]``, which is χ(q, x), as up[q] ⊆ up[p] on a transitive order."""
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
    the order is transitive (checked by ``FinitePoset`` on a caller's
    poset, by construction in the dual order), so up[k] is inside up[j]
    whenever j <= k, and restricting to j then k keeps the same bits as
    restricting to k.  The tests walk both laws through ``transition``.
    """
    return tuple(
        (p, p, p)
        for p, fiber in zip(omega.poset.elements, omega.fibers)
        for sieve in fiber
        if sieve.at != p
    )


# ---------------------------------------------------------------------------
# The instance over a dual-ordered coevent space


class CoeventToposInstance(Record, eq=False):
    """A space of duals in the dual order, each context selecting its support.

    The instance is its space; the poset is derived from it on first
    read.  Build one with :func:`build_instance`; the selection is then a
    subobject of the constant set of history events by construction.
    """

    space: CoeventSpace

    @cached_property
    def poset(self) -> FinitePoset:
        """The dual order on the members, built on first read: p* <= q* iff q
        is inside p, so the up-set rows are the space's ``up_rows``, a partial
        order by construction and so not checked here (the tests check it)."""
        space = self.space
        return unchecked(FinitePoset, elements=space.members, up=space.up_rows)

    @property
    def algebra(self) -> EventAlgebra:
        return self.space.algebra

    @property
    def is_antichain(self) -> bool:
        space = self.space
        return UpSets(space.up_rows, (1 << len(space)) - 1).is_antichain

    @cached_property
    def support_subobject(self) -> SubobjectOfConstant:
        """The support selection, built on first use: the column of event A is
        its tau row, the members whose support holds A (``space.tau_table``)."""
        columns = dict(zip(self.algebra.events(), self.space.tau_table))
        return unchecked(SubobjectOfConstant, poset=self.poset, columns=columns)


def check_instance_cap(n: int, cap: int = MCE_INSTANCE_CAP) -> None:
    """Refuse an instance over more than ``cap`` histories, before any enumeration."""
    if n > cap:
        raise CapExceeded("dual-poset topos instance", cap, n)


def build_instance(space: CoeventSpace, cap: int = MCE_INSTANCE_CAP) -> CoeventToposInstance:
    """The instance over a space of nonzero duals (NotMultiplicative otherwise).

    The support selection is a subobject iff phi <= psi carries every
    event of phi's support into psi's, i.e. iff every tau row is an
    up-set of the dual order.  Over duals that holds by construction: if
    p* is in tau(A), so p <= A, and q* is above p*, so q <= p, then q <= A.
    The tests check it with :func:`is_subobject`.  Nothing is built here:
    the members and the dual order wait for the first read of ``poset``.
    """
    check_instance_cap(space.algebra.space.n, cap)
    dual_principals(space)
    return CoeventToposInstance(space)


def build_mce_instance(
    algebra: EventAlgebra,
    include_empty_dual: bool = False,
    cap: int = MCE_INSTANCE_CAP,
) -> CoeventToposInstance:
    """The instance over all duals in the dual order, refused before they are listed."""
    check_instance_cap(algebra.space.n, cap)
    return CoeventToposInstance(enumerate_multiplicative(algebra, include_empty_dual))


def build_scheme_instance(m: Measure, cap: int = MCE_INSTANCE_CAP) -> CoeventToposInstance:
    """The instance over the primitive preclusive duals.

    The base poset is an anti-chain, so each context's sieves collapse
    to the two classical truth values; callers should surface that
    degeneracy rather than hide the construction.
    """
    return build_instance(multiplicative_scheme(m), cap)


def chi_vsupp(instance: CoeventToposInstance, phi: Coevent, a: Event) -> Sieve:
    """Characteristic map of the support subobject at context phi and event A.

    The sieve of contexts above phi whose support contains A: the tau row
    of A, read on demand, ANDed with phi's up-set row, as
    :func:`characteristic_map` reads A's column.  No subobject is built or
    checked: the dual order makes every tau row an up-set.
    """
    space, poset = instance.space, instance.poset
    try:
        i = space.index_of(phi)
    except ValueError:
        raise MismatchedSpace("coevent is not in the instance's base poset")
    if a.space != instance.algebra.space:
        raise MismatchedSpace("event belongs to a different sample space")
    return unchecked(Sieve, poset=poset, at=phi, bits=space.tau_row(a.mask) & poset.up[i])
