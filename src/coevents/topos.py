"""Sieves and the characteristic map of the support selection over a space
of duals in the dual order, read from the space's rows.

Over duals p* <= q* iff q is inside p, so the up-set row of p* is
``tau_row(p)``, the members whose principal lies inside p; those rows are
the space's ``up_rows``.  The sieves at p*, its local truth values, are the
up-sets (:class:`~coevents.poset.UpSets`) inside its row, and restriction
to q* keeps the bits of q*'s row.  Each member selects its support, the
events it maps to 1, and the characteristic map of that selection at
(p*, A), the contexts above p* that hold A, is ``tau_row(A & p)``: q* lies
above p* and holds A iff q lies inside both p and A.  So the selection is
a subobject of the constant set of events, and the classifier functorial,
by construction; the tests check both against a general-order oracle.
"""

from __future__ import annotations

from .coevent import (
    Coevent,
    CoeventSpace,
    dual_principals,
    enumerate_multiplicative,
    multiplicative_scheme,
)
from .errors import CapExceeded, MismatchedSpace
from .eventalg import ByMask, Event, EventAlgebra, Record, set_bits, unchecked
from .measure import Measure
from .poset import UpSets

#: Sieve enumeration lists every up-set above an anchor.
SIEVE_ENUMERATION_CAP = 12

#: The dual-ordered coevent poset has 2**n - 1 elements.
MCE_INSTANCE_CAP = 4


class Sieve(Record):
    """An up-set of the space's order above the member ``at``: one local
    truth value, as bits over the members.

    There is no public constructor: :func:`sieves_at` and :func:`chi_vsupp`
    build each sieve, an up-set above its anchor by construction.
    """

    space: CoeventSpace
    at: Coevent
    bits: int

    __init__ = None  # no public constructor

    @property
    def members(self) -> tuple[Coevent, ...]:
        members = self.space.members
        return tuple(members[j] for j in set_bits(self.bits))

    def __str__(self) -> str:
        return f"@{self.at}: {self.space.render(self.bits)}"


def _index(space: CoeventSpace, phi: Coevent) -> int:
    try:
        return space.index_of(phi)
    except ValueError:
        raise MismatchedSpace("coevent is not in the instance's base poset")


def sieves_at(
    space: CoeventSpace, phi: Coevent, cap: int = SIEVE_ENUMERATION_CAP
) -> tuple[Sieve, ...]:
    """All sieves at the member phi, in ascending bitmask order: the listed
    ``UpSets`` inside its row of ``space.up_rows`` (over duals, the dual order)."""
    if len(space) > cap:
        raise CapExceeded("sieve enumeration", cap, len(space))
    rows = space.up_rows
    lattice = UpSets(rows, rows[_index(space, phi)])
    return tuple(unchecked(Sieve, space=space, at=phi, bits=bits) for bits in lattice.listed)


def classifier(
    space: CoeventSpace, cap: int = SIEVE_ENUMERATION_CAP
) -> tuple[tuple[Sieve, ...], ...]:
    """The subobject classifier's fibers: the sieves at each member, in member order."""
    return tuple(sieves_at(space, phi, cap) for phi in space.members)


def classifier_functoriality_failures(omega: tuple[tuple[Sieve, ...], ...]) -> tuple:
    """Always empty: every sieve in a fiber of :func:`classifier` is anchored
    at its member, and restriction along a transitive order composes."""
    return ()


def sieve_counts(space: CoeventSpace) -> list[int]:
    """The number of sieves at each member of a space of duals: the up-sets
    of its up-set row.  When the space holds every nonzero dual, with or
    without the empty event's, the principal up-set of p* is the duals
    of the subsets of p, so the count depends on |p| alone and is listed
    once per size; any other space lists each row's."""
    rows, principals = space.up_rows, space.principals
    if len(rows) - (0 in principals) < space.algebra.space.full_mask:
        return [UpSets(rows, row).size for row in rows]
    by_size: dict[int, int] = {}
    for p, row in zip(principals, rows):
        if p.bit_count() not in by_size:
            by_size[p.bit_count()] = UpSets(rows, row).size
    return [by_size[p.bit_count()] for p in principals]


def is_antichain(space: CoeventSpace) -> bool:
    """True iff no member of a space of nonzero duals lies below another.
    The rows are read on demand, so the test stops at the first member
    with another above it: all duals at n=16 read three rows."""
    principals = dual_principals(space)
    rows = ByMask(lambda i: space.tau_row(principals[i]))
    return UpSets(rows, (1 << len(space)) - 1).is_antichain


def chi_row(space: CoeventSpace, p: int, a: int) -> int:
    """χ of the support selection at the dual p* and the event A, as bits
    over the members: those above p* whose support holds A, tau(A) within
    p*'s up-set, which is ``tau_row(A & p)``.  So χ at (p*, A) is χ at the
    bottom of the order, Ω*, and A & p: a χ table has one row per event."""
    return space.tau_row(a & p)


class CoeventToposInstance(Record, eq=False):
    """A space of duals in the dual order, each context selecting its support.

    The instance is its space: build one with :func:`build_instance`, and
    read its sieves and χ with :func:`sieves_at`, :func:`classifier` and
    :func:`chi_vsupp`.
    """

    space: CoeventSpace

    @property
    def algebra(self) -> EventAlgebra:
        return self.space.algebra

    @property
    def is_antichain(self) -> bool:
        return is_antichain(self.space)


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
    Nothing is built here: no member, row or table.
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
    """Characteristic map of the support selection at context phi and event A.

    The sieve of contexts above phi whose support contains A, one row read
    from the space (:func:`chi_row`); no member or other row is built.
    """
    space = instance.space
    _index(space, phi)
    if a.space != instance.algebra.space:
        raise MismatchedSpace("event belongs to a different sample space")
    return unchecked(Sieve, space=space, at=phi, bits=chi_row(space, phi.principal_mask, a.mask))
