"""Coevents: truth-valuation maps from the event algebra to Z2.

A coevent is stored by its support, the set of events it maps to 1.
Classical coevents are exactly the Boolean homomorphisms (evaluation
at a single history); multiplicative coevents preserve meets and are
dual to events via the principal element of their filter support.
A dual is recognised by that principal mask: a nonzero coevent is
multiplicative iff its support is the filter of supersets of one event,
and classical iff that event is a single history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import (
    CapExceeded,
    EmptyEventDual,
    MismatchedSpace,
    NotMultiplicative,
    ZeroCoevent,
)
from .eventalg import (
    Event,
    EventAlgebra,
    EventFamily,
    filter_principal,
    iter_supermasks,
    set_bits,
)
from .measure import Measure

#: Brute-force enumeration of all maps EA -> Z2 walks 2**(2**n) supports;
#: n = 3 (256 maps) is the default cap, n = 4 (65536) the hard one.
BRUTE_FORCE_CAP = 3
BRUTE_FORCE_HARD_CAP = 4

#: Enumerating the duals alone only needs per-event work.
DUAL_ENUMERATION_CAP = 16


@dataclass(frozen=True)
class Coevent:
    """A map from the event algebra to {0, 1}, stored as its support."""

    algebra: EventAlgebra
    support: frozenset[int]

    def __post_init__(self) -> None:
        if not isinstance(self.support, frozenset):
            object.__setattr__(self, "support", frozenset(self.support))
        size = self.algebra.size
        bad = [m for m in self.support if not 0 <= m < size]
        if bad:
            raise ValueError(f"support masks {bad[:4]} outside the algebra")

    @classmethod
    def _unchecked(cls, algebra: EventAlgebra, support: frozenset[int]) -> "Coevent":
        """A coevent from a support already known to lie inside the algebra."""
        phi = object.__new__(cls)
        object.__setattr__(phi, "algebra", algebra)
        object.__setattr__(phi, "support", support)
        return phi

    @property
    def support_key(self) -> tuple[int, ...]:
        """Canonical support encoding: member masks in ascending order."""
        return tuple(sorted(self.support))

    @property
    def is_zero(self) -> bool:
        return not self.support

    @cached_property
    def principal_mask(self) -> Optional[int]:
        """The mask p whose supersets are exactly the support, else None.

        Not None iff the support is a filter, i.e. iff the coevent is the
        dual p* (the constant-one map when p = 0).
        """
        return filter_principal(self.support, self.algebra.space.n)

    def support_family(self) -> EventFamily:
        return EventFamily.from_masks(self.algebra.space, self.support)

    def __call__(self, event: Event) -> int:
        if event.space != self.algebra.space:
            raise MismatchedSpace("event belongs to a different sample space")
        return 1 if event.mask in self.support else 0

    def __str__(self) -> str:
        p = self.principal_mask
        if p is not None:
            return f"{Event(self.algebra.space, p)}*"
        return str(self.support_family())


def evaluate(phi: Coevent, event: Event) -> int:
    """phi(A): 1 iff A is in the support."""
    return phi(event)


@dataclass(frozen=True)
class CoeventSpace:
    """A finite set of coevents over one algebra, canonically ordered.

    The canonical order is lexicographic on the support encoding
    (ascending member masks), which for duals coincides with ascending
    principal-event masks.
    """

    algebra: EventAlgebra
    members: tuple[Coevent, ...]
    provenance: str = field(default="user-supplied", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {phi.support: i for i, phi in enumerate(self.members)}
        )

    @classmethod
    def build(
        cls, algebra: EventAlgebra, coevents: Iterable[Coevent], provenance: str
    ) -> "CoeventSpace":
        unique = {}
        for phi in coevents:
            if phi.algebra != algebra:
                raise MismatchedSpace("coevent belongs to a different algebra")
            unique[phi.support_key] = phi
        ordered = tuple(unique[k] for k in sorted(unique))
        return cls(algebra, ordered, provenance)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Coevent]:
        return iter(self.members)

    def __contains__(self, phi: Coevent) -> bool:
        return phi.algebra == self.algebra and phi.support in self._index

    def index_of(self, phi: Coevent) -> int:
        if phi.algebra != self.algebra:
            raise ValueError("coevent belongs to a different algebra")
        try:
            return self._index[phi.support]
        except KeyError:
            raise ValueError("coevent is not a member of the space")

    @cached_property
    def tau_table(self) -> tuple[int, ...]:
        """tau(A) for each event mask A: the members whose support holds A, as bits.

        Built once, on first use; tau, the order report, the completions,
        the audit and chi all read it.
        """
        table = [0] * self.algebra.size
        for i, phi in enumerate(self.members):
            bit = 1 << i
            for m in phi.support:
                table[m] |= bit
        return tuple(table)

    @cached_property
    def renderings(self) -> tuple[str, ...]:
        """Each member's string, in member order."""
        return tuple(str(phi) for phi in self.members)

    def render(self, bits: int) -> str:
        """The set of members whose bit is set in ``bits``, from their renderings."""
        names = self.renderings
        return "[" + ", ".join(names[i] for i in set_bits(bits)) + "]"

    def __str__(self) -> str:
        return self.render((1 << len(self)) - 1)


# ---------------------------------------------------------------------------
# Constructions


def classical_from_history(algebra: EventAlgebra, label: str) -> Coevent:
    """The evaluation map at one history: true on events containing it."""
    return dual_of_event(algebra.event(1 << algebra.space.index(label)))


def dual_of_event(a: Event, include_empty_dual: bool = False) -> Coevent:
    """The coevent true exactly on supersets of A.

    The empty event's dual is the constant-one map; by default it is
    rejected, since it asserts that the impossible event occurred and
    can never be preclusive.
    """
    if a.is_empty and not include_empty_dual:
        raise EmptyEventDual(
            "dual of the empty event requested; pass include_empty_dual=True"
        )
    algebra = EventAlgebra(a.space)
    support = frozenset(iter_supermasks(a.mask, a.space.full_mask))
    return Coevent(algebra, support)


def dual_of_coevent(phi: Coevent, include_empty_dual: bool = False) -> Event:
    """The principal event of a multiplicative coevent's support filter."""
    if phi.is_zero:
        raise ZeroCoevent("the zero coevent has no dual event")
    principal = phi.principal_mask
    if principal is None:
        raise NotMultiplicative("only multiplicative coevents have a dual event")
    if principal == 0 and not include_empty_dual:
        raise NotMultiplicative(
            "constant-one coevent is excluded under the default convention; "
            "pass include_empty_dual=True"
        )
    return Event(phi.algebra.space, principal)


# ---------------------------------------------------------------------------
# Classification predicates


def is_classical(phi: Coevent) -> bool:
    """True iff phi is a Boolean-lattice homomorphism into Z2.

    That is, phi preserves complements and every meet and join.
    Preserving meets makes a nonzero support a filter, the supersets of
    a principal event P; preserving complements and joins as well
    forces P to be a single history.  So phi is classical iff its
    principal mask has one bit, an O(|support|) test.  The pairwise
    definition is the oracle in the tests.
    """
    p = phi.principal_mask
    return p is not None and p.bit_count() == 1


def is_multiplicative(phi: Coevent, include_empty_dual: bool = False) -> bool:
    """True iff phi(A & B) = phi(A) * phi(B) for all pairs.

    The zero map satisfies it; a nonzero phi does iff its support is a
    filter (upward closed and closed under meets), which its principal
    mask decides in O(|support|).  The constant-one map satisfies the
    pointwise identity but asserts the impossible event; under the
    default convention it is rejected, matching the default exclusion
    of the empty event's dual.  Pass ``include_empty_dual=True`` for the
    literal pointwise reading.
    """
    if phi.is_zero:
        return True
    p = phi.principal_mask
    return p is not None and (include_empty_dual or p != 0)


def is_preclusive(phi: Coevent, m: Measure) -> bool:
    """True iff phi maps every measure-zero event to 0 (the measure's null masks)."""
    if phi.algebra != m.algebra:
        raise MismatchedSpace("coevent and measure live on different algebras")
    return phi.support.isdisjoint(m.null_masks)


def check_modus_ponens(phi: Coevent) -> bool:
    """True iff A <= B and phi(A) = 1 imply phi(B) = 1.

    Equivalent to the support being upward closed: at once for a filter
    (a principal mask), else iff each member A has every A | {i} in the
    support, O(n |support|).  The superset walk is the test oracle.
    """
    if phi.principal_mask is not None:
        return True
    n = phi.algebra.space.n
    return all(m | 1 << i in phi.support for m in phi.support for i in range(n))


# ---------------------------------------------------------------------------
# Coevent spaces


def enumerate_classical(algebra: EventAlgebra) -> CoeventSpace:
    """All single-history evaluation maps (all homomorphisms)."""
    return CoeventSpace.build(
        algebra,
        (classical_from_history(algebra, lab) for lab in algebra.space.labels),
        provenance="classical",
    )


def classical_preclusive_set(m: Measure) -> CoeventSpace:
    """The classical coevents that respect every null set.

    The history i's coevent is the dual {i}*, preclusive iff no null
    event contains i.  Empty exactly when the sample space is covered by
    null sets.
    """
    covered = _null_down_set(m)
    keep = (
        classical_from_history(m.algebra, label)
        for i, label in enumerate(m.algebra.space.labels)
        if not covered >> (1 << i) & 1
    )
    return CoeventSpace.build(m.algebra, keep, provenance="classical")


def enumerate_multiplicative(
    algebra: EventAlgebra,
    include_empty_dual: bool = False,
    cap: int = DUAL_ENUMERATION_CAP,
) -> CoeventSpace:
    """The duals of all (by default, nonempty) events."""
    n = algebra.space.n
    if n > cap:
        raise CapExceeded("dual enumeration", cap, n)
    start = 0 if include_empty_dual else 1
    duals = (
        dual_of_event(algebra.event(mask), include_empty_dual=True)
        for mask in range(start, algebra.size)
    )
    return CoeventSpace.build(algebra, duals, provenance="multiplicative")


def enumerate_coevents(algebra: EventAlgebra, cap: int = BRUTE_FORCE_CAP) -> CoeventSpace:
    """Brute force: all 2**(2**n) maps from the event algebra to Z2.

    Deliberately capped; this is the oracle against which the
    constructive enumerations are checked on small instances.  The
    supports are made in canonical order and lie in the algebra by
    construction, so neither is checked again.
    """
    n = algebra.space.n
    if n > min(cap, BRUTE_FORCE_HARD_CAP):
        raise CapExceeded(
            "brute-force coevent enumeration", min(cap, BRUTE_FORCE_HARD_CAP), n
        )
    members = tuple(
        Coevent._unchecked(algebra, frozenset(support))
        for support in _supports_in_order(algebra.size)
    )
    return CoeventSpace(algebra, members, provenance="all")


def _supports_in_order(size: int) -> Iterator[tuple[int, ...]]:
    """Every set of masks below ``size`` as its ascending tuple, in canonical order.

    Canonical (lexicographic) order is depth first over the masks: each
    support comes just before its extensions by larger masks.  So the
    successor of S is S plus (its last mask + 1) while that is a mask,
    else S with its last two masks replaced by (its second-last + 1).
    """
    support: tuple[int, ...] = ()
    while True:
        yield support
        last = support[-1] if support else -1
        if last + 1 < size:
            support += (last + 1,)
        elif len(support) > 1:
            support = support[:-2] + (support[-2] + 1,)
        else:
            return


def _null_down_set(m: Measure) -> int:
    """The null sets' down-closure: bit A is set iff some null event contains A.

    One 2^n-bit integer over the event masks, built one history at a
    time: every covered event that holds history i covers itself minus
    i as well.  That is O(n 2^n) bit operations, done as n shifts.  A
    dual A* is preclusive iff bit A is clear.
    """
    n = m.algebra.space.n
    covered = 0
    for e in m.null_masks:
        covered |= 1 << e
    for i in range(n):
        covered |= covered >> (1 << i) & _lacking(n, i)
    return covered


def _lacking(n: int, i: int) -> int:
    """The 2^n-bit integer whose bit A is set iff history i is not in A.

    In ascending order the masks come in runs of 2^i without i and 2^i
    with it, so this is a run of ones repeated every 2^(i+1) bits.
    """
    run = 1 << i
    return ((1 << run) - 1) * (((1 << (1 << n)) - 1) // ((1 << 2 * run) - 1))


def _preclusive_bits(m: Measure) -> int:
    """Bit A is set iff A is nonempty and its dual A* is preclusive."""
    return ~_null_down_set(m) & ((1 << m.algebra.size) - 2)


def preclusive_dual_events(m: Measure) -> EventFamily:
    """Nonempty events whose dual is preclusive.

    A dual A* is preclusive iff no null event contains A; the family
    is an up-set in the event algebra.  Read from the null sets'
    down-closure in O(n 2^n).
    """
    return EventFamily.from_masks(m.algebra.space, set_bits(_preclusive_bits(m)))


def multiplicative_scheme(m: Measure) -> CoeventSpace:
    """The primitive preclusive duals.

    A preclusive dual A* is primitive iff no nonempty proper subset of
    A also has a preclusive dual; the principal events are then
    pairwise incomparable, so the scheme is an anti-chain in the dual
    order.  Empty when the measure precludes every dual.

    Both tests read the null sets' down-closure, built once: A* is
    preclusive iff no null event contains A.  The preclusive duals form
    an up-set, so A* is primitive iff no A - {i} is a nonempty event
    with a preclusive dual.  O(n 2^n) bit operations in all.
    """
    n = m.algebra.space.n
    preclusive = _preclusive_bits(m)
    above_one = 0  # bit A set iff some nonempty A - {i} has a preclusive dual
    for i in range(n):
        above_one |= (preclusive & _lacking(n, i)) << (1 << i)
    duals = (
        dual_of_event(m.algebra.event(mask), include_empty_dual=True)
        for mask in set_bits(preclusive & ~above_one)
    )
    return CoeventSpace.build(m.algebra, duals, provenance="scheme")


def principal_event(phi: Coevent) -> Event:
    """Principal event of a nonzero multiplicative coevent (any convention)."""
    return dual_of_coevent(phi, include_empty_dual=True)
