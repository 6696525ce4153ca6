"""Valuation events: treating coevents themselves as the beables.

Fix a coevent space V.  Its powerset is the valuation event algebra;
a history event A embeds into it via tau(A) = the set of members of V
that map A to true.  This module compares the order structure pushed
forward along tau with the inclusion order, builds the union/meet and
Boolean completions of the image, and exposes the Heyting implication
on the former.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from .coevent import Coevent, CoeventSpace, check_modus_ponens
from .errors import (
    CapExceeded,
    MismatchedSpace,
    NotMultiplicative,
    NotUpperMode,
)
from .eventalg import (
    WITNESS_LIST_CAP,
    Event,
    EventsByMask,
    first_witnesses,
    iter_supermasks,
)
from .poset import closure, poset_of_coevents

#: The completions live inside 2**|V|, so closure is capped.
COMPLETION_CAP = 20


@dataclass(frozen=True)
class ValuationEvent:
    """A subset of a coevent space V, stored as a bitmask over its members."""

    space: CoeventSpace
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << len(self.space)):
            raise ValueError("bits out of range for the coevent space")

    @property
    def members(self) -> tuple[Coevent, ...]:
        return tuple(
            phi for i, phi in enumerate(self.space.members) if self.bits >> i & 1
        )

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, phi: Coevent) -> bool:
        try:
            i = self.space.index_of(phi)
        except ValueError:
            return False
        return bool(self.bits >> i & 1)

    def issubset(self, other: "ValuationEvent") -> bool:
        _require_same_valuation_space(self, other)
        return self.bits & other.bits == self.bits

    def __and__(self, other: "ValuationEvent") -> "ValuationEvent":
        _require_same_valuation_space(self, other)
        return ValuationEvent(self.space, self.bits & other.bits)

    def __or__(self, other: "ValuationEvent") -> "ValuationEvent":
        _require_same_valuation_space(self, other)
        return ValuationEvent(self.space, self.bits | other.bits)

    def __invert__(self) -> "ValuationEvent":
        full = (1 << len(self.space)) - 1
        return ValuationEvent(self.space, self.bits ^ full)

    def __str__(self) -> str:
        return self.space.render(self.bits)


def _require_same_valuation_space(a: ValuationEvent, b: ValuationEvent) -> None:
    if a.space != b.space:
        raise MismatchedSpace("valuation events over different coevent spaces")


def tau(a: Event, space: CoeventSpace) -> ValuationEvent:
    """The valuation event of all members of V mapping A to true.

    For the space of all duals this is the up-set of A's dual in the
    dual order: the duals of the nonempty subsets of A.  It is read from
    the space's tau table.
    """
    if a.space != space.algebra.space:
        raise MismatchedSpace("event belongs to a different sample space")
    return ValuationEvent(space, space.tau_table[a.mask])


@dataclass(frozen=True)
class TruthFunction:
    """The Boolean homomorphism on valuation events pinned to one coevent."""

    space: CoeventSpace
    pivot: Coevent

    def __post_init__(self) -> None:
        if self.pivot not in self.space:
            raise MismatchedSpace("pivot coevent is not a member of the space")

    def __call__(self, alpha: ValuationEvent) -> int:
        return truth_evaluate(self, alpha)


def truth_evaluate(f: TruthFunction, alpha: ValuationEvent) -> int:
    """1 iff the pivot coevent belongs to the valuation event."""
    if alpha.space != f.space:
        raise MismatchedSpace("valuation event over a different coevent space")
    return 1 if f.pivot in alpha else 0


# ---------------------------------------------------------------------------
# Order comparison


@dataclass
class OrderReport:
    """Exhaustive comparison of the pushed-forward and inclusion orders.

    Each flag is a closed-form verdict and never depends on the lists.
    Under the key of each false flag, ``witnesses`` lists the first
    failing pairs in ascending mask order, as many as the report's limit
    allows; ``truncated`` names the lists that were cut.
    """

    tau_injective: bool
    pushforward_well_defined: bool
    orders_agree: bool
    meet_agree: bool
    join_agree: bool
    witnesses: dict[str, tuple[tuple[Event, Event], ...]]
    notes: tuple[str, ...] = ()
    truncated: frozenset[str] = field(default_factory=frozenset)


def order_report(
    space: CoeventSpace, limit: Optional[int] = WITNESS_LIST_CAP
) -> OrderReport:
    """Compare, over all pairs of history events, the two order structures.

    Each flag is decided by a closed form over the tau table I, where
    Omega is the full event and {i} a single history, or over the
    members:

    - injectivity of tau: I[A] is distinct for every A, O(2^n);
    - well-definedness of the pushed-forward order, i.e. monotonicity
      A <= B implies tau(A) <= tau(B) (pushing the order forward along
      a non-injective tau is consistent exactly when tau is monotone):
      every member's support is upward closed (:func:`check_modus_ponens`),
      O(|V|) on duals, whose filters pass at once;
    - order agreement, A <= B iff tau(A) <= tau(B): tau is monotone and
      I[{i}] is not inside I[Omega - {i}] for any i, O(n 2^n).  (If A is
      not inside B, pick i in A - B: were I[A] <= I[B], monotonicity
      would give I[{i}] <= I[A] <= I[B] <= I[Omega - {i}].);
    - meet agreement, tau(A & B) = tau(A) & tau(B): I[A] is I[Omega]
      meet every I[Omega - {i}] with i not in A, checked one bit at a
      time, O(2^n);
    - join agreement, tau(A | B) = tau(A) | tau(B): I[A] is I[{}] joined
      with every I[{i}] with i in A, checked one bit at a time, O(2^n).

    Pairs of events are walked only to list a failing flag's witnesses,
    by that flag's pairwise definition, and each walk stops after the
    first ``limit`` witnesses (None lists them all).
    """
    alg = space.algebra
    n, size = alg.space.n, alg.size
    full = size - 1
    images = space.tau_table

    injective = len(set(images)) == size
    monotone = all(map(check_modus_ponens, space))
    orders = monotone and all(
        images[1 << i] & ~images[full ^ 1 << i] for i in range(n)
    )
    meet = all(
        images[full ^ c] == images[full ^ c ^ (c & -c)] & images[full ^ (c & -c)]
        for c in range(1, size)
    )
    join = all(
        images[a] == images[a ^ (a & -a)] | images[a & -a] for a in range(1, size)
    )

    ev = EventsByMask(alg)

    def injectivity_pairs():
        by_image: dict[int, list[int]] = {}
        for m in range(size):
            by_image.setdefault(images[m], []).append(m)
        for a in range(size):
            same = by_image[images[a]]
            for b in same[same.index(a) + 1:]:
                yield ev[a], ev[b]

    def pushforward_pairs():
        for a in range(size):
            for b in iter_supermasks(a, full):
                if images[a] & images[b] != images[a]:
                    yield ev[a], ev[b]

    def orders_pairs():
        for a in range(size):
            for b in range(size):
                if (a & b == a) != (images[a] & images[b] == images[a]):
                    yield ev[a], ev[b]

    def meet_pairs():
        for a in range(size):
            for b in range(a, size):
                if images[a & b] != images[a] & images[b]:
                    yield ev[a], ev[b]

    def join_pairs():
        for a in range(size):
            for b in range(a, size):
                if images[a | b] != images[a] | images[b]:
                    yield ev[a], ev[b]

    listers = {
        "injectivity": (injective, injectivity_pairs),
        "pushforward": (monotone, pushforward_pairs),
        "orders": (orders, orders_pairs),
        "meet": (meet, meet_pairs),
        "join": (join, join_pairs),
    }
    witnesses: dict[str, tuple[tuple[Event, Event], ...]] = dict.fromkeys(listers, ())
    truncated = set()
    for key, (holds, pairs) in listers.items():
        if not holds:
            witnesses[key], cut = first_witnesses(pairs(), limit)
            if cut:
                truncated.add(key)

    notes = []
    if not monotone:
        notes.append(
            "pushed-forward order is not well defined (tau is not monotone); "
            "no claims about it are made"
        )
    if not injective and monotone:
        notes.append(
            "tau is not injective; the pushed-forward order is taken on the image"
        )

    return OrderReport(
        tau_injective=injective,
        pushforward_well_defined=monotone,
        orders_agree=orders,
        meet_agree=meet,
        join_agree=join,
        witnesses=witnesses,
        notes=tuple(notes),
        truncated=frozenset(truncated),
    )


# ---------------------------------------------------------------------------
# Completions


@dataclass(frozen=True)
class Completion:
    """Closure of the tau image inside the valuation event algebra.

    mode="upper": closure under union and intersection; over the space
    of all duals every member is an upper set of the dual order and the
    result is a Heyting algebra (a finite locale), not Boolean in
    general.  mode="boolean": additionally closed under complement.
    """

    mode: str
    space: CoeventSpace
    member_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.mode not in ("upper", "boolean"):
            raise ValueError(f"unknown completion mode {self.mode!r}")

    @property
    def members(self) -> tuple[ValuationEvent, ...]:
        return tuple(ValuationEvent(self.space, b) for b in self.member_bits)

    def __len__(self) -> int:
        return len(self.member_bits)

    def __iter__(self) -> Iterator[ValuationEvent]:
        return iter(self.members)

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.member_bits)

    def __contains__(self, alpha: ValuationEvent) -> bool:
        return alpha.space == self.space and alpha.bits in self._member_set


def complete(space: CoeventSpace, mode: str, cap: int = COMPLETION_CAP) -> Completion:
    """Closure of {tau(A)} under the mode's operations.

    By distributivity the union/intersection closure C is the union-closure
    of the intersection-closure M of the generators, two frontier passes
    of O(|C| |M|) set operations; the pairwise worklist is the test
    oracle.  The Boolean closure is all of 2^V: its atoms are the classes
    of members that no generator tells apart, and distinct members of V
    have distinct supports, so some event A lies in one support and not
    the other, and the row tau(A) separates them.  Every atom is one
    member.  The tests compare it with a brute-force closure.  Its
    2^|V| members are refused above |V| = COMPLETION_CAP whatever
    ``cap`` says.
    """
    if mode not in ("upper", "boolean"):
        raise ValueError(f"unknown completion mode {mode!r}")
    if mode == "boolean" and len(space) > COMPLETION_CAP:
        raise CapExceeded("completion closure", COMPLETION_CAP, len(space), override=None)
    if len(space) > cap:
        raise CapExceeded("completion closure", cap, len(space))
    if mode == "boolean":
        return Completion(mode, space, tuple(range(1 << len(space))))
    current = closure(closure(set(space.tau_table), int.__and__), int.__or__)
    return Completion(mode, space, tuple(sorted(current)))


def heyting_implication(
    alpha: ValuationEvent, beta: ValuationEvent, completion: Completion
) -> ValuationEvent:
    """The largest member gamma of the completion with gamma & alpha <= beta.

    Needs a space of nonzero multiplicative coevents (NotMultiplicative,
    a ValueError, names the requirement otherwise).  Over such a space
    the upper completion is the up-sets of the dual order, so the answer
    is that locale's implication, computed pointwise: a member of V
    belongs iff every member above it that lies in alpha also lies in
    beta.  The tests
    compare it with a scan of the completion's members.
    """
    if completion.mode != "upper":
        raise NotUpperMode("Heyting implication needs the union/intersection completion")
    _require_same_valuation_space(alpha, beta)
    if alpha.space != completion.space:
        raise MismatchedSpace("valuation events over a different coevent space")
    if alpha not in completion or beta not in completion:
        raise ValueError("operands must be members of the completion")

    poset = poset_of_coevents(completion.space)
    return ValuationEvent(completion.space, poset.implication(alpha.bits, beta.bits))


# ---------------------------------------------------------------------------
# Truth-function audits


@dataclass(frozen=True)
class AuditRecord:
    """The six truth values comparing event-side and valuation-side logic.

    The AND identity (phi(A) * phi(B) = f(tau(A) & tau(B)) = phi(A & B))
    always holds for multiplicative coevents: at a dual p*, p <= A & B iff
    p <= A and p <= B, so all three read the same bit.  The OR side may
    not, and ``or_discrepancy`` flags exactly that anhomomorphism.
    """

    pivot: Coevent
    a: Event
    b: Event
    phi_a: int
    phi_b: int
    phi_meet: int
    phi_join: int
    f_meet: int
    f_join: int

    @property
    def and_identity_holds(self) -> bool:
        return (self.phi_a & self.phi_b) == self.f_meet == self.phi_meet

    @property
    def or_discrepancy(self) -> bool:
        return self.f_join != self.phi_join


def and_or_audit(
    phi: Coevent, a: Event, b: Event, space: CoeventSpace
) -> AuditRecord:
    """Evaluate both routes for AND and OR at one coevent and event pair.

    The valuation side is the pivot's bit of the tau-table rows of A and B.
    """
    if phi not in space:
        raise MismatchedSpace("coevent is not a member of the space")
    if phi.principal_mask is None:
        raise NotMultiplicative("audit is defined for nonzero multiplicative coevents")
    i = space.index_of(phi)
    t = space.tau_table
    return AuditRecord(
        pivot=phi,
        a=a,
        b=b,
        phi_a=phi(a),  # raises MismatchedSpace before the table is read
        phi_b=phi(b),
        phi_meet=phi(a & b),
        phi_join=phi(a | b),
        f_meet=(t[a.mask] & t[b.mask]) >> i & 1,
        f_join=(t[a.mask] | t[b.mask]) >> i & 1,
    )


def or_discrepancies(space: CoeventSpace) -> Iterator[tuple[int, int, int]]:
    """(member index, A, B) for each pair of event masks A <= B on which OR fails.

    At a dual p*, phi(A) = 1 iff p <= A, so OR fails exactly when p <= A | B
    while p is inside neither A nor B (Sorkin, "An exercise in
    'anhomomorphic logic'", 2007); AND never fails.  So for each A that
    splits p, B runs over the supersets of p - A that miss part of p & A,
    with no audit record per pair.  Listed in :func:`and_or_audit`'s pair
    order: member, then A, then B ascending.  Needs nonzero duals.
    """
    full = space.algebra.space.full_mask
    principals = space.principals
    if principals is None:
        raise NotMultiplicative("audit is defined for nonzero multiplicative coevents")
    for i, p in enumerate(principals):
        for a in range(full + 1):
            inside = a & p
            if inside in (0, p):
                continue
            for b in iter_supermasks(p ^ inside, full):
                if b >= a and b & inside != inside:
                    yield i, a, b
