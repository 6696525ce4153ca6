"""Valuation events: treating coevents themselves as the beables.

Fix a coevent space V.  Its powerset is the valuation event algebra;
a history event A embeds into it via tau(A) = the set of members of V
that map A to true.  This module compares the order structure pushed
forward along tau with the inclusion order, builds the union/meet and
Boolean completions of the image, and exposes the Heyting implication
on the former.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import partial
from typing import Iterator, Optional, Sequence

from .coevent import Coevent, CoeventSpace, dual_principals, modus_ponens_key
from .errors import (
    CapExceeded,
    MismatchedSpace,
    NotMultiplicative,
    NotUpperMode,
)
from .eventalg import (
    WITNESS_LIST_CAP,
    ByMask,
    Event,
    EventAlgebra,
    ListedOnRead,
    Record,
    first_witnesses,
    iter_supermasks,
    set_bits,
    unchecked,
)
from .poset import implication, up_sets

#: The completions live inside 2**|V|, so closure is capped.
COMPLETION_CAP = 20

_AUDIT_NEEDS_DUALS = "audit is defined for nonzero multiplicative coevents"


class ValuationEvent(Record):
    """A subset of a coevent space V, stored as a bitmask over its members."""

    space: CoeventSpace
    bits: int

    def __init__(self, space: CoeventSpace, bits: int) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "bits", bits)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << len(self.space)):
            raise ValueError("bits out of range for the coevent space")

    @property
    def members(self) -> tuple[Coevent, ...]:
        members = self.space.members
        return tuple(members[i] for i in set_bits(self.bits))

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
    dual order: the duals of the nonempty subsets of A.  It is the
    space's tau row of A, read on demand.
    """
    if a.space != space.algebra.space:
        raise MismatchedSpace("event belongs to a different sample space")
    return ValuationEvent(space, space.tau_row(a.mask))


class TruthFunction(Record):
    """The Boolean homomorphism on valuation events pinned to one coevent."""

    space: CoeventSpace
    pivot: Coevent

    def __post_init__(self) -> None:
        if self.pivot not in self.space:
            raise MismatchedSpace("pivot coevent is not a member of the space")

    def __call__(self, alpha: ValuationEvent) -> int:
        """1 iff the pivot coevent belongs to the valuation event."""
        if alpha.space != self.space:
            raise MismatchedSpace("valuation event over a different coevent space")
        return 1 if self.pivot in alpha else 0


# ---------------------------------------------------------------------------
# Order comparison


_ORDER_KEYS = ("injectivity", "pushforward", "orders", "meet", "join")
_FLAG_FIELDS = (
    "tau_injective", "pushforward_well_defined", "orders_agree", "meet_agree", "join_agree"
)


class OrderReport(ListedOnRead, Record):
    """Exhaustive comparison of the pushed-forward and inclusion orders.

    Each flag is a closed-form verdict and never depends on the lists.
    Under the key of each false flag, ``witnesses`` lists the first
    failing pairs in ascending mask order, as many as the report's limit
    allows; ``truncated`` names the lists that were cut.  A report from
    :func:`order_report` lists them on the first read of either
    (:class:`~coevents.eventalg.ListedOnRead`): a caller that reads only
    the flags walks no pairs.

    A report from :func:`order_report` also holds the same lists as
    integer rows, ``rows``: under each key, the (A, B) mask pairs.  The
    event pairs are built from the rows on their first read, so a caller
    that reads only the rows builds no ``Event``.
    """

    tau_injective: bool
    pushforward_well_defined: bool
    orders_agree: bool
    meet_agree: bool
    join_agree: bool
    witnesses: dict[str, tuple[tuple[Event, Event], ...]]
    notes: tuple[str, ...] = ()
    truncated: frozenset[str] = frozenset()

    _witness_fields = ("witnesses", "truncated")
    __hash__ = None  # its witnesses are a dict


def order_report(
    space: CoeventSpace, limit: Optional[int] = WITNESS_LIST_CAP
) -> OrderReport:
    """Compare, over all pairs of history events, the two order structures.

    On a space of duals every flag is a closed form over the principals,
    read with no tau row: tau(A) is the members p* with p inside A, so

    - tau is monotone, so the pushed-forward order is well defined, and
      tau(A & B) = tau(A) & tau(B), since p <= A & B iff p <= A and
      p <= B: both flags always hold;
    - tau is injective, and A <= B iff tau(A) <= tau(B), iff every
      single history {j} is a principal: then tau(A) names the histories
      of A, and otherwise tau({j}) = tau({}) breaks both;
    - tau(A | B) = tau(A) | tau(B) iff no principal has two histories or
      more: a principal p = {i, j, ...} lies inside {i} | (p - {i}) and
      inside neither, while a principal of at most one history lies
      inside A | B only if it lies inside A or B.

    Any other space decides each flag by a closed form over its tau
    table I, where Omega is the full event and {i} a single history:

    - injectivity of tau: I[A] is distinct for every A, O(2^n);
    - well-definedness of the pushed-forward order, i.e. monotonicity
      A <= B implies tau(A) <= tau(B) (pushing the order forward along
      a non-injective tau is consistent exactly when tau is monotone):
      every member's support is upward closed (:func:`modus_ponens_key`);
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
    by that flag's pairwise definition, on the first read of the
    report's ``witnesses`` or ``truncated``.  Each walk reads a tau row
    once per visited mask (see :func:`_order_witnesses`) and stops after
    the first ``limit`` witnesses (None lists them all).
    """
    principals = space.principals
    if principals is None:
        flags = _flags_from_table(space)
    else:
        flags = _flags_from_principals(principals, space.algebra.space.n)
    injective, monotone, orders, meet, join = flags

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

    failing = tuple(key for key, holds in zip(_ORDER_KEYS, flags) if not holds)
    verdicts = dict(zip(_FLAG_FIELDS, flags), notes=tuple(notes))
    if not failing:
        empty = dict.fromkeys(_ORDER_KEYS, ())
        return unchecked(
            OrderReport, rows=empty, witnesses=dict(empty), truncated=frozenset(), **verdicts
        )
    return unchecked(
        OrderReport,
        _lister=partial(_order_witnesses, space, failing, limit),
        _of_rows=partial(_event_pairs, space.algebra),
        **verdicts,
    )


def _flags_from_principals(principals: Sequence[int], n: int) -> tuple[bool, ...]:
    """:func:`order_report`'s flags over a space of duals, from its principals."""
    singletons = set(principals).issuperset(1 << i for i in range(n))
    return singletons, True, singletons, True, not any(p & (p - 1) for p in principals)


def _flags_from_table(space: CoeventSpace) -> tuple[bool, ...]:
    """:func:`order_report`'s flags over any space, from its tau table."""
    size = space.algebra.size
    n, full = space.algebra.space.n, size - 1
    images = space.tau_table
    monotone = all(modus_ponens_key(key, n) for key in space.keys)
    return (
        len(set(images)) == size,
        monotone,
        monotone and all(images[1 << i] & ~images[full ^ 1 << i] for i in range(n)),
        all(
            images[full ^ c] == images[full ^ c ^ (c & -c)] & images[full ^ (c & -c)]
            for c in range(1, size)
        ),
        all(images[a] == images[a ^ (a & -a)] | images[a & -a] for a in range(1, size)),
    )


def _order_witnesses(
    space: CoeventSpace, failing: tuple[str, ...], limit: Optional[int]
) -> tuple[dict[str, tuple[tuple[int, int], ...]], frozenset[str]]:
    """The first ``limit`` witnesses of each failing flag, as mask pairs,
    and the cut lists.

    The injectivity witnesses group every event by its row, so when they
    are listed every walk reads the whole tau table, as on a space that
    holds a non-dual, whose rows are that table.  Otherwise each row is
    read on demand, once per visited mask.  Each walk lists the pairs
    (A, B) of one A at a time, so a cut list walks at most one A past
    its last witness.
    """
    alg = space.algebra
    size = alg.size
    full = size - 1
    if space.principals is None or "injectivity" in failing:
        images = space.tau_table
    else:
        images = ByMask(space.tau_row)

    def injectivity_pairs():
        by_image: dict[int, list[int]] = {}
        for m in range(size):
            by_image.setdefault(images[m], []).append(m)
        for a in range(size):
            same = by_image[images[a]]
            yield from [(a, b) for b in same[same.index(a) + 1:]]

    def pushforward_pairs():
        for a in range(size):
            row = images[a]
            yield from [(a, b) for b in iter_supermasks(a, full) if row & images[b] != row]

    def orders_pairs():
        for a in range(size):
            row = images[a]
            yield from [
                (a, b) for b in range(size) if (a & b == a) != (row & images[b] == row)
            ]

    def meet_pairs():
        for a in range(size):
            row = images[a]
            yield from [(a, b) for b in range(a, size) if images[a & b] != row & images[b]]

    def join_pairs():
        duals = space.principals is not None
        for a in range(size):
            row = images[a]
            # Over duals, (A, B) fails only at a principal that meets A
            # without lying inside A or inside Omega - A.
            if duals and not images[full] & ~row & ~images[full ^ a]:
                continue
            yield from [(a, b) for b in range(a, size) if images[a | b] != row | images[b]]

    listers = {
        "injectivity": injectivity_pairs,
        "pushforward": pushforward_pairs,
        "orders": orders_pairs,
        "meet": meet_pairs,
        "join": join_pairs,
    }
    rows: dict[str, tuple[tuple[int, int], ...]] = dict.fromkeys(_ORDER_KEYS, ())
    truncated = set()
    for key in failing:
        rows[key], cut = first_witnesses(listers[key](), limit)
        if cut:
            truncated.add(key)
    return rows, frozenset(truncated)


def _event_pairs(
    alg: EventAlgebra, rows: dict[str, tuple[tuple[int, int], ...]]
) -> dict[str, tuple[tuple[Event, Event], ...]]:
    """The event pairs that the mask pairs of each list name."""
    ev = ByMask(alg.event)
    return {key: tuple([(ev[a], ev[b]) for a, b in pairs]) for key, pairs in rows.items()}


# ---------------------------------------------------------------------------
# Completions


class Completion(Record):
    """Closure of the tau image inside the valuation event algebra.

    mode="upper": closure under union and intersection; every member is
    an up-set of the space's ``up_rows`` and the result is a Heyting
    algebra (a finite locale), not Boolean in general.  mode="boolean":
    additionally closed under complement, which is all of 2^V.
    ``member_bits`` holds the members' bit patterns in ascending order:
    a sorted tuple in upper mode, and ``range(1 << |V|)`` in Boolean
    mode, so that nothing 2^|V| long is built until someone reads it;
    :meth:`holds` answers membership by binary search of it.
    """

    mode: str
    space: CoeventSpace
    member_bits: Sequence[int]

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

    def holds(self, bits: int) -> bool:
        """True iff ``bits`` is a member's bit pattern: ``member_bits`` is
        sorted and distinct, a range in Boolean mode, so one bisection."""
        i = bisect_left(self.member_bits, bits)
        return i < len(self.member_bits) and self.member_bits[i] == bits

    def __contains__(self, alpha: ValuationEvent) -> bool:
        return alpha.space == self.space and self.holds(alpha.bits)


def complete(space: CoeventSpace, mode: str, cap: int = COMPLETION_CAP) -> Completion:
    """Closure of {tau(A)} under the mode's operations.

    The union/intersection closure is the up-sets of the members ordered
    by support inclusion (Birkhoff), antisymmetric as the members are
    distinct: each tau row, the members whose support holds A, is one;
    the rows holding a nonzero member i meet in i's up-set; and every
    up-set is a union of these.  The zero coevent lies in no row and the
    constant-one dual ∅* in every row, so the up-sets are taken inside
    every member but the zero coevent, less ∅ when ∅* is a member.  So
    it is :func:`~coevents.poset.up_sets` over the space's ``up_rows``,
    with no closure and no coevent built; the pairwise worklist is its
    test oracle.

    Members with supports of one size are pairwise incomparable, so w of
    them give 2^w - 1 up-sets at least.  A space over COMPLETION_CAP
    members, which only a raised ``cap`` lets through, is refused,
    whatever ``cap`` says, before any up-set is listed when its widest
    support size is shared by more than COMPLETION_CAP members.  A dual
    p*'s support size is 2^(n - |p|), any other's its popcount.

    The Boolean closure is all of 2^V: its atoms are the classes of
    members that no generator tells apart, and distinct members of V
    have distinct supports, so some event A lies in one support and not
    the other, and the row tau(A) separates them.  Every atom is one
    member.  The tests compare it with a brute-force closure.  Its
    members are held as ``range(1 << |V|)``, so building it costs
    nothing, and they are refused above |V| = COMPLETION_CAP whatever
    ``cap`` says.
    """
    if mode not in ("upper", "boolean"):
        raise ValueError(f"unknown completion mode {mode!r}")
    if mode == "boolean" and len(space) > COMPLETION_CAP:
        raise CapExceeded("completion closure", COMPLETION_CAP, len(space), override=None)
    if len(space) > cap:
        raise CapExceeded("completion closure", cap, len(space))
    if mode == "boolean":
        return Completion(mode, space, range(1 << len(space)))
    keys, everyone = space.keys, (1 << len(space)) - 1
    if len(space) > COMPLETION_CAP:
        n = space.algebra.space.n
        sizes = (1 << n - k.bit_count() if k >= 0 else (~k).bit_count() for k in keys)
        widest = max(Counter(sizes).values())
        if widest > COMPLETION_CAP:
            raise CapExceeded("completion closure", COMPLETION_CAP, widest, override=None)
    within = everyone ^ (1 << keys.index(~0) if ~0 in keys else 0)
    members = up_sets(space.up_rows, within)
    if 0 in keys:
        del members[0]
    return Completion(mode, space, tuple(members))


def heyting_implication(
    alpha: ValuationEvent, beta: ValuationEvent, completion: Completion
) -> ValuationEvent:
    """The largest member gamma of the completion with gamma & alpha <= beta.

    Needs a space of nonzero multiplicative coevents (NotMultiplicative,
    a ValueError, names the requirement otherwise).  Over such a space
    the upper completion is the up-sets of the dual order, so the answer
    is that locale's implication, computed pointwise: a member of V
    belongs iff every member above it that lies in alpha also lies in
    beta.  The tests compare it with a scan of the completion's members.
    """
    if completion.mode != "upper":
        raise NotUpperMode("Heyting implication needs the union/intersection completion")
    _require_same_valuation_space(alpha, beta)
    if alpha.space != completion.space:
        raise MismatchedSpace("valuation events over a different coevent space")
    if not (completion.holds(alpha.bits) and completion.holds(beta.bits)):
        raise ValueError("operands must be members of the completion")

    space = completion.space
    dual_principals(space)
    return ValuationEvent(space, implication(space.up_rows, alpha.bits, beta.bits))


# ---------------------------------------------------------------------------
# Truth-function audits


class AuditRecord(Record):
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

    The valuation side is the pivot's bit of the tau rows of A and B.
    """
    if phi not in space:
        raise MismatchedSpace("coevent is not a member of the space")
    if phi.principal_mask is None:
        raise NotMultiplicative(_AUDIT_NEEDS_DUALS)
    i = space.index_of(phi)
    phi_a, phi_b = phi(a), phi(b)  # raise MismatchedSpace before a row is read
    row_a, row_b = space.tau_row(a.mask), space.tau_row(b.mask)
    return AuditRecord(
        pivot=phi,
        a=a,
        b=b,
        phi_a=phi_a,
        phi_b=phi_b,
        phi_meet=phi(a & b),
        phi_join=phi(a | b),
        f_meet=(row_a & row_b) >> i & 1,
        f_join=(row_a | row_b) >> i & 1,
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
    for i, p in enumerate(dual_principals(space, _AUDIT_NEEDS_DUALS)):
        for a in range(full + 1):
            inside = a & p
            if inside in (0, p):
                continue
            # b = outside | extra over the submasks extra of free, ascending
            outside = p ^ inside
            free = full ^ outside
            extra = 0
            while True:
                b = outside | extra
                if b >= a and b & inside != inside:
                    yield i, a, b
                if extra == free:
                    break
                extra = (extra - free) & free


def or_discrepancy_count(space: CoeventSpace) -> int:
    """How many triples :func:`or_discrepancies` lists, read from the
    principals' sizes alone.

    At a dual p* with |p| = k, a pair on which OR fails puts each history
    of p in A, in B or in both, but p inside neither: 3^k - 2^(k+1) + 1
    ordered ways; each history outside p lies in A, B, both or neither.
    No such pair has A = B, so half of its ordered pairs have A < B.
    Over all nonempty duals the sum is (7^n - 2 6^n + 5^n)/2.
    """
    n = space.algebra.space.n
    sizes = Counter(p.bit_count() for p in dual_principals(space, _AUDIT_NEEDS_DUALS))
    return sum(c * 4 ** (n - k) * (3**k - 2 ** (k + 1) + 1) // 2 for k, c in sizes.items())
