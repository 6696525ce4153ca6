"""Coevents: truth-valuation maps from the event algebra to Z2.

A coevent is held as one integer, its key: p for a dual p*, its
principal mask, and ~S, always negative, for any other coevent with
support bits S (bit A is set iff it maps the event with mask A to 1).
Classical coevents are exactly the Boolean homomorphisms (evaluation
at a single history); multiplicative coevents preserve meets and are
dual to events via the principal element of their filter support.
A dual is recognised by that principal mask: a nonzero coevent is
multiplicative iff its support is the filter of supersets of one event,
and classical iff that event is a single history.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CapExceeded,
    EmptyEventDual,
    MismatchedSpace,
    NotMultiplicative,
    ZeroCoevent,
)
from .eventalg import (
    _DIGIT_BYTES,
    Event,
    EventAlgebra,
    Record,
    SampleSpace,
    down_set,
    masks_lacking,
    principal_of,
    set_bits,
    unchecked,
)
from .measure import Measure

#: Brute-force enumeration of all maps EA -> Z2 walks 2**(2**n) supports;
#: n = 3 (256 maps) is the default cap, n = 4 (65536) the hard one, which
#: no cap argument lifts.
BRUTE_FORCE_CAP = 3
BRUTE_FORCE_HARD_CAP = 4

_NOT_DUALS = "dual order requires every member to be a nonzero multiplicative coevent"


def _key_of(bits: int, full: int) -> int:
    """The key of the coevent with support bits ``bits``."""
    p = principal_of(bits, full)
    return ~bits if p is None else p


def _bits_of(key: int, full: int) -> int:
    """The support bits of the coevent with key ``key``: a dual p*'s, the
    supersets of p, are derived on each read and never stored."""
    return ~key if key < 0 else down_set(full ^ key) << key


def render_key(space: SampleSpace, key: int) -> str:
    """``str`` of the coevent with key ``key`` over ``space``: a dual p* as
    the labels of p, starred, any other coevent as its support's events."""
    if key >= 0:
        labels = space.labels
        return "{" + ",".join([labels[i] for i in set_bits(key)]) + "}*"
    names = space.event_names
    return "[" + ", ".join([names[m] for m in set_bits(~key)]) + "]"


class Coevent:
    """A map from the event algebra to {0, 1}, held as its key.

    The key is p for a dual p*, the map true exactly on the supersets of
    p (the constant-one map when p = 0), and ~S, always negative, for any
    other coevent with support bits S (bit A set iff it maps A to 1).  A
    support that is a filter is held as its dual, so a dual equals the
    coevent built from its support; ``principal_mask`` is the key when it
    is not negative, else None.  Equality and hashing read the key.  A
    coevent is immutable: its two slots are set once, by a constructor.
    """

    __slots__ = ("algebra", "_key")
    algebra: EventAlgebra
    _key: int

    def __init__(self, algebra: EventAlgebra, support: Iterable[int]) -> None:
        support = frozenset(support)
        size = algebra.size
        bad = [m for m in support if not 0 <= m < size]
        if bad:
            raise ValueError(f"support masks {bad[:4]} outside the algebra")
        bits = sum(1 << m for m in support)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_key", _key_of(bits, algebra.space.full_mask))

    @classmethod
    def _of_key(cls, algebra: EventAlgebra, key: int) -> "Coevent":
        """The coevent whose key is ``key``: the dual p* for a mask p >= 0,
        else the coevent with support bits ~key, which are not a filter."""
        phi = object.__new__(cls)
        object.__setattr__(phi, "algebra", algebra)
        object.__setattr__(phi, "_key", key)
        return phi

    @property
    def principal_mask(self) -> Optional[int]:
        """p for a dual p*, else None: the key when it is not negative."""
        key = self._key
        return key if key >= 0 else None

    @property
    def _support_bits(self) -> int:
        """Bit A is set iff the coevent maps A to 1 (:func:`_bits_of` its key)."""
        return _bits_of(self._key, self.algebra.space.full_mask)

    @property
    def support(self) -> frozenset[int]:
        """The events mapped to 1, as masks."""
        return frozenset(set_bits(self._support_bits))

    @property
    def is_zero(self) -> bool:
        return self._key == ~0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key and self.algebra == other.algebra

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of Coevent")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of Coevent")

    def __repr__(self) -> str:
        return f"Coevent(algebra={self.algebra!r}, support={self.support!r})"

    def __reduce__(self) -> tuple:  # by key, on every Python, not by slotted state
        return Coevent._of_key, (self.algebra, self._key)

    def __call__(self, event: Event) -> int:
        if event.space != self.algebra.space:
            raise MismatchedSpace("event belongs to a different sample space")
        key = self._key
        if key >= 0:
            return 1 if event.mask & key == key else 0
        return ~key >> event.mask & 1

    def __str__(self) -> str:
        return render_key(self.algebra.space, self._key)


def _held(keys: Iterable[int]) -> Sequence[int]:
    """The keys as held by a space: s, s + 1, ... as a range, else a tuple."""
    if isinstance(keys, range):
        return keys
    keys = tuple(keys)
    run = range(keys[0], keys[0] + len(keys)) if keys and keys[0] >= 0 else range(0)
    return run if keys == tuple(run) else keys


class CoeventSpace(Record, compare=("algebra", "keys")):
    """A finite set of coevents over one algebra, in member order.

    The space is held as its members' keys (``Coevent._key``): p for a
    dual p*, and ~S, always negative, for any other coevent with support
    bits S.  The keys are ``range(s, s + k)`` when the members are s*,
    (s + 1)*, ..., as over all duals, and a tuple otherwise; ``members``
    builds the coevents from them on first read.  Two spaces are equal
    when their algebras and keys are, so the order counts.

    The constructor keeps the caller's order.  :meth:`build` and the
    constructions below put the members in canonical order:
    lexicographic on the supports, each read as its ascending list of
    event masks.  A dual's least support mask is its principal mask, so
    for duals it is ascending principal masks.
    """

    algebra: EventAlgebra
    keys: Sequence[int]
    provenance: str  # not compared

    def __init__(
        self, algebra: EventAlgebra, members: Iterable[Coevent], provenance: str = "user-supplied"
    ) -> None:
        members = tuple(members)
        if any(phi.algebra != algebra for phi in members):
            raise MismatchedSpace("coevent belongs to a different algebra")
        keys = _held([phi._key for phi in members])
        if len(set(keys)) != len(keys):  # the Boolean completion's size rests on it
            raise ValueError("coevent space members must be distinct; use build")
        self.__dict__.update(algebra=algebra, keys=keys, provenance=provenance)

    @classmethod
    def _of_keys(
        cls, algebra: EventAlgebra, keys: Iterable[int], provenance: str
    ) -> "CoeventSpace":
        """The space of the coevents with the distinct keys ``keys``, given
        in canonical order."""
        return unchecked(cls, algebra=algebra, keys=_held(keys), provenance=provenance)

    @classmethod
    def build(
        cls, algebra: EventAlgebra, coevents: Iterable[Coevent], provenance: str
    ) -> "CoeventSpace":
        unique = set()
        for phi in coevents:
            if phi.algebra != algebra:
                raise MismatchedSpace("coevent belongs to a different algebra")
            unique.add(phi._key)
        keys = sorted(unique, key=lambda key: set_bits(_bits_of(key, algebra.space.full_mask)))
        return cls._of_keys(algebra, keys, provenance)

    @cached_property
    def members(self) -> tuple[Coevent, ...]:
        """The coevents, in member order, built from the keys on first read."""
        return tuple([Coevent._of_key(self.algebra, key) for key in self.keys])

    @cached_property
    def _index(self) -> dict[int, int]:
        return {key: i for i, key in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Coevent]:
        return iter(self.members)

    def __contains__(self, phi: Coevent) -> bool:
        try:
            return self.index_of(phi) >= 0
        except ValueError:
            return False

    def index_of(self, phi: Coevent) -> int:
        if phi.algebra != self.algebra:
            raise ValueError("coevent belongs to a different algebra")
        keys = self.keys  # a range answers by arithmetic
        try:
            return keys.index(phi._key) if isinstance(keys, range) else self._index[phi._key]
        except (KeyError, ValueError):
            raise ValueError("coevent is not a member of the space")

    @cached_property
    def principals(self) -> Optional[Sequence[int]]:
        """Each member's principal mask, in member order, or None when some
        member is not a dual: the keys, a range or a tuple, when none is
        negative.  Tau rows, the closed-form order flags, the dual order
        and the audit read it."""
        keys = self.keys
        return keys if isinstance(keys, range) or min(keys, default=0) >= 0 else None

    @cached_property
    def _holding(self) -> tuple[int, ...]:
        """For each history j, the members of a space of duals whose
        principal holds j, as bits."""
        holding = [0] * self.algebra.space.n
        for i, p in enumerate(self.principals):
            for j in set_bits(p):
                holding[j] |= 1 << i
        return tuple(holding)

    def tau_row(self, mask: int) -> int:
        """tau(A) as bits over the members: bit i is set iff member i maps A to 1.

        On a space of duals a member p* maps A to 1 iff p is inside A.
        When the principals are ``range(s, s + k)`` the row is the submasks
        of A (:func:`down_set`, |A| doublings) from s on, shifted down by s.
        Otherwise it is every member but those whose principal holds a
        history outside A, one OR per such history.  Any other space
        reads :attr:`tau_table`.
        """
        principals = self.principals
        if principals is None:
            return self.tau_table[mask]
        everyone = (1 << len(principals)) - 1
        if isinstance(principals, range):
            return down_set(mask) >> principals.start & everyone
        outside = 0
        for j in set_bits(self.algebra.space.full_mask ^ mask):
            outside |= self._holding[j]
        return everyone & ~outside

    @cached_property
    def tau_table(self) -> tuple[int, ...]:
        """tau(A) for each event mask A: the members whose support holds A, as bits.

        All 2^n rows, built once, on first use, for the callers that read
        every row: the upper completion, the order report's injectivity
        witnesses and the test oracles.  On a space of duals the members
        left out of tau(A) are those whose principal holds a history
        outside A, so their sets double once per history j: the events
        without j add the members holding j.  Any other space scans each
        key's support bits (:func:`_bits_of`), a dual's among them.
        """
        if self.principals is not None:
            outside = [0]
            for members in self._holding:
                outside = [x | members for x in outside] + outside
            everyone = (1 << len(self)) - 1
            return tuple(everyone & ~x for x in outside)
        table, full = [0] * self.algebra.size, self.algebra.space.full_mask
        for i, key in enumerate(self.keys):
            bit = 1 << i
            for m in set_bits(_bits_of(key, full)):
                table[m] |= bit
        return tuple(table)

    @cached_property
    def up_rows(self) -> tuple[int, ...]:
        """Row i holds the members whose support contains member i's: the
        up-set rows of the support order, built once.  Over duals it is the
        dual order, row i the tau row of i's principal; otherwise the AND,
        from all ones, of the tau rows that hold i (the zero coevent, in
        none, keeps all ones).  The upper completion and the topos
        instance's dual order (``CoeventToposInstance.poset``) read it."""
        if self.principals is not None:
            return tuple(map(self.tau_row, self.principals))
        rows = [(1 << len(self)) - 1] * len(self)
        for row in self.tau_table:
            for i in set_bits(row):
                rows[i] &= row
        return tuple(rows)

    @cached_property
    def renderings(self) -> tuple[str, ...]:
        """Each member's string, in member order, rendered from its key.

        A range of duals p* over at least half of the 2^n events, as all
        duals are, reads the name of each event p, starred, from the sample
        space's ``event_names``.  Other duals go through :func:`render_key`,
        so a space of a few keys, such as a scheme of one or two members,
        builds no table of all 2^n names.  Any other coevent, with support
        S, extends the string of S less its highest mask when a member
        before it had that support, as :meth:`render_each` does; in
        canonical order every such prefix comes earlier.  The rest go
        through :func:`render_key`.
        """
        space, keys = self.algebra.space, self.keys
        if isinstance(keys, range) and 2 * len(keys) > space.full_mask:
            return tuple([name + "*" for name in space.event_names[keys.start : keys.stop]])
        if self.principals is not None:
            return tuple([render_key(space, key) for key in keys])
        names, done, out = space.event_names, {~0: "[]"}, []
        for key in keys:
            if key >= 0:
                out.append(render_key(space, key))
                continue
            if key not in done:
                last = (~key).bit_length() - 1
                rest = done.get(key | 1 << last)  # the key of the support less mask `last`
                if rest is None:
                    done[key] = render_key(space, key)
                elif rest == "[]":
                    done[key] = "[" + names[last] + "]"
                else:
                    done[key] = rest[:-1] + ", " + names[last] + "]"
            out.append(done[key])
        return tuple(out)

    def render(self, bits: int) -> str:
        """The set of members whose bit is set in ``bits``, from their
        renderings, selected by the binary digits of ``bits`` read as bytes."""
        digits = bin(bits)[:1:-1].encode().translate(_DIGIT_BYTES)
        return "[" + ", ".join(compress(self.renderings, digits)) + "]"

    def render_each(self, bits: Iterable[int]) -> Iterator[str]:
        """``render(b)`` for each b of ``bits``, in turn.

        When b less its last member (its highest bit) came earlier in
        ``bits``, b's string is that one's with the member's name appended,
        as :meth:`subset_renderings` builds its strings; any other b goes
        through :meth:`render`.  In ascending-principal order the last
        member of an up-set of the dual order lies above no other member,
        so the up-set less it is an up-set and a smaller int: listed
        ascending, each member of the upper completion extends an earlier
        one.
        """
        names, done = self.renderings, {0: "[]"}
        for b in bits:
            if b not in done:
                last = b.bit_length() - 1
                rest = done.get(b ^ 1 << last)
                if rest is None:
                    done[b] = self.render(b)
                elif rest == "[]":
                    done[b] = "[" + names[last] + "]"
                else:
                    done[b] = rest[:-1] + ", " + names[last] + "]"
            yield done[b]

    def subset_renderings(self, limit: Optional[int] = None) -> list[str]:
        """``render(bits)`` for ``bits`` in ``range(1 << len(self))``, in that order.

        Bit i is member i, so each member doubles the list: the subsets
        without it, then each of them again with its name appended (the
        empty set's copy is the singleton).  One string is built per
        subset, with no ``set_bits`` walk or join.  With a ``limit`` the
        doubling stops once the list holds more than ``limit`` strings:
        the result is the full list's first ``1 << limit.bit_length()``
        strings (all 2^|V| if that is fewer), at most 2·limit + 1
        whatever |V| is.
        """
        out = ["[]"]
        for name in self.renderings:
            if limit is not None and len(out) > limit:
                break
            tail = ", " + name + "]"
            out += ["[" + name + "]"] + [s[:-1] + tail for s in out[1:]]
        return out

    def __str__(self) -> str:
        return self.render((1 << len(self)) - 1)


def dual_principals(space: CoeventSpace, message: str = _NOT_DUALS) -> Sequence[int]:
    """The principals of a space of nonzero duals, else NotMultiplicative(message)."""
    if space.principals is None:
        raise NotMultiplicative(message)
    return space.principals


# ---------------------------------------------------------------------------
# Constructions


def classical_from_history(algebra: EventAlgebra, label: str) -> Coevent:
    """The evaluation map at one history: true on events containing it."""
    return Coevent._of_key(algebra, 1 << algebra.space.index(label))


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
    return Coevent._of_key(EventAlgebra(a.space), a.mask)


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


def classical_key(key: int) -> bool:
    """:func:`is_classical` read from a key: a principal mask of one bit (not 0 or ~0)."""
    return key > 0 and not key & (key - 1)


def is_classical(phi: Coevent) -> bool:
    """True iff phi is a Boolean-lattice homomorphism into Z2.

    That is, phi preserves complements and every meet and join.
    Preserving meets makes a nonzero support a filter, the supersets of
    a principal event P; preserving complements and joins as well
    forces P to be a single history.  So phi is classical iff its key is
    a principal mask of one bit (:func:`classical_key`).  The pairwise
    definition is the oracle in the tests.
    """
    return classical_key(phi._key)


def multiplicative_key(key: int, include_empty_dual: bool = False) -> bool:
    """:func:`is_multiplicative` read from a key: the zero coevent's ~0, or a
    principal mask, 0 (the constant-one map) only if ``include_empty_dual``."""
    return key > 0 or key == ~0 or include_empty_dual and key == 0


def is_multiplicative(phi: Coevent, include_empty_dual: bool = False) -> bool:
    """True iff phi(A & B) = phi(A) * phi(B) for all pairs.

    The zero map satisfies it; a nonzero phi does iff its support is a
    filter (upward closed and closed under meets), iff its key is a
    principal mask (:func:`multiplicative_key`).  The constant-one map
    satisfies the pointwise identity but asserts the impossible event;
    under the default convention it is rejected, matching the default
    exclusion of the empty event's dual.  Pass ``include_empty_dual=True``
    for the literal pointwise reading.
    """
    return multiplicative_key(phi._key, include_empty_dual)


def preclusive_key(key: int, m: Measure) -> bool:
    """:func:`is_preclusive` read from a key over m's algebra: a dual p* iff
    no null event contains p (bit p of the null sets' down-closure is
    clear, read from its bytes in O(1)), any other iff its support bits
    ~key miss the null sets' bits, one AND."""
    if key >= 0:
        return not m.null_down_bytes[key >> 3] >> (key & 7) & 1
    return not ~key & m.values.null_bits


def is_preclusive(phi: Coevent, m: Measure) -> bool:
    """True iff phi maps every measure-zero event to 0 (:func:`preclusive_key`)."""
    if phi.algebra != m.algebra:
        raise MismatchedSpace("coevent and measure live on different algebras")
    return preclusive_key(phi._key, m)


def modus_ponens_key(key: int, n: int) -> bool:
    """:func:`check_modus_ponens` read from a key over n histories: at once
    for a principal mask, else iff for each history i the members of the
    support S = ~key without i, shifted up by 2^i to their unions with
    {i}, all lie in S, so miss the bits of the key: n operations."""
    return key >= 0 or not any((~key & masks_lacking(n, i)) << (1 << i) & key for i in range(n))


def check_modus_ponens(phi: Coevent) -> bool:
    """True iff A <= B and phi(A) = 1 imply phi(B) = 1.

    Equivalent to an upward-closed support, read from phi's key by
    :func:`modus_ponens_key`.  The superset walk is the test oracle.
    """
    return modus_ponens_key(phi._key, phi.algebra.space.n)


# ---------------------------------------------------------------------------
# Coevent spaces


def enumerate_classical(algebra: EventAlgebra) -> CoeventSpace:
    """All single-history evaluation maps (all homomorphisms)."""
    return CoeventSpace._of_keys(algebra, [1 << i for i in range(algebra.space.n)], "classical")


def classical_preclusive_set(m: Measure) -> CoeventSpace:
    """The classical coevents that respect every null set.

    The history i's coevent is the dual {i}*, preclusive iff no null
    event contains i.  Empty exactly when the sample space is covered by
    null sets.
    """
    keep = [1 << i for i in range(m.algebra.space.n) if preclusive_key(1 << i, m)]
    return CoeventSpace._of_keys(m.algebra, keep, "classical")


def enumerate_multiplicative(
    algebra: EventAlgebra, include_empty_dual: bool = False
) -> CoeventSpace:
    """The duals of all (by default, nonempty) events."""
    start = 0 if include_empty_dual else 1
    return CoeventSpace._of_keys(algebra, range(start, algebra.size), "multiplicative")


def enumerate_coevents(algebra: EventAlgebra, cap: int = BRUTE_FORCE_CAP) -> CoeventSpace:
    """Brute force: all 2**(2**n) maps from the event algebra to Z2.

    Deliberately capped; this is the oracle against which the
    constructive enumerations are checked on small instances.  The
    supports are made as support bits, in canonical order, and handed
    over as keys.
    """
    n = algebra.space.n
    what = "brute-force coevent enumeration"
    if n > BRUTE_FORCE_HARD_CAP:
        raise CapExceeded(what, BRUTE_FORCE_HARD_CAP, n, override=None)
    if n > cap:
        raise CapExceeded(what, cap, n)
    full = algebra.space.full_mask
    keys = [_key_of(bits, full) for bits in _supports_in_order(algebra.size)]
    return CoeventSpace._of_keys(algebra, keys, "all")


def _supports_in_order(size: int) -> Iterator[int]:
    """Every set of masks below ``size`` as its bits, in canonical order.

    Canonical (lexicographic) order is depth first over the masks: each
    support comes just before its extensions by larger masks.  So the
    successor of S is S plus (its last mask + 1) while that is a mask,
    else S with its last two masks replaced by (its second-last + 1).
    """
    bits = 0
    while True:
        yield bits
        last = bits.bit_length() - 1  # -1 for the empty support
        if last + 1 < size:
            bits |= 1 << (last + 1)
        elif bits != 1 << last:
            second = (bits ^ 1 << last).bit_length() - 1
            bits ^= (1 << last) ^ (1 << second) ^ (1 << (second + 1))
        else:
            return


def _preclusive_bits(m: Measure) -> int:
    """Bit A is set iff A is nonempty and its dual A* is preclusive."""
    return ~m.null_down_set & ((1 << m.algebra.size) - 2)


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
        above_one |= (preclusive & masks_lacking(n, i)) << (1 << i)
    return CoeventSpace._of_keys(m.algebra, set_bits(preclusive & ~above_one), "scheme")
