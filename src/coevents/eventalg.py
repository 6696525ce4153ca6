"""Finite sample spaces and the full event algebra as a Boolean lattice.

Histories are the elements of a small finite sample space; events are
subsets, encoded as bitmasks over the fixed label order.  Everything
here is immutable and exact, and every other module builds on it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .errors import MismatchedSpace, UnknownHistory

#: Hard cap on the number of histories: the event algebra is the full
#: powerset and several callers enumerate it, so 2**16 events is the
#: largest size we allow anywhere.
MAX_HISTORIES = 16

#: A witness list stops after this many entries, in canonical order.  The
#: verdicts never read the lists, so a cut list changes no verdict.
WITNESS_LIST_CAP = 1000

_T = TypeVar("_T")
_R = TypeVar("_R", bound="ListedOnRead")


def first_witnesses(
    witnesses: Iterable[_T], limit: Optional[int]
) -> tuple[tuple[_T, ...], bool]:
    """The first ``limit`` witnesses (all of them when ``limit`` is None),
    and whether any were left unlisted.

    One witness past the limit is drawn, only to tell whether the list
    was cut; the rest of the walk is never made.
    """
    if limit is None:
        return tuple(witnesses), False
    head = tuple(islice(witnesses, limit + 1))
    return head[:limit], len(head) > limit


class ListedOnRead:
    """Base of a dataclass report whose witness fields are listed on first read.

    The subclass names its witness fields in ``_witness_fields``; a
    default among them must come from ``field(default_factory=...)``, so
    that no class attribute shadows the unset field.  :meth:`_deferred`
    makes a report with its verdict fields set, its witness fields unset
    and a lister held; the first read of any witness field calls
    ``lister()`` once, takes its values in ``_witness_fields`` order and
    drops the lister.  A caller that reads only the verdicts lists
    nothing.
    """

    _witness_fields: tuple[str, ...] = ()

    @classmethod
    def _deferred(cls: type[_R], lister: Callable[[], tuple], **verdicts: object) -> _R:
        report = object.__new__(cls)
        report.__dict__.update(verdicts, _lister=lister)
        return report

    def __getattr__(self, name: str) -> object:
        state = self.__dict__
        if name not in self._witness_fields or "_lister" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state.update(zip(self._witness_fields, state["_lister"]()))
        del state["_lister"]
        return state[name]


@dataclass(frozen=True)
class SampleSpace:
    """An ordered tuple of distinct history labels.

    The label order is fixed at construction; it defines the canonical
    bitmask encoding of events (bit i = labels[i]).
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValueError("sample space needs at least one history")
        if len(self.labels) > MAX_HISTORIES:
            raise ValueError(
                f"sample space has {len(self.labels)} histories, cap is {MAX_HISTORIES}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("history labels must be pairwise distinct")
        for lab in self.labels:
            if not lab or any(c in lab for c in ",{}"):
                raise ValueError(
                    f"history label {lab!r} is empty or contains ',', '{{' or '}}', "
                    "so events would not render apart"
                )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        return self.bit(label).bit_length() - 1

    def bit(self, label: str) -> int:
        """The bit of history ``label`` in an event mask, 1 << its index."""
        try:
            return self._bits[label]
        except (KeyError, TypeError):
            raise UnknownHistory(f"history {label!r} not in sample space {self.labels}")

    @cached_property
    def _bits(self) -> dict[str, int]:
        """Each label's bit, looked up in one table built on first use."""
        return {label: 1 << i for i, label in enumerate(self.labels)}

    @cached_property
    def event_names(self) -> tuple[str, ...]:
        """``str`` of every event, indexed by mask; built once, on first use."""
        names = [""]
        for label in self.labels:
            names += [f"{s},{label}" if s else label for s in names]
        return tuple("{" + s + "}" for s in names)


@dataclass(frozen=True)
class Event:
    """A subset of a sample space, stored as an n-bit characteristic mask."""

    space: SampleSpace
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.space.full_mask:
            raise ValueError(f"mask {self.mask} out of range for n={self.space.n}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(
            lab for i, lab in enumerate(self.space.labels) if self.mask >> i & 1
        )

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def issubset(self, other: "Event") -> bool:
        _require_same_space(self, other)
        return self.mask & other.mask == self.mask

    def __and__(self, other: "Event") -> "Event":
        _require_same_space(self, other)
        return Event(self.space, self.mask & other.mask)

    def __or__(self, other: "Event") -> "Event":
        _require_same_space(self, other)
        return Event(self.space, self.mask | other.mask)

    def __xor__(self, other: "Event") -> "Event":
        _require_same_space(self, other)
        return Event(self.space, self.mask ^ other.mask)

    def __invert__(self) -> "Event":
        return Event(self.space, self.mask ^ self.space.full_mask)

    def __str__(self) -> str:
        return "{" + ",".join(self.labels) + "}"


def _require_same_space(a: Event, b: Event) -> None:
    if a.space != b.space:
        raise MismatchedSpace(
            f"events over different sample spaces: {a.space.labels} vs {b.space.labels}"
        )


@dataclass(frozen=True)
class EventAlgebra:
    """The full powerset 2^Omega of a sample space.

    Set inclusion is the partial order; meet/join/complement are the
    set operations, which makes the algebra a Boolean lattice (and,
    via AB = A&B and A+B = A^B, an algebra over Z2).
    """

    space: SampleSpace

    @property
    def size(self) -> int:
        return 1 << self.space.n

    @property
    def empty(self) -> Event:
        return Event(self.space, 0)

    @property
    def full(self) -> Event:
        return Event(self.space, self.space.full_mask)

    def event(self, mask: int) -> Event:
        return Event(self.space, mask)

    def event_from_labels(self, labels: Iterable[str]) -> Event:
        bit = self.space.bit
        mask = 0
        for lab in labels:
            mask |= bit(lab)
        return Event(self.space, mask)

    def parse_mask(self, text: str) -> int:
        """The mask of the event written ``{a,b}``, as events print, or ``a,b``.

        Empty parts are skipped, so ``{}`` and ``""`` are the empty event.
        An unknown label raises :class:`UnknownHistory`.
        """
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        bit = self.space.bit
        mask = 0
        for part in text.split(","):
            if part:
                mask |= bit(part)
        return mask

    def parse_event(self, text: str) -> Event:
        """The event that :meth:`parse_mask` reads from ``text``."""
        return Event(self.space, self.parse_mask(text))

    def events(self) -> Iterator[Event]:
        """All events in canonical (ascending mask) order."""
        for mask in range(self.size):
            yield Event(self.space, mask)


class ByMask(dict):
    """``fn(mask)`` by mask, each computed on its first lookup.

    A witness list names few distinct events many times over, so a
    lister builds each event, or reads each tau row, once without doing
    all 2^n.
    """

    def __init__(self, fn: Callable[[int], object]) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, mask: int):
        value = self[mask] = self.fn(mask)
        return value


@dataclass(frozen=True)
class EventFamily:
    """A deduplicated, canonically ordered set of events over one space."""

    space: SampleSpace
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        masks = tuple(self.masks)  # from any iterable: equality and hashing need a tuple
        ordered = all(map(operator.lt, masks, masks[1:]))  # one pass, sort only if needed
        object.__setattr__(self, "masks", masks if ordered else tuple(sorted(set(masks))))

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventFamily":
        events = list(events)
        if not events:
            raise ValueError("cannot infer a sample space from an empty iterable; "
                             "use from_masks")
        space = events[0].space
        for ev in events[1:]:
            _require_same_space(events[0], ev)
        return cls(space, tuple(ev.mask for ev in events))

    @classmethod
    def from_masks(cls, space: SampleSpace, masks: Iterable[int]) -> "EventFamily":
        return cls(space, tuple(masks))

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(Event(self.space, m) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __contains__(self, event: Event) -> bool:
        _require_same_space(Event(self.space, 0), event)
        i = bisect_left(self.masks, event.mask)  # the masks are sorted and distinct
        return i < len(self.masks) and self.masks[i] == event.mask

    def __str__(self) -> str:
        names = self.space.event_names
        return "[" + ", ".join(names[m] for m in self.masks) + "]"


# ---------------------------------------------------------------------------
# Lattice operations


def meet(a: Event, b: Event) -> Event:
    """A AND B (set intersection)."""
    return a & b


def join(a: Event, b: Event) -> Event:
    """A OR B (set union)."""
    return a | b


def complement(a: Event) -> Event:
    """NOT A (set complement in Omega)."""
    return ~a


def sym_diff(a: Event, b: Event) -> Event:
    """Symmetric difference; addition in the Z2-algebra picture."""
    return a ^ b


def implies(a: Event, b: Event) -> Event:
    """Boolean-lattice implication, NOT A OR B.

    Equals the full event exactly when A is a subset of B.
    """
    return ~a | b


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` in ascending order (includes 0 and mask)."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def set_bits(bits: int) -> list[int]:
    """The positions of the set bits, in ascending order."""
    return [a for a, c in enumerate(bin(bits)[:1:-1]) if c == "1"]


def iter_supermasks(mask: int, full: int) -> Iterator[int]:
    """All supermasks of ``mask`` within ``full``, in ascending order."""
    comp = full ^ mask
    for extra in iter_submasks(comp):
        yield mask | extra


def down_set(mask: int) -> int:
    """The integer whose bit m is set iff m is a submask of ``mask``.

    One doubling per history in ``mask``: the submasks holding history j
    are those without it, shifted up by 2^j.
    """
    down = 1
    while mask:
        low = mask & -mask
        down |= down << low
        mask ^= low
    return down


def masks_lacking(n: int, i: int) -> int:
    """The 2^n-bit integer whose bit A is set iff history i is not in A.

    In ascending order the masks come in runs of 2^i without i and 2^i
    with it, so this is a run of ones repeated every 2^(i+1) bits.
    """
    run = 1 << i
    return ((1 << run) - 1) * (((1 << (1 << n)) - 1) // ((1 << 2 * run) - 1))


def up_closure(a: Event) -> EventFamily:
    """All events containing A, in canonical order."""
    full = a.space.full_mask
    return EventFamily(a.space, tuple(iter_supermasks(a.mask, full)))


def down_closure(a: Event) -> EventFamily:
    """All events contained in A, in canonical order."""
    return EventFamily(a.space, tuple(iter_submasks(a.mask)))


def principal_of(bits: int, full: int) -> Optional[int]:
    """The mask p whose supersets within ``full`` are exactly the events
    whose bits are set in ``bits``, else None.

    A filter's least member is its principal p, since every member
    contains p, and its supersets are the submasks of ``full ^ p``
    shifted up by p: one :func:`down_set`, compared with ``bits``.
    """
    if not bits:
        return None
    p = (bits & -bits).bit_length() - 1
    return p if bits == down_set(full ^ p) << p else None


def is_filter(family: EventFamily) -> tuple[bool, Optional[Event]]:
    """Decide whether a family of events is a filter.

    A filter is nonempty, upward closed, and closed under intersection.
    On the full powerset carrier it is exactly the supersets of its
    principal (least) element, which is returned alongside ``True``.
    Reads the family as one integer of bits; see :func:`principal_of`.
    """
    p = principal_of(sum(1 << m for m in family.masks), family.space.full_mask)
    if p is None:
        return False, None
    return True, Event(family.space, p)
