"""Finite sample spaces and the full event algebra as a Boolean lattice.

Histories are the elements of a small finite sample space; events are
subsets, encoded as bitmasks over the fixed label order.  Everything
here is immutable and exact, and every other module builds on it.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_left
from functools import cache, cached_property
from itertools import compress, count, islice
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .errors import MismatchedSpace, UnknownHistory

#: Hard cap on the number of histories: the event algebra is the full
#: powerset and several callers enumerate it, so 2**16 events is the
#: largest size we allow anywhere.
MAX_HISTORIES = 16

#: A witness list stops after this many entries, in canonical order.  The
#: verdicts never read the lists, so a cut list changes no verdict.
WITNESS_LIST_CAP = 1000

_T = TypeVar("_T")


def first_witnesses(
    witnesses: Iterable[_T], limit: Optional[int]
) -> tuple[tuple[_T, ...], bool]:
    """The first ``limit`` witnesses (all of them when ``limit`` is None),
    and whether any were left unlisted.

    One witness past the limit is drawn, only to tell whether the list
    was cut; the rest of the walk is never made.  No tuple holds
    ``sys.maxsize`` items, so a limit that large lists all, as None does.
    """
    if limit is None or limit >= sys.maxsize:
        return tuple(witnesses), False
    head = tuple(islice(witnesses, limit + 1))
    return head[:limit], len(head) > limit


def unchecked(cls: type[_T], **fields: object) -> _T:
    """A ``cls`` (without ``__slots__``) with ``fields`` set and no
    ``__init__`` or ``__post_init__`` run: for a value the library builds
    whose laws hold by construction, which the tests pass through the
    checked public constructor."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


class Record:
    """Base of an immutable value class whose fields are its annotations.

    A subclass declares its fields as annotations in its class body, in
    order, the fields with a default last.  Unless the body defines them,
    the subclass gets:

    - ``__init__``, taking the fields by position or by name and then
      calling ``self.__post_init__()`` if the class has one, looked up on
      each call so that it can be replaced;
    - ``__repr__``, as ``Name(field=value, ...)``;
    - ``__eq__`` and ``__hash__`` over the fields named in the class
      keyword ``compare`` (all of them by default): equal to an instance
      of the same class whose compared fields are equal, and hashed by
      them.  With ``eq=False`` instances compare and hash by identity.

    Assigning or deleting an attribute raises ``AttributeError``; the
    constructors set fields with ``object.__setattr__``, and
    ``cached_property`` writes to the instance dict.  A default is held
    by ``__init__`` and taken off the class, so no class attribute stands
    in for an unset field (see :class:`ListedOnRead`).  The methods are
    closures over the field names, built once per class with no code
    generation.  A hot constructor is written by hand in the class body.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(
        cls, eq: bool = True, compare: Optional[Sequence[str]] = None, **kwargs: Any
    ) -> None:
        super().__init_subclass__(**kwargs)
        body = cls.__dict__
        cls._fields = names = tuple(cls.__annotations__)
        defaults = {name: body[name] for name in names if name in body}
        if tuple(defaults) != names[len(names) - len(defaults):]:
            raise TypeError(f"{cls.__name__}: the fields with a default must come last")
        for name in defaults:
            delattr(cls, name)
        if "__init__" not in body:
            cls.__init__ = _record_init(names, defaults, hasattr(cls, "__post_init__"))
        if "__repr__" not in body:
            cls.__repr__ = _record_repr(names)
        if eq and "__eq__" not in body:
            key = operator.attrgetter(*(names if compare is None else compare))

            def __eq__(self: Record, other: object) -> bool:
                if other.__class__ is self.__class__:
                    return self is other or key(self) == key(other)
                return NotImplemented

            cls.__eq__ = __eq__
            if "__hash__" not in body:
                cls.__hash__ = lambda self: hash(key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def _record_repr(names: tuple[str, ...]) -> Callable[[Record], str]:
    def __repr__(self: Record) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{type(self).__qualname__}({fields})"

    return __repr__


def _record_init(
    names: tuple[str, ...], defaults: dict[str, object], post_init: bool
) -> Callable[..., None]:
    """``__init__`` of a record: fields by position, the defaulted ones
    optional, take the short path; keywords are bound by :func:`_bound`."""
    size, set_field, tail = len(names), object.__setattr__, tuple(defaults.values())
    least = size - len(tail)

    def __init__(self: Record, *args: object, **kwargs: object) -> None:
        if kwargs or not least <= len(args) <= size:
            args = _bound(names, defaults, args, kwargs)
        elif len(args) < size:
            args += tail[len(args) - least:]
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    return __init__


def _bound(
    names: tuple[str, ...], defaults: dict[str, object], args: tuple, kwargs: dict[str, object]
) -> list[object]:
    """One value per field, in field order, from ``args``, then ``kwargs`` or the defaults."""
    if len(args) > len(names):
        raise TypeError(f"__init__() takes {len(names)} fields but {len(args)} were given")
    try:
        rest = [kwargs.pop(name) if name in kwargs else defaults[name] for name in names[len(args):]]
    except KeyError as missing:
        raise TypeError(f"__init__() missing field argument {missing}") from None
    if kwargs:
        raise TypeError(f"__init__() got unexpected or repeated arguments {sorted(kwargs)}")
    return [*args, *rest]


class ListedOnRead:
    """Mixin of a :class:`Record` report whose witness fields are listed on first read.

    The subclass names its witness fields in ``_witness_fields``; a
    default among them is held by ``__init__``, not by the class, so no
    class attribute shadows the unset field.  A report made by
    ``unchecked(cls, _lister=lister, **verdicts)`` has its verdict fields
    set, its witness fields unset and a lister held; the first read of
    any witness field calls ``lister()`` once, takes its values in
    ``_witness_fields`` order and drops the lister.  A caller that reads
    only the verdicts lists nothing.
    """

    _witness_fields: tuple[str, ...] = ()

    def __getattr__(self, name: str) -> object:
        state = self.__dict__
        if name not in self._witness_fields or "_lister" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state.update(zip(self._witness_fields, state["_lister"]()))
        del state["_lister"]
        return state[name]


class SampleSpace(Record):
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
            if not lab or "," in lab or "{" in lab or "}" in lab:
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
        """``str`` of every event, indexed by mask; built once, on first use.

        The nonempty events holding label i are {i} and, in order, each
        nonempty event below it with ``,i`` appended.
        """
        inner: list[str] = []
        for label in self.labels:
            tail = "," + label
            inner += [label] + [s + tail for s in inner]
        return ("{}", *["{" + s + "}" for s in inner])

    @cached_property
    def event_masks(self) -> dict[str, int]:
        """The mask of every event by its ``str``, the inverse of :attr:`event_names`."""
        return dict(zip(self.event_names, range(len(self.event_names))))


class Event(Record):
    """A subset of a sample space, stored as an n-bit characteristic mask."""

    space: SampleSpace
    mask: int

    def __init__(self, space: SampleSpace, mask: int) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mask", mask)
        self.__post_init__()

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


class EventAlgebra(Record):
    """The full powerset 2^Omega of a sample space.

    Set inclusion is the partial order; an event's ``&``, ``|`` and ``~``
    are meet, join and complement, a Boolean lattice (implication is
    ``~a | b``; via AB = A&B and A+B = A^B, an algebra over Z2).
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


class EventFamily(Record):
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
                             "use EventFamily(space, masks)")
        space = events[0].space
        for ev in events[1:]:
            _require_same_space(events[0], ev)
        return cls(space, tuple(ev.mask for ev in events))

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
# Submasks, supermasks and filters


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` in ascending order (includes 0 and mask)."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


#: Binary digits as the bytes 0 and 1, for ``itertools.compress``.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def set_bits(bits: int) -> list[int]:
    """The positions of the set bits of ``bits`` >= 0, in ascending order.

    A dense int is written as binary digits and read by ``compress``, one
    pass over its length L.  A sparse one is listed by lowest bits, one
    step per set bit, and each step copies the int.  Measured on CPython
    3.11 from 2^6 to 2^16 bits, a step costs about as much as the pass
    pays for 8 + L/512 bits, so an int with k set bits is sparse iff
    k * (8 + L/512) < L, that is k * (L + 4096) < 512 * L: below 2^12 bits
    about one set bit in 8, and near 480 set bits at 2^16.
    """
    length = bits.bit_length()
    if bits.bit_count() * (length + 4096) >= length << 9:
        return list(compress(count(), bin(bits)[:1:-1].encode().translate(_DIGIT_BYTES)))
    found = []
    while bits:
        low = bits & -bits
        found.append(low.bit_length() - 1)
        bits ^= low
    return found


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


@cache
def masks_lacking(n: int, i: int) -> int:
    """The 2^n-bit integer whose bit A is set iff history i is not in A.

    In ascending order the masks come in runs of 2^i without i and 2^i
    with it, so this is a run of ones repeated every 2^(i+1) bits.  Each
    (n, i) is built once, by one 2^n-bit division, and kept.
    """
    run = 1 << i
    return ((1 << run) - 1) * (((1 << (1 << n)) - 1) // ((1 << 2 * run) - 1))


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
