"""Exact-valued measures on a finite event algebra.

Classical (additive) validation, quantum (level-2 sum rule) validation,
derivation from a decoherence matrix, null-set analysis, and coarse
graining.  A measure's values are held as integer numerators over one
common denominator, and every sum rule, sign test and zero test compares
those integers; ``Fraction`` values are built only when read.  Inputs
are ``fractions.Fraction`` / Gaussian rationals: preclusion hinges on
exact zero tests, so there is no floating-point mode.  The functions that
build or test a ``Fraction`` import ``fractions`` and ``numbers`` when
called, so a caller that reads only the integers, as the CLI does, never
loads them.

Each kind of measure input has one integer core that builds the value
table from :data:`Ratio` pairs (:meth:`MeasureValues.of_ratios`,
:func:`atom_weight_values`, :func:`amplitude_values`,
:func:`decoherence_values`); the constructors that take ``Fraction`` /
Gaussian rationals read their inputs' numerators and denominators and
call it, and the theory-file loader calls it on the pairs it parses.

The atom-weight, amplitude and pair-sum cores hold the 2^n-value table
as one packed Python int, the value on mask A in the signed field at
bit w*A (:func:`_field_bits`), so each history costs a few whole-integer
steps.  Their tables have grade at most 2, so the gcd that reduces
them is that of the denominator and the values on events of at most two
histories, read from the inputs; the table is divided by it once
(:func:`_table_values`).  Its null sets are read from the packed fields
as one bitset (:func:`_null_bits`), and its numerators are unpacked into
``nums`` only when first read.  A table built from numerators is packed
when built, and its null sets are read the same way.  An amplitude table
is built only on its first value read; until then its null sets are read
from the packed amplitude sums (:func:`_amplitude_null_bits`), as
mu(A) = 0 iff the sum of the amplitudes in A is 0.

Both sum rules are read from one Möbius transform of the packed fields,
the interference terms of every event (:func:`_interference`), built once
per table and shared by the validators; a passing verdict unpacks no
numerator and runs no loop per event.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Mapping
from functools import cache, cached_property, lru_cache, partial
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .errors import InvalidPartition, MismatchedSpace
from .eventalg import (
    WITNESS_LIST_CAP,
    ByMask,
    Event,
    EventAlgebra,
    EventFamily,
    ListedOnRead,
    Record,
    SampleSpace,
    first_witnesses,
    iter_submasks,
    masks_lacking,
    set_bits,
    unchecked,
)

if TYPE_CHECKING:  # the functions that build or test a Fraction import it when called
    from fractions import Fraction

#: An exact rational as an integer numerator and a positive denominator,
#: not necessarily in lowest terms.
Ratio = tuple[int, int]
#: A Gaussian rational as the ratios of its real and imaginary parts.
ComplexRatio = tuple[Ratio, Ratio]
#: A part not given to the :class:`GaussianRational` constructor, which
#: holds ``Fraction(0)`` for it.
_ZERO = object()


class GaussianRational(Record):
    """A complex number with exact rational real and imaginary parts.

    The constructor refuses a part that is not an ``int`` or a
    ``Fraction``, as :func:`_ratio_of` does; sums, differences, products
    and conjugates of exact parts are exact, so they are built unchecked.
    """

    re: Fraction
    im: Fraction

    def __init__(self, re: Fraction | int = _ZERO, im: Fraction | int = _ZERO) -> None:
        if re is _ZERO or im is _ZERO:
            import fractions

            re = fractions.Fraction(0) if re is _ZERO else re
            im = fractions.Fraction(0) if im is _ZERO else im
        for part in (re, im):
            _ratio_of(part)  # refuses a float, or any other inexact part, by name
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @classmethod
    def _exact(cls, re: Fraction | int, im: Fraction | int) -> "GaussianRational":
        value = object.__new__(cls)
        object.__setattr__(value, "re", re)
        object.__setattr__(value, "im", im)
        return value

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return self._exact(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self._exact(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return self._exact(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianRational":
        return self._exact(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @classmethod
    def real(cls, value: Fraction | int) -> "GaussianRational":
        import fractions

        return cls(fractions.Fraction(*_ratio_of(value)))

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class Violation(Record):
    """One failed instance of a measure law, with its witness events."""

    rule: str  # "additivity" | "level2" | "nonnegativity" | "normalization"
    events: tuple[Event, ...]
    got: Fraction
    expected: Fraction

    def __init__(
        self, rule: str, events: tuple[Event, ...], got: Fraction, expected: Fraction
    ) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "got", got)
        object.__setattr__(self, "expected", expected)

    def __str__(self) -> str:
        evs = " ".join(str(ev) for ev in self.events)
        return f"{self.rule} {evs}: got {self.got}, expected {self.expected}"


class ValidationReport(ListedOnRead, Record):
    """Outcome of a sum-rule validation.

    ``ok`` is the rule's closed-form verdict, decided when the validator
    is called, so it never depends on the list.  ``violations`` holds the
    first violations in canonical order, as many as the validator's limit
    allows; ``truncated`` is set when more were left unlisted.  A failing
    validator's report lists them on the first read of either
    (:class:`~coevents.eventalg.ListedOnRead`): a caller that reads only
    ``ok`` walks no pairs or triples.

    A validator's report also holds the same listing as integer rows,
    ``rows``: (rule, event masks, got, expected) for each violation, the
    two values as numerators over the measure's ``values.den``.  The
    violations are built from the rows on their first read, so a caller
    that reads only the rows builds no ``Event`` or ``Fraction``.
    """

    rule: str  # "classical" | "quantum"
    violations: tuple[Violation, ...]
    ok: bool
    truncated: bool = False

    _witness_fields = ("violations", "truncated")


class MeasureValues(Mapping):
    """A total table of rational values, one per event mask, read-only.

    The value on mask m is ``nums[m] / den``: one denominator den > 0 for
    the whole table, reduced with the numerators by their common gcd, so
    equal tables hold equal pairs.  A lookup builds the value's
    ``Fraction`` on first read of its numerator and caches it, so a table
    of few distinct values builds few Fractions.  The sum rules are linear
    and homogeneous, so they hold of the values iff they hold of the
    numerators: the validators and the sign and normalization tests read
    ``nums`` and ``den`` directly, in integer arithmetic.

    ``null_bits`` holds the null sets as one 2^n-bit integer: bit m is set
    iff ``nums[m] == 0``.  A built table holds its fields' bytes and width
    (``packed``) and reads ``null_bits`` from them (:func:`_null_bits`):
    a table built from numerators packs them when built (:func:`_packed`);
    a packed table (:func:`_table_values`) keeps its fields, not a tuple,
    and ``nums`` is unpacked on its first read, so a caller that asks only
    about null sets never builds the 2^n numerators.  An amplitude table
    (:func:`amplitude_values`) holds only the amplitudes' integer parts
    over their common denominator, as plain data: it builds its packed
    table, and with it ``den``, on the first read of ``den``, ``nums``,
    ``packed``, ``interference`` or a value, and reads ``null_bits``
    before that from the amplitude sums (:func:`_amplitude_null_bits`).
    Either way the table pickles, copies and compares as its (den, nums)
    pair.
    """

    __slots__ = (
        "_den", "_null_bits", "_size", "_nums", "_packed", "_fractions", "_interference",
        "_amplitudes",
    )

    def __init__(self, den: int, nums: Sequence[int]) -> None:
        g = math.gcd(den, *nums)
        self._den = den // g
        self._nums = nums = tuple([x // g for x in nums] if g != 1 else nums)
        self._size, self._fractions = len(nums), {}
        self._interference = self._amplitudes = None
        raw, bits = self._packed = _packed(nums)
        ones = int.from_bytes(b"\x01".ljust(bits // 8, b"\0") * len(nums), "little")
        self._null_bits = _null_bits(int.from_bytes(raw, "little"), ones, bits)

    @classmethod
    def _of_fields(
        cls, den: int, raw: bytes, bits: int, size: int, null_bits: int
    ) -> "MeasureValues":
        """The table of ``size`` numerators over den, reduced, held as the
        bytes ``raw`` of its ``bits``-wide two's complement fields, little-
        endian from the first mask's (see :func:`_table_values`)."""
        values = object.__new__(cls)
        values._den, values._null_bits, values._size = den, null_bits, size
        values._nums, values._packed, values._fractions = None, (raw, bits), {}
        values._interference = values._amplitudes = None
        return values

    @classmethod
    def _of_amplitudes(
        cls, d: int, re_parts: tuple[int, ...], im_parts: tuple[int, ...]
    ) -> "MeasureValues":
        """The table of |sum of the amplitudes in A|^2 over d^2, the
        amplitudes' integer parts over d given, held unbuilt (see
        :meth:`_build`)."""
        values = object.__new__(cls)
        values._den = values._null_bits = values._nums = values._packed = None
        values._size, values._fractions = 1 << len(re_parts), {}
        values._interference, values._amplitudes = None, (d, re_parts, im_parts)
        return values

    def _build(self) -> "MeasureValues":
        """An amplitude table's packed table (:func:`_amplitude_table`),
        whose fields, null bits and ``den`` it takes, each in one
        assignment: a read racing this one finds each either unset, and
        builds the table too, or set to its final value."""
        table = _amplitude_table(*self._amplitudes)
        self._packed, self._null_bits, self._den = table._packed, table._null_bits, table._den
        return table

    @property
    def den(self) -> int:
        """The common denominator, > 0; an amplitude table builds its
        packed table on this first read (:meth:`_build`)."""
        den = self._den
        return self._build()._den if den is None else den

    @property
    def null_bits(self) -> int:
        """The null sets as one 2^n-bit integer, bit m set iff ``nums[m] ==
        0``.  An amplitude table whose packed table is not built reads them
        from its amplitude sums (:func:`_amplitude_null_bits`) and builds
        no table."""
        bits = self._null_bits
        if bits is None:
            bits = self._null_bits = _amplitude_null_bits(*self._amplitudes[1:])
        return bits

    @classmethod
    def of_ratios(cls, ratios: Sequence[Ratio]) -> "MeasureValues":
        """The table of ``p / q`` for the pairs ``ratios[m]`` = (p, q), m = 0, 1, ...

        Reduced, the pair (den, nums) is the same for every spelling of
        the same rationals, so it equals the pair of their ``Fraction``s.
        """
        den, (nums,) = _integer_rows([ratios])
        return cls(den, nums)

    @property
    def nums(self) -> tuple[int, ...]:
        """The numerators over ``den``, one per mask; a packed table unpacks
        them on this first read and keeps its bytes, so a read racing the
        first one unpacks them too rather than finding them gone."""
        nums = self._nums
        if nums is None:
            nums = self._nums = _unpacked(*self.packed)
        return nums

    @property
    def packed(self) -> tuple[bytes, int]:
        """The fields' bytes and width in bits, as :meth:`_of_fields` holds
        them; an amplitude table builds them on this first read
        (:meth:`_build`)."""
        packed = self._packed
        return self._build()._packed if packed is None else packed

    @property
    def interference(self) -> int:
        """The interference terms of every event, packed
        (:func:`_interference`), built on this first read."""
        terms = self._interference
        if terms is None:
            terms = self._interference = _interference(*self.packed, self._size)
        return terms

    def fraction(self, num: int) -> Fraction:
        """``num / den``, built once per numerator."""
        try:
            return self._fractions[num]
        except KeyError:
            import fractions

            value = self._fractions[num] = fractions.Fraction(num, self.den)
            return value

    def texts(self, nums: Iterable[int]) -> dict[int, str]:
        """``str(self.fraction(num))`` for each ``num``, written from the
        reduced pair with no ``Fraction`` built: for the report writers,
        which print each distinct value once."""
        den, out = self.den, {}
        for num in nums:
            g = math.gcd(num, den)
            out[num] = str(num // g) if g == den else f"{num // g}/{den // g}"
        return out

    def __getitem__(self, mask: int) -> Fraction:
        if not (isinstance(mask, int) and 0 <= mask < self._size):
            raise KeyError(mask)
        return self.fraction(self.nums[mask])

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._size))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MeasureValues):
            return self.den == other.den and self.nums == other.nums
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return f"MeasureValues(den={self.den}, nums={self.nums})"


class Measure(Record):
    """A total, exact-valued set function on the event algebra.

    A *valid* measure is nonnegative, has value 1 on the full event and
    0 on the empty event, and satisfies a sum rule; those conditions
    are checked by the validators below and reported as findings rather
    than enforced at construction, so that defective measures can be
    represented and analyzed.

    ``values`` may be given as any mapping from every event mask to a
    rational (``int`` or ``Fraction``); it is held as a
    :class:`MeasureValues`, integer numerators over one denominator.
    """

    algebra: EventAlgebra
    values: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        size = self.algebra.size
        if isinstance(self.values, MeasureValues):
            if len(self.values) != size:
                raise ValueError(
                    f"measure must be total on the algebra; got {len(self.values)} "
                    f"values for {size} events"
                )
            return
        expected = set(range(size))
        got = set(self.values.keys())
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(
                f"measure must be total on the algebra; missing masks {missing[:4]}, "
                f"extra masks {extra[:4]}"
            )
        table = MeasureValues.of_ratios([_ratio_of(self.values[m]) for m in range(size)])
        object.__setattr__(self, "values", table)

    def __call__(self, event: Event) -> Fraction:
        if event.space != self.algebra.space:
            raise MismatchedSpace("event belongs to a different sample space")
        return self.values[event.mask]

    @cached_property
    def null_masks(self) -> tuple[int, ...]:
        """The masks of exactly zero measure, ascending; listed once, on
        first use, from the table's ``null_bits`` (:func:`set_bits`)."""
        return tuple(set_bits(self.values.null_bits))

    @cached_property
    def null_down_bytes(self) -> bytes:
        """:attr:`null_down_set` as bytes: bit A is bit A % 8 of byte A // 8.

        Reading one bit of a byte string costs O(1); shifting the 2^n-bit
        integer to read it copies the integer.
        """
        return self.null_down_set.to_bytes((self.algebra.size + 7) // 8, "little")

    @cached_property
    def null_down_set(self) -> int:
        """The null sets' down-closure: bit A is set iff some null event contains A.

        One 2^n-bit integer over the event masks, built once.  It starts
        from the table's ``null_bits``; then one history at a time, every
        covered event that holds history i covers itself minus i as well:
        O(n 2^n) bit operations, done as n shifts.  A dual A* is
        preclusive iff bit A is clear.
        """
        n = self.algebra.space.n
        covered = self.values.null_bits
        for i in range(n):
            covered |= covered >> (1 << i) & masks_lacking(n, i)
        return covered

    @classmethod
    def from_table(
        cls, algebra: EventAlgebra, table: Mapping[int, Fraction | int | str]
    ) -> "Measure":
        """The measure with the given value per mask; a string such as
        ``"1/2"`` is read as a ``Fraction``."""
        import fractions

        table = {m: fractions.Fraction(v) if isinstance(v, str) else v for m, v in table.items()}
        return cls(algebra, table)

    @classmethod
    def from_atom_weights(
        cls, space: SampleSpace, weights: Mapping[str, Fraction | int]
    ) -> "Measure":
        """Additive measure from per-history weights (classical input):
        :func:`atom_weight_values` of the weights as ratios."""
        ratios = {lab: _ratio_of(w) for lab, w in weights.items()}
        return cls(EventAlgebra(space), atom_weight_values(space, ratios))

    @classmethod
    def from_amplitudes(
        cls, space: SampleSpace, amplitudes: Sequence[GaussianRational]
    ) -> "Measure":
        """Measure of A as |sum of the amplitudes in A|^2
        (:func:`amplitude_values`), the parts read by :func:`_parts_of`.

        The value table is built on its first read; the null sets, and
        what is read from them alone (the scheme, the preclusive sets, the
        null cover), come from the amplitude sums and build no table."""
        parts = [_parts_of(a) for a in amplitudes]
        return cls(EventAlgebra(space), amplitude_values(space, parts))


def _ratio_of(x: Fraction | int) -> Ratio:
    """An exact rational's numerator and denominator; any other value, a
    float among them, is refused rather than read as a binary fraction."""
    if not isinstance(x, _rational()):
        raise TypeError(f"{x!r} is not an exact rational (an int or a Fraction)")
    return x.numerator, x.denominator


@cache
def _rational() -> type:
    """``numbers.Rational``, imported on the first test of a value, once:
    :func:`_ratio_of` runs once per value of a table given as a mapping."""
    import numbers

    return numbers.Rational


def _parts_of(g: GaussianRational) -> ComplexRatio:
    """A Gaussian rational's parts as ratios, read as they are: its
    constructor has already refused an inexact part."""
    return (g.re.numerator, g.re.denominator), (g.im.numerator, g.im.denominator)


def _integer_rows(rows: Sequence[Sequence[Ratio]]) -> tuple[int, list[list[int]]]:
    """Rows of ratios as their least common denominator and the integer
    numerators over it."""
    den = math.lcm(*(q for row in rows for _, q in row))
    return den, [[p * (den // q) for p, q in row] for row in rows]


def atom_weight_values(space: SampleSpace, weights: Mapping[str, Ratio]) -> MeasureValues:
    """The additive table of per-history weights, each label's a ratio.

    Every label of the space must have a weight, and no other may.  The
    weights are scaled to integers w_i over their common denominator and
    summed over every event as one packed table (:func:`_subset_sums`).
    The table is additive, so the reducing gcd is that of the denominator
    and the w_i.
    """
    missing = [lab for lab in space.labels if lab not in weights]
    if missing:
        raise ValueError(f"missing weights for histories {missing}")
    extra = [lab for lab in weights if lab not in space.labels]
    if extra:
        raise ValueError(f"weights given for unknown histories {extra}")
    den, (w,) = _integer_rows([[weights[lab] for lab in space.labels]])
    bits = _field_bits(sum(map(abs, w)))
    return _table_values(den, math.gcd(den, *w), *_subset_sums(w, bits), bits)


def _subset_sums(terms: Sequence[int], bits: int) -> tuple[int, int]:
    """The packed table (:func:`_field_bits`) of A -> the sum of terms[i]
    over the histories i in A, and the packed ones, 1 in every field.

    The events holding history i are those without it, each plus
    terms[i], so each history adds one shifted copy of the table so far,
    raised by terms[i] in every field: two whole-integer steps per history.
    """
    table, ones, shift = 0, 1, bits
    for x in terms:
        table += (table + x * ones) << shift
        ones += ones << shift
        shift <<= 1
    return table, ones


def amplitude_values(space: SampleSpace, amplitudes: Sequence[ComplexRatio]) -> MeasureValues:
    """The table of |sum of the amplitudes in A|^2, one amplitude per history.

    The real and imaginary parts are scaled to integers over their
    common denominator d, and mu(A) = re(A)^2 + im(A)^2 over d^2,
    exactly.  The table holds only those integer parts and d: it is
    built on the first read of a value, ``den`` or ``nums``
    (:func:`_amplitude_table`), and its null sets, the events whose
    amplitude sum is 0, are read from the sums alone
    (:func:`_amplitude_null_bits`), so the scheme, the preclusive sets
    and the null cover build no table.
    """
    if len(amplitudes) != space.n:
        raise ValueError("need exactly one amplitude per history")
    d, (re_parts, im_parts) = _integer_rows(list(zip(*amplitudes)))
    return MeasureValues._of_amplitudes(d, tuple(re_parts), tuple(im_parts))


def _amplitude_table(d: int, re_parts: Sequence[int], im_parts: Sequence[int]) -> MeasureValues:
    """The packed table of |sum of the amplitudes in A|^2 over d^2, the
    amplitudes' integer parts over d given.

    The part sums re(A), im(A) and the table are each held as one packed
    integer (:func:`_field_bits`), bounded by (sum |re|)^2 + (sum |im|)^2.
    The events holding history i, with parts (a, b), are those without
    it, so their half of the table is

        table + 2a re_sums + 2b im_sums + (a^2 + b^2) ones

    a few whole-integer steps per history.  The table has grade 2, so
    the reducing gcd is that of d^2, each |a_i|^2 and each cross term
    2 (re_i re_j + im_i im_j).
    """
    bits = _field_bits(sum(map(abs, re_parts)) ** 2 + sum(map(abs, im_parts)) ** 2)
    parts = list(zip(re_parts, im_parts))
    table = re_sums = im_sums = 0
    ones, shift, last = 1, bits, bits << len(parts) - 1
    for a, b in parts:
        table += (table + (a * re_sums + b * im_sums << 1) + (a * a + b * b) * ones) << shift
        if shift != last:  # the part sums are read only by the histories above
            re_sums += (re_sums + a * ones) << shift
            im_sums += (im_sums + b * ones) << shift
        ones += ones << shift
        shift <<= 1
    g = math.gcd(d * d, *[a * a + b * b for a, b in parts])
    if g != 1:
        g = math.gcd(g, 2 * math.gcd(*[a * c + b * e for (a, b), (c, e) in combinations(parts, 2)]))
    return _table_values(d * d, g, table, ones, bits)


def _amplitude_null_bits(re_parts: Sequence[int], im_parts: Sequence[int]) -> int:
    """The null bits of the amplitude table of the integer parts given,
    read from its amplitude sums: mu(A) = 0 iff re(A) = im(A) = 0.

    One packed integer holds re(A) + im(A) 2^h in the field of A, 2h bits
    wide, with h = :func:`_field_bits` of the larger of sum |re| and sum
    |im|; as |re(A)| < 2^(h - 1), a field is 0 iff both sums are.  History
    i, with parts (a, b), adds a + b 2^h (:func:`_subset_sums`).
    """
    h = _field_bits(max(sum(map(abs, re_parts)), sum(map(abs, im_parts))))
    bits = 2 * h
    sums, ones = _subset_sums([a + (b << h) for a, b in zip(re_parts, im_parts)], bits)
    return _null_bits(_signed_fields(sums, ones, bits), ones, bits)


def _field_bits(bound: int) -> int:
    """The field width, in bits, of a packed table whose values lie in
    [-bound, bound]: the fewest bytes, a power of two, whose signed range
    holds that interval.

    A packed table holds the value on mask A at bit ``bits * A`` of one
    Python int, as the exact integer sum of value(A) * 2^(bits * A).  A
    field may go negative or carry while the table is built; only the
    final values must fit, so that :func:`_table_values` can read them
    back.
    """
    # bound.bit_length() // 8 + 1 bytes hold the range; round up to 2^k
    return 8 << (bound.bit_length() // 8).bit_length()


#: The signed ``memoryview`` format of each field width up to 8 bytes.
_FIELD_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}
#: A field's top byte, as the binary digit of its null bit: "1" iff the
#: byte's top bit is clear.
_NULL_DIGITS = bytes(49 - (b >> 7) for b in range(256))


def _table_values(den: int, g: int, table: int, ones: int, bits: int) -> MeasureValues:
    """The :class:`MeasureValues` of a packed table of numerators over den.

    ``g`` divides den and every value, and is their gcd, so one whole-
    integer division reduces the table.  ``ones`` holds 1 in every field.
    The table keeps its fields' two's complement little-endian bytes
    (:func:`_signed_fields`), with the null bits read from them
    (:func:`_null_bits`), and unpacks them on first read (:func:`_unpacked`).
    """
    if g != 1:
        den //= g
        table //= g
    fields = _signed_fields(table, ones, bits)
    raw = fields.to_bytes((ones.bit_length() - 1 + bits) // 8, "little")
    null_bits = _null_bits(fields, ones, bits)
    return MeasureValues._of_fields(den, raw, bits, len(raw) * 8 // bits, null_bits)


def _signed_fields(table: int, ones: int, bits: int) -> int:
    """A packed table's fields in two's complement; ``ones`` holds 1 in
    every field.  Adding 2^(bits - 1) to each field and flipping that bit
    back gives each field's two's complement with no borrow between
    fields."""
    half = ones << bits - 1
    return (table + half) ^ half


def _null_bits(fields: int, ones: int, bits: int) -> int:
    """The integer whose bit m is set iff field m of the two's complement
    ``bits``-wide fields is 0; ``ones`` holds 1 in every field.  Every
    table's null bits are read by it.

    With ``low`` the bits below each field's top bit, ``((x & low) + low)
    | x`` sets a field's top bit iff the field is nonzero, with no carry
    between fields.  Its big-endian bytes, taken one per field from the
    top, run from the last mask to the first, so translated to binary
    digits (``_NULL_DIGITS``) they are the null bits written out, read by
    one ``int(digits, 2)``.
    """
    half = ones << bits - 1
    low = half - ones
    tops = (((fields & low) + low) | fields).to_bytes(half.bit_length() // 8, "big")
    return int(tops[:: bits // 8].translate(_NULL_DIGITS), 2)


def _unpacked(raw: bytes, bits: int) -> tuple[int, ...]:
    """The signed ``bits``-wide fields of a packed table's little-endian
    bytes, as a tuple from the first mask's: a ``memoryview`` of signed
    ints, or, for fields wider than 8 bytes, one ``int.from_bytes`` per
    field."""
    if bits in _FIELD_FORMATS:
        if sys.byteorder == "little":
            return tuple(memoryview(raw).cast(_FIELD_FORMATS[bits]))
        # reversed, the bytes run from the last field to the first, each big-endian
        return tuple(memoryview(raw[::-1]).cast(_FIELD_FORMATS[bits]))[::-1]
    step = bits // 8
    return tuple([
        int.from_bytes(raw[k:k + step], "little", signed=True) for k in range(0, len(raw), step)
    ])


def _packed(nums: Sequence[int]) -> tuple[bytes, int]:
    """The inverse of :func:`_unpacked`: numerators as the little-endian
    bytes of their fields, each as wide as :func:`_field_bits` makes it,
    and that width; one ``struct.pack`` for fields of up to 8 bytes."""
    bits = _field_bits(max(map(abs, nums)))
    if bits in _FIELD_FORMATS:
        return struct.pack(f"<{len(nums)}{_FIELD_FORMATS[bits]}", *nums), bits
    step = bits // 8
    return b"".join([x.to_bytes(step, "little", signed=True) for x in nums]), bits


#: Each byte with its top bit flipped: a two's complement field whose top
#: byte is so translated holds the field plus 2^(bits - 1), which is >= 0.
_FLIP_TOP = bytes(range(128, 256)) + bytes(range(128))


def _interference(raw: bytes, bits: int, size: int) -> int:
    """The interference terms I(A) = sum over B <= A of (-1)^|A - B| mu(B)
    of a packed table, as one packed integer: its Möbius transform
    (Björklund, Husfeldt, Kaski and Koivisto, "Fourier meets Möbius",
    STOC 2007).

    The fields are widened to w = bits + n bits, rounded up to bytes, one
    slice assignment per byte of a field, and each top bit is flipped, so
    field A holds mu(A) + 2^(bits - 1) >= 0.  For each history i, every
    field holding i then takes away the field without i and adds
    2^(bits + i), so that none goes negative: one whole-integer step.
    Before it no field exceeds 2^(bits + i), so 2^(bits + i) less each
    field, masked to the fields lacking i, borrows nothing between
    fields, and no offset need be cached per history.  Field A ends as
    I(A) + 2^(bits + max(A)) and field {} as mu({}) + 2^(bits - 1), each
    in [0, 2^w).
    """
    n = size.bit_length() - 1
    w8, lacks, tops, _, _ = _mobius_tables(n, bits)
    step = bits // 8
    wide = bytearray(w8 * size)
    for k in range(step - 1):
        wide[k::w8] = raw[k::step]
    wide[step - 1::w8] = raw[step - 1::step].translate(_FLIP_TOP)
    terms = int.from_bytes(wide, "little")
    for i, lack in enumerate(lacks):
        terms += (((tops << i) - terms) & lack) << (w8 * 8 << i)
    return terms


@lru_cache(maxsize=16)
def _mobius_tables(
    n: int, bits: int
) -> tuple[int, tuple[int, ...], int, int, tuple[int, int]]:
    """The packed masks of :func:`_interference` for n histories and
    ``bits``-wide values: the widened field's bytes; per history i, the
    fields lacking i, all ones; 2^bits in every field; the offsets a
    transform's fields end with; and the fields of more than one and of
    more than two histories, all ones, with field {}.  The last four are
    doubled one history at a time, the masks holding i being those
    without it, 2^i fields up, with one history more.  An entry holds
    n + 4 ints of 2^n widened fields.
    """
    w8 = bits // 8 + (n + 7) // 8
    w, size, empty = w8 * 8, 1 << n, (1 << w8 * 8) - 1
    lacks = tuple(
        int.from_bytes((b"\xff" * (w8 << i) + bytes(w8 << i)) * (size >> i + 1), "little")
        for i in range(n)
    )
    expected, ones = 1 << bits - 1, 1
    at_least = [empty, 0, 0, 0]  # the fields of at least k histories
    for i in range(n):
        shift = w << i
        expected |= ones << bits + i << shift
        ones |= ones << shift
        at_least = [at_least[0] | at_least[0] << shift] + [
            more | fewer << shift for more, fewer in zip(at_least[1:], at_least)
        ]
    return w8, lacks, ones << bits, expected, (at_least[2] | empty, at_least[3] | empty)


def _obeys_grade(values: MeasureValues, grade: int) -> bool:
    """True iff mu({}) = 0 and I(A) = 0 for every A of more than ``grade``
    histories: the transform XORed with its offsets, then one AND.  mu is
    additive iff this holds at grade 1, and obeys the level-2 sum rule iff
    it holds at grade 2 (Sorkin, "Quantum mechanics as quantum measure
    theory", 1994).
    """
    terms, (_, bits) = values.interference, values.packed
    _, _, _, expected, above = _mobius_tables(len(values).bit_length() - 1, bits)
    return not (terms ^ expected) & above[grade - 1]


def _iter_disjoint_pairs(size: int):
    """Unordered pairs (a, b) of disjoint masks with a <= b, ascending."""
    full = size - 1
    for a in range(size):
        for b in iter_submasks(full ^ a):
            if b >= a:
                yield a, b


def _iter_disjoint_triples(size: int):
    """Unordered triples (a, b, c) of pairwise-disjoint masks, a <= b <= c.

    Empty members are allowed (and are the only way a mask can repeat);
    the level-2 rule quantifies over disjoint events without requiring
    nonemptiness, and the empty cases force mu(empty) = 0.
    """
    for a, b in _iter_disjoint_pairs(size):
        for c in iter_submasks((size - 1) ^ a ^ b):
            if c >= b:
                yield a, b, c


def validate_classical(
    m: Measure, limit: Optional[int] = WITNESS_LIST_CAP
) -> ValidationReport:
    """Check the additive (Kolmogorov) sum rule on every disjoint pair.

    The verdict is read from the interference terms: additivity holds iff
    mu(empty) = 0 and I(A) = 0 for every A of two or more histories
    (:func:`_obeys_grade`).  Only a failing rule walks the disjoint pairs,
    to list its first ``limit`` violations in canonical order (all of
    them when ``limit`` is None), and only when the report's
    ``violations`` or ``rows`` are first read.
    """
    if _obeys_grade(m.values, 1):
        return _passed("classical")
    return _listed_on_read("classical", limit, _additivity_violations, m)


def _passed(rule: str) -> ValidationReport:
    return unchecked(ValidationReport, rule=rule, rows=(), violations=(), ok=True, truncated=False)


def _listed_on_read(
    rule: str, limit: Optional[int], rows: Callable[..., Iterator[tuple]], m: Measure, *args
) -> ValidationReport:
    """A failing report: the first ``limit`` of ``rows(m, *args)`` are
    listed on first read, and its violations are built from them on theirs."""
    return unchecked(
        ValidationReport,
        _lister=partial(_first_violations, limit, rows, m, *args),
        _of_rows=partial(_violations_of_rows, m),
        rule=rule,
        ok=False,
    )


def _first_violations(
    limit: Optional[int], rows: Callable[..., Iterator[tuple]], *args: object
) -> tuple[tuple[tuple, ...], bool]:
    """A failing report's listing: the first ``limit`` of ``rows(*args)``."""
    return first_witnesses(rows(*args), limit)


def _violations_of_rows(m: Measure, rows: Iterable[tuple]) -> tuple[Violation, ...]:
    """The violations that the rows (rule, masks, got, expected) name."""
    fraction, ev = m.values.fraction, ByMask(m.algebra.event)
    return tuple(
        [
            Violation(rule, tuple(map(ev.__getitem__, masks)), fraction(got), fraction(expected))
            for rule, masks, got, expected in rows
        ]
    )


def _additivity_violations(m: Measure) -> Iterator[tuple]:
    x = m.values.nums
    for a, b in _iter_disjoint_pairs(m.algebra.size):
        got, expected = x[a | b], x[a] + x[b]
        if got != expected:
            yield "additivity", (a, b), got, expected


def validate_quantum(
    m: Measure, limit: Optional[int] = WITNESS_LIST_CAP
) -> ValidationReport:
    """Check nonnegativity, normalization, and the level-2 sum rule.

    The level-2 rule quantifies over every unordered pairwise-disjoint
    triple of (possibly empty) events:

        mu(A|B|C) = mu(A|B) + mu(B|C) + mu(C|A) - mu(A) - mu(B) - mu(C)

    The rule holds iff mu(empty) = 0 and the interference term I(A)
    vanishes on every event A of at least three histories
    (:func:`_obeys_grade`): the grade-2 characterisation (Sorkin,
    "Quantum mechanics as quantum measure theory", 1994; Salgado, "Some
    identities for the quantum measure and its generalizations", 2002).
    Nonnegativity is read from the sign bit of each packed field, and
    normalization from the last field.  The violations are listed in
    canonical order, negative values first, then normalization, then the
    level-2 triples, the first ``limit`` of them (all when ``limit`` is
    None), on the first read of the report's ``violations`` or ``rows``;
    only a failing level-2 rule walks the disjoint triples.
    """
    values = m.values
    raw, bits = values.packed
    step = bits // 8
    nonnegative = raw[step - 1::step].isascii()  # no field's top bit is set
    grade2 = _obeys_grade(values, 2)
    if nonnegative and grade2 and int.from_bytes(raw[-step:], "little", signed=True) == values.den:
        return _passed("quantum")
    return _listed_on_read("quantum", limit, _quantum_violations, m, nonnegative, grade2)


def _quantum_violations(m: Measure, nonnegative: bool, grade2: bool) -> Iterator[tuple]:
    v = m.values
    x, den, full = v.nums, v.den, m.algebra.space.full_mask
    if not nonnegative:
        for mask in range(m.algebra.size):
            if x[mask] < 0:
                yield "nonnegativity", (mask,), x[mask], 0
    if x[full] != den:
        yield "normalization", (full,), x[full], den
    if grade2:
        return
    for a, b, c in _iter_disjoint_triples(m.algebra.size):
        got = x[a | b | c]
        expected = x[a | b] + x[b | c] + x[c | a] - x[a] - x[b] - x[c]
        if got != expected:
            yield "level2", (a, b, c), got, expected


class DecoherenceSpec(Record):
    """A Hermitian, normalized matrix of pairwise history interferences.

    entries[i][j] is the value on the history pair (i, j), held as tuples.
    The constructor refuses an entry that is not a GaussianRational with
    ``TypeError``, by its labels, and checks the shape n x n, Hermiticity
    and total sum 1 as the loader does (:func:`_checked_matrix`), with
    ``ValueError``.  It keeps the integer real parts the check returns.
    """

    space: SampleSpace
    entries: tuple[tuple[GaussianRational, ...], ...]

    def __post_init__(self) -> None:
        space, entries = self.space, tuple(map(tuple, self.entries))
        _require_square(space, entries)
        for a, row in zip(space.labels, entries):
            for b, g in zip(space.labels, row):
                if not isinstance(g, GaussianRational):
                    raise TypeError(f"matrix entry at ({a}, {b}) is {g!r}, not a GaussianRational")
        parts = [[_parts_of(g) for g in row] for row in entries]
        self.__dict__.update(entries=entries, _checked=_checked_matrix(space, parts))

    @classmethod
    def from_rows(
        cls, space: SampleSpace, rows: Sequence[Sequence[GaussianRational]]
    ) -> "DecoherenceSpec":
        return cls(space, rows)

    @classmethod
    def from_amplitudes(
        cls, space: SampleSpace, amplitudes: Sequence[GaussianRational]
    ) -> "DecoherenceSpec":
        """Rank-one matrix a_i * conj(a_j), rescaled so the total is 1.

        Requires the total |sum a_i|^2 to be nonzero.
        """
        if len(amplitudes) != space.n:
            raise ValueError("need exactly one amplitude per history")
        total = GaussianRational()
        for a in amplitudes:
            total = total + a
        norm = total.re * total.re + total.im * total.im
        if norm == 0:
            raise ValueError("amplitudes sum to zero; matrix cannot be normalized")
        import fractions

        scale = GaussianRational(fractions.Fraction(1, 1) / norm)
        rows = [
            [amplitudes[i] * amplitudes[j].conjugate() * scale for j in range(space.n)]
            for i in range(space.n)
        ]
        return cls.from_rows(space, rows)


def _checked_matrix(
    space: SampleSpace, rows: Sequence[Sequence[ComplexRatio]]
) -> tuple[int, list[list[int]]]:
    """A decoherence matrix's real parts as integer rows over their common
    denominator, once the matrix is checked to be n x n, Hermitian and of
    total sum 1.

    Hermiticity and the sum are tested on integer numerators over the
    common denominator of the real parts and of the imaginary parts:
    Hermiticity as one comparison of each with its transpose, negated for
    the imaginary parts; only a matrix that fails it has its entries
    walked, to name the first pair that differs.  A Hermitian matrix's
    imaginary parts cancel in the sum.
    """
    n = space.n
    _require_square(space, rows)
    (re_den, re), (_, im) = [_integer_rows([[z[k] for z in row] for row in rows]) for k in (0, 1)]
    if re != [list(col) for col in zip(*re)] or im != [[-x for x in col] for col in zip(*im)]:
        i, j = next(
            (i, j) for i in range(n) for j in range(n)
            if re[i][j] != re[j][i] or im[i][j] != -im[j][i]
        )
        raise ValueError(f"matrix is not Hermitian at ({space.labels[i]}, {space.labels[j]})")
    re_total = sum(map(sum, re))
    if re_total != re_den:
        import fractions

        total = GaussianRational.real(fractions.Fraction(re_total, re_den))
        raise ValueError(f"matrix entries sum to {total}, expected 1")
    return re_den, re


def _require_square(space: SampleSpace, rows: Sequence[Sequence[object]]) -> None:
    """Refuse a decoherence matrix that is not n x n, before its entries are read."""
    n = space.n
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"decoherence matrix must be {n}x{n}")


def decoherence_values(
    space: SampleSpace, rows: Sequence[Sequence[ComplexRatio]]
) -> MeasureValues:
    """The table of a decoherence matrix given as rows of complex ratios:
    mu(A) is the matrix summed over the pairs of histories inside A.

    The matrix is checked as the :class:`DecoherenceSpec` constructor
    checks it (:func:`_checked_matrix`), and a Hermitian matrix's sums are
    real, so only the real parts are summed (:func:`_pair_sum_table`).
    """
    den, re = _checked_matrix(space, rows)
    return _pair_sum_table(den, re, 1 << space.n)


def _pair_sum_table(den: int, matrix: Sequence[Sequence[int]], size: int) -> MeasureValues:
    """The table of mask A -> the sum of matrix[k][l] over histories k, l in
    A, over den, for the ``size`` = 2^n masks of an n x n matrix.

    The table is one packed integer (:func:`_field_bits`), bounded by the
    sum of |matrix[k][l]|.  The events holding history i are those
    without it, each plus the cross sum matrix[i][i] + the sum of
    matrix[i][k] + matrix[k][i] over the histories k < i it holds.  That
    cross sum is packed over the 2^i events below i by doubling too, so
    history i costs O(i) whole-integer steps.  The table has grade 2, so
    the reducing gcd is that of den, the diagonal and each
    matrix[k][l] + matrix[l][k].
    """
    n = size.bit_length() - 1
    bits = _field_bits(sum(abs(x) for row in matrix for x in row))
    table, ones, ones_below = 0, 1, []
    for i in range(n):
        row = matrix[i]
        cross = row[i]
        for k, below in enumerate(ones_below):
            cross += (cross + (row[k] + matrix[k][i]) * below) << (bits << k)
        table += (table + cross) << (bits << i)
        ones_below.append(ones)
        ones += ones << (bits << i)
    g = math.gcd(den, *[matrix[i][i] for i in range(n)])
    if g != 1:
        g = math.gcd(g, *[matrix[k][l] + matrix[l][k] for k, l in combinations(range(n), 2)])
    return _table_values(den, g, table, ones, bits)


def measure_from_decoherence(d: DecoherenceSpec) -> Measure:
    """mu(A) = sum of the matrix over pairs of histories inside A.

    The spec's constructor has checked the matrix Hermitian, so each sum
    is real, and kept its real parts as integers over one denominator:
    they are summed as the loader's :func:`decoherence_values` sums them
    (:func:`_pair_sum_table`), with no second check.  No sum rule is
    checked here; :func:`validate_quantum` reports on the result.
    """
    den, re = d._checked
    return Measure(EventAlgebra(d.space), _pair_sum_table(den, re, 1 << d.space.n))


def null_sets(m: Measure) -> EventFamily:
    """All events of exactly zero measure, in canonical order."""
    return EventFamily(m.algebra.space, m.null_masks)


def null_cover_exists(m: Measure) -> bool:
    """True iff the union of all null sets is the whole sample space.

    Read from the table's ``null_bits``: history i lies in some null set
    iff a null bit falls outside the masks lacking i, one AND per history.
    """
    null, n = m.values.null_bits, m.algebra.space.n
    for i in range(n):
        if null & masks_lacking(n, i) == null:
            return False
    return True


class CoarseGraining(Record):
    """A partition of the sample space into nonempty disjoint blocks."""

    blocks: EventFamily

    def __post_init__(self) -> None:
        seen = 0
        for mask in self.blocks.masks:
            if mask == 0:
                raise InvalidPartition("blocks must be nonempty")
            if mask & seen:
                raise InvalidPartition("blocks must be pairwise disjoint")
            seen |= mask
        if seen != self.blocks.space.full_mask:
            raise InvalidPartition("blocks must cover the sample space")

    @classmethod
    def from_label_blocks(
        cls, space: SampleSpace, blocks: Iterable[Iterable[str]]
    ) -> "CoarseGraining":
        algebra = EventAlgebra(space)
        return cls(EventFamily.from_events(
            [algebra.event_from_labels(b) for b in blocks]
        ))


class CoarseGrainedMeasure(Record):
    """The restriction of a measure to the subalgebra generated by a partition."""

    graining: CoarseGraining
    subalgebra: EventFamily  # all unions of blocks, canonical order
    values: Mapping[int, Fraction]


def coarse_grain(m: Measure, graining: CoarseGraining) -> CoarseGrainedMeasure:
    """Restrict the measure to all unions of the partition's blocks."""
    if graining.blocks.space != m.algebra.space:
        raise MismatchedSpace("partition belongs to a different sample space")
    family = EventFamily(m.algebra.space, _block_unions(graining))
    return CoarseGrainedMeasure(
        graining, family, {mask: m.values[mask] for mask in family.masks}
    )


def _block_unions(graining: CoarseGraining) -> list[int]:
    """The union of each pick of blocks, indexed by the pick (bit i = block i)."""
    unions = [0]
    for block in graining.blocks.masks:
        unions += [u | block for u in unions]
    return unions


def is_decoherent(m: Measure, graining: CoarseGraining) -> bool:
    """True iff the restriction to the generated subalgebra is additive.

    The subalgebra of k blocks is a copy of the powerset of the blocks,
    so this is additivity of pick -> mu(union of the picked blocks),
    read from its interference terms as :func:`validate_classical` reads it.
    """
    if graining.blocks.space != m.algebra.space:
        raise MismatchedSpace("partition belongs to a different sample space")
    x = m.values.nums
    return _obeys_grade(MeasureValues(1, [x[u] for u in _block_unions(graining)]), 1)
