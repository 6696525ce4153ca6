"""Loading histories theories from structured text files.

A theory file is a UTF-8 JSON object with a sample space, exactly one
measure stanza, and optional analysis options.  All numbers are exact:
rationals are written as integers or "p/q" strings, complex entries as
{"re": ..., "im": ...} objects.  Floats are rejected outright.

    {
      "sample_space": ["1", "2", "3"],
      "measure": {"amplitudes": [1, 1, -1]},
      "options": {"include-empty-dual": false, "brute-force-cap": 3}
    }

Measure stanzas: "event_table" (event rendering -> value, total),
"atom_weights" (label -> value), "amplitudes" (one per history), or
"decoherence" (n x n Hermitian matrix summing to 1).

Each number is read as an integer numerator and a positive denominator,
as written, and each stanza's pairs go to its integer core in
:mod:`coevents.measure`; no ``Fraction`` is built per entry.  The
``where`` of an error message is written only when the error is raised.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable

from .coevent import BRUTE_FORCE_CAP
from .errors import ParseError, ValidationError
from .eventalg import EventAlgebra, Record, SampleSpace
from .measure import (
    ComplexRatio,
    Measure,
    MeasureValues,
    Ratio,
    amplitude_values,
    atom_weight_values,
    decoherence_values,
)


class TheoryOptions(Record):
    include_empty_dual: bool = False
    brute_force_cap: int = BRUTE_FORCE_CAP


class HistoriesTheory(Record):
    """A sample space, its event algebra, an exact measure, and options."""

    space: SampleSpace
    algebra: EventAlgebra
    measure: Measure
    options: TheoryOptions
    measure_kind: str  # which stanza the measure came from


class _Unreadable(Exception):
    """A number that is not an exact rational; the message follows the
    ``where`` of its entry."""


def _ratio(value: Any) -> Ratio:
    """``value`` as an integer numerator and a positive denominator, as
    written (``"2/4"`` is (2, 4)), or :class:`_Unreadable`."""
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        # isdecimal holds of exactly the characters \d matches, and int reads
        # them, after one sign.
        if not (
            (num.isdecimal() or num[:1] in "+-" and num[1:].isdecimal())
            and (den.isdecimal() or not slash)
        ):
            raise _Unreadable(
                f": {value!r} is not an exact rational (use an integer or \"p/q\")"
            )
        try:
            p, q = int(num), int(den) if slash else 1
        except ValueError as exc:  # more digits than Python converts
            raise _Unreadable(f": {exc}") from None
        if not q:
            raise _Unreadable(f": {value!r} has a zero denominator")
        return p, q
    if isinstance(value, bool):
        raise _Unreadable(": booleans are not numbers")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise _Unreadable(f": floating-point literal {value!r} rejected; values must be exact")
    raise _Unreadable(f": expected a rational, got {type(value).__name__}")


_PARTS = {"re", "im"}


def _complex_ratio(value: Any) -> ComplexRatio:
    """A complex entry, a rational or a ``{"re": ..., "im": ...}`` object,
    as the ratios of its real and imaginary parts, each read by one
    :func:`_ratio` call; the message of an unreadable part names it."""
    if not isinstance(value, dict):
        return _ratio(value), (0, 1)
    if not value.keys() <= _PARTS:
        raise _Unreadable(f": unknown complex fields {sorted(value.keys() - _PARTS)}")
    part = ".re"
    try:
        re = _ratio(value.get("re", 0))
        part = ".im"
        return re, _ratio(value.get("im", 0))
    except _Unreadable as exc:
        raise _Unreadable(f"{part}{exc}") from None


def _read(entries: Iterable[tuple[Any, Any]], read: Callable[[Any], Any], where: str) -> list:
    """``read`` of each entry's value, in order; a rejected value raises
    :class:`ValidationError` at ``where.format(key)``."""
    out = []
    try:
        for key, raw in entries:
            out.append(read(raw))
    except _Unreadable as exc:
        raise ValidationError(f"{where.format(key)}{exc}") from None
    return out


def _event_table_values(body: dict, algebra: EventAlgebra) -> MeasureValues:
    """The table an ``event_table`` stanza writes, total on the algebra.

    A key written as its event prints is one lookup in
    :attr:`~coevents.eventalg.SampleSpace.event_masks`, all of them in one
    ``map``; any other spelling is read by
    :meth:`~coevents.eventalg.EventAlgebra.parse_mask`.
    """
    ratios: list[Ratio | None] = [None] * algebra.size
    for key, mask, raw in zip(body, map(algebra.space.event_masks.get, body), body.values()):
        if mask is None:
            try:
                mask = algebra.parse_mask(key)
            except Exception as exc:
                raise ValidationError(f"event_table[{key!r}]: bad event {key!r}: {exc}")
        if ratios[mask] is not None:
            raise ValidationError(f"event_table: event {key!r} given twice")
        try:
            ratios[mask] = _ratio(raw)
        except _Unreadable as exc:
            raise ValidationError(f"event_table[{key!r}]{exc}") from None
    if None in ratios:
        missing = [m for m, r in enumerate(ratios) if r is None]
        raise ValidationError(
            f"event_table must be total; missing {algebra.event(missing[0])}"
            + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
        )
    return MeasureValues.of_ratios(ratios)


def load_data(data: Any, where: str = "theory") -> HistoriesTheory:
    """Build a validated theory from already-parsed JSON data."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: top level must be an object")
    unknown = set(data) - {"sample_space", "measure", "options"}
    if unknown:
        raise ValidationError(f"{where}: unknown top-level fields {sorted(unknown)}")

    labels = data.get("sample_space")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValidationError("sample_space must be a list of strings")
    try:
        space = SampleSpace(tuple(labels))
        for label in labels:  # labels are written out, so they must encode
            label.encode("utf-8")
    except ValueError as exc:
        raise ValidationError(f"sample_space: {exc}")
    algebra = EventAlgebra(space)

    stanza = data.get("measure")
    if not isinstance(stanza, dict):
        raise ValidationError("measure must be an object with exactly one stanza")
    kinds = {"event_table", "atom_weights", "amplitudes", "decoherence"}
    present = sorted(kinds & set(stanza))
    if len(present) != 1:
        raise ValidationError(
            f"measure must contain exactly one of {sorted(kinds)}, found {present}"
        )
    unknown = set(stanza) - kinds
    if unknown:
        raise ValidationError(f"measure: unknown fields {sorted(unknown)}")
    kind = present[0]
    body = stanza[kind]

    if kind == "event_table":
        if not isinstance(body, dict):
            raise ValidationError("event_table must map event renderings to values")
        values = _event_table_values(body, algebra)
    elif kind == "atom_weights":
        if not isinstance(body, dict):
            raise ValidationError("atom_weights must map history labels to values")
        weights = dict(zip(body, _read(body.items(), _ratio, "atom_weights[{!r}]")))
        try:
            values = atom_weight_values(space, weights)
        except ValueError as exc:
            raise ValidationError(f"atom_weights: {exc}")
    elif kind == "amplitudes":
        if not isinstance(body, list):
            raise ValidationError("amplitudes must be a list, one entry per history")
        amps = _read(enumerate(body), _complex_ratio, "amplitudes[{}]")
        try:
            values = amplitude_values(space, amps)
        except ValueError as exc:
            raise ValidationError(f"amplitudes: {exc}")
    else:
        if not isinstance(body, list) or not all(isinstance(r, list) for r in body):
            raise ValidationError("decoherence must be a matrix (list of rows)")
        rows = [
            _read(enumerate(row), _complex_ratio, f"decoherence[{i}][{{}}]")
            for i, row in enumerate(body)
        ]
        try:
            values = decoherence_values(space, rows)
        except ValueError as exc:
            raise ValidationError(f"decoherence: {exc}")
    measure = Measure(algebra, values)

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("options must be an object")
    unknown = set(options) - {"include-empty-dual", "brute-force-cap"}
    if unknown:
        raise ValidationError(f"options: unknown fields {sorted(unknown)}")
    include_empty = options.get("include-empty-dual", False)
    if not isinstance(include_empty, bool):
        raise ValidationError("options.include-empty-dual must be a boolean")
    cap = options.get("brute-force-cap", BRUTE_FORCE_CAP)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise ValidationError("options.brute-force-cap must be a positive integer")

    return HistoriesTheory(space, algebra, measure, TheoryOptions(include_empty, cap), kind)


def load(path: str | Path) -> HistoriesTheory:
    """Parse and validate a theory file.

    The file is read as bytes and decoded as strict UTF-8; CRLF and a
    lone CR are read as LF, as a text-mode read does, so a parse error
    names the same line and column.
    """
    with open(path, "rb", buffering=0) as file:
        raw = file.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (RecursionError, ValueError) as exc:  # too deeply nested, or too many digits
        raise ParseError(f"{path}: {exc}")
    return load_data(data, where=str(path))
