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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from .coevent import BRUTE_FORCE_CAP
from .errors import ParseError, ValidationError
from .eventalg import EventAlgebra, SampleSpace
from .measure import DecoherenceSpec, GaussianRational, Measure, measure_from_decoherence


@dataclass(frozen=True)
class TheoryOptions:
    include_empty_dual: bool = False
    brute_force_cap: int = BRUTE_FORCE_CAP


@dataclass(frozen=True)
class HistoriesTheory:
    """A sample space, its event algebra, an exact measure, and options."""

    space: SampleSpace
    algebra: EventAlgebra
    measure: Measure
    options: TheoryOptions
    measure_kind: str  # which stanza the measure came from


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"{where}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        digits = num[1:] if num.startswith(("+", "-")) else num
        # isdecimal holds of exactly the characters \d matches, and int reads them.
        if not (digits.isdecimal() and (not slash or den.isdecimal())):
            raise ValidationError(
                f"{where}: {value!r} is not an exact rational (use an integer or \"p/q\")"
            )
        try:
            p, q = int(digits), int(den) if slash else 1
        except ValueError as exc:  # more digits than Python converts
            raise ValidationError(f"{where}: {exc}")
        if not q:
            raise ValidationError(f"{where}: {value!r} has a zero denominator")
        return Fraction(-p if num.startswith("-") else p, q)
    if isinstance(value, float):
        raise ValidationError(
            f"{where}: floating-point literal {value!r} rejected; values must be exact"
        )
    raise ValidationError(f"{where}: expected a rational, got {type(value).__name__}")


def parse_complex(value: Any, where: str) -> GaussianRational:
    if isinstance(value, dict):
        extra = set(value) - {"re", "im"}
        if extra:
            raise ValidationError(f"{where}: unknown complex fields {sorted(extra)}")
        re_part = parse_rational(value.get("re", 0), where + ".re")
        im_part = parse_rational(value.get("im", 0), where + ".im")
        return GaussianRational(re_part, im_part)
    return GaussianRational(parse_rational(value, where), Fraction(0))


def _parse_event_key(key: str, algebra: EventAlgebra, where: str) -> int:
    try:
        return algebra.parse_mask(key)
    except Exception as exc:
        raise ValidationError(f"{where}: bad event {key!r}: {exc}")


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
        values: dict[int, Fraction] = {}
        for key, raw in body.items():
            where = f"event_table[{key!r}]"
            mask = _parse_event_key(key, algebra, where)
            if mask in values:
                raise ValidationError(f"event_table: event {key!r} given twice")
            values[mask] = parse_rational(raw, where)
        missing = [m for m in range(algebra.size) if m not in values]
        if missing:
            raise ValidationError(
                f"event_table must be total; missing {algebra.event(missing[0])}"
                + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
            )
        measure = Measure(algebra, values)
    elif kind == "atom_weights":
        if not isinstance(body, dict):
            raise ValidationError("atom_weights must map history labels to values")
        weights = {
            lab: parse_rational(raw, f"atom_weights[{lab!r}]")
            for lab, raw in body.items()
        }
        try:
            measure = Measure.from_atom_weights(space, weights)
        except ValueError as exc:
            raise ValidationError(f"atom_weights: {exc}")
    elif kind == "amplitudes":
        if not isinstance(body, list):
            raise ValidationError("amplitudes must be a list, one entry per history")
        amps = [
            parse_complex(raw, f"amplitudes[{i}]") for i, raw in enumerate(body)
        ]
        try:
            measure = Measure.from_amplitudes(space, amps)
        except ValueError as exc:
            raise ValidationError(f"amplitudes: {exc}")
    else:
        if not isinstance(body, list) or not all(isinstance(r, list) for r in body):
            raise ValidationError("decoherence must be a matrix (list of rows)")
        rows = [
            [parse_complex(raw, f"decoherence[{i}][{j}]") for j, raw in enumerate(row)]
            for i, row in enumerate(body)
        ]
        try:
            spec = DecoherenceSpec.from_rows(space, rows)
        except ValueError as exc:
            raise ValidationError(f"decoherence: {exc}")
        measure = measure_from_decoherence(spec)

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

    return HistoriesTheory(
        space=space,
        algebra=algebra,
        measure=measure,
        options=TheoryOptions(include_empty_dual=include_empty, brute_force_cap=cap),
        measure_kind=kind,
    )


def load(path: str | Path) -> HistoriesTheory:
    """Parse and validate a theory file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (RecursionError, ValueError) as exc:  # too deeply nested, or too many digits
        raise ParseError(f"{path}: {exc}")
    return load_data(data, where=str(path))
