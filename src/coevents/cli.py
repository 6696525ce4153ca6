"""Command-line front end: load a theory file, run analyses, emit reports.

Verbs: validate | coevents | tau | orders | complete | audit | topos |
report.  Reports are deterministic for a given input file and flag set;
the machine format is canonical JSON and round-trips byte-identically.

Exit codes: 0 = analyses ran (law failures are findings, not errors),
1 = usage error, 2 = parse/validation error, 3 = cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable, Iterator, Optional, Sequence

from . import beables, coevent, measure as measure_mod, topos
from .coevent import CoeventSpace, dual_principals
from .errors import (
    CapExceeded,
    CoeventsError,
    MismatchedSpace,
    ParseError,
    UnknownHistory,
    ValidationError,
)
from .eventalg import WITNESS_LIST_CAP, Event, Record, first_witnesses, iter_submasks, set_bits
from .poset import up_sets
from .theoryfile import HistoriesTheory, load

SET_CHOICES = ("all", "classical", "multiplicative", "scheme")
#: The most OR discrepancies the all-pairs audit lists (n=8 over all duals
#: lists 1,398,097); a larger listing is refused before it is built.
AUDIT_ROW_CAP = 2_000_000


class RowTable:
    """A list of rows of one shape, as the writers print a list of dicts or of lists.

    ``columns`` are the column names in sorted order, ``flags`` those of
    them that hold a bool in every row, ``lists`` those that hold a tuple
    of str in every row, written as a list (every other column holds a
    str), and ``rows`` the value tuples, each in column order.  With
    ``columns`` None the rows have no column names: each is a tuple of
    str, all of one length, written as a list.  Both writers build one
    template per table and test the value types once per column.
    """

    __slots__ = ("columns", "flags", "lists", "rows")

    def __init__(
        self,
        columns: Optional[Sequence[str]],
        flags: Sequence[str],
        rows: Sequence[tuple],
        lists: Sequence[str] = (),
    ) -> None:
        self.columns = None if columns is None else tuple(columns)
        self.flags, self.lists, self.rows = frozenset(flags), frozenset(lists), rows

    def plain(self) -> list:
        """The rows as the dicts, or with no column names the lists, that
        the writers print, each tuple of a list column as a list."""
        if self.columns is None:
            return [list(row) for row in self.rows]
        lists = self.lists
        return [
            {name: list(value) if name in lists else value for name, value in zip(self.columns, row)}
            for row in self.rows
        ]

    def __eq__(self, other: object) -> bool:
        return self.plain() == other


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (1, not 2)."""

    def error(self, message: str):
        raise _UsageError(message)


class _Verb(Record):
    """A verb's help line, its sections (name -> builder and arguments; by
    default its own builder over the ``--set`` space), its own flags, the
    flags it needs and its query's flags: it refuses any other (:attr:`reads`)."""

    help: str
    sections: Optional[dict[str, tuple[str, ...]]] = None
    flags: tuple[str, ...] = ()
    needs: tuple[str, ...] = ()
    query: tuple[str, ...] = ()

    @property
    def reads(self) -> tuple[str, ...]:
        return self.flags + self.needs + self.query


_VERBS = {
    "validate": _Verb("sum rules, null sets, null cover", flags=("--witnesses",)),
    "coevents": _Verb("enumerate and classify a coevent set"),
    "tau": _Verb("embed one history event into valuation events", needs=("--event",)),
    "orders": _Verb("compare the pushed-forward and inclusion orders", flags=("--witnesses",)),
    "complete": _Verb(
        "close the tau image under unions/intersections (and complements)", flags=("--mode",)
    ),
    "audit": _Verb(
        "compare AND/OR evaluation on both sides of tau",
        query=("--context", "--event", "--event-b"),
    ),
    "topos": _Verb(
        "dual-poset instance, classifier, characteristic maps", query=("--context", "--event")
    ),
    # the other verbs' builders, over the duals
    "report": _Verb(
        "all of the above in one document",
        {
            "validate": ("validate",),
            "coevents-classical": ("coevents", "classical"),
            "coevents-multiplicative": ("coevents", "multiplicative"),
            "coevents-scheme": ("coevents", "scheme"),
            "orders": ("orders", "multiplicative"),
            "complete-upper": ("complete", "multiplicative", "upper"),
            "complete-boolean": ("complete", "multiplicative", "boolean"),
            "audit": ("audit", "multiplicative"),
            "topos": ("topos", "multiplicative"),
        },
        flags=("--witnesses",),
    ),
}


def _listed(words: Sequence[str]) -> str:
    """``a``, ``a and b``, ``a, b and c``."""
    return ", ".join(words[:-1]) + " and " + words[-1] if len(words) > 1 else words[0]


@functools.cache
def _build_parser() -> _Parser:
    """The one parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(
        prog="coevents",
        description="Analyze a finite histories theory: measures, coevents, order\n"
        "structure, completions, and the varying-set classifier.",
        epilog="commands:\n"
        + "\n".join(f"  {name:<10} {verb.help}" for name, verb in _VERBS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_VERBS, metavar="command", help="listed below")
    parser.add_argument("theory", help="path to a theory file")
    parser.add_argument(
        "--set",
        choices=SET_CHOICES,
        default="multiplicative",
        help="which coevent space to use (default: multiplicative)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="output format (machine = canonical JSON)",
    )
    parser.add_argument(
        "--include-empty-dual",
        action="store_true",
        help="admit the empty event's dual (the constant-one coevent)",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help="override enumeration caps with this size",
    )
    parser.add_argument(
        "--event",
        default=None,
        help='history event as comma-separated labels, e.g. "1,2"; "" is empty',
    )
    parser.add_argument(
        "--event-b",
        default=None,
        help="second history event (for a single-pair audit)",
    )
    parser.add_argument(
        "--context",
        default=None,
        help="principal event of the context coevent (for topos/audit)",
    )
    parser.add_argument(
        "--witnesses",
        type=int,
        default=None,
        metavar="N",
        help="validate/orders/report: list at most N witnesses of each failed "
        f"check (default: {WITNESS_LIST_CAP}); verdicts never depend on it",
    )
    parser.add_argument(
        "--mode",
        choices=("upper", "boolean"),
        default=None,
        help="complete only: which completion to build (default: upper)",
    )
    return parser


# ---------------------------------------------------------------------------
# Section builders (plain JSON-able dicts, canonical ordering throughout)


#: A violation's columns, in sorted order; its events are a list column.
_VIOLATION_COLUMNS = ("events", "expected", "got", "rule")


def _report_json(
    rep: measure_mod.ValidationReport, names: Sequence[str], values: measure_mod.MeasureValues
) -> dict[str, Any]:
    """A validator's verdict and its violations, read from the report's
    integer rows; each numerator is turned into text once."""
    rows = rep.rows
    texts = values.texts({num for _, _, got, expected in rows for num in (got, expected)})
    name = names.__getitem__
    violations = [
        (tuple(map(name, masks)), texts[expected], texts[got], rule)
        for rule, masks, got, expected in rows
    ]
    section = {"ok": rep.ok, "violations": RowTable(_VIOLATION_COLUMNS, (), violations, ("events",))}
    if rep.truncated:
        section["violations_truncated"] = True
    return section


def section_theory(theory: HistoriesTheory) -> dict[str, Any]:
    values = theory.measure.values
    texts = values.texts(set(values.nums))
    return {
        "labels": list(theory.space.labels),
        "measure_kind": theory.measure_kind,
        "values": {
            name: texts[num] for name, num in zip(theory.space.event_names, values.nums)
        },
        "options": {
            "include-empty-dual": theory.options.include_empty_dual,
            "brute-force-cap": theory.options.brute_force_cap,
        },
    }


def section_validate(theory: HistoriesTheory, limit: Optional[int]) -> dict[str, Any]:
    m, names = theory.measure, theory.space.event_names
    return {
        "classical": _report_json(measure_mod.validate_classical(m, limit), names, m.values),
        "quantum": _report_json(measure_mod.validate_quantum(m, limit), names, m.values),
        "null_sets": [names[mask] for mask in m.null_masks],
        "null_cover": measure_mod.null_cover_exists(m),
    }


def section_coevents(
    theory: HistoriesTheory, space: CoeventSpace, include_empty: bool
) -> dict[str, Any]:
    m, n = theory.measure, space.algebra.space.n
    members = RowTable(
        ("classical", "coevent", "modus_ponens", "multiplicative", "preclusive"),
        ("classical", "modus_ponens", "multiplicative", "preclusive"),
        [
            (
                coevent.classical_key(key),
                rendered,
                coevent.modus_ponens_key(key, n),
                coevent.multiplicative_key(key, include_empty),
                coevent.preclusive_key(key, m),
            )
            for key, rendered in zip(space.keys, space.renderings)
        ],
    )
    return {"set": space.provenance, "count": len(space), "members": members}


def section_tau(space: CoeventSpace, event: Event) -> dict[str, Any]:
    # only the row's members are rendered, not the whole space
    row = beables.tau(event, space).bits
    keys, sample_space = space.keys, space.algebra.space
    members = [coevent.render_key(sample_space, keys[i]) for i in set_bits(row)]
    return {
        "set": space.provenance,
        "event": str(event),
        "valuation_event": "[" + ", ".join(members) + "]",
        "members": members,
    }


def section_orders(space: CoeventSpace, limit: Optional[int]) -> dict[str, Any]:
    rep = beables.order_report(space, limit)
    names = space.algebra.space.event_names
    section = {
        "set": space.provenance,
        "tau_injective": rep.tau_injective,
        "pushforward_well_defined": rep.pushforward_well_defined,
        "orders_agree": rep.orders_agree,
        "meet_agree": rep.meet_agree,
        "join_agree": rep.join_agree,
        "witnesses": {
            key: RowTable(None, (), [(names[a], names[b]) for a, b in pairs])
            for key, pairs in rep.rows.items()
        },
        "notes": list(rep.notes),
    }
    for key in rep.truncated:
        section[f"{key}_truncated"] = True
    return section


def section_complete(
    space: CoeventSpace, cap: Optional[int], mode: str, limit: Optional[int] = WITNESS_LIST_CAP
) -> dict[str, Any]:
    """The completion's size and verdict, and its first ``limit`` members
    in ascending bit order, with ``members_truncated`` when more exist."""
    completion = beables.complete(
        space, mode, cap=cap if cap is not None else beables.COMPLETION_CAP
    )
    non_boolean_witness = None
    if mode == "boolean":
        # all of 2^V in ascending bit order, complemented by construction
        members, cut = first_witnesses(space.subset_renderings(limit), limit)
    else:
        members, cut = first_witnesses(space.render_each(completion.member_bits), limit)
        full = (1 << len(space)) - 1
        for bits in completion.member_bits:
            if not completion.holds(bits ^ full):
                non_boolean_witness = space.render(bits)
                break
    section = {
        "set": space.provenance,
        "mode": mode,
        "size": len(completion),
        "members": list(members),
        "boolean": non_boolean_witness is None,
        "non_boolean_witness": non_boolean_witness,
    }
    if cut:
        section["members_truncated"] = True
    return section


def section_audit(
    space: CoeventSpace,
    include_empty: bool,
    context: Optional[Event],
    event_a: Optional[Event],
    event_b: Optional[Event],
) -> dict[str, Any]:
    if context is not None and event_a is not None and event_b is not None:
        phi = coevent.dual_of_event(context, include_empty_dual=include_empty)
        record = beables.and_or_audit(phi, event_a, event_b, space)
        return {
            "mode": "single",
            "coevent": str(phi),
            "a": str(event_a),
            "b": str(event_b),
            "phi_a": record.phi_a,
            "phi_b": record.phi_b,
            "phi_meet": record.phi_meet,
            "phi_join": record.phi_join,
            "f_meet": record.f_meet,
            "f_join": record.f_join,
            "and_identity_holds": record.and_identity_holds,
            "or_discrepancy": record.or_discrepancy,
        }
    rows = beables.or_discrepancy_count(space)
    if rows > AUDIT_ROW_CAP:
        raise CapExceeded("all-pairs audit OR discrepancies", AUDIT_ROW_CAP, rows, override=None)
    events, renderings = space.algebra.space.event_names, space.renderings
    size = len(events)
    return {
        "mode": "all-pairs",
        "checked": len(space) * size * (size + 1) // 2,
        "and_identity_ok": True,
        "or_discrepancies": RowTable(
            ("a", "b", "coevent"),
            (),
            [(events[a], events[b], renderings[i]) for i, a, b in beables.or_discrepancies(space)],
        ),
    }


def section_topos(
    space: CoeventSpace,
    cap: Optional[int],
    include_empty: bool,
    context: Optional[Event],
    event: Optional[Event],
) -> dict[str, Any]:
    principals = dual_principals(space)
    # member i lies below another iff its up-set row holds more than itself
    antichain = all(space.tau_row(p) == 1 << i for i, p in enumerate(principals))
    section: dict[str, Any] = {
        "set": space.provenance,
        "poset": list(space.renderings),
        "antichain": antichain,
        # over duals every tau row is an up-set of the dual order, so the
        # support selection is a subobject by construction
        "vsupp_is_subobject": True,
    }
    notes = []
    if antichain and len(space) > 0:
        notes.append(
            "base poset is an anti-chain: every context's sieves collapse to "
            "the two classical truth values"
        )
    sieve_cap = cap if cap is not None else topos.SIEVE_ENUMERATION_CAP
    if len(space) <= sieve_cap:
        section["classifier"] = {
            "checked": True,
            # every sieve at p is anchored at p, so restriction is functorial
            # by construction (see topos.classifier_functoriality_failures)
            "functorial": True,
            "sieve_counts": _sieve_counts(space),
        }
    else:
        section["classifier"] = {"checked": False, "functorial": None}
        notes.append(
            f"classifier enumeration skipped: poset size {len(space)} "
            f"exceeds sieve cap {sieve_cap}"
        )
    # χ at (p*, A) is tau(A) within p*'s up-set, over duals tau(A & p): "@p*: " and
    # that row's rendering; the table renders each row once, each cell once per submask of p
    if context is not None:
        phi = coevent.dual_of_event(context, include_empty_dual=include_empty)
        if context.mask not in principals:
            raise MismatchedSpace("coevent is not in the instance's base poset")
        section["chi"] = {
            "mode": "single",
            "context": str(phi),
            "event": str(event),
            "sieve": f"@{phi}: {space.render(space.tau_row(event.mask & context.mask))}",
        }
    else:
        names = space.algebra.space.event_names
        sieves = [space.render(row) for row in space.tau_table]
        rows = []
        for rendered, p in zip(space.renderings, principals):
            cells = {a: f"@{rendered}: {sieves[a]}" for a in iter_submasks(p)}
            rows += [(rendered, name, cells[a & p]) for a, name in enumerate(names)]
        section["chi"] = {
            "mode": "table",
            "rows": RowTable(("context", "event", "sieve"), (), rows),
        }
    section["notes"] = notes
    return section


def _sieve_counts(space: CoeventSpace) -> list[int]:
    """The number of sieves at each member of a space of duals: the up-sets
    of its up-set row.  When the space holds every nonzero dual, with or
    without the empty event's, the principal up-set of p* is the duals
    of the subsets of p, so the count depends on |p| alone and is listed
    once per size; any other space lists each row's."""
    rows, principals = space.up_rows, space.principals
    if len(rows) - (0 in principals) < space.algebra.space.full_mask:
        return [len(up_sets(rows, row)) for row in rows]
    by_size: dict[int, int] = {}
    for p, row in zip(principals, rows):
        if p.bit_count() not in by_size:
            by_size[p.bit_count()] = len(up_sets(rows, row))
    return [by_size[p.bit_count()] for p in principals]


def build_report(command: str, theory: HistoriesTheory, args) -> dict[str, Any]:
    """Build ``command``'s sections from the verb table.  A section over its
    cap is skipped inside ``report``; in any other verb CapExceeded propagates."""
    verb = _VERBS[command]
    include_empty = args.include_empty_dual or theory.options.include_empty_dual
    cap = args.cap
    limit = WITNESS_LIST_CAP if args.witnesses is None else args.witnesses
    topos_cap = cap if cap is not None else topos.MCE_INSTANCE_CAP
    parse = theory.algebra.parse_event
    texts = {"--event": args.event, "--event-b": args.event_b, "--context": args.context}
    given = {flag: None if text is None else parse(text) for flag, text in texts.items()}
    if any(given[flag] is None for flag in verb.needs):
        raise _UsageError(f"{command} needs {_listed(verb.needs)}")
    missing = [flag for flag in verb.query if given[flag] is None]
    if 0 < len(missing) < len(verb.query):
        raise _UsageError(f"{command} single query also needs {_listed(missing)}")
    context, event, event_b = map(given.get, ("--context", "--event", "--event-b"))

    @functools.cache
    def space(set_name: str) -> CoeventSpace:
        alg = theory.algebra
        if set_name == "classical":
            return coevent.enumerate_classical(alg)
        if set_name == "multiplicative":
            return coevent.enumerate_multiplicative(alg, include_empty_dual=include_empty)
        if set_name == "scheme":
            return coevent.multiplicative_scheme(theory.measure)
        brute_force_cap = cap if cap is not None else theory.options.brute_force_cap
        return coevent.enumerate_coevents(alg, cap=brute_force_cap)

    def topos_over(s: str = args.set) -> dict[str, Any]:
        topos.check_instance_cap(theory.space.n, topos_cap)  # before the space is built
        return section_topos(space(s), cap, include_empty, context, event)

    # each builder looks its section_* up in the module globals when it runs
    builders = {
        "validate": lambda: section_validate(theory, limit),
        "coevents": lambda s=args.set: section_coevents(theory, space(s), include_empty),
        "tau": lambda s=args.set: section_tau(space(s), event),
        "orders": lambda s=args.set: section_orders(space(s), limit),
        "complete": lambda s=args.set, m=args.mode or "upper": section_complete(space(s), cap, m),
        "audit": lambda s=args.set: section_audit(space(s), include_empty, context, event, event_b),
        "topos": topos_over,
    }
    sections: dict[str, Any] = {}
    for name, (builder, *arguments) in (verb.sections or {command: (command,)}).items():
        try:
            sections[name] = builders[builder](*arguments)
        except CapExceeded as exc:
            if command != "report":
                raise
            sections[name] = {"skipped": str(exc)}
    return {"command": command, "theory": section_theory(theory), "sections": sections}


# ---------------------------------------------------------------------------
# Rendering


_json_string = json.encoder.encode_basestring
_JSON_FLAGS, _TEXT_FLAGS = ("false", "true"), ("no", "yes")
_NESTED = (dict, list, RowTable)  # the containers that the text writer nests


def render_machine(report: dict[str, Any]) -> str:
    """The report as canonical JSON: ``json.dumps(report, sort_keys=True,
    indent=2, ensure_ascii=False)`` and a newline, written in one pass.

    ``json.dumps`` with an indent runs CPython's pure-Python encoder; this
    writer keeps only its C string encoder.  It takes dicts with str keys,
    lists, tuples, str, int, bool, None and row tables (written as their
    :meth:`RowTable.plain`); any other value, or a row table value outside
    its column's type, raises TypeError.
    """
    out: list[str] = []
    _write_json(report, "", out)
    out.append("\n")
    return "".join(out)


def _write_json(value: Any, pad: str, out: list[str]) -> None:
    """Append ``value`` as indented JSON, ``pad`` being its own line's indent."""
    kind = type(value)
    if kind is str:
        out.append(_json_string(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        lead = "{\n" + inner
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            # the scalars most reports hold, inline; the rest one level down
            if kind is str:
                out.append(f"{lead}{_json_string(key)}: {_json_string(item)}")
            elif kind is bool:
                out.append(f"{lead}{_json_string(key)}: {'true' if item else 'false'}")
            elif kind is int:
                out.append(f"{lead}{_json_string(key)}: {int.__repr__(item)}")
            else:
                out.append(f"{lead}{_json_string(key)}: ")
                _write_json(item, inner, out)
            lead = ",\n" + inner
        out.append(f"\n{pad}}}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if all(type(item) is str for item in value):
            items = f",\n{inner}".join(map(_json_string, value))
            out.append(f"[\n{inner}{items}\n{pad}]")
            return
        lead = "[\n" + inner
        for item in value:
            out.append(lead)
            _write_json(item, inner, out)
            lead = ",\n" + inner
        out.append(f"\n{pad}]")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif kind is RowTable:
        if not value.rows:
            out.append("[]")
            return
        inner, field, item = pad + "  ", pad + "    ", pad + "      "
        if value.columns is None:
            width = len(value.rows[0])
            template = "[" + ",".join([f"\n{field}%s"] * width) + f"\n{inner}]" if width else "[]"
        else:
            keys = [_json_string(name).replace("%", "%%") for name in value.columns]
            template = "{" + ",".join([f"\n{field}{key}: %s" for key in keys])
            template += f"\n{inner}}}" if keys else "}"

        def nested(texts: tuple[str, ...]) -> str:
            if not texts:
                return "[]"
            return f"[\n{item}" + f",\n{item}".join(map(_json_string, texts)) + f"\n{field}]"

        lines = _filled_rows(value, template, _JSON_FLAGS, _json_string, nested)
        out.append(f"[\n{inner}" + f",\n{inner}".join(lines) + f"\n{pad}]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _filled_rows(
    table: RowTable,
    template: str,
    words: tuple[str, str],
    encode: Optional[Callable],
    nested: Callable[[tuple[str, ...]], str],
) -> Iterator[str]:
    """Each row of ``table`` put into the ``%``-template, a column at a time:
    a flag column as ``words`` (for False, True), a list column through
    ``nested``, any other column, named or not, through ``encode`` (the
    JSON string encoder refuses any value that is not a str), or as it is
    when ``encode`` is None."""
    rows = table.rows
    names = (None,) * len(rows[0]) if table.columns is None else table.columns
    if not names or (encode is None and not table.flags and not table.lists):
        return map(template.__mod__, rows)
    columns = []
    for name, values in zip(names, zip(*rows)):
        if name in table.flags:
            if set(map(type, values)) != {bool}:
                raise TypeError(f"flag column {name!r} holds a value that is not a bool")
            columns.append(map(words.__getitem__, values))
        elif name in table.lists:
            if set(map(type, values)) != {tuple}:
                raise TypeError(f"list column {name!r} holds a value that is not a tuple")
            columns.append(map(nested, values))
        else:
            columns.append(values if encode is None else map(encode, values))
    return map(template.__mod__, zip(*columns))


def _write_text(value: Any, pad: str, out: list[str]) -> None:
    """Append the lines of a dict, a list or a row table at indent ``pad``:
    a scalar on its key's or dash's line, a container on the lines below,
    one level in."""
    inner = pad + "  "
    kind = type(value)
    if kind is dict:
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(f"{pad}{key}: {item}")
            elif kind in _NESTED:
                out.append(f"{pad}{key}:")
                _write_text(item, inner, out)
            else:
                out.append(f"{pad}{key}: {_scalar(item)}")
    elif kind is list:
        if not value:
            out.append(f"{pad}(none)")
        elif any(type(item) in _NESTED for item in value):
            for item in value:
                if type(item) in _NESTED:
                    out.append(f"{pad}-")
                    _write_text(item, inner, out)
                else:
                    out.append(f"{pad}- {_scalar(item)}")
        else:
            out.extend([f"{pad}- {_scalar(item)}" for item in value])
    elif kind is RowTable:
        if not value.rows:
            out.append(f"{pad}(none)")
            return
        item = inner + "  "
        if value.columns is None:
            width = len(value.rows[0])
            template = f"{pad}-" + (f"\n{inner}- %s" * width if width else f"\n{inner}(none)")
        else:
            template = f"{pad}-" + "".join(
                [
                    f"\n{inner}{name.replace('%', '%%')}:" + ("%s" if name in value.lists else " %s")
                    for name in value.columns
                ]
            )

        def nested(texts: tuple[str, ...]) -> str:
            if not texts:
                return f"\n{item}(none)"
            return "".join([f"\n{item}- {text}" for text in texts])

        out.append("\n".join(_filled_rows(value, template, _TEXT_FLAGS, None, nested)))


def _scalar(value: Any) -> str:
    if type(value) is str:
        return value
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if value is None:
        return "-"
    return str(value)


def render_text(report: dict[str, Any]) -> str:
    theory = report["theory"]
    out = [
        f"command: {report['command']}",
        "theory: " + ",".join(theory["labels"]) + f" ({theory['measure_kind']})",
        "",
        "# measure",
    ]
    _write_text(theory["values"], "  ", out)
    for name in sorted(report["sections"]):
        out += ("", f"# {name}")
        _write_text(report["sections"][name], "  ", out)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Entry point


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        reads = _VERBS[args.command].reads
        for flag in sorted({flag for verb in _VERBS.values() for flag in verb.reads}):
            if getattr(args, flag[2:].replace("-", "_")) is not None and flag not in reads:
                takers = [name for name, verb in _VERBS.items() if flag in verb.reads]
                raise _UsageError(f"{flag} is for {_listed(takers)} only, not {args.command}")
        if args.witnesses is not None and args.witnesses < 0:
            raise _UsageError("--witnesses must be at least 0")
        if args.cap is not None and args.cap < 1:
            raise _UsageError("--cap must be at least 1")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        theory = load(args.theory)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = build_report(args.command, theory, args)
    except (_UsageError, UnknownHistory, MismatchedSpace) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except CoeventsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = render_machine(report) if args.format == "machine" else render_text(report)
    sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
