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
from typing import Any, Optional, Sequence

from . import beables, coevent, measure as measure_mod, topos
from .coevent import CoeventSpace
from .errors import (
    CapExceeded,
    CoeventsError,
    MismatchedSpace,
    ParseError,
    UnknownHistory,
    ValidationError,
)
from .eventalg import WITNESS_LIST_CAP, Event, first_witnesses, set_bits
from .theoryfile import HistoriesTheory, load

SET_CHOICES = ("all", "classical", "multiplicative", "scheme")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (1, not 2)."""

    def error(self, message: str):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser, built on first use; parsing leaves it unchanged."""
    commands = {
        "validate": "sum rules, null sets, null cover",
        "coevents": "enumerate and classify a coevent set",
        "tau": "embed one history event into valuation events",
        "orders": "compare the pushed-forward and inclusion orders",
        "complete": "close the tau image under unions/intersections (and complements)",
        "audit": "compare AND/OR evaluation on both sides of tau",
        "topos": "dual-poset instance, classifier, characteristic maps",
        "report": "all of the above in one document",
    }
    parser = _Parser(
        prog="coevents",
        description="Analyze a finite histories theory: measures, coevents, order\n"
        "structure, completions, and the varying-set classifier.",
        epilog="commands:\n"
        + "\n".join(f"  {name:<10} {text}" for name, text in commands.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=commands, metavar="command", help="listed below")
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


def _coevent_space(
    theory: HistoriesTheory, set_name: str, include_empty: bool, cap: Optional[int]
) -> CoeventSpace:
    alg = theory.algebra
    if set_name == "classical":
        return coevent.enumerate_classical(alg)
    if set_name == "multiplicative":
        return coevent.enumerate_multiplicative(alg, include_empty_dual=include_empty)
    if set_name == "scheme":
        return coevent.multiplicative_scheme(theory.measure)
    return coevent.enumerate_coevents(
        alg, cap=cap if cap is not None else theory.options.brute_force_cap
    )


# ---------------------------------------------------------------------------
# Section builders (plain JSON-able dicts, canonical ordering throughout)


def _violation_json(v: measure_mod.Violation, names: Sequence[str]) -> dict[str, Any]:
    return {
        "rule": v.rule,
        "events": [names[ev.mask] for ev in v.events],
        "got": str(v.got),
        "expected": str(v.expected),
    }


def _report_json(rep: measure_mod.ValidationReport, names: Sequence[str]) -> dict[str, Any]:
    section = {"ok": rep.ok, "violations": [_violation_json(v, names) for v in rep.violations]}
    if rep.truncated:
        section["violations_truncated"] = True
    return section


def section_theory(theory: HistoriesTheory) -> dict[str, Any]:
    values = theory.measure.values
    texts = {num: str(values.fraction(num)) for num in set(values.nums)}
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
        "classical": _report_json(measure_mod.validate_classical(m, limit), names),
        "quantum": _report_json(measure_mod.validate_quantum(m, limit), names),
        "null_sets": [names[mask] for mask in m.null_masks],
        "null_cover": measure_mod.null_cover_exists(m),
    }


def section_coevents(
    theory: HistoriesTheory, space: CoeventSpace, include_empty: bool
) -> dict[str, Any]:
    m, n = theory.measure, space.algebra.space.n
    members = [
        {
            "coevent": rendered,
            "classical": coevent.classical_key(key),
            "multiplicative": coevent.multiplicative_key(key, include_empty),
            "preclusive": coevent.preclusive_key(key, m),
            "modus_ponens": coevent.modus_ponens_key(key, n),
        }
        for key, rendered in zip(space.keys, space.renderings)
    ]
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
            key: [[names[a.mask], names[b.mask]] for a, b in pairs]
            for key, pairs in rep.witnesses.items()
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
        members, cut = first_witnesses(map(space.render, completion.member_bits), limit)
        member_set = set(completion.member_bits)
        full = (1 << len(space)) - 1
        for bits in completion.member_bits:
            if bits ^ full not in member_set:
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
    events = space.algebra.space.event_names
    size = len(events)
    return {
        "mode": "all-pairs",
        "checked": len(space) * size * (size + 1) // 2,
        "and_identity_ok": True,
        "or_discrepancies": [
            {"coevent": space.renderings[i], "a": events[a], "b": events[b]}
            for i, a, b in beables.or_discrepancies(space)
        ],
    }


def section_topos(
    instance: topos.CoeventToposInstance,
    cap: Optional[int],
    include_empty: bool,
    context: Optional[Event],
    event: Optional[Event],
) -> dict[str, Any]:
    section: dict[str, Any] = {
        "set": instance.space.provenance,
        "poset": list(instance.space.renderings),
        "antichain": instance.is_antichain,
        # over duals every tau row is an up-set of the dual order, so the
        # support selection is a subobject by construction
        "vsupp_is_subobject": True,
    }
    notes = []
    if instance.is_antichain and len(instance.poset) > 0:
        notes.append(
            "base poset is an anti-chain: every context's sieves collapse to "
            "the two classical truth values"
        )
    sieve_cap = cap if cap is not None else topos.SIEVE_ENUMERATION_CAP
    if len(instance.poset) <= sieve_cap:
        poset = instance.poset
        section["classifier"] = {
            "checked": True,
            # every sieve at p is anchored at p, so restriction is functorial
            # by construction (see topos.classifier_functoriality_failures)
            "functorial": True,
            "sieve_counts": [len(poset.up_sets(row)) for row in poset.up],
        }
    else:
        section["classifier"] = {"checked": False, "functorial": None}
        notes.append(
            f"classifier enumeration skipped: poset size {len(instance.poset)} "
            f"exceeds sieve cap {sieve_cap}"
        )
    if context is not None:
        phi = coevent.dual_of_event(context, include_empty_dual=include_empty)
        sieve = topos.chi_vsupp(instance, phi, event)
        section["chi"] = {
            "mode": "single",
            "context": str(phi),
            "event": str(event),
            "sieve": instance.render_sieve(sieve),
        }
    else:
        # chi_vsupp for every (context, event) cell: the event's tau row
        # restricted to the context's up-set, each row read once
        space, poset = instance.space, instance.poset
        names = instance.algebra.space.event_names
        tau_rows = [space.tau_row(mask) for mask in range(len(names))]
        rows = [
            {"context": rendered, "event": name, "sieve": f"@{rendered}: {space.render(row & up)}"}
            for rendered, up in zip(space.renderings, poset.up)
            for row, name in zip(tau_rows, names)
        ]
        section["chi"] = {"mode": "table", "rows": rows}
    section["notes"] = notes
    return section


def _require_single_query(command: str, flags: dict[str, Optional[Event]]) -> None:
    """A single query needs all of its flags; name the missing ones."""
    missing = [flag for flag, value in flags.items() if value is None]
    if 0 < len(missing) < len(flags):
        raise _UsageError(f"{command} single query also needs {' and '.join(missing)}")


def _skippable(builder, *args) -> dict[str, Any]:
    try:
        return builder(*args)
    except CapExceeded as exc:
        return {"skipped": str(exc)}


def build_report(command: str, theory: HistoriesTheory, args) -> dict[str, Any]:
    include_empty = args.include_empty_dual or theory.options.include_empty_dual
    cap = args.cap
    limit = WITNESS_LIST_CAP if args.witnesses is None else args.witnesses
    parse = theory.algebra.parse_event
    event = parse(args.event) if args.event is not None else None
    event_b = parse(args.event_b) if args.event_b is not None else None
    context = parse(args.context) if args.context is not None else None

    def space_of(set_name: str) -> CoeventSpace:
        return _coevent_space(theory, set_name, include_empty, cap)

    topos_cap = cap if cap is not None else topos.MCE_INSTANCE_CAP

    def topos_of(
        space: CoeventSpace, context: Optional[Event], event: Optional[Event]
    ) -> dict[str, Any]:
        instance = topos.build_instance(space, topos_cap)
        return section_topos(instance, cap, include_empty, context, event)

    sections: dict[str, Any] = {}
    if command == "validate":
        sections["validate"] = section_validate(theory, limit)
    elif command == "coevents":
        sections["coevents"] = section_coevents(theory, space_of(args.set), include_empty)
    elif command == "tau":
        if event is None:
            raise _UsageError("tau needs --event")
        sections["tau"] = section_tau(space_of(args.set), event)
    elif command == "orders":
        sections["orders"] = section_orders(space_of(args.set), limit)
    elif command == "complete":
        sections["complete"] = section_complete(space_of(args.set), cap, args.mode or "upper")
    elif command == "audit":
        _require_single_query(
            command, {"--context": context, "--event": event, "--event-b": event_b}
        )
        sections["audit"] = section_audit(
            space_of(args.set), include_empty, context, event, event_b
        )
    elif command == "topos":
        _require_single_query(command, {"--context": context, "--event": event})
        topos.check_instance_cap(theory.space.n, topos_cap)
        sections["topos"] = topos_of(space_of(args.set), context, event)
    elif command == "report":
        sections["validate"] = section_validate(theory, limit)
        # Each space is built once.  Only the completions and the topos
        # instance have caps that a theory can exceed, so only they are skipped.
        spaces = {name: space_of(name) for name in ("classical", "multiplicative", "scheme")}
        for set_name, space in spaces.items():
            sections[f"coevents-{set_name}"] = section_coevents(theory, space, include_empty)
        duals = spaces["multiplicative"]
        sections["orders"] = section_orders(duals, limit)
        for mode in ("upper", "boolean"):
            sections[f"complete-{mode}"] = _skippable(section_complete, duals, cap, mode)
        sections["audit"] = section_audit(duals, include_empty, None, None, None)
        sections["topos"] = _skippable(topos_of, duals, None, None)
    else:  # pragma: no cover - argparse restricts the choices
        raise _UsageError(f"unknown command {command!r}")

    return {
        "command": command,
        "theory": section_theory(theory),
        "sections": sections,
    }


# ---------------------------------------------------------------------------
# Rendering


_json_string = json.encoder.encode_basestring


def render_machine(report: dict[str, Any]) -> str:
    """The report as canonical JSON: ``json.dumps(report, sort_keys=True,
    indent=2, ensure_ascii=False)`` and a newline, written in one pass.

    ``json.dumps`` with an indent runs CPython's pure-Python encoder; this
    writer keeps only its C string encoder.  It takes dicts with str keys,
    lists, tuples, str, int, bool and None; any other value raises TypeError.
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
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_text(value: Any, pad: str, out: list[str]) -> None:
    """Append the lines of a dict or a list at indent ``pad``: a scalar on
    its key's or dash's line, a dict or list on the lines below, one level in."""
    inner = pad + "  "
    if type(value) is dict:
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(f"{pad}{key}: {item}")
            elif kind is dict or kind is list:
                out.append(f"{pad}{key}:")
                _write_text(item, inner, out)
            else:
                out.append(f"{pad}{key}: {_scalar(item)}")
    elif type(value) is list:
        if not value:
            out.append(f"{pad}(none)")
        elif any(type(item) is dict or type(item) is list for item in value):
            for item in value:
                if type(item) is dict or type(item) is list:
                    out.append(f"{pad}-")
                    _write_text(item, inner, out)
                else:
                    out.append(f"{pad}- {_scalar(item)}")
        else:
            out.extend([f"{pad}- {_scalar(item)}" for item in value])


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
        if args.mode is not None and args.command != "complete":
            raise _UsageError(f"--mode is for complete only, not {args.command}")
        if args.witnesses is not None:
            if args.command not in ("validate", "orders", "report"):
                raise _UsageError(
                    f"--witnesses is for validate, orders and report only, not {args.command}"
                )
            if args.witnesses < 0:
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
