from __future__ import annotations

import pytest

from fractions import Fraction
from typing import Any

from coevents import Coevent, CoeventSpace, EventAlgebra, SampleSpace
from coevents.measure import Measure, ValidationReport, Violation
from coevents.beables import OrderReport, and_or_audit
from coevents.coevent import dual_of_coevent
from coevents.catalog import corpus

LETTER_LABELS = ("a", "b", "c", "d")


@pytest.fixture
def coin_space() -> SampleSpace:
    return SampleSpace(("h", "t"))


@pytest.fixture
def coin_algebra(coin_space) -> EventAlgebra:
    return EventAlgebra(coin_space)


@pytest.fixture
def abc_algebra() -> EventAlgebra:
    return EventAlgebra(SampleSpace(("a", "b", "c")))


def algebra_of_size(n: int) -> EventAlgebra:
    return EventAlgebra(SampleSpace(LETTER_LABELS[:n]))


def support_key(phi: Coevent) -> tuple[int, ...]:
    """A coevent's support as its ascending masks, the order-defining key."""
    return tuple(sorted(phi.support))


def dual_up_masks(space: CoeventSpace) -> list[int]:
    """Oracle: per member of a space of duals, the bitmask of members above
    it in the dual order (those whose principal event lies inside its own)."""
    principals = [dual_of_coevent(phi, include_empty_dual=True).mask for phi in space.members]
    return [
        sum(1 << j for j, q in enumerate(principals) if q & p == q) for p in principals
    ]


def order_report_oracle(space: CoeventSpace) -> OrderReport:
    """Oracle: the order report by its pairwise definitions.

    Walks every ordered and every unordered pair of history events and
    tests each flag on each pair; the witnesses are listed in ascending
    mask order.
    """
    alg = space.algebra
    size = alg.size
    images = space.tau_table

    witnesses = {
        "injectivity": [],
        "pushforward": [],
        "orders": [],
        "meet": [],
        "join": [],
    }

    by_image: dict[int, list[int]] = {}
    for m in range(size):
        by_image.setdefault(images[m], []).append(m)
    for bits in sorted(by_image):
        cls = by_image[bits]
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                witnesses["injectivity"].append((alg.event(cls[i]), alg.event(cls[j])))

    for a in range(size):
        for b in range(size):
            a_le_b = a & b == a
            t_le = images[a] & images[b] == images[a]
            if a_le_b and not t_le:
                witnesses["pushforward"].append((alg.event(a), alg.event(b)))
            if a_le_b != t_le:
                witnesses["orders"].append((alg.event(a), alg.event(b)))

    for a in range(size):
        for b in range(a, size):
            if images[a & b] != images[a] & images[b]:
                witnesses["meet"].append((alg.event(a), alg.event(b)))
            if images[a | b] != images[a] | images[b]:
                witnesses["join"].append((alg.event(a), alg.event(b)))

    witnesses["injectivity"].sort(key=lambda pair: (pair[0].mask, pair[1].mask))

    notes = []
    if witnesses["pushforward"]:
        notes.append(
            "pushed-forward order is not well defined (tau is not monotone); "
            "no claims about it are made"
        )
    if witnesses["injectivity"] and not witnesses["pushforward"]:
        notes.append(
            "tau is not injective; the pushed-forward order is taken on the image"
        )

    return OrderReport(
        tau_injective=not witnesses["injectivity"],
        pushforward_well_defined=not witnesses["pushforward"],
        orders_agree=not witnesses["orders"],
        meet_agree=not witnesses["meet"],
        join_agree=not witnesses["join"],
        witnesses={k: tuple(v) for k, v in witnesses.items()},
        notes=tuple(notes),
    )


def brute_force_classical(m: Measure) -> ValidationReport:
    """Oracle: additivity on every unordered disjoint pair, a <= b."""
    alg, v = m.algebra, m.values
    violations = []
    for a in range(alg.size):
        for b in range(a, alg.size):
            if a & b == 0 and v[a | b] != v[a] + v[b]:
                violations.append(Violation(
                    "additivity", (alg.event(a), alg.event(b)), v[a | b], v[a] + v[b]
                ))
    return ValidationReport("classical", tuple(violations), ok=not violations)


def brute_force_quantum(m: Measure) -> ValidationReport:
    """Oracle: sign and normalization, then every disjoint triple a <= b <= c."""
    alg, v = m.algebra, m.values
    violations = [
        Violation("nonnegativity", (alg.event(k),), v[k], Fraction(0))
        for k in range(alg.size)
        if v[k] < 0
    ]
    if v[alg.space.full_mask] != 1:
        violations.append(
            Violation("normalization", (alg.full,), v[alg.space.full_mask], Fraction(1))
        )
    for a in range(alg.size):
        for b in range(a, alg.size):
            for c in range(b, alg.size):
                if a & b or c & (a | b):
                    continue
                expected = v[a | b] + v[b | c] + v[a | c] - v[a] - v[b] - v[c]
                if v[a | b | c] != expected:
                    violations.append(Violation(
                        "level2",
                        (alg.event(a), alg.event(b), alg.event(c)),
                        v[a | b | c],
                        expected,
                    ))
    return ValidationReport("quantum", tuple(violations), ok=not violations)


def audit_oracle(space: CoeventSpace) -> dict[str, Any]:
    """Oracle: the all-pairs audit section, one ``and_or_audit`` record per
    (coevent, pair) with A <= B; every record must satisfy the AND identity."""
    alg = space.algebra
    discrepancies = []
    checked = 0
    for phi, rendered in zip(space, space.renderings):
        for a in range(alg.size):
            for b in range(a, alg.size):
                record = and_or_audit(phi, alg.event(a), alg.event(b), space)
                checked += 1
                assert record.and_identity_holds, record
                if record.or_discrepancy:
                    discrepancies.append(
                        {"coevent": rendered, "a": str(record.a), "b": str(record.b)}
                    )
    return {
        "mode": "all-pairs",
        "checked": checked,
        "and_identity_ok": True,
        "or_discrepancies": discrepancies,
    }


def upper_closure_oracle(space: CoeventSpace) -> set[int]:
    """Oracle: the tau image closed under union and intersection by a
    pairwise worklist, run to a fixed point."""
    current = set(space.tau_table)
    while True:
        fresh = set()
        items = sorted(current)
        for i, x in enumerate(items):
            for y in items[i:]:
                fresh |= {x & y, x | y} - current
        if not fresh:
            return current
        current |= fresh


def boolean_closure_oracle(space: CoeventSpace) -> set[int]:
    """Oracle: the tau image closed under union, intersection and complement
    by a pairwise worklist, run to a fixed point."""
    full = (1 << len(space)) - 1
    current = set(space.tau_table)
    while True:
        fresh = set()
        items = sorted(current)
        for i, x in enumerate(items):
            fresh.add(x ^ full)
            for y in items[i:]:
                fresh |= {x & y, x | y}
        fresh -= current
        if not fresh:
            return current
        current |= fresh


@pytest.fixture(params=[1, 2, 3, 4])
def small_algebra(request) -> EventAlgebra:
    return algebra_of_size(request.param)


@pytest.fixture(scope="session")
def theory_corpus():
    return corpus()


def render_text_oracle(report: dict[str, Any]) -> str:
    """Oracle: the text report as first written, with each container
    rendered by one call that rebuilds its indent from the depth and tests
    for dicts and lists with ``isinstance``."""

    def scalar(value: Any) -> str:
        if value is True:
            return "yes"
        if value is False:
            return "no"
        if value is None:
            return "-"
        return str(value)

    def lines(value: Any, indent: int, out: list[str]) -> None:
        pad = "  " * indent
        if isinstance(value, dict):
            for key in sorted(value):
                item = value[key]
                if isinstance(item, (dict, list)):
                    out.append(f"{pad}{key}:")
                    lines(item, indent + 1, out)
                else:
                    out.append(f"{pad}{key}: {scalar(item)}")
        elif isinstance(value, list):
            if not value:
                out.append(f"{pad}(none)")
            for item in value:
                if isinstance(item, (dict, list)):
                    out.append(f"{pad}-")
                    lines(item, indent + 1, out)
                else:
                    out.append(f"{pad}- {scalar(item)}")

    out: list[str] = [f"command: {report['command']}"]
    theory = report["theory"]
    out.append("theory: " + ",".join(theory["labels"]) + f" ({theory['measure_kind']})")
    out.append("")
    out.append("# measure")
    lines(theory["values"], 1, out)
    for name in sorted(report["sections"]):
        out.append("")
        out.append(f"# {name}")
        lines(report["sections"][name], 1, out)
    return "\n".join(out) + "\n"
