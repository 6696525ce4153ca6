"""Metamorphic relations on the CLI's output: one theory, many spellings.

The scale relation, for ``validate``: the sum rules are linear and
homogeneous, so multiplying a theory's values by a positive factor moves
no verdict.  Multiplying an event table's entries by 2^k, or the
amplitudes by 2^k (the values by 4^k), must leave every verdict, every
listed violation's rule and events, the null sets and the null cover as
they were, while the packed fields that hold the values widen through 8,
16, 32, 64 and 128 bits.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from coevents.cli import run
from coevents.theoryfile import load

LABELS = ["a", "b", "c", "d", "e"]


def amplitude_stanza(amps: list[int]) -> dict:
    return {"amplitudes": amps}


def event_table_stanza(nums: list[int]) -> dict:
    return {
        "event_table": {
            "{" + ",".join(lab for i, lab in enumerate(LABELS) if mask >> i & 1) + "}": x
            for mask, x in enumerate(nums)
        }
    }


def atoms(weights: list[int]) -> list[int]:
    return [sum(w for i, w in enumerate(weights) if mask >> i & 1) for mask in range(32)]


def squares(amps: list[int]) -> list[int]:
    return [sum(a for i, a in enumerate(amps) if mask >> i & 1) ** 2 for mask in range(32)]


def bumped(nums: list[int], mask: int, by: int) -> list[int]:
    return [x + by if m == mask else x for m, x in enumerate(nums)]


#: Each base theory (no value of the full event is 1, so normalization
#: fails at every scale alike), the stanza that writes it, and the powers
#: of two it is scaled by.  A field is 8 bits wide while its bound has at
#: most 7 bits, then 16, 32, 64 and 128 from 8, 16, 32 and 64 bits on: the
#: bound is the largest |value| of an event table and (sum of |a|)^2 = 16
#: for the amplitudes, whose values scale by the square of the factor.
BASES = {
    # grade 2, not additive, with null sets; bound 16
    "amplitudes": (amplitude_stanza, [1, 1, -1, 1, 0], (0, 2, 6, 14, 30)),
    # additive, with a negative atom; bound 4
    "atoms": (event_table_stanza, atoms([1, -1, 2, 0, 1]), (0, 5, 13, 29, 61)),
    # grade 2 but for one four-history event; bound 9
    "level2-broken": (
        event_table_stanza, bumped(squares([1, 1, -1, 1, 0]), 0b01111, 1), (0, 4, 12, 28, 60)
    ),
    # additive plus one on every event: every interference term but that of
    # the empty event vanishes, so only mu(empty) = 1 breaks the rules; bound 9
    "shifted": (
        event_table_stanza, [x + 1 for x in atoms([2, 1, 1, 3, 1])], (0, 4, 12, 28, 60)
    ),
}


def verdicts(report: dict) -> dict:
    """Everything ``validate`` decides, with the values left out."""
    section = report["sections"]["validate"]
    return {
        rule: (section[rule]["ok"], [(v["rule"], v["events"]) for v in section[rule]["violations"]])
        for rule in ("classical", "quantum")
    } | {"null_sets": section["null_sets"], "null_cover": section["null_cover"]}


@pytest.mark.parametrize("base", BASES)
def test_scaling_by_powers_of_two_moves_no_verdict(tmp_path, base):
    stanza, values, powers = BASES[base]
    seen, widths = [], []
    for k in powers:
        factor = 1 << k
        path = Path(tmp_path) / f"{base}-{k}.json"
        path.write_text(json.dumps(
            {"sample_space": LABELS, "measure": stanza([x * factor for x in values])}
        ))
        widths.append(load(path).measure.values.packed[1])
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(["validate", str(path), "--format", "machine"]) == 0
        seen.append(verdicts(json.loads(out.getvalue())))
    assert widths == [8, 16, 32, 64, 128]
    assert all(v == seen[0] for v in seen)
