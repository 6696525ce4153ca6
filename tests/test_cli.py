from __future__ import annotations

import importlib.util
import inspect
import json
import re
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coevents import (
    beables as beables_module,
    cli as cli_module,
    coevent as coevent_module,
    topos as topos_module,
)
from coevents.beables import order_report
from coevents.cli import RowTable, render_machine, render_text, run
from coevents.coevent import Coevent, CoeventSpace, enumerate_classical, enumerate_multiplicative
from coevents.eventalg import WITNESS_LIST_CAP, EventAlgebra, SampleSpace, iter_supermasks
from coevents.measure import validate_classical, validate_quantum
from coevents.poset import up_sets
from coevents.theoryfile import load

from conftest import (
    brute_force_classical,
    brute_force_quantum,
    order_report_oracle,
    render_text_oracle,
)

THEORIES = Path(__file__).resolve().parents[1] / "demos" / "theories"
FAIR_COIN = str(THEORIES / "fair_coin.json")
THREE_SLIT = str(THEORIES / "three_slit.json")


def invoke(capsys, argv):
    rc = run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# Exit codes


def test_missing_command_is_a_usage_error(capsys):
    rc, _, err = invoke(capsys, [])
    assert rc == 1 and "usage error" in err


def test_unknown_command_is_a_usage_error(capsys):
    rc, _, err = invoke(capsys, ["frobnicate", FAIR_COIN])
    assert rc == 1


def test_tau_without_event_is_a_usage_error(capsys):
    rc, _, err = invoke(capsys, ["tau", FAIR_COIN])
    assert rc == 1 and "--event" in err


VERBS = ("validate", "coevents", "tau", "orders", "complete", "audit", "topos", "report")


@pytest.mark.parametrize("verb", [verb for verb in VERBS if verb != "complete"])
def test_mode_is_a_usage_error_outside_complete(capsys, verb):
    rc, out, err = invoke(capsys, [verb, THREE_SLIT, "--mode", "upper"])
    assert rc == 1 and out == ""
    assert "--mode" in err


def test_a_usage_error_does_not_leak_into_the_next_run(capsys):
    """The parser is built once per process; a refused call leaves it as it was."""
    golden = Path(__file__).resolve().parent / "golden" / "validate_three_slit.json"
    rc, out, err = invoke(capsys, ["validate", THREE_SLIT, "--mode", "upper"])
    assert rc == 1 and out == "" and "--mode" in err
    rc, out, err = invoke(capsys, ["validate", THREE_SLIT, "--format", "machine"])
    assert rc == 0 and err == ""
    assert out.encode("utf-8") == golden.read_bytes()


def test_help_lists_every_verb_and_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for verb in VERBS:
        assert re.search(rf"^ +{verb} ", out, re.MULTILINE), verb
    assert set(re.findall(r"--[a-z-]+", out)) == {
        "--help", "--set", "--format", "--include-empty-dual", "--cap",
        "--event", "--event-b", "--context", "--mode", "--witnesses",
    }


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["audit", THREE_SLIT, "--context", "1,2", "--event", "1"], "--event-b"),
        (["audit", THREE_SLIT, "--event-b", "3"], "--context and --event"),
        (["topos", FAIR_COIN, "--event", "h"], "--context"),
        (["topos", FAIR_COIN, "--context", "h"], "--event"),
    ],
)
def test_partial_single_query_is_a_usage_error(capsys, argv, missing):
    rc, out, err = invoke(capsys, argv)
    assert rc == 1 and out == ""
    assert f"single query also needs {missing}" in err


def test_unknown_history_is_a_usage_error(capsys):
    rc, _, err = invoke(capsys, ["tau", FAIR_COIN, "--event", "zebra"])
    assert rc == 1 and "zebra" in err


@pytest.mark.parametrize(
    "braced,bare",
    [
        (["tau", "--event", "{1,2}"], ["tau", "--event", "1,2"]),
        (["tau", "--event", "{}"], ["tau", "--event", ""]),
        (["tau", "--event", " {3} "], ["tau", "--event", "3"]),
        (
            ["audit", "--context", "{1}", "--event", "{1,2}", "--event-b", "{3}"],
            ["audit", "--context", "1", "--event", "1,2", "--event-b", "3"],
        ),
    ],
    ids=["pair", "empty", "padded", "audit"],
)
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_an_event_reads_the_same_with_or_without_braces(capsys, braced, bare, fmt):
    runs = [
        invoke(capsys, [argv[0], THREE_SLIT, *argv[1:], "--format", fmt])
        for argv in (braced, bare)
    ]
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1]


def test_unknown_history_in_braces_is_a_usage_error_and_a_load_error(tmp_path, capsys):
    rc, _, err = invoke(capsys, ["tau", THREE_SLIT, "--event", "{1,zebra}"])
    assert rc == 1 and "zebra" in err
    bad = tmp_path / "table.json"
    bad.write_text(json.dumps({
        "sample_space": ["a"],
        "measure": {"event_table": {"{}": 0, "{a}": 1, "{a,zebra}": 1}},
    }))
    rc, out, err = invoke(capsys, ["validate", str(bad)])
    assert rc == 2 and out == "" and "zebra" in err


def test_missing_file_is_a_load_error(capsys):
    rc, _, err = invoke(capsys, ["validate", str(THEORIES / "nope.json")])
    assert rc == 2


def test_invalid_file_is_a_load_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sample_space": ["a", "a"], "measure": {"atom_weights": {"a": 1}}}')
    rc, _, err = invoke(capsys, ["validate", str(bad)])
    assert rc == 2 and "distinct" in err
    bad.write_text('{"sample_space": ["a"], "measure": {"amplitudes": [1], "weights": 1}}')
    rc, out, err = invoke(capsys, ["validate", str(bad)])
    assert rc == 2 and out == "" and "measure: unknown fields ['weights']" in err


def test_zero_denominator_is_a_load_error(tmp_path, capsys):
    bad = tmp_path / "zero.json"
    bad.write_text('{"sample_space": ["a"], "measure": {"atom_weights": {"a": "1/0"}}}')
    rc, out, err = invoke(capsys, ["validate", str(bad)])
    assert rc == 2 and out == ""
    assert "atom_weights['a']" in err and "zero denominator" in err


def test_label_with_a_comma_is_a_load_error(tmp_path, capsys):
    # "{a,b}" would name both the pair of a and b and the label "a,b"
    bad = tmp_path / "comma.json"
    bad.write_text(json.dumps({
        "sample_space": ["a", "b", "a,b"],
        "measure": {"atom_weights": {"a": "1/3", "b": "1/3", "a,b": "1/3"}},
    }))
    rc, out, err = invoke(capsys, ["validate", str(bad), "--format", "machine"])
    assert rc == 2 and out == ""
    assert "sample_space" in err and "'a,b'" in err


def test_non_utf8_file_is_a_load_error(tmp_path, capsys):
    bad = tmp_path / "bom.json"
    bad.write_bytes(b"\xff\xfe{")
    rc, out, err = invoke(capsys, ["validate", str(bad)])
    assert rc == 2 and out == ""
    assert str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize(
    "amplitudes,where",
    [
        ("[" * 100_000 + "]" * 100_000, "recursion"),  # nesting deeper than the parser goes
        ("[" + "7" * 5000 + "]", "digits"),  # beyond Python's integer string-length limit
        ('["' + "7" * 5000 + '"]', "amplitudes[0]"),
    ],
    ids=["deep-array", "long-integer", "long-integer-string"],
)
def test_unparseable_numbers_are_load_errors(tmp_path, capsys, amplitudes, where):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sample_space": ["a"], "measure": {"amplitudes": ' + amplitudes + "}}")
    rc, out, err = invoke(capsys, ["validate", str(bad)])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and where in err


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"sample_space": ["a"], "measure": {"event_table": '
         '{"{}": 0, "{a}": "1/2", "{a}": "1/3"}}}', "{a}"),
        ('{"sample_space": ["a"], "measure": {"amplitudes": [1], "amplitudes": [2]}}',
         "amplitudes"),
        ('{"sample_space": ["a"], "measure": {"amplitudes": [1]}, '
         '"options": {"brute-force-cap": 2, "brute-force-cap": 3}}', "brute-force-cap"),
        ('{"sample_space": ["a"], "measure": {"amplitudes": [{"re": 1, "re": 2}]}}', "re"),
    ],
    ids=["event", "stanza", "option", "complex-part"],
)
def test_a_key_given_twice_is_a_parse_error(tmp_path, capsys, text, key):
    bad = tmp_path / "twice.json"
    bad.write_text(text)
    rc, out, err = invoke(capsys, ["validate", str(bad)])
    assert rc == 2 and out == ""
    assert err == f"error: {bad}: key {key!r} given twice\n"


def test_label_that_cannot_be_written_is_a_load_error(tmp_path, capsys):
    bad = tmp_path / "surrogate.json"
    bad.write_text('{"sample_space": ["\\ud800"], "measure": {"amplitudes": [1]}}')
    rc, out, err = invoke(capsys, ["validate", str(bad)])
    assert rc == 2 and out == ""
    assert "sample_space" in err


def test_brute_force_cap_exit_code(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps(
            {
                "sample_space": ["a", "b", "c", "d"],
                "measure": {"atom_weights": {"a": 1, "b": 0, "c": 0, "d": 0}},
            }
        )
    )
    rc, _, err = invoke(capsys, ["coevents", str(big), "--set", "all"])
    assert rc == 3 and "size 4 exceeds cap 3 (override with --cap)" in err
    rc, out, _ = invoke(capsys, ["coevents", str(big), "--set", "all", "--cap", "4"])
    assert rc == 0
    assert '"count": 65536' in out or "count: 65536" in out
    # no --cap lifts the hard cap, so its message names none
    argv = ["coevents", amplitude_file(tmp_path, 5), "--set", "all", "--cap", "9"]
    rc, out, err = invoke(capsys, argv)
    assert rc == 3 and out == ""
    assert "size 5 exceeds cap 4 (hard cap, no override)" in err and "--cap" not in err


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_cap_below_one_is_a_usage_error(capsys, cap):
    rc, out, err = invoke(capsys, ["complete", THREE_SLIT, "--cap", cap])
    assert rc == 1 and out == "" and "--cap must be at least 1" in err


def test_successful_run_exits_zero(capsys):
    rc, out, err = invoke(capsys, ["validate", THREE_SLIT])
    assert rc == 0 and err == ""


WITNESSES_ONLY = "usage error: --witnesses is for validate, orders and report only, not {}"
NOT_DUALS = {
    "audit": "error: audit is defined for nonzero multiplicative coevents",
    "topos": "error: dual order requires every member to be a nonzero multiplicative coevent",
}
SINGLE_QUERY = {"--context": "1,2", "--event": "1", "--event-b": "3"}
REFUSALS = [
    *[
        ([verb, "--mode", "upper"], THREE_SLIT, 1,
         f"usage error: --mode is for complete only, not {verb}")
        for verb in VERBS if verb != "complete"
    ],
    *[
        ([verb, "--witnesses", "5"], THREE_SLIT, 1, WITNESSES_ONLY.format(verb))
        for verb in ("coevents", "tau", "complete", "audit", "topos")
    ],
    (["validate", "--witnesses", "-1"], THREE_SLIT, 1,
     "usage error: --witnesses must be at least 0"),
    # a verb that does not take the flag is refused before its value is read
    (["coevents", "--witnesses", "-1"], THREE_SLIT, 1, WITNESSES_ONLY.format("coevents")),
    # --mode is read before --witnesses, and both before the file
    (["audit", "--mode", "upper", "--witnesses", "5"], THREE_SLIT, 1,
     "usage error: --mode is for complete only, not audit"),
    (["tau", "--mode", "upper"], None, 1, "usage error: --mode is for complete only, not tau"),
    (["tau"], THREE_SLIT, 1, "usage error: tau needs --event"),
    (["tau"], None, 2, "error: [Errno 2] No such file or directory: {theory!r}"),
    *[
        (["audit", *(word for flag in given for word in (flag, SINGLE_QUERY[flag]))],
         THREE_SLIT, 1,
         "usage error: audit single query also needs "
         + " and ".join(flag for flag in SINGLE_QUERY if flag not in given))
        for given in [("--context",), ("--event",), ("--event-b",), ("--context", "--event"),
                      ("--context", "--event-b"), ("--event", "--event-b")]
    ],
    (["topos", "--context", "1,2"], THREE_SLIT, 1,
     "usage error: topos single query also needs --event"),
    (["topos", "--event", "1"], THREE_SLIT, 1,
     "usage error: topos single query also needs --context"),
    # a query flag that the verb does not read is refused before its value
    # is parsed and before the file is read; a verb parses its own
    (["validate", "--event", "zebra"], None, 1,
     "usage error: --event is for tau, audit and topos only, not validate"),
    (["tau", "--event-b", "3"], THREE_SLIT, 1,
     "usage error: --event-b is for audit only, not tau"),
    (["topos", "--context", "1", "--event", "1", "--event-b", "3"], THREE_SLIT, 1,
     "usage error: --event-b is for audit only, not topos"),
    (["audit", "--context", "zebra", "--event", "1"], THREE_SLIT, 1,
     "usage error: history 'zebra' not in sample space ('1', '2', '3')"),
    (["validate", "--cap", "0"], THREE_SLIT, 1, "usage error: --cap must be at least 1"),
    # a partial single query is refused before the instance cap
    (["topos", "--context", "x0"], 8, 1, "usage error: topos single query also needs --event"),
    (["topos"], 8, 3, "cap exceeded: dual-poset topos instance: size 8 exceeds cap 4 "
     "(override with --cap)"),
    (["complete"], 6, 3, "cap exceeded: completion closure: size 63 exceeds cap 20 "
     "(override with --cap)"),
    (["coevents", "--set", "all", "--cap", "9"], 5, 3, "cap exceeded: brute-force coevent "
     "enumeration: size 5 exceeds cap 4 (hard cap, no override)"),
    *[([verb, "--set", "all"], THREE_SLIT, 2, NOT_DUALS[verb]) for verb in ("audit", "topos")],
    # single queries on a context outside the space, and on the empty event's dual
    (["topos", "--set", "scheme", "--context", "1", "--event", "1"], THREE_SLIT, 1,
     "usage error: coevent is not in the instance's base poset"),
    (["topos", "--context", "", "--event", "1"], THREE_SLIT, 2,
     "error: dual of the empty event requested; pass include_empty_dual=True"),
    (["audit", "--set", "scheme", "--context", "1", "--event", "1", "--event-b", "2"],
     THREE_SLIT, 1, "usage error: coevent is not a member of the space"),
]


@pytest.mark.parametrize(
    "argv, theory, code, first_line",
    REFUSALS,
    ids=[
        " ".join([argv[0], {None: "missing"}.get(theory, f"n{theory}"), *argv[1:]])
        if not isinstance(theory, str) else " ".join(argv)
        for argv, theory, *_ in REFUSALS
    ],
)
def test_refusals_are_pinned(tmp_path, capsys, argv, theory, code, first_line):
    """Each refusal's exit code and first stderr line, with nothing on
    stdout (``theory`` is n for an amplitude file, None for a missing file,
    else a theory path)."""
    if theory is None:
        theory = str(tmp_path / "missing.json")
    elif isinstance(theory, int):
        theory = amplitude_file(tmp_path, theory)
    rc, out, err = invoke(capsys, [argv[0], theory, *argv[1:]])
    assert (rc, out, err.splitlines()[0]) == (code, "", first_line.format(theory=theory))


# ---------------------------------------------------------------------------
# Content checks


def machine(capsys, argv):
    rc, out, _ = invoke(capsys, argv + ["--format", "machine"])
    assert rc == 0
    return json.loads(out)


def test_validate_three_slit_content(capsys):
    report = machine(capsys, ["validate", THREE_SLIT])
    section = report["sections"]["validate"]
    assert section["quantum"]["ok"] is True
    assert section["classical"]["ok"] is False
    assert section["classical"]["violations"][0]["events"] == ["{1}", "{2}"]
    assert section["null_cover"] is True
    assert section["null_sets"] == ["{}", "{1,3}", "{2,3}"]


def test_coevents_scheme_content(capsys):
    report = machine(capsys, ["coevents", THREE_SLIT, "--set", "scheme"])
    members = report["sections"]["coevents"]["members"]
    assert [m["coevent"] for m in members] == ["{1,2}*"]
    assert members[0]["preclusive"] is True
    assert members[0]["multiplicative"] is True
    assert members[0]["classical"] is False


def test_orders_fair_coin_content(capsys):
    report = machine(capsys, ["orders", FAIR_COIN])
    section = report["sections"]["orders"]
    assert section["meet_agree"] is True
    assert section["join_agree"] is False
    assert section["witnesses"]["join"][0] == ["{h}", "{t}"]


def test_tau_content(capsys):
    report = machine(capsys, ["tau", FAIR_COIN, "--event", "h"])
    assert report["sections"]["tau"]["members"] == ["{h}*"]
    report = machine(capsys, ["tau", FAIR_COIN, "--event", ""])
    assert report["sections"]["tau"]["members"] == []


def test_complete_content(capsys):
    report = machine(capsys, ["complete", FAIR_COIN, "--mode", "upper"])
    section = report["sections"]["complete"]
    assert section["size"] == 5
    assert section["boolean"] is False
    assert section["non_boolean_witness"] == "[{h}*]"
    report = machine(capsys, ["complete", FAIR_COIN, "--mode", "boolean"])
    assert report["sections"]["complete"]["boolean"] is True
    assert report["sections"]["complete"]["size"] == 8


def test_boolean_completion_lists_every_subset_in_bit_order(capsys):
    """All 15 duals at n=4: 2^15 members, the empty set first and all of V
    last; the CLI lists the first WITNESS_LIST_CAP of them and marks the cut."""
    path = str(THEORIES / "four_slit_decoherence.json")
    report = machine(capsys, ["complete", path, "--mode", "boolean"])
    section = report["sections"]["complete"]
    space = enumerate_multiplicative(load(path).algebra)
    members = space.subset_renderings()
    assert section["size"] == len(members) == 32768
    assert members[0] == "[]"
    assert members[-1] == str(space)
    assert members[1 << 14] == f"[{space.renderings[14]}]"
    assert section["members"] == members[:WITNESS_LIST_CAP]
    assert section["members_truncated"] is True
    assert section["boolean"] is True and section["non_boolean_witness"] is None


def test_boolean_completion_of_an_empty_scheme(tmp_path, capsys):
    """Amplitudes (1, -1): the full event is null, so no dual is preclusive."""
    path = tmp_path / "cancelling.json"
    path.write_text(json.dumps({"sample_space": ["a", "b"], "measure": {"amplitudes": [1, -1]}}))
    report = machine(capsys, ["coevents", str(path), "--set", "scheme"])
    assert report["sections"]["coevents"]["count"] == 0
    report = machine(capsys, ["complete", str(path), "--set", "scheme", "--mode", "boolean"])
    section = report["sections"]["complete"]
    assert section["members"] == ["[]"] and section["size"] == 1
    assert section["boolean"] is True and section["non_boolean_witness"] is None


def test_boolean_completion_at_sixteen_classical_members_lists_the_first(tmp_path, capsys):
    """n=16, the classical coevents: 2^16 members, the first WITNESS_LIST_CAP listed."""
    argv = ["complete", amplitude_file(tmp_path, 16), "--set", "classical", "--mode", "boolean"]
    section = machine(capsys, argv)["sections"]["complete"]
    space = enumerate_classical(load(argv[1]).algebra)
    assert section["size"] == 65536
    assert section["members"] == [space.render(b) for b in range(WITNESS_LIST_CAP)]
    assert section["members_truncated"] is True
    assert section["boolean"] is True and section["non_boolean_witness"] is None


def test_empty_scheme_completions_are_listed_whole(tmp_path, capsys):
    path = tmp_path / "cancelling.json"
    path.write_text(json.dumps({"sample_space": ["a", "b"], "measure": {"amplitudes": [1, -1]}}))
    for mode in ("upper", "boolean"):
        argv = ["complete", str(path), "--set", "scheme", "--mode", mode]
        section = machine(capsys, argv)["sections"]["complete"]
        assert section["members"] == ["[]"] and "members_truncated" not in section


@pytest.mark.parametrize(
    "argv, size",
    [
        (["complete", str(THEORIES / "eight_slit.json"), "--mode", "boolean", "--cap", "255"], 255),
        (["complete", str(THEORIES / "three_slit.json"), "--set", "all", "--cap", "256"], 70),
    ],
    ids=["boolean", "upper-antichain"],
)
def test_boolean_completion_hard_cap(capsys, monkeypatch, argv, size):
    """2^|V| members: no --cap lifts |V| <= 20, and the message says so.  An
    upper completion whose widest support size holds w > 20 members has at
    least 2^w - 1 up-sets, and is refused the same way before any is listed."""

    def refuse(*args, **kwargs):
        raise AssertionError("listed up-sets before the hard cap fired")

    monkeypatch.setattr(beables_module, "up_sets", refuse)
    rc, out, err = invoke(capsys, argv)
    assert rc == 3 and out == ""
    assert f"size {size} exceeds cap 20 (hard cap, no override)" in err


def test_audit_single_pair(capsys):
    report = machine(
        capsys,
        ["audit", THREE_SLIT, "--context", "1,2,3", "--event", "1,2", "--event-b", "3"],
    )
    section = report["sections"]["audit"]
    assert section["or_discrepancy"] is True
    assert section["and_identity_holds"] is True
    assert section["coevent"] == "{1,2,3}*"


def test_audit_all_pairs(capsys):
    report = machine(capsys, ["audit", FAIR_COIN])
    section = report["sections"]["audit"]
    assert section["and_identity_ok"] is True
    assert {"a": "{h}", "b": "{t}", "coevent": "{h,t}*"} in section["or_discrepancies"]


@pytest.mark.parametrize(
    "verb, n, skipped", [("audit", 9, False), ("audit --set scheme", 16, False), ("report", 9, True)]
)
def test_the_audit_refuses_more_rows_than_its_cap_before_listing_any(
    tmp_path, capsys, monkeypatch, verb, n, skipped
):
    """Over its row cap the all-pairs audit is refused from the closed-form
    count, before a pair is listed: ``audit`` exits 3, and ``report``
    exits 0 with its audit section skipped."""

    def refuse(*args, **kwargs):
        raise AssertionError("listed OR discrepancies before the row cap fired")

    monkeypatch.setattr(beables_module, "or_discrepancies", refuse)
    name, *flags = verb.split()
    rc, out, err = invoke(capsys, [name, amplitude_file(tmp_path, n), *flags, "--format", "machine"])
    if not skipped:
        assert (rc, out) == (3, "") and re.fullmatch(
            r"cap exceeded: all-pairs audit OR discrepancies: size \d+ exceeds cap 2000000 "
            r"\(hard cap, no override\)\n", err
        )
        return
    assert (rc, err) == (0, "")
    assert json.loads(out)["sections"]["audit"] == {
        "skipped": "all-pairs audit OR discrepancies: size 11075670 exceeds cap 2000000 "
        "(hard cap, no override)"
    }


def test_topos_single_query(capsys):
    report = machine(
        capsys,
        ["topos", THREE_SLIT, "--context", "1,2", "--event", "1,2,3"],
    )
    section = report["sections"]["topos"]
    assert section["vsupp_is_subobject"] is True
    assert section["classifier"]["functorial"] is True
    assert section["chi"]["sieve"] == "@{1,2}*: [{1}*, {2}*, {1,2}*]"


def test_topos_scheme_notes_the_antichain(capsys):
    report = machine(capsys, ["topos", THREE_SLIT, "--set", "scheme"])
    section = report["sections"]["topos"]
    assert section["antichain"] is True
    assert any("anti-chain" in note for note in section["notes"])


def test_topos_renders_each_coevent_once(capsys, monkeypatch):
    """The chi table reads every sieve's strings from the space's renderings.

    A range of duals (all 15 at n=4) reads them from the event names with
    no ``render_key`` call; the scheme's three scattered keys are rendered
    once each, not once per cell of the 3 x 16 table."""
    rendered = []
    plain = coevent_module.render_key
    monkeypatch.setattr(
        coevent_module, "render_key", lambda space, key: rendered.append(key) or plain(space, key)
    )
    theory = str(THEORIES / "four_slit_decoherence.json")
    rc, out, _ = invoke(capsys, ["topos", theory])
    assert rc == 0 and "@{a}*: [{a}*]" in out
    assert rendered == []
    rc, out, _ = invoke(capsys, ["topos", theory, "--set", "scheme"])
    assert rc == 0 and "@{a,b}*: [{a,b}*]" in out
    assert sorted(rendered) == [3, 5, 6]


def test_audit_reads_the_set_flag(capsys):
    report = machine(capsys, ["audit", THREE_SLIT, "--set", "scheme"])
    assert report["sections"]["audit"]["checked"] == 36  # one dual, 8 * 9 / 2 pairs


def test_topos_reads_the_set_flag(capsys):
    section = machine(capsys, ["topos", THREE_SLIT, "--set", "classical"])["sections"]["topos"]
    assert section["set"] == "classical"
    assert section["poset"] == ["{1}*", "{2}*", "{3}*"]
    assert section["antichain"] is True


@pytest.mark.parametrize("verb", ["audit", "topos"])
def test_a_space_with_non_duals_is_refused(capsys, verb):
    rc, out, err = invoke(capsys, [verb, THREE_SLIT, "--set", "all"])
    assert rc == 2 and out == ""
    assert "multiplicative" in err


def amplitude_file(tmp_path, n: int) -> str:
    path = tmp_path / f"amplitudes-{n}.json"
    labels = [f"x{i}" for i in range(n)]
    amplitudes = [(-1) ** i * (1 + i % 3) for i in range(n)]
    path.write_text(json.dumps({"sample_space": labels, "measure": {"amplitudes": amplitudes}}))
    return str(path)


def counting_enumerations(monkeypatch) -> list:
    calls = []
    plain = coevent_module.enumerate_multiplicative

    def counted(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    for module in (coevent_module, topos_module):
        monkeypatch.setattr(module, "enumerate_multiplicative", counted)
    return calls


def test_report_enumerates_the_duals_once(capsys, monkeypatch):
    calls = counting_enumerations(monkeypatch)
    rc, _, _ = invoke(capsys, ["report", THREE_SLIT])
    assert rc == 0 and len(calls) == 1


def test_topos_refuses_a_large_theory_before_enumerating(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated the duals before checking the cap")

    for module in (coevent_module, topos_module):
        monkeypatch.setattr(module, "enumerate_multiplicative", refuse)
    rc, out, err = invoke(capsys, ["topos", amplitude_file(tmp_path, 8)])
    assert rc == 3 and out == "" and "cap" in err


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sieve_counts_equal_the_listing_of_each_rows_up_sets(n):
    """Over every dual, with or without the empty event's, in ascending or
    reversed order, and over every dual but one, the counts are those of
    listing each row's up-sets."""
    alg = EventAlgebra(SampleSpace(tuple("abcde"[:n])))
    spaces = []
    for include_empty in (False, True):
        space = enumerate_multiplicative(alg, include_empty_dual=include_empty)
        members = space.members
        spaces += [space, CoeventSpace(alg, members[::-1]), CoeventSpace(alg, members[1:])]
    for space in spaces:
        listed = [len(up_sets(space.up_rows, row)) for row in space.up_rows]
        assert cli_module._sieve_counts(space) == listed


def test_topos_at_cap_31_lists_every_sieve_of_the_n5_dual_order(tmp_path, capsys):
    start = time.perf_counter()
    report = machine(capsys, ["topos", amplitude_file(tmp_path, 5), "--cap", "31"])
    assert time.perf_counter() - start < 30.0  # under a second on a 2-CPU VM
    classifier = report["sections"]["topos"]["classifier"]
    assert classifier["functorial"] is True
    # up-sets above each of the 31 duals of the nonempty subsets of 5 histories
    assert sum(classifier["sieve_counts"]) == 8665


@pytest.mark.parametrize("fmt", ["machine", "text"])
@pytest.mark.parametrize(
    "argv", [["coevents"], ["tau", "--event", "x0"], ["orders"]], ids=["coevents", "tau", "orders"]
)
def test_verbs_on_all_duals_derive_no_support(tmp_path, capsys, monkeypatch, argv, fmt):
    """Each dual is held by its principal mask: flags, tau and the order
    report never derive a support, and print the same bytes as a run that
    builds every dual from its explicit support."""
    argv = [argv[0], amplitude_file(tmp_path, 10), "--format", fmt, *argv[1:]]
    plain = Coevent._support_bits.fget
    derived = []
    spy = property(lambda phi: derived.append(phi) or plain(phi))
    with monkeypatch.context() as m:
        m.setattr(Coevent, "_support_bits", spy)
        rc, out, _ = invoke(capsys, argv)
    assert rc == 0 and derived == []

    def explicit(cls, algebra, key):
        return Coevent(algebra, iter_supermasks(key, algebra.space.full_mask))

    with monkeypatch.context() as m:
        m.setattr(Coevent, "_of_key", classmethod(explicit))
        rc, forced, _ = invoke(capsys, argv)
    assert rc == 0 and forced == out


@pytest.mark.parametrize(
    "argv, theory, code",
    [
        (["tau", "--event", "x0"], 6, 0),
        (["orders"], 6, 0),
        (["audit"], 6, 0),
        (["complete"], 6, 3),  # 63 duals: refused by the completion cap
        (["complete"], 4, 0),
        (["complete", "--mode", "boolean"], 4, 0),
        (["coevents", "--set", "multiplicative"], 6, 0),
        # n = 7: at n = 6 the amplitudes sum to 0, the full event is null and the scheme empty
        (["coevents", "--set", "scheme"], 7, 0),
        (["coevents", "--set", "classical"], 6, 0),
        # the brute-force space holds non-duals: rows and flags come from support bits
        (["coevents", "--set", "all"], THREE_SLIT, 0),
        (["orders", "--set", "all"], THREE_SLIT, 0),
        # the topos section reads the dual order from the space, classifier included
        (["topos", "--cap", "15"], 4, 0),
        (["topos", "--set", "scheme"], 4, 0),
        (["topos", "--set", "classical"], 4, 0),
        (["report"], 4, 0),
    ],
    ids=[
        "tau", "orders", "audit", "complete-n6", "complete-n4", "complete-boolean-n4",
        "coevents-multiplicative", "coevents-scheme", "coevents-classical",
        "coevents-all-three-slit", "orders-all-three-slit", "topos-cap15-n4",
        "topos-scheme-n4", "topos-classical-n4", "report-n4",
    ],
)
def test_verbs_on_all_duals_build_no_coevent(tmp_path, capsys, monkeypatch, argv, theory, code):
    """A space is its keys: these verbs read rows, principals, flags and
    renderings from them and never build a member, on a space of duals or
    on the brute-force space with its non-duals (``theory`` is n for an
    amplitude file, else a theory path)."""
    built = []
    of_key, init = Coevent._of_key.__func__, Coevent.__init__

    def spied_of_key(cls, algebra, key):
        built.append(key)
        return of_key(cls, algebra, key)

    def spied_init(phi, *args):
        built.append(args)
        init(phi, *args)

    monkeypatch.setattr(Coevent, "_of_key", classmethod(spied_of_key))
    monkeypatch.setattr(Coevent, "__init__", spied_init)
    path = theory if isinstance(theory, str) else amplitude_file(tmp_path, theory)
    rc, out, _ = invoke(capsys, [argv[0], path, *argv[1:]])
    assert rc == code and built == []
    assert (out != "") == (code == 0)


@pytest.mark.parametrize(
    "verb, n, marker",
    [("validate", 14, '"violations_truncated": true'), ("orders", 12, '"join_truncated": true')],
    ids=["validate-n14", "orders-n12"],
)
def test_witness_lists_are_bounded_at_large_n(tmp_path, capsys, verb, n, marker):
    """Listed in full, validate at n = 14 writes hundreds of megabytes and
    orders at n = 12 millions of pairs; the default limit cuts both lists."""
    start = time.perf_counter()
    rc, out, _ = invoke(capsys, [verb, amplitude_file(tmp_path, n), "--format", "machine"])
    assert time.perf_counter() - start < 10.0  # about a second on a 2-CPU VM
    assert rc == 0
    assert len(out.encode("utf-8")) < 1_000_000
    assert marker in out


@pytest.mark.parametrize("set_name", ["multiplicative", "scheme", "all"])
def test_witnesses_flag_cuts_each_order_list_and_marks_it(capsys, set_name):
    """On the scheme and on all coevents several flags fail at once."""
    argv = ["orders", THREE_SLIT, "--set", set_name]
    full = machine(capsys, argv)["sections"]["orders"]
    assert not any(key.endswith("_truncated") for key in full)
    for limit in (0, 1, 2):
        section = machine(capsys, argv + ["--witnesses", str(limit)])["sections"]["orders"]
        markers = {key for key in section if key.endswith("_truncated")}
        assert markers == {
            f"{key}_truncated" for key, pairs in full["witnesses"].items() if len(pairs) > limit
        }
        assert all(section[key] is True for key in markers)
        for key, pairs in full["witnesses"].items():
            assert section["witnesses"][key] == pairs[:limit]
        assert {k: v for k, v in section.items() if k not in markers | {"witnesses"}} == {
            k: v for k, v in full.items() if k != "witnesses"
        }


def rule_breaking_file(tmp_path, n: int) -> str:
    """A theory whose table breaks every sum rule: negative values, a total
    that is not 1, and additivity and level-2 failures."""
    alg = EventAlgebra(SampleSpace(tuple("abcdef"[:n])))
    table = {str(alg.event(m)): f"{m**3 % 11 - 3}/7" for m in range(1, alg.size)}
    path = tmp_path / f"table-{n}.json"
    data = {"sample_space": list(alg.space.labels), "measure": {"event_table": {"{}": 0, **table}}}
    path.write_text(json.dumps(data))
    return str(path)


def cut_section(section: dict, verb: str, limit) -> dict:
    """An uncut validate or orders section with each witness list cut to its
    first ``limit`` rows (all when None), and marked when cut."""
    section = json.loads(json.dumps(section))
    if verb == "validate":
        for rule in ("classical", "quantum"):
            report = section[rule]
            if limit is not None and len(report["violations"]) > limit:
                report["violations_truncated"] = True
            report["violations"] = report["violations"][:limit]
    else:
        for key, pairs in section["witnesses"].items():
            if limit is not None and len(pairs) > limit:
                section[f"{key}_truncated"] = True
            section["witnesses"][key] = pairs[:limit]
    return section


@pytest.mark.parametrize("verb", ["validate", "orders"])
def test_a_cut_prints_the_first_rows_of_the_uncut_listing(tmp_path, capsys, verb):
    """At n=5, in both formats, ``--witnesses k`` prints the first k rows of
    each uncut list, and a list's ``*_truncated`` key only when it is cut;
    no flag is the default limit, which cuts none of these lists."""
    path = rule_breaking_file(tmp_path, 5)
    full = machine(capsys, [verb, path, "--witnesses", str(10**6)])
    section = full["sections"][verb]
    assert "_truncated" not in json.dumps(section)
    if verb == "validate":
        sizes = [len(section[rule]["violations"]) for rule in ("classical", "quantum")]
    else:
        sizes = [len(pairs) for pairs in section["witnesses"].values()]
    assert max(sizes) > 37 and max(sizes) <= WITNESS_LIST_CAP
    for limit in (0, 1, 37, None):
        expected = dict(full, sections={verb: cut_section(section, verb, limit)})
        flag = [] if limit is None else ["--witnesses", str(limit)]
        json_text = json.dumps(expected, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert invoke(capsys, [verb, path, *flag, "--format", "machine"]) == (0, json_text, "")
        assert invoke(capsys, [verb, path, *flag]) == (0, render_text_oracle(expected), "")


def test_the_listings_of_a_cut_are_the_pairwise_oracles_cut(tmp_path):
    """At n=5 the validators' violations and the order report's witnesses,
    cut at each limit, are the first rows of the pairwise oracles'."""
    theory = load(rule_breaking_file(tmp_path, 5))
    m, space = theory.measure, enumerate_multiplicative(theory.algebra)
    oracles = {
        validate_classical: brute_force_classical(m).violations,
        validate_quantum: brute_force_quantum(m).violations,
    }
    pairs = order_report_oracle(space).witnesses
    for limit in (0, 1, 37, None):
        for validator, violations in oracles.items():
            rep = validator(m, limit)
            assert rep.violations == violations[:limit]
            assert rep.truncated == (limit is not None and len(violations) > limit)
        rep = order_report(space, limit)
        assert rep.witnesses == {key: listed[:limit] for key, listed in pairs.items()}


@pytest.mark.parametrize("argv", [["validate", THREE_SLIT, "--witnesses", "-1"],
                                  ["audit", THREE_SLIT, "--witnesses", "5"]])
def test_bad_witnesses_flag_is_a_usage_error(capsys, argv):
    rc, out, err = invoke(capsys, argv)
    assert rc == 1 and out == "" and "--witnesses" in err


@pytest.mark.parametrize("verb", ["validate", "orders", "report"])
def test_a_witness_limit_no_listing_reaches_lists_everything(capsys, verb):
    """A limit past the largest slice bound lists all, as a large one does."""
    rc, listed, err = invoke(capsys, [verb, THREE_SLIT, "--witnesses", "1000000"])
    assert rc == 0 and err == ""
    for limit in (2**63 - 1, 10**30):
        assert invoke(capsys, [verb, THREE_SLIT, "--witnesses", str(limit)]) == (0, listed, "")


def test_include_empty_dual_flag_changes_the_space(capsys):
    report = machine(capsys, ["coevents", FAIR_COIN, "--set", "multiplicative"])
    assert report["sections"]["coevents"]["count"] == 3
    report = machine(
        capsys,
        ["coevents", FAIR_COIN, "--set", "multiplicative", "--include-empty-dual"],
    )
    assert report["sections"]["coevents"]["count"] == 4


# ---------------------------------------------------------------------------
# Determinism and round-tripping


@pytest.mark.parametrize("theory", [FAIR_COIN, THREE_SLIT])
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_report_is_deterministic(capsys, theory, fmt):
    rc1, out1, _ = invoke(capsys, ["report", theory, "--format", fmt])
    rc2, out2, _ = invoke(capsys, ["report", theory, "--format", fmt])
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("theory", [FAIR_COIN, THREE_SLIT])
def test_machine_report_round_trips(capsys, theory):
    rc, out, _ = invoke(capsys, ["report", theory, "--format", "machine"])
    assert rc == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, indent=2, ensure_ascii=False) + "\n" == out


def test_report_contains_all_sections(capsys):
    report = machine(capsys, ["report", THREE_SLIT])
    assert set(report["sections"]) == {
        "validate",
        "coevents-classical",
        "coevents-multiplicative",
        "coevents-scheme",
        "orders",
        "complete-upper",
        "complete-boolean",
        "audit",
        "topos",
    }
    # nothing at this size should have been skipped
    for name, section in report["sections"].items():
        assert "skipped" not in section, name


def test_report_skips_the_sections_over_their_caps(tmp_path, capsys):
    """At n=5 the 31 duals pass the completion cap of 20 members and the
    topos instance cap of 4 histories; the report names each cap and goes on."""
    report = machine(capsys, ["report", amplitude_file(tmp_path, 5)])
    sections = report["sections"]
    assert sections["complete-upper"] == {
        "skipped": "completion closure: size 31 exceeds cap 20 (override with --cap)"
    }
    assert sections["complete-boolean"] == {
        "skipped": "completion closure: size 31 exceeds cap 20 (hard cap, no override)"
    }
    assert sections["topos"] == {
        "skipped": "dual-poset topos instance: size 5 exceeds cap 4 (override with --cap)"
    }
    assert sections["coevents-multiplicative"]["count"] == 31
    assert sum("skipped" in section for section in sections.values()) == 3


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_report_ignores_the_set_flag_and_refuses_the_query_flags(capsys, fmt):
    """report runs its own sets, with no single query: --set, which has a
    default, changes nothing, and a query flag is refused as any flag a
    verb does not read is."""
    plain = invoke(capsys, ["report", THREE_SLIT, "--format", fmt])
    flagged = invoke(capsys, ["report", THREE_SLIT, "--set", "all", "--format", fmt])
    assert flagged == plain and plain[0] == 0
    for flag, takers in [("--event", "tau, audit and topos"), ("--context", "audit and topos")]:
        queried = ["report", THREE_SLIT, "--set", "all", flag, "1", "--format", fmt]
        assert invoke(capsys, queried) == (
            1, "", f"usage error: {flag} is for {takers} only, not report\n"
        )
    queried = ["report", THREE_SLIT, "--event", "1", "--context", "1", "--format", fmt]
    assert invoke(capsys, queried)[2] == (
        "usage error: --context is for audit and topos only, not report\n"
    )


def test_every_cli_span_is_a_hook_point_that_report_reaches(capsys, monkeypatch):
    """The traced benchmark wraps each ``cli.*`` span that ``bench/layers.py``
    names by rebinding the module-level name, so each span must be a
    module-level function, and report must reach every section it runs
    through that name at call time."""
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    spans = layers.SPANS["cli"]
    for span in spans:
        fn = getattr(cli_module, span)
        assert inspect.isfunction(fn) and fn.__module__ == "coevents.cli", span
        assert fn.__qualname__ == span, span
    counts = Counter()
    for span in spans:
        if span.startswith("section_"):

            def counted(*args, _span=span, _fn=getattr(cli_module, span), **kwargs):
                counts[_span] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli_module, span, counted)
    rc, _, _ = invoke(capsys, ["report", THREE_SLIT])
    assert rc == 0
    assert counts == {
        "section_theory": 1, "section_validate": 1, "section_coevents": 3,
        "section_orders": 1, "section_complete": 2, "section_audit": 1, "section_topos": 1,
    }
    assert {span for span in spans if span.startswith("section_")} - set(counts) == {
        "section_tau"
    }


def test_every_span_the_traced_benchmark_wraps_still_resolves(monkeypatch):
    """``bench/tracing.py`` installs a wrapper on every span that
    ``bench/layers.py`` names, by its module-level name or, for the four
    in its ``_METHODS``, on its class; installing fails if a span was
    deleted or moved.  With a pass-through wrapper each span is rebound
    while installed, and the returned undo puts back every ``coevents``
    module attribute and the four class attributes, as the same objects."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    loaded = {}
    for name in ("layers", "tracing"):
        spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
        loaded[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, loaded[name])  # gone again after the test
        spec.loader.exec_module(loaded[name])
    tracing = loaded["tracing"]
    methods = tracing._METHODS
    assert len(methods) == 4

    def attributes():
        modules = tracing._modules()
        assert "coevents.topos" in [module.__name__ for module in modules]
        held = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
        held.update({(cls, attr): cls.__dict__[attr] for cls, attr, _ in methods.values()})
        return held

    def pass_through(idx, name, fn):
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        return wrapper

    before = attributes()
    undo = tracing.install(pass_through)
    try:
        for name in loaded["layers"].NAMES:
            layer, span = name.split(".")
            if name in methods:
                cls, attr, _ = methods[name]
                assert cls.__dict__[attr] is not before[cls, attr], name
            else:
                home = f"coevents.{layer}"
                assert getattr(sys.modules[home], span) is not before[home, span], name
    finally:
        undo()
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


# ---------------------------------------------------------------------------
# Writers: render_machine against json.dumps, render_text against the oracle

# Strings a report may carry: non-ASCII, quotes, backslashes, control
# characters and the line separators JSON leaves unescaped.
TEXTS = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé∗{}\u2028'), st.characters()),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**80), 2**80), TEXTS
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(TEXTS, max_size=4),
        st.dictionaries(TEXTS, inner, max_size=4),
    ),
    max_leaves=16,
)
REPORTS = st.fixed_dictionaries(
    {
        "command": TEXTS,
        "theory": st.fixed_dictionaries(
            {
                "labels": st.lists(TEXTS, max_size=3),
                "measure_kind": TEXTS,
                "values": st.dictionaries(TEXTS, TEXTS, max_size=4),
            }
        ),
        "sections": st.dictionaries(TEXTS, TREES, max_size=3),
    }
)


@settings(max_examples=100, deadline=None)
@given(tree=st.one_of(REPORTS, st.dictionaries(TEXTS, TREES, max_size=5)))
def test_render_machine_is_json_dumps_with_an_indent(tree):
    expected = json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert render_machine(tree) == expected


@settings(max_examples=100, deadline=None)
@given(report=REPORTS)
def test_render_text_matches_the_oracle(report):
    assert render_text(report) == render_text_oracle(report)


# Row tables: sorted distinct column names (some with the template's own
# "%"), each a flag column holding bools, a list column holding tuples of
# strings (empty ones among them) or a column of strings; or rows with no
# column names, tuples of strings all of one length.
@st.composite
def row_tables(draw):
    if draw(st.booleans(), label="unnamed"):
        width = draw(st.integers(0, 3), label="width")
        return RowTable(None, (), draw(st.lists(st.tuples(*[TEXTS] * width), max_size=4)))
    names = st.one_of(TEXTS, st.sampled_from(["%", "%s", "a%%"]))
    columns = sorted(draw(st.sets(names, max_size=4)))
    kinds = [draw(st.sampled_from(["str", "flag", "list"]), label=name) for name in columns]
    cells = {"str": TEXTS, "flag": st.booleans(), "list": st.lists(TEXTS, max_size=3).map(tuple)}
    rows = draw(st.lists(st.tuples(*[cells[kind] for kind in kinds]), max_size=4))
    flags = [name for name, kind in zip(columns, kinds) if kind == "flag"]
    lists = [name for name, kind in zip(columns, kinds) if kind == "list"]
    return RowTable(columns, flags, rows, lists)


ROW_TREES = st.recursive(
    st.one_of(SCALARS, row_tables()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(TEXTS, inner, max_size=4),
    ),
    max_leaves=8,
)


def with_plain(tree):
    """``tree`` with every row table replaced by its list of dicts or lists."""
    if type(tree) is RowTable:
        return tree.plain()
    if type(tree) is dict:
        return {key: with_plain(item) for key, item in tree.items()}
    if type(tree) is list:
        return [with_plain(item) for item in tree]
    return tree


@settings(max_examples=150, deadline=None)
@given(sections=st.dictionaries(TEXTS, ROW_TREES, max_size=3))
def test_writers_print_a_row_table_as_its_dicts(sections):
    report = {"command": "x", "theory": {"labels": [], "measure_kind": "y", "values": {}}}
    report["sections"] = sections
    plain = with_plain(report)
    expected = json.dumps(plain, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert render_machine(report) == expected
    assert render_text(report) == render_text_oracle(plain)


@pytest.mark.parametrize("value", [0.5, float("nan"), {1, 2}, frozenset(), b"x"])
@pytest.mark.parametrize(
    "where", ["value", "item", "nested", "column", "flag", "list", "in list", "unnamed"]
)
def test_render_machine_refuses_values_outside_its_types(value, where):
    report = {
        "value": {"a": value},
        "item": {"a": [1, value]},
        "nested": {"a": [{"b": value}]},
        "column": {"a": RowTable(("a", "b"), ("b",), [("s", True), (value, False)])},
        "flag": {"a": RowTable(("a", "b"), ("b",), [("s", True), ("t", value)])},
        "list": {"a": RowTable(("a",), (), [(("s",),), (value,)], ("a",))},
        "in list": {"a": RowTable(("a",), (), [(("s",),), (("t", value),)], ("a",))},
        "unnamed": {"a": RowTable(None, (), [("s", "t"), ("u", value)])},
    }
    with pytest.raises(TypeError):
        render_machine(report[where])


@pytest.mark.parametrize("value", [1, 0, None, "yes"])
def test_render_machine_refuses_a_flag_that_is_not_a_bool(value):
    """A dict would print 1 as ``1``; a flag column holds bools only."""
    with pytest.raises(TypeError):
        render_machine({"a": RowTable(("a",), ("a",), [(True,), (value,)])})
