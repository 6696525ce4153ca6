from __future__ import annotations

import copy
import hashlib
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coevents import (
    DecoherenceSpec,
    Event,
    EventAlgebra,
    GaussianRational,
    Measure,
    ParseError,
    SampleSpace,
    ValidationError,
    measure_from_decoherence,
    validate_quantum,
)
from coevents import theoryfile
from coevents.cli import run
from coevents.theoryfile import load, load_data

THEORIES = Path(__file__).resolve().parents[1] / "demos" / "theories"


def parse_rational(value, where: str) -> Fraction:
    """The loader's reading of one rational (``_ratio``) as a ``Fraction``,
    its refusal as the loader words it at ``where``."""
    try:
        return Fraction(*theoryfile._ratio(value))
    except theoryfile._Unreadable as exc:
        raise ValidationError(f"{where}{exc}") from None


def parse_complex(value, where: str) -> GaussianRational:
    """The loader's reading of one complex entry (``_complex_ratio``) as a
    ``GaussianRational``, its refusal as the loader words it at ``where``."""
    try:
        re, im = theoryfile._complex_ratio(value)
    except theoryfile._Unreadable as exc:
        raise ValidationError(f"{where}{exc}") from None
    return GaussianRational(Fraction(*re), Fraction(*im))


def write_theory(tmp_path: Path, data) -> Path:
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_load_fair_coin_fixture():
    theory = load(THEORIES / "fair_coin.json")
    assert theory.space.labels == ("h", "t")
    assert theory.measure.values[1] == Fraction(1, 2)
    assert theory.measure_kind == "atom_weights"
    assert not theory.options.include_empty_dual


def test_load_three_slit_fixture():
    theory = load(THEORIES / "three_slit.json")
    assert theory.measure.values[0b101] == 0  # {1,3} interferes away
    assert theory.measure.values[0b011] == 4


def test_load_decoherence_fixture():
    theory = load(THEORIES / "four_slit_decoherence.json")
    assert theory.measure_kind == "decoherence"
    assert theory.measure.values[theory.space.full_mask] == 1
    assert validate_quantum(theory.measure).ok


def test_rational_parsing():
    assert parse_rational(3, "x") == 3
    assert parse_rational("-2/4", "x") == Fraction(-1, 2)
    with pytest.raises(ValidationError):
        parse_rational(0.5, "x")
    with pytest.raises(ValidationError):
        parse_rational("0.5", "x")
    with pytest.raises(ValidationError):
        parse_rational("1/2/3", "x")
    with pytest.raises(ValidationError):
        parse_rational(True, "x")


_OLD_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def regex_parse_rational(text: str, where: str) -> Fraction:
    """Oracle: the string branch of the loader's first parser, a regex then
    ``Fraction(str)``."""
    if not _OLD_RATIONAL_RE.match(text.strip()):
        raise ValidationError(
            f"{where}: {text!r} is not an exact rational (use an integer or \"p/q\")"
        )
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValidationError(f"{where}: {text!r} has a zero denominator")
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}")


def assert_parses_as_the_regex_did(text: str) -> None:
    try:
        expected = regex_parse_rational(text, "x")
    except ValidationError as exc:
        with pytest.raises(ValidationError) as caught:
            parse_rational(text, "x")
        assert str(caught.value) == str(exc)
    else:
        got = parse_rational(text, "x")
        assert type(got) is Fraction and got == expected


# Signs, slashes, padding and inner spaces, "_", "." and "e", a superscript
# two (a digit but not a decimal), Arabic-Indic and full-width digits.
RATIONAL_ALPHABET = "0123456789+-/ _.e\t\n\u00b2\u0663\u0660\uff11"


@settings(max_examples=500, deadline=None)
@given(
    text=st.text(alphabet=RATIONAL_ALPHABET, max_size=10)
    | st.from_regex(r"\s*[+-]?\d{1,4}(/\d{1,4})?\s*", fullmatch=True)
    | st.text(alphabet=st.characters(whitelist_categories=("Nd", "No", "Zs")), max_size=6)
)
def test_rational_strings_parse_as_the_regex_did(text):
    assert_parses_as_the_regex_did(text)


@pytest.mark.parametrize("text", [
    "1/0", "-0/0", "1//2", "/2", "1/", "+", "-", "", " ", "+-1", "--1", "1 /2", "1/ 2",
    "1_000", "٣/٤", "²", "1/²", "²/1", "00012/0004", " -7/21 ", "+5",
    "9" * 4300, "9" * 4301, "-" + "9" * 4301, "1/" + "9" * 4301, "9" * 4301 + "/0",
    "1" * 5000 + "/" + "2" * 5000,
])
def test_rational_edge_strings_parse_as_the_regex_did(text):
    assert_parses_as_the_regex_did(text)


def test_complex_parsing():
    v = parse_complex({"re": "1/2", "im": -1}, "x")
    assert (v.re, v.im) == (Fraction(1, 2), Fraction(-1))
    assert parse_complex("3", "x").im == 0
    with pytest.raises(ValidationError):
        parse_complex({"re": 1, "imaginary": 2}, "x")


def test_duplicate_labels_rejected(tmp_path):
    path = write_theory(
        tmp_path, {"sample_space": ["a", "a"], "measure": {"atom_weights": {"a": 1}}}
    )
    with pytest.raises(ValidationError, match="distinct"):
        load(path)


def test_exactly_one_stanza_required(tmp_path):
    base = {"sample_space": ["a"]}
    with pytest.raises(ValidationError, match="exactly one"):
        load(write_theory(tmp_path, {**base, "measure": {}}))
    with pytest.raises(ValidationError, match="exactly one"):
        load(
            write_theory(
                tmp_path,
                {
                    **base,
                    "measure": {"atom_weights": {"a": 1}, "amplitudes": [1]},
                },
            )
        )


def test_event_table_forms(tmp_path):
    data = {
        "sample_space": ["h", "t"],
        "measure": {
            "event_table": {
                "": 0,
                "h": "1/2",
                "{t}": "1/2",
                "h,t": 1,
            }
        },
    }
    theory = load(write_theory(tmp_path, data))
    assert theory.measure.values[0b11] == 1
    assert theory.measure.values[0b10] == Fraction(1, 2)


def test_event_table_keys_are_read_as_masks_with_no_event_built(monkeypatch):
    def no_event(self):
        raise AssertionError("an Event was built")

    monkeypatch.setattr(Event, "__post_init__", no_event)
    data = {
        "sample_space": ["a", "b", "c"],
        "measure": {"event_table": {
            "{" + ",".join("abc"[i] for i in range(3) if m >> i & 1) + "}": m
            for m in range(8)
        }},
    }
    assert load_data(data).measure.values.nums == tuple(range(8))


def test_event_table_must_be_total(tmp_path):
    data = {
        "sample_space": ["h", "t"],
        "measure": {"event_table": {"": 0, "h": "1/2", "t": "1/2"}},
    }
    with pytest.raises(ValidationError, match="total"):
        load(write_theory(tmp_path, data))


def test_event_table_rejects_duplicates_and_unknown_labels(tmp_path):
    with pytest.raises(ValidationError, match="twice"):
        load(
            write_theory(
                tmp_path,
                {
                    "sample_space": ["h"],
                    "measure": {"event_table": {"h": 1, "{h}": 1, "": 0}},
                },
            )
        )
    with pytest.raises(ValidationError, match="bad event"):
        load(
            write_theory(
                tmp_path,
                {"sample_space": ["h"], "measure": {"event_table": {"x": 1, "": 0}}},
            )
        )


def test_amplitude_length_checked(tmp_path):
    with pytest.raises(ValidationError, match="one amplitude per history"):
        load(
            write_theory(
                tmp_path,
                {"sample_space": ["a", "b"], "measure": {"amplitudes": [1]}},
            )
        )


def test_non_hermitian_decoherence_rejected(tmp_path):
    data = {
        "sample_space": ["a", "b"],
        "measure": {
            "decoherence": [
                ["1/2", {"im": "1/2"}],
                [{"im": "1/2"}, "1/2"],
            ]
        },
    }
    with pytest.raises(ValidationError, match="Hermitian"):
        load(write_theory(tmp_path, data))


def test_unknown_fields_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown top-level"):
        load(
            write_theory(
                tmp_path,
                {
                    "sample_space": ["a"],
                    "measure": {"atom_weights": {"a": 1}},
                    "extra": 1,
                },
            )
        )
    with pytest.raises(ValidationError, match="options"):
        load(
            write_theory(
                tmp_path,
                {
                    "sample_space": ["a"],
                    "measure": {"atom_weights": {"a": 1}},
                    "options": {"speed": 9},
                },
            )
        )


def test_bad_option_types(tmp_path):
    with pytest.raises(ValidationError, match="boolean"):
        load(
            write_theory(
                tmp_path,
                {
                    "sample_space": ["a"],
                    "measure": {"atom_weights": {"a": 1}},
                    "options": {"include-empty-dual": 1},
                },
            )
        )
    with pytest.raises(ValidationError, match="positive integer"):
        load(
            write_theory(
                tmp_path,
                {
                    "sample_space": ["a"],
                    "measure": {"atom_weights": {"a": 1}},
                    "options": {"brute-force-cap": 0},
                },
            )
        )


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"sample_space": [1,,]}', encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load(path)


def test_load_data_requires_object():
    with pytest.raises(ValidationError, match="object"):
        load_data([1, 2, 3])


def test_float_amplitudes_rejected(tmp_path):
    with pytest.raises(ValidationError, match="exact"):
        load(
            write_theory(
                tmp_path,
                {"sample_space": ["a"], "measure": {"amplitudes": [0.5]}},
            )
        )


# ---------------------------------------------------------------------------
# Files the loader reads as a text-mode read did

THREE_SLIT_FILE = (
    '{\n  "sample_space": ["1", "2", "3"],\n  "measure": {"amplitudes": [1, 1, -1]}\n}\n'
)
#: ``validate`` on three_slit: stdout's length and sha256 per format.
THREE_SLIT_VALIDATE = {
    "machine": (1466, "f151472d3f1858b6e80e61d6717d04e687b574b5a3fcb523945fd7a7aaa05ecb"),
    "text": (771, "bb0c7ec79b14fd90a19f890ce77a586782a2b81cdf348b10b7d2c90ca7990f9d"),
}
MISPLACED_COMMA = (
    "theory.json: line 3, column 40: Expecting property name enclosed in double quotes"
)


def json_bytes(measure: dict, labels: list[str]) -> bytes:
    return json.dumps({"sample_space": labels, "measure": measure}, ensure_ascii=False).encode()


def weights_bytes(a: str, b: str) -> bytes:
    return json_bytes({"atom_weights": {"a": a, "b": b}}, ["a", "b"])


#: A theory file's bytes, and what ``coevents validate theory.json`` prints,
#: taken while the loader still read files with ``Path.read_text``: per
#: format, stdout's length and sha256 (exit 0, nothing on stderr), or the
#: stderr line of both formats after ``error: `` (exit 2,
#: nothing on stdout).  CRLF and lone CR read as LF, so a parse error names
#: the same line and column; a byte-order mark is refused by ``json``;
#: numbers may be padded, signed and written in any decimal digits, but
#: not with "_" or as a superscript.
LOADER_EDGES = {
    "crlf": (THREE_SLIT_FILE.replace("\n", "\r\n").encode(), THREE_SLIT_VALIDATE),
    "crlf-broken": (
        THREE_SLIT_FILE.replace("-1]", "-1],").replace("\n", "\r\n").encode(), MISPLACED_COMMA
    ),
    "cr": (THREE_SLIT_FILE.replace("\n", "\r").encode(), THREE_SLIT_VALIDATE),
    "cr-broken": (
        THREE_SLIT_FILE.replace("-1]", "-1],").replace("\n", "\r").encode(), MISPLACED_COMMA
    ),
    "cr-in-label": (
        b'{"sample_space": ["a\rb"],\r\n "measure": {"amplitudes": [1]}}',
        "theory.json: line 1, column 21: Invalid control character at",
    ),
    "bom": (
        b"\xef\xbb\xbf" + THREE_SLIT_FILE.encode(),
        "theory.json: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)",
    ),
    "invalid-utf8": (
        b'{\n "sample_space": ["a\xff"],\n "measure": {"amplitudes": [1]}\n}\n',
        "theory.json: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 22:"
        " invalid start byte",
    ),
    "padded": (weights_bytes(" 1/2 ", "\t1/2\n"), {
        "machine": (573, "146d5496a5570cbc23721c03b5e04b3a2a17a20552c77dba58afca749ed4cae5"),
        "text": (254, "0385bbe72bb30196a8eb77581625ae6511614cff856a62c0eb832fab77f27ebc"),
    }),
    "plus": (json_bytes({"amplitudes": ["+3", {"re": "-2", "im": "+0/5"}]}, ["a", "b"]), {
        "machine": (768, "395d997d42c1ec5df489b59d191d8d1610e6f6d0d0a1f5382d1db3524a4e5ce5"),
        "text": (351, "ec10a70edd7ec178e10daf20f179d10d9beb59f97e9025c0ba7f7f883321aa8e"),
    }),
    "underscore": (
        weights_bytes("1/2", "1_0"),
        "atom_weights['b']: '1_0' is not an exact rational (use an integer or \"p/q\")",
    ),
    # Arabic-Indic one and four, a full-width three
    "unicode-digits": (weights_bytes("\u0661/\u0664", "\uff13/4"), {
        "machine": (573, "2290e38ba5bc435ee4f2b90ebb51f1b8904e1f71b57cef6cd3acb2fde123b820"),
        "text": (254, "0da16760efeee315b6334fa50cc7a9359b82497bb4914c3844139fe03bf088ad"),
    }),
    "superscript": (
        weights_bytes("1/2", "\u00b2"),
        "atom_weights['b']: '\u00b2' is not an exact rational (use an integer or \"p/q\")",
    ),
    "twice": (
        json_bytes(
            {"event_table": {"{}": 0, "{a}": "1/4", "{a,b}": 1, "{b}": "3/4", "{b,a}": 1}},
            ["a", "b"],
        ),
        "event_table: event '{b,a}' given twice",
    ),
    "non-hermitian": (
        json_bytes({"decoherence": [
            ["1/3", {"re": "1/9", "im": "1/9"}, 0],
            [{"re": "1/9", "im": "-1/9"}, "1/3", {"im": "1/5"}],
            [0, {"im": "1/5"}, "1/3"],
        ]}, ["a", "b", "c"]),
        "decoherence: matrix is not Hermitian at (b, c)",
    ),
}


@pytest.mark.parametrize("fmt", ["machine", "text"])
@pytest.mark.parametrize("case", LOADER_EDGES)
def test_loader_edge_files_print_what_a_text_mode_read_printed(
    tmp_path, monkeypatch, capsys, case, fmt
):
    content, expected = LOADER_EDGES[case]
    monkeypatch.chdir(tmp_path)
    Path("theory.json").write_bytes(content)
    rc = run(["validate", "theory.json", "--format", fmt])
    captured = capsys.readouterr()
    out = captured.out.encode("utf-8")
    if isinstance(expected, str):
        assert (rc, out, captured.err) == (2, b"", f"error: {expected}\n")
    else:
        assert (rc, len(out), hashlib.sha256(out).hexdigest(), captured.err) == (
            0, *expected[fmt], ""
        )


# ---------------------------------------------------------------------------
# The integer loader against the Fraction route


def fraction_route(labels: list[str], kind: str, body) -> Measure:
    """Oracle: a measure stanza read one ``Fraction`` per number, through
    ``parse_rational``/``parse_complex`` and the ``Fraction`` constructors,
    with the loader's messages and their order."""
    space = SampleSpace(tuple(labels))
    algebra = EventAlgebra(space)
    if kind == "event_table":
        values = {}
        for key, raw in body.items():
            where = f"event_table[{key!r}]"
            try:
                mask = algebra.parse_mask(key)
            except Exception as exc:
                raise ValidationError(f"{where}: bad event {key!r}: {exc}")
            if mask in values:
                raise ValidationError(f"event_table: event {key!r} given twice")
            values[mask] = parse_rational(raw, where)
        missing = [m for m in range(algebra.size) if m not in values]
        if missing:
            raise ValidationError(
                f"event_table must be total; missing {algebra.event(missing[0])}"
                + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
            )
        return Measure(algebra, values)
    try:
        if kind == "atom_weights":
            weights = {lab: parse_rational(raw, f"atom_weights[{lab!r}]") for lab, raw in body.items()}
            return Measure.from_atom_weights(space, weights)
        if kind == "amplitudes":
            amps = [parse_complex(raw, f"amplitudes[{i}]") for i, raw in enumerate(body)]
            return Measure.from_amplitudes(space, amps)
        rows = [
            [parse_complex(raw, f"decoherence[{i}][{j}]") for j, raw in enumerate(row)]
            for i, row in enumerate(body)
        ]
        return measure_from_decoherence(DecoherenceSpec.from_rows(space, rows))
    except ValueError as exc:
        raise ValidationError(f"{kind}: {exc}")


@st.composite
def spellings(draw, x: Fraction):
    """``x`` as a theory file may write it: an int, or a signed, padded,
    unreduced ``"p/q"`` or ``"p"`` string."""
    k = draw(st.integers(1, 4), label="unreduced by")
    p, q = x.numerator * k, x.denominator * k
    if q == 1 and draw(st.booleans(), label="as an int"):
        return p
    sign = "-" if p < 0 else draw(st.sampled_from(["", "+"]), label="plus")
    text = f"{sign}{abs(p)}" + (f"/{q}" if q != 1 or draw(st.booleans()) else "")
    pad = st.sampled_from(["", " ", "\t", "\n "])
    return draw(pad, label="before") + text + draw(pad, label="after")


@st.composite
def complex_spellings(draw, z: GaussianRational):
    if z.im == 0 and draw(st.booleans(), label="as a rational"):
        return draw(spellings(z.re))
    entry = {}
    for name in ("re", "im"):
        part = getattr(z, name)
        if part or draw(st.booleans(), label=f"{name} written"):
            entry[name] = draw(spellings(part))
    return entry


@st.composite
def key_spellings(draw, labels: tuple[str, ...]):
    """An event's labels as an ``event_table`` key: as the event prints, or
    reordered, with or without braces, with empty parts and outer spaces."""
    if draw(st.booleans(), label="as it prints"):
        return "{" + ",".join(labels) + "}"
    parts = list(draw(st.permutations(labels), label="order"))
    if draw(st.booleans(), label="an empty part"):
        parts.insert(draw(st.integers(0, len(parts)), label="at"), "")
    text = ",".join(parts)
    if draw(st.booleans(), label="braces"):
        text = "{" + text + "}"
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", "  "]))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
LOADER_LABELS = ("a", "bb", "c", "d1")


@st.composite
def stanzas(draw, kind: str):
    """A well-formed stanza of ``kind``, every number respelled, and the
    measure of the numbers drawn; a decoherence matrix is Hermitian with
    total 1, its two halves written apart."""
    n = draw(st.integers(1, 4), label="n")
    labels = LOADER_LABELS[:n]
    space = SampleSpace(labels)
    if kind == "event_table":
        keys = [
            draw(key_spellings(tuple(lab for i, lab in enumerate(labels) if m >> i & 1)))
            for m in range(1 << n)
        ]
        values = {m: draw(rationals) for m in draw(st.permutations(range(1 << n)))}
        body = {keys[m]: draw(spellings(x)) for m, x in values.items()}
        measure = Measure(EventAlgebra(space), values)
    elif kind == "atom_weights":
        weights = {lab: draw(rationals) for lab in draw(st.permutations(labels))}
        body = {lab: draw(spellings(x)) for lab, x in weights.items()}
        measure = Measure.from_atom_weights(space, weights)
    elif kind == "amplitudes":
        amps = [GaussianRational(draw(rationals), draw(rationals)) for _ in range(n)]
        body = [draw(complex_spellings(a)) for a in amps]
        measure = Measure.from_amplitudes(space, amps)
    else:
        rows = [[GaussianRational() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = GaussianRational.real(draw(rationals))
            for j in range(i + 1, n):
                rows[i][j] = GaussianRational(draw(rationals), draw(rationals))
                rows[j][i] = rows[i][j].conjugate()
        total = sum((z.re for row in rows for z in row), Fraction(0))
        if total == 0:
            rows[0][0] = rows[0][0] + GaussianRational.real(1)
            total = Fraction(1)
        rows = [[z * GaussianRational.real(1 / total) for z in row] for row in rows]
        body = [[draw(complex_spellings(z)) for z in row] for row in rows]
        measure = measure_from_decoherence(DecoherenceSpec.from_rows(space, rows))
    return list(labels), body, measure


def same_on_both_routes(labels: list[str], kind: str, body) -> None:
    """The loader and the oracle build the same (den, nums), or raise the
    same message."""
    try:
        expected = fraction_route(labels, kind, body)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as caught:
            load_data({"sample_space": labels, "measure": {kind: body}})
        assert str(caught.value) == str(exc)
    else:
        got = load_data({"sample_space": labels, "measure": {kind: body}}).measure
        assert (got.values.den, got.values.nums) == (expected.values.den, expected.values.nums)


STANZA_KINDS = ("event_table", "atom_weights", "amplitudes", "decoherence")


@pytest.mark.parametrize("kind", STANZA_KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_loader_builds_the_fraction_routes_pair(kind, data):
    """Also against the measure of the numbers drawn, which no parser read."""
    labels, body, measure = data.draw(stanzas(kind), label="stanza")
    same_on_both_routes(labels, kind, body)
    assert load_data({"sample_space": labels, "measure": {kind: body}}).measure == measure


BAD_NUMBERS = (True, 0.5, "1/0", "-3/00", "1_0", "x", None, [1], "1/2/3", "9" * 4301)


@pytest.mark.parametrize("kind", STANZA_KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_loader_raises_the_fraction_routes_message(kind, data):
    """Broken stanzas: a bad number anywhere (two, so the first must win),
    and by kind a repeated key in another spelling, a missing key, a
    missing or unknown label, a wrong length, a complex entry with an
    unknown field, a ragged matrix, a non-Hermitian pair or a total that
    is not 1."""
    labels, body, _ = data.draw(stanzas(kind), label="stanza")
    entries = (
        [(body, key) for key in body] if isinstance(body, dict)
        else [(body, i) for i in range(len(body))] if kind == "amplitudes"
        else [(row, j) for row in body for j in range(len(row))]
    )
    breaks = ["number"]
    if kind == "event_table":
        breaks += ["twice", "missing", "label"]
    elif kind == "atom_weights":
        breaks += ["missing", "label"]
    elif kind == "amplitudes":
        breaks += ["missing", "extra", "field"]
    else:
        breaks += ["ragged", "field", "hermitian", "total"]
    how = data.draw(st.sampled_from(breaks), label="break")
    if how == "number":
        for _ in range(data.draw(st.integers(1, 2), label="bad numbers")):
            holder, key = data.draw(st.sampled_from(entries), label="entry")
            holder[key] = data.draw(st.sampled_from(BAD_NUMBERS), label="bad number")
    elif how == "twice":
        key = data.draw(st.sampled_from(sorted(body)), label="key")
        parts = [part for part in key.strip().strip("{}").split(",") if part]
        body[",".join(reversed(parts)) + ","] = 0
    elif how == "missing":
        del body[data.draw(st.sampled_from(sorted(body))) if isinstance(body, dict) else -1]
    elif how == "label":
        body["{zz}" if kind == "event_table" else "zz"] = 1
    elif how == "extra":
        body.append(1)
    elif how == "field":
        holder, key = data.draw(st.sampled_from(entries), label="entry")
        holder[key] = {"re": 1, "imag": 0}
    elif how == "ragged":
        row = data.draw(st.sampled_from(body), label="row")
        if data.draw(st.booleans(), label="longer"):
            row.append(0)
        else:
            row.pop()
    elif how == "hermitian":
        holder, key = data.draw(st.sampled_from(entries), label="entry")
        holder[key] = {"re": "7/5", "im": "1/3"}
    else:
        holder, key = data.draw(st.sampled_from(entries[:1]), label="entry")
        holder[key] = {"re": "1/7", "im": 0} if len(body) > 1 else "2/7"
    same_on_both_routes(labels, kind, body)


@pytest.mark.parametrize("kind", STANZA_KINDS)
def test_loading_builds_no_fraction_per_entry(monkeypatch, kind):
    """Loading builds no ``Fraction`` at all."""
    data = {
        "sample_space": ["a", "b", "c"],
        "measure": {kind: {
            "event_table": {
                "{" + ",".join("abc"[i] for i in range(3) if m >> i & 1) + "}": f"{m}/36"
                for m in range(8)
            },
            "atom_weights": {"a": "1/6", "b": "2/6", "c": "1/2"},
            "amplitudes": [{"re": "1/2", "im": "1/2"}, "-1/4", {"im": "-1/2"}],
            "decoherence": [
                ["1/4", {"re": "1/8", "im": "1/8"}, 0],
                [{"re": "1/8", "im": "-1/8"}, "1/4", 0],
                [0, 0, "1/4"],
            ],
        }[kind]},
    }
    expected = load_data(data).measure

    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    got = load_data(data).measure
    assert built == []
    monkeypatch.undo()
    assert (got.values.den, got.values.nums) == (expected.values.den, expected.values.nums)


# ---------------------------------------------------------------------------
# Fuzzing: every input loads or is rejected with a loader error

FIELD_NAMES = (
    "sample_space", "measure", "options", "event_table", "atom_weights", "amplitudes",
    "decoherence", "re", "im", "include-empty-dual", "brute-force-cap", "a", "h", "1",
)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.from_regex(r"[+-]?\d{1,3}(/\d{1,2})?", fullmatch=True)
    | st.sampled_from(FIELD_NAMES)
    | st.text(max_size=4)
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=3), children, max_size=4),
    max_leaves=16,
)
DEMOS = {path.stem: json.loads(path.read_text()) for path in sorted(THEORIES.glob("*.json"))}


def load_or_reject(data) -> None:
    try:
        load_data(data)
    except (ParseError, ValidationError):
        pass


@settings(max_examples=300, deadline=None)
@given(data=json_trees)
def test_random_json_trees_load_or_are_rejected(data):
    load_or_reject(data)


@st.composite
def mutated_demos(draw):
    """A demo theory with one node, one to four levels down, replaced by a
    random leaf or tree, or deleted."""
    data = copy.deepcopy(DEMOS[draw(st.sampled_from(sorted(DEMOS)), label="demo")])
    parent, key = data, None
    for _ in range(draw(st.integers(1, 4), label="depth")):
        node = parent if key is None else parent[key]
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys), label="key")
    action = draw(st.sampled_from(["leaf", "tree", "delete"]), label="action")
    if action == "delete":
        del parent[key]
    else:
        parent[key] = draw(json_leaves if action == "leaf" else json_trees, label="new")
    return data


@settings(max_examples=300, deadline=None)
@given(data=mutated_demos())
def test_mutated_demo_theories_load_or_are_rejected(data):
    load_or_reject(data)


@settings(max_examples=100, deadline=None)
@given(data=mutated_demos(), cut=st.integers(0, 400))
def test_truncated_theory_files_load_or_are_rejected(data, cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "theory.json"
        path.write_text(json.dumps(data)[:cut], encoding="utf-8")
        try:
            load(path)
        except (ParseError, ValidationError):
            pass
