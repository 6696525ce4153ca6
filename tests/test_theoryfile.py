from __future__ import annotations

import copy
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coevents import Event, ParseError, ValidationError, validate_quantum
from coevents.theoryfile import load, load_data, parse_complex, parse_rational

THEORIES = Path(__file__).resolve().parents[1] / "demos" / "theories"


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
