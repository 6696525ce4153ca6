"""The value classes: equality, hashing, immutability, repr, pickling and
copying, as the ``Record`` base and ``Coevent`` give them, and the import
cost and the public names of the package."""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import coevents
from coevents.beables import (
    AuditRecord,
    Completion,
    OrderReport,
    TruthFunction,
    ValuationEvent,
    and_or_audit,
    complete,
)
from coevents.cli import _Verb
from coevents.coevent import Coevent, CoeventSpace, enumerate_multiplicative
from coevents.eventalg import Event, EventAlgebra, EventFamily, Record, SampleSpace
from coevents.measure import (
    CoarseGrainedMeasure,
    CoarseGraining,
    DecoherenceSpec,
    GaussianRational,
    Measure,
    ValidationReport,
    Violation,
    _ratio_of,
    coarse_grain,
)
from coevents.poset import FinitePoset
from coevents.theoryfile import HistoriesTheory, TheoryOptions, load_data
from coevents.topos import (
    CoeventToposInstance,
    Sieve,
    SubobjectClassifier,
    SubobjectOfConstant,
    VaryingSet,
    build_instance,
    classifier,
    constant_varying_set,
)

SPACE = SampleSpace(("a", "b"))
ALG = EventAlgebra(SPACE)
DUALS = enumerate_multiplicative(ALG)
MEASURE = Measure.from_atom_weights(SPACE, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
POSET = FinitePoset(("x", "y"), (0b11, 0b10))
GRAINING = CoarseGraining.from_label_blocks(SPACE, [["a"], ["b"]])
WEIGHTS, WEIGHTS_AC = {"a": "1/3", "b": "2/3"}, {"a": "1/3", "c": "2/3"}

# Each value class, with a builder that makes a new instance on each call, all
# equal in their fields, and a builder of one that differs in a field.
BUILDERS = {
    SampleSpace: (lambda: SampleSpace(("a", "b")), lambda: SampleSpace(("a", "c"))),
    Event: (lambda: Event(SPACE, 1), lambda: Event(SPACE, 2)),
    EventAlgebra: (lambda: EventAlgebra(SPACE), lambda: EventAlgebra(SampleSpace(("a",)))),
    EventFamily: (lambda: EventFamily(SPACE, (1, 2)), lambda: EventFamily(SPACE, (1, 3))),
    GaussianRational: (
        lambda: GaussianRational(Fraction(1, 2), Fraction(-1, 3)),
        lambda: GaussianRational(Fraction(1, 2)),
    ),
    Violation: (
        lambda: Violation("additivity", (Event(SPACE, 1),), Fraction(1), Fraction(2)),
        lambda: Violation("level2", (Event(SPACE, 1),), Fraction(1), Fraction(2)),
    ),
    ValidationReport: (
        lambda: ValidationReport("classical", (), True),
        lambda: ValidationReport("quantum", (), True),
    ),
    Measure: (
        lambda: Measure(ALG, {0: 0, 1: Fraction(1, 3), 2: Fraction(2, 3), 3: 1}),
        lambda: Measure(ALG, {0: 0, 1: 1, 2: 0, 3: 1}),
    ),
    DecoherenceSpec: (
        lambda: DecoherenceSpec.from_amplitudes(SPACE, [GaussianRational(1), GaussianRational(1)]),
        lambda: DecoherenceSpec.from_amplitudes(SPACE, [GaussianRational(1), GaussianRational(2)]),
    ),
    CoarseGraining: (
        lambda: CoarseGraining.from_label_blocks(SPACE, [["a"], ["b"]]),
        lambda: CoarseGraining.from_label_blocks(SPACE, [["a", "b"]]),
    ),
    CoarseGrainedMeasure: (
        lambda: coarse_grain(MEASURE, GRAINING),
        lambda: coarse_grain(MEASURE, CoarseGraining.from_label_blocks(SPACE, [["a", "b"]])),
    ),
    Coevent: (lambda: Coevent(ALG, {1, 3}), lambda: Coevent(ALG, {1, 2})),
    CoeventSpace: (
        lambda: CoeventSpace(ALG, DUALS.members, "multiplicative"),
        lambda: CoeventSpace(ALG, DUALS.members[:2], "multiplicative"),
    ),
    ValuationEvent: (lambda: ValuationEvent(DUALS, 0b101), lambda: ValuationEvent(DUALS, 0b11)),
    TruthFunction: (
        lambda: TruthFunction(DUALS, DUALS.members[0]),
        lambda: TruthFunction(DUALS, DUALS.members[1]),
    ),
    OrderReport: (
        lambda: OrderReport(True, True, True, True, False, {"join": ()}, ("note",)),
        lambda: OrderReport(True, True, True, True, False, {"join": ()}, ()),
    ),
    Completion: (lambda: complete(DUALS, "upper"), lambda: complete(DUALS, "boolean")),
    AuditRecord: (
        lambda: and_or_audit(DUALS.members[0], Event(SPACE, 1), Event(SPACE, 2), DUALS),
        lambda: and_or_audit(DUALS.members[0], Event(SPACE, 1), Event(SPACE, 3), DUALS),
    ),
    FinitePoset: (
        lambda: FinitePoset(("x", "y"), (0b11, 0b10)),
        lambda: FinitePoset(("x", "y"), (0b01, 0b10)),
    ),
    TheoryOptions: (lambda: TheoryOptions(), lambda: TheoryOptions(include_empty_dual=True)),
    HistoriesTheory: (
        lambda: load_data({"sample_space": ["a", "b"], "measure": {"atom_weights": WEIGHTS}}),
        lambda: load_data({"sample_space": ["a", "c"], "measure": {"atom_weights": WEIGHTS_AC}}),
    ),
    Sieve: (lambda: Sieve(POSET, "x", 0b11), lambda: Sieve(POSET, "x", 0b10)),
    _Verb: (lambda: _Verb("help", flags=("--a",)), lambda: _Verb("help", needs=("--a",))),
    # compared by identity: no second builder
    VaryingSet: (lambda: constant_varying_set(POSET, {1, 2}), None),
    SubobjectOfConstant: (lambda: SubobjectOfConstant(POSET, {1, 2}, [{1}, {1, 2}]), None),
    SubobjectClassifier: (lambda: classifier(POSET), None),
    CoeventToposInstance: (lambda: build_instance(DUALS), None),
}

#: Compared by their fields, but a field (a dict, or a measure's value
#: table) is unhashable, so hashing raises.
UNHASHABLE = {OrderReport, CoarseGrainedMeasure, Measure, HistoriesTheory}


def fields_of(value: object) -> tuple[str, ...]:
    return type(value)._fields if isinstance(value, Record) else ("algebra", "support")


def test_every_value_class_is_covered():
    records = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("coevents.")}
    assert len(records) == 26 and records == set(BUILDERS) - {Coevent}


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    build, build_other = BUILDERS[cls]
    value, twin = build(), build()
    assert type(value) is cls and value is not twin
    names = fields_of(value)
    assert names

    if build_other is None:  # eq=False: identity
        assert value == value and value != twin
        assert hash(value) == object.__hash__(value)
    else:
        other = build_other()
        assert value == twin and not value != twin
        assert value != other and other != value
        assert value.__eq__(object()) is NotImplemented and value != object()
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(twin)

    before = repr(value)
    for name in (names[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before

    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{cls.__qualname__}({shown})"

    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and repr(copied) == repr(value)
        if build_other is not None:
            assert copied == value
        else:
            assert all(getattr(copied, name) == getattr(value, name) for name in names)


def test_space_equality_ignores_the_provenance():
    a = CoeventSpace(ALG, DUALS.members, "multiplicative")
    b = CoeventSpace(ALG, DUALS.members)
    assert b.provenance == "user-supplied" and a == b and hash(a) == hash(b)


def test_record_constructor_takes_fields_by_position_or_name():
    assert TheoryOptions(True, 2) == TheoryOptions(brute_force_cap=2, include_empty_dual=True)
    assert TheoryOptions(True) == TheoryOptions(include_empty_dual=True)
    assert TheoryOptions().include_empty_dual is False
    with pytest.raises(TypeError):
        TheoryOptions(True, 2, 3)
    with pytest.raises(TypeError):
        TheoryOptions(colour=1)
    with pytest.raises(TypeError):
        TheoryOptions(True, include_empty_dual=True)
    with pytest.raises(TypeError):
        FinitePoset(("x",))
    assert "include_empty_dual" not in vars(TheoryOptions)  # defaults live in __init__
    with pytest.raises(TypeError, match="with a default must come last"):

        class Misordered(Record):
            first: int = 0
            second: int


#: Modules that no verb uses, kept off the start-up path: ``dataclasses``
#: pulls in ``inspect``; ``fractions`` pulls in ``decimal`` and ``numbers``,
#: which only the functions that take or build a ``Fraction`` import; the
#: package has no use for ``pathlib``.
OFF_THE_PATH = ("dataclasses", "decimal", "fractions", "inspect", "numbers", "pathlib")


def test_importing_the_package_and_running_every_verb_loads_no_unused_module():
    """A fresh interpreter, without ``site`` so that only the package's own
    imports count, imports the package and the CLI and runs every verb in
    process, its stdout discarded; none of :data:`OFF_THE_PATH` is loaded,
    while ``argparse`` and ``json``, which every run uses, are."""
    root = Path(coevents.__file__).resolve().parent.parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import coevents, coevents.cli; "
        "import contextlib, io\n"
        "for argv in [['tau', '--event', '1'], ['validate'], ['coevents'], ['orders'], "
        "['complete'], ['audit'], ['topos'], ['report']]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert coevents.cli.run(argv[:1] + [sys.argv[2]] + argv[1:]) == 0, argv\n"
        "print(sorted(set(sys.argv[3:]) & set(sys.modules)), 'argparse' in sys.modules, "
        "'json' in sys.modules)"
    )
    theory = str(root / "demos" / "theories" / "three_slit.json")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(root / "src"), theory, *OFF_THE_PATH],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[] True True"


def test_the_values_that_import_fractions_when_called_are_unchanged():
    """What the deferred ``fractions`` and ``numbers`` imports must not change."""
    assert repr(GaussianRational()) == "GaussianRational(re=Fraction(0, 1), im=Fraction(0, 1))"
    assert GaussianRational() == GaussianRational(Fraction(0), Fraction(0))
    assert hash(GaussianRational()) == hash(GaussianRational(Fraction(0), Fraction(0)))
    assert repr(GaussianRational(0)) == "GaussianRational(re=0, im=Fraction(0, 1))"
    assert type(MEASURE.values[1]) is Fraction and MEASURE.values[1] == Fraction(1, 3)
    assert MEASURE.values == {0: 0, 1: Fraction(1, 3), 2: Fraction(2, 3), 3: 1}
    for inexact in (0.5, None, "1/2"):
        with pytest.raises(TypeError, match="not an exact rational"):
            _ratio_of(inexact)
        with pytest.raises(TypeError, match="not an exact rational"):
            GaussianRational(im=inexact)


#: The package's public API: every name ``import coevents`` binds, less the
#: submodules.  An API change edits this tuple, so that its diff shows it.
PUBLIC_NAMES = (
    "AuditRecord",
    "CapExceeded",
    "CoarseGraining",
    "Coevent",
    "CoeventSpace",
    "CoeventToposInstance",
    "CoeventsError",
    "Completion",
    "DecoherenceSpec",
    "EmptyEventDual",
    "Event",
    "EventAlgebra",
    "EventFamily",
    "FinitePoset",
    "GaussianRational",
    "HistoriesTheory",
    "InvalidPartition",
    "Measure",
    "MismatchedSpace",
    "NotASubobject",
    "NotMultiplicative",
    "NotUpperMode",
    "OrderReport",
    "ParseError",
    "SampleSpace",
    "Sieve",
    "SubobjectClassifier",
    "SubobjectOfConstant",
    "TheoryOptions",
    "TruthFunction",
    "UnknownHistory",
    "ValidationError",
    "ValidationReport",
    "ValuationEvent",
    "VaryingSet",
    "Violation",
    "ZeroCoevent",
    "and_or_audit",
    "build_instance",
    "build_mce_instance",
    "build_scheme_instance",
    "characteristic_map",
    "check_modus_ponens",
    "chi_vsupp",
    "classical_from_history",
    "classical_preclusive_set",
    "classifier",
    "coarse_grain",
    "complete",
    "constant_varying_set",
    "dual_of_coevent",
    "dual_of_event",
    "enumerate_classical",
    "enumerate_coevents",
    "enumerate_multiplicative",
    "heyting_implication",
    "is_classical",
    "is_decoherent",
    "is_filter",
    "is_multiplicative",
    "is_preclusive",
    "is_subobject",
    "load",
    "measure_from_decoherence",
    "multiplicative_scheme",
    "null_cover_exists",
    "null_sets",
    "or_discrepancies",
    "or_discrepancy_count",
    "order_report",
    "sieves_at",
    "tau",
    "validate_classical",
    "validate_quantum",
)


def test_the_public_names_are_the_pinned_tuple():
    public = (
        name for name, value in vars(coevents).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert tuple(sorted(public)) == PUBLIC_NAMES
