"""Finite quantum measure theory and coevents, in exact arithmetic.

The package follows the layering of the subject: sample spaces and the
Boolean event algebra (:mod:`.eventalg`), exact classical/quantum
measures (:mod:`.measure`), coevents and the multiplicative scheme
(:mod:`.coevent`), the valuation-event order structure and completions
(:mod:`.beables`), varying sets with their subobject classifier
(:mod:`.topos`), the finite-poset core both of these read their up-sets
and Heyting implication from (:mod:`.poset`), and a file-driven CLI
(:mod:`.cli`).
"""

from .beables import (
    AuditRecord,
    Completion,
    OrderReport,
    TruthFunction,
    ValuationEvent,
    and_or_audit,
    complete,
    heyting_implication,
    or_discrepancies,
    or_discrepancy_count,
    order_report,
    tau,
    truth_evaluate,
)
from .coevent import (
    Coevent,
    CoeventSpace,
    check_modus_ponens,
    classical_from_history,
    classical_preclusive_set,
    dual_of_coevent,
    dual_of_event,
    enumerate_classical,
    enumerate_coevents,
    enumerate_multiplicative,
    evaluate,
    is_classical,
    is_multiplicative,
    is_preclusive,
    multiplicative_scheme,
)
from .errors import (
    CapExceeded,
    CoeventsError,
    EmptyEventDual,
    InvalidPartition,
    MismatchedSpace,
    NonRealDiagonal,
    NotASubobject,
    NotMultiplicative,
    NotUpperMode,
    ParseError,
    UnknownHistory,
    ValidationError,
    ZeroCoevent,
)
from .eventalg import (
    Event,
    EventAlgebra,
    EventFamily,
    SampleSpace,
    complement,
    down_closure,
    implies,
    is_filter,
    join,
    meet,
    sym_diff,
    up_closure,
)
from .measure import (
    CoarseGraining,
    DecoherenceSpec,
    GaussianRational,
    Measure,
    ValidationReport,
    Violation,
    coarse_grain,
    is_decoherent,
    measure_from_decoherence,
    null_cover_exists,
    null_sets,
    validate_classical,
    validate_quantum,
)
from .theoryfile import HistoriesTheory, TheoryOptions, load
from .topos import (
    CoeventToposInstance,
    FinitePoset,
    Sieve,
    SubobjectClassifier,
    SubobjectOfConstant,
    VaryingSet,
    build_instance,
    build_mce_instance,
    build_scheme_instance,
    characteristic_map,
    chi_vsupp,
    classifier,
    constant_varying_set,
    is_subobject,
    sieves_at,
)

__version__ = "0.1.0"
