"""Finite quantum measure theory and coevents, in exact arithmetic.

The package follows the layering of the subject: sample spaces and the
Boolean event algebra (:mod:`.eventalg`), exact classical/quantum
measures (:mod:`.measure`), coevents and the multiplicative scheme
(:mod:`.coevent`), the valuation-event order structure and completions
(:mod:`.beables`), sieves and the characteristic map of the support
selection over a space of duals, read from its rows (:mod:`.topos`),
the up-set lattice both of these read their up-sets and Heyting
implication from (:mod:`.poset`), and a file-driven CLI (:mod:`.cli`).

Each operation has one spelling: an event's ``&``, ``|``, ``~`` and ``^``
(implication is ``~a | b``), a coevent's ``phi(A)``, a truth function's ``f(alpha)``.
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
    is_filter,
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
    Sieve,
    build_instance,
    build_mce_instance,
    build_scheme_instance,
    chi_vsupp,
    classifier,
    sieves_at,
)

__version__ = "0.1.0"
