"""Names shared by the runner and the passes: layers, spans, reach ops.

The layers are the library's modules.  Each span is one public function
(or ``__str__`` method, named ``render``) whose calls the traced pass
times from outside the library.
"""

SPANS = {
    "theoryfile": ("load",),
    "measure": (
        "from_amplitudes",
        "from_atom_weights",
        "measure_from_decoherence",
        "validate_classical",
        "validate_quantum",
        "null_sets",
        "null_cover_exists",
    ),
    "coevent": (
        "enumerate_multiplicative",
        "enumerate_classical",
        "enumerate_coevents",
        "classical_preclusive_set",
        "multiplicative_scheme",
        "is_classical",
        "is_multiplicative",
        "is_preclusive",
        "check_modus_ponens",
        "render",
    ),
    "eventalg": ("is_filter",),
    "beables": ("tau", "order_report", "complete", "and_or_audit", "render"),
    "topos": (
        "build_mce_instance",
        "build_scheme_instance",
        "classifier",
        "classifier_functoriality_failures",
        "chi_vsupp",
    ),
    "cli": (
        "run",
        "section_theory",
        "section_validate",
        "section_coevents",
        "section_tau",
        "section_orders",
        "section_complete",
        "section_audit",
        "section_topos",
        "render_machine",
        "render_text",
    ),
}
LAYERS = tuple(SPANS)
NAMES = tuple(f"{layer}.{span}" for layer, spans in SPANS.items() for span in spans)

REACH_OPS = (
    "measure.from_amplitudes",
    "measure.measure_from_decoherence",
    "measure.validate_classical",
    "measure.validate_quantum",
    "coevent.enumerate_multiplicative",
    "coevent.multiplicative_scheme",
    "coevent.render_scheme",
    "beables.order_report",
    "beables.complete_upper",
    "cli.audit",
    "cli.topos",
    "cli.report",
)
