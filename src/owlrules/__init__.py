"""owlrules: IF-THEN rule extraction and forward chaining over an OWL subset.

Pipeline: ``parse_ontology`` builds an :class:`OntologyModel` from the RDF/XML
subset; ``extract_all`` scans it for the thirteen rule-licensing shapes, each
rule carrying its pattern's category; ``run_fixpoint`` chains the executable
ones over a :class:`FactBase` of instance facts.

The package exports the entry points, the types they return and the
exceptions they raise; everything else is imported from its own module
(``owlrules.rules``, ``owlrules.model``, ...).  Each export is imported from
its module the first time it is read (PEP 562), so ``import owlrules`` loads
no layer, and extracting rules never loads the engine.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module of the package and the names it exports.
_EXPORTS = {
    "engine": ("InferenceResult", "NonExecutableRuleError", "run_fixpoint", "schema_closure"),
    "extract": (
        "ExtractionReport",
        "extract_all",
        "extract_allvaluesfrom",
        "extract_class_feature",
        "extract_cooccurrence",
        "extract_domain_range_identification",
        "extract_equivalence_inheritance",
        "extract_intersection",
        "extract_inverse",
        "extract_relation_propagation",
        "extract_sole_partof",
        "extract_subclass_transitivity",
        "extract_subproperty_lift",
        "extract_symmetric",
        "extract_transitive",
    ),
    "facts": (
        "ContradictionError",
        "Fact",
        "FactBase",
        "FeatureExpected",
        "LinkFact",
        "Membership",
        "NegMembership",
        "format_fact",
    ),
    "model": (
        "AllValuesFrom",
        "ClassLink",
        "EquivalentClass",
        "IntersectionOf",
        "InverseOf",
        "Iri",
        "MergeConflictError",
        "ModelBuilder",
        "OntologyModel",
        "PropertyDecl",
        "PropertyKind",
        "SubClassOf",
        "SubPropertyOf",
        "merge",
    ),
    "parser": (
        "ParseDiagnostic",
        "format_diagnostic",
        "has_errors",
        "parse_fact_base",
        "parse_ontology",
    ),
    "rules": (
        "CATEGORY_ORDER",
        "Pattern",
        "Rule",
        "RuleCategory",
        "UnknownPatternError",
        "parse_structured",
        "render_structured",
        "render_text",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import an export from its module and bind it here, so it resolves once."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return list(__all__)
