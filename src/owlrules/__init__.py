"""owlrules: IF-THEN rule extraction and forward chaining over an OWL subset.

Pipeline: ``parse_ontology`` builds an :class:`OntologyModel` from the RDF/XML
subset; ``extract_all`` scans it for the thirteen rule-licensing shapes, each
rule carrying its pattern's category; ``run_fixpoint`` chains the executable
ones over a :class:`FactBase` of instance facts.

The package exports the entry points, the types they return and the
exceptions they raise; everything else is imported from its own module
(``owlrules.rules``, ``owlrules.model``, ...).
"""

from .engine import InferenceResult, NonExecutableRuleError, run_fixpoint, schema_closure
from .extract import (
    ExtractionReport,
    extract_all,
    extract_allvaluesfrom,
    extract_class_feature,
    extract_cooccurrence,
    extract_domain_range_identification,
    extract_equivalence_inheritance,
    extract_intersection,
    extract_inverse,
    extract_relation_propagation,
    extract_sole_partof,
    extract_subclass_transitivity,
    extract_subproperty_lift,
    extract_symmetric,
    extract_transitive,
)
from .facts import (
    ContradictionError,
    Fact,
    FactBase,
    FeatureExpected,
    LinkFact,
    Membership,
    NegMembership,
    format_fact,
)
from .model import (
    AllValuesFrom,
    ClassLink,
    EquivalentClass,
    IntersectionOf,
    InverseOf,
    Iri,
    MergeConflictError,
    ModelBuilder,
    OntologyModel,
    PropertyDecl,
    PropertyKind,
    SubClassOf,
    SubPropertyOf,
    merge,
)
from .parser import (
    ParseDiagnostic,
    format_diagnostic,
    has_errors,
    parse_fact_base,
    parse_ontology,
)
from .rules import (
    CATEGORY_ORDER,
    Pattern,
    Rule,
    RuleCategory,
    UnknownPatternError,
    parse_structured,
    render_structured,
    render_text,
)

__version__ = "0.1.0"

__all__ = [
    "AllValuesFrom",
    "CATEGORY_ORDER",
    "ClassLink",
    "ContradictionError",
    "EquivalentClass",
    "ExtractionReport",
    "Fact",
    "FactBase",
    "FeatureExpected",
    "InferenceResult",
    "IntersectionOf",
    "InverseOf",
    "Iri",
    "LinkFact",
    "Membership",
    "MergeConflictError",
    "ModelBuilder",
    "NegMembership",
    "NonExecutableRuleError",
    "OntologyModel",
    "ParseDiagnostic",
    "Pattern",
    "PropertyDecl",
    "PropertyKind",
    "Rule",
    "RuleCategory",
    "SubClassOf",
    "SubPropertyOf",
    "UnknownPatternError",
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
    "format_diagnostic",
    "format_fact",
    "has_errors",
    "merge",
    "parse_fact_base",
    "parse_ontology",
    "parse_structured",
    "render_structured",
    "render_text",
    "run_fixpoint",
    "schema_closure",
]
