"""Shared corpus access for the test suite.

The ``corpus`` directory holds corrected transcriptions of the thirteen
ontology fragments the extractor is built around, one file per listing
variant, plus fact files for the inference scenarios.
"""

from __future__ import annotations

from pathlib import Path

from owlrules import OntologyModel, ParseDiagnostic, parse_ontology
from owlrules.parser import Severity

CORPUS_DIR = Path(__file__).parent / "corpus"
# Larger inference fixtures with their expected outputs.
DATA_DIR = Path(__file__).parent / "data"

# Variant files per shape; the first entry is the canonical one.
FRAGMENTS: dict[str, tuple[str, ...]] = {
    "class-feature": ("class_feature.owl",),
    "equivalence-inheritance": ("equivalence_nested.owl", "equivalence_sameas.owl"),
    "domain-range-identification": ("domain_range.owl",),
    "subclass-transitivity": (
        "subclass_chain_resource.owl",
        "subclass_chain_nested_id.owl",
        "subclass_chain_nested_about.owl",
    ),
    "relation-propagation": (
        "relation_propagation_resource.owl",
        "relation_propagation_nested_id.owl",
        "relation_propagation_nested_about.owl",
    ),
    "subproperty-lift": ("subproperty.owl",),
    "symmetric": ("symmetric.owl",),
    "transitive-property": ("transitive_nested.owl", "transitive_resource.owl"),
    "sole-partof": (
        "sole_partof_resource.owl",
        "sole_partof_nested_id.owl",
        "sole_partof_nested_about.owl",
    ),
    "cooccurrence": ("cooccurrence.owl",),
    "allvaluesfrom": ("allvaluesfrom.owl",),
    "intersection": ("intersection.owl",),
    "inverse": ("inverse.owl",),
}

CANONICAL_FILES: tuple[str, ...] = tuple(v[0] for v in FRAGMENTS.values())


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / name


def corpus_text(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


def load_model(name: str) -> OntologyModel:
    """Parse a corpus file, failing the calling test on any Error diagnostic."""
    model, diags = parse_ontology(corpus_text(name), name)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    assert not errors, f"{name}: {[d.message for d in errors]}"
    return model


def load_with_diagnostics(name: str) -> tuple[OntologyModel, list[ParseDiagnostic]]:
    return parse_ontology(corpus_text(name), name)


def nested_subclass_chain(levels: int) -> str:
    """Classes C0..C<levels>, each nested in its subclass's rdfs:subClassOf."""
    lines = [f'<owl:Class rdf:ID="C{i}">\n<rdfs:subClassOf>' for i in range(levels)]
    lines.append(f'<owl:Class rdf:ID="C{levels}"/>')
    lines.extend(["</rdfs:subClassOf>\n</owl:Class>"] * levels)
    return "\n".join(lines) + "\n"
