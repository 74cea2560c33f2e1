"""Shape scanners that turn ontology structure into IF-THEN rules.

Thirteen scanners, one per licensed shape:

  class-feature                datatype properties grouped by their domain class
  equivalence-inheritance      superclasses lifted across an equivalence
  domain-range-identification  an object property's range identifies its domain
  subclass-transitivity        two chained subclass axioms
  relation-propagation         a link propagated to the range's superclass
  subproperty-lift             links lifted along subPropertyOf
  symmetric                    both directions of a symmetric property
  transitive-property          variable-form chaining plus grounded class chains
  sole-partof                  a superclass with exactly one subclass (non-executable)
  cooccurrence                 domain/range instances expected to co-occur
  allvaluesfrom                closed-world value restriction
  intersection                 intersection class decomposed into its parts
  inverse                      both directions of an inverse property pair

Each shape has one public entry point, ``extract_<shape>(model)``, which
returns its rules.  ``extract_all`` runs them all, deduplicates by rule id
(merging provenance), returns the rules in canonical id order, and warns of
symmetric properties and inverse pairs skipped for a missing domain or range.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .model import (
    AllValuesFrom,
    ClassLink,
    EquivalentClass,
    IntersectionOf,
    InverseOf,
    Iri,
    OntologyModel,
    PropertyDecl,
    PropertyKind,
    SubClassOf,
    SubPropertyOf,
)
from .rules import (
    ClassRef,
    HasFeature,
    IsA,
    Link,
    Not,
    Pattern,
    PropRef,
    Provenance,
    Rule,
    SchemaEquivalent,
    SchemaSubClassOf,
    SolePart,
    MorePartsExpected,
    Var,
    make_rule,
)

VX = Var("?x")
VY = Var("?y")
VZ = Var("?z")


@dataclass
class ExtractionReport:
    rules: list[Rule] = field(default_factory=list)
    counts: dict[Pattern, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _sources(model: OntologyModel) -> tuple[str, ...]:
    """Sorted, duplicate-free source names: computed once per scanner call and
    shared by the provenance of every rule it emits."""
    return tuple(sorted(set(model.source_names)))


def _prov(sources: tuple[str, ...], triggers: list[str], display_form: str) -> Provenance:
    return Provenance(
        sources=sources,
        trigger_axioms=tuple(sorted(set(triggers))),
        display_form=display_form,
    )


def _sorted_props(model: OntologyModel) -> list[PropertyDecl]:
    return sorted(model.properties.values(), key=lambda d: d.iri)


def _has_domain_and_range(decl: PropertyDecl | None) -> bool:
    return decl is not None and decl.domain is not None and decl.range is not None


def _plain_object_props(model: OntologyModel) -> list[PropertyDecl]:
    # Strictly OBJECT kind, with both ends: symmetric/transitive properties have
    # scanners of their own and must not double-fire the domain/range shapes.
    return [
        d
        for d in _sorted_props(model)
        if d.kind is PropertyKind.OBJECT and _has_domain_and_range(d)
    ]


def _sorted_inverses(model: OntologyModel) -> list[InverseOf]:
    return sorted(model.axioms_of(InverseOf), key=lambda a: (a.prop, a.inverse))


# ---------------------------------------------------------------------------
# the thirteen single-pattern entry points


def extract_class_feature(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    by_domain: dict[Iri, list[PropertyDecl]] = {}
    for d in _sorted_props(model):
        if d.kind is PropertyKind.DATATYPE and d.domain is not None:
            by_domain.setdefault(d.domain, []).append(d)
    for cls in sorted(by_domain):
        feats = by_domain[cls]  # already iri-sorted
        rule = make_rule(
            Pattern.CLASS_FEATURE,
            [IsA(VX, ClassRef(cls))],
            [HasFeature(VX, d.iri) for d in feats],
            _prov(
                sources,
                [d.describe() for d in feats],
                f"IF {cls} THEN {' and '.join(str(d.iri) for d in feats)}",
            ),
        )
        rules.append(rule)
    return rules


def extract_equivalence_inheritance(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for ax in sorted(model.axioms_of(EquivalentClass), key=lambda a: (a.a, a.b)):
        for lifted, declared in ((ax.a, ax.b), (ax.b, ax.a)):
            for sup in model.superclasses_of(declared):
                if sup == lifted:
                    continue
                sub_ax = SubClassOf(declared, sup)
                rules.append(
                    make_rule(
                        Pattern.EQUIVALENCE_INHERITANCE,
                        [
                            SchemaEquivalent(ClassRef(lifted), ClassRef(declared)),
                            SchemaSubClassOf(ClassRef(declared), ClassRef(sup)),
                        ],
                        [SchemaSubClassOf(ClassRef(lifted), ClassRef(sup))],
                        _prov(
                            sources,
                            [ax.describe(), sub_ax.describe()],
                            f'IF {declared} equivalent {lifted} THEN ("part of" {sup}) ∈ {lifted}',
                        ),
                    )
                )
    return rules


def extract_domain_range_identification(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for d in _plain_object_props(model):
        rules.append(
            make_rule(
                Pattern.DOMAIN_RANGE_IDENTIFICATION,
                [Link(VX, PropRef(d.iri), VY), IsA(VY, ClassRef(d.range))],
                [IsA(VX, ClassRef(d.domain))],
                _prov(sources, [d.describe()], f"IF ({d.iri} {d.range}) THEN {d.domain}"),
            )
        )
    return rules


def extract_subclass_transitivity(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for first in sorted(model.axioms_of(SubClassOf), key=lambda a: (a.sub, a.sup)):
        a, b = first.sub, first.sup
        for c in model.superclasses_of(b):  # joined through the middle class
            if c == a:
                continue
            rules.append(
                make_rule(
                    Pattern.SUBCLASS_TRANSITIVITY,
                    [
                        SchemaSubClassOf(ClassRef(a), ClassRef(b)),
                        SchemaSubClassOf(ClassRef(b), ClassRef(c)),
                    ],
                    [SchemaSubClassOf(ClassRef(a), ClassRef(c))],
                    _prov(
                        sources,
                        [first.describe(), SubClassOf(b, c).describe()],
                        f'IF ({a} "part of" {b}) and ({b} "part of" {c}) '
                        f'THEN ({a} "part of" {c})',
                    ),
                )
            )
    return rules


def extract_relation_propagation(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for d in _plain_object_props(model):
        for sup in model.superclasses_of(d.range):
            sub_ax = SubClassOf(d.range, sup)
            rules.append(
                make_rule(
                    Pattern.RELATION_PROPAGATION,
                    [
                        Link(VX, PropRef(d.iri), VY),
                        IsA(VY, ClassRef(d.range)),
                        SchemaSubClassOf(ClassRef(d.range), ClassRef(sup)),
                    ],
                    [Link(VX, PropRef(d.iri), ClassRef(sup))],
                    _prov(
                        sources,
                        [d.describe(), sub_ax.describe()],
                        f'IF ({d.domain} "{d.iri}" {d.range}) and '
                        f'({d.range} "part of" {sup}) THEN ({d.domain} "{d.iri}" {sup})',
                    ),
                )
            )
    return rules


def extract_subproperty_lift(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for ax in sorted(model.axioms_of(SubPropertyOf), key=lambda a: (a.sub, a.sup)):
        rules.append(
            make_rule(
                Pattern.SUBPROPERTY_LIFT,
                [Link(VX, PropRef(ax.sub), VY)],
                [Link(VX, PropRef(ax.sup), VY)],
                _prov(
                    sources,
                    [ax.describe()],
                    f'IF {ax.sub} and "subproperty of" THEN {ax.sup}',
                ),
            )
        )
    return rules


def extract_symmetric(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for d in _sorted_props(model):
        if d.kind is not PropertyKind.SYMMETRIC or not _has_domain_and_range(d):
            continue
        for here, there in ((d.domain, d.range), (d.range, d.domain)):
            rules.append(
                make_rule(
                    Pattern.SYMMETRIC,
                    [IsA(VX, ClassRef(here))],
                    [Link(VX, PropRef(d.iri), ClassRef(there))],
                    _prov(sources, [d.describe()], f"IF {here} THEN ({d.iri} {there})"),
                )
            )
    return rules


def extract_transitive(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    # property -> subject -> that subject's links, sorted by object
    links: dict[Iri, dict[Iri, list[ClassLink]]] = {}
    for ax in sorted(model.axioms_of(ClassLink), key=lambda a: (a.prop, a.subject, a.obj)):
        if ax.subject != ax.obj:
            links.setdefault(ax.prop, {}).setdefault(ax.subject, []).append(ax)
    for d in _sorted_props(model):
        if d.kind is not PropertyKind.TRANSITIVE:
            continue
        p = PropRef(d.iri)
        rules.append(
            make_rule(
                Pattern.TRANSITIVE_PROPERTY,
                [Link(VX, p, VY), Link(VY, p, VZ)],
                [Link(VX, p, VZ)],
                _prov(
                    sources,
                    [d.describe()],
                    f'IF (?x "{d.iri}" ?y) and (?y "{d.iri}" ?z) THEN (?x "{d.iri}" ?z)',
                ),
            )
        )
        by_subject = links.get(d.iri, {})
        for first in (ax for mine in by_subject.values() for ax in mine):
            for second in by_subject.get(first.obj, ()):  # joined through the middle class
                if first.subject == second.obj:
                    continue
                a, b, c = first.subject, first.obj, second.obj
                rules.append(
                    make_rule(
                        Pattern.TRANSITIVE_PROPERTY,
                        [
                            Link(ClassRef(a), p, ClassRef(b)),
                            Link(ClassRef(b), p, ClassRef(c)),
                        ],
                        [Link(ClassRef(a), p, ClassRef(c))],
                        _prov(
                            sources,
                            [d.describe(), first.describe(), second.describe()],
                            f'IF ({a} "{d.iri}" {b}) and ({b} "{d.iri}" {c}) '
                            f'THEN ({a} "{d.iri}" {c})',
                        ),
                    )
                )
    return rules


def extract_sole_partof(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    subs = model.subs_by_super()
    for whole in sorted(subs):
        parts = subs[whole]
        if len(parts) != 1:
            continue
        part = parts[0]
        ax = SubClassOf(part, whole)
        rules.append(
            make_rule(
                Pattern.SOLE_PARTOF,
                [SolePart(ClassRef(part), ClassRef(whole))],
                [MorePartsExpected(ClassRef(whole))],
                _prov(
                    sources,
                    [ax.describe()],
                    f'IF {whole} and only one "part of" THEN (more "part of" ∈ {whole})',
                ),
            )
        )
    return rules


def extract_cooccurrence(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for d in _plain_object_props(model):
        rules.append(
            make_rule(
                Pattern.COOCCURRENCE,
                [IsA(VX, ClassRef(d.domain)), IsA(VY, ClassRef(d.range))],
                [Link(VX, PropRef(d.iri), VY)],
                _prov(sources, [d.describe()], f"IF {d.domain} and {d.range} THEN {d.iri}"),
            )
        )
    return rules


def extract_allvaluesfrom(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for ax in sorted(model.axioms_of(AllValuesFrom), key=lambda a: (a.on_property, a.filler)):
        rules.append(
            make_rule(
                Pattern.ALLVALUESFROM,
                [Not(IsA(VY, ClassRef(ax.filler)))],
                [Not(Link(VX, PropRef(ax.on_property), VY))],
                _prov(
                    sources,
                    [ax.describe()],
                    f"IF not {ax.filler} THEN not {ax.on_property}",
                ),
            )
        )
    return rules


def extract_intersection(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for ax in sorted(model.axioms_of(IntersectionOf), key=lambda a: (a.defined, a.parts)):
        rules.append(
            make_rule(
                Pattern.INTERSECTION,
                [IsA(VX, ClassRef(ax.defined))],
                [IsA(VX, ClassRef(p)) for p in ax.parts],  # listing order kept
                _prov(
                    sources,
                    [ax.describe()],
                    f"IF {ax.defined} THEN {' and '.join(str(p) for p in ax.parts)}",
                ),
            )
        )
    return rules


def extract_inverse(model: OntologyModel) -> list[Rule]:
    rules = []
    sources = _sources(model)
    for ax in _sorted_inverses(model):
        decl = model.property(ax.prop)
        if not _has_domain_and_range(decl):
            continue
        d, r = decl.domain, decl.range
        triggers = [ax.describe(), decl.describe()]
        rules.append(
            make_rule(
                Pattern.INVERSE,
                [IsA(VX, ClassRef(d))],
                [Link(VX, PropRef(ax.prop), ClassRef(r))],
                _prov(sources, triggers, f"IF {d} THEN ({ax.prop} {r})"),
            )
        )
        rules.append(
            make_rule(
                Pattern.INVERSE,
                [IsA(VX, ClassRef(r))],
                [Link(VX, PropRef(ax.inverse), ClassRef(d))],
                _prov(sources, triggers, f"IF {r} THEN ({ax.inverse} {d})"),
            )
        )
    return rules


_EXTRACTORS = {
    Pattern.CLASS_FEATURE: extract_class_feature,
    Pattern.EQUIVALENCE_INHERITANCE: extract_equivalence_inheritance,
    Pattern.DOMAIN_RANGE_IDENTIFICATION: extract_domain_range_identification,
    Pattern.SUBCLASS_TRANSITIVITY: extract_subclass_transitivity,
    Pattern.RELATION_PROPAGATION: extract_relation_propagation,
    Pattern.SUBPROPERTY_LIFT: extract_subproperty_lift,
    Pattern.SYMMETRIC: extract_symmetric,
    Pattern.TRANSITIVE_PROPERTY: extract_transitive,
    Pattern.SOLE_PARTOF: extract_sole_partof,
    Pattern.COOCCURRENCE: extract_cooccurrence,
    Pattern.ALLVALUESFROM: extract_allvaluesfrom,
    Pattern.INTERSECTION: extract_intersection,
    Pattern.INVERSE: extract_inverse,
}


def _guard_warnings(model: OntologyModel) -> list[str]:
    """The symmetric properties and inverse pairs skipped for a missing domain or range."""
    warnings = [
        f"symmetric property {d.iri} lacks a domain or range; no rules emitted"
        for d in _sorted_props(model)
        if d.kind is PropertyKind.SYMMETRIC and not _has_domain_and_range(d)
    ]
    warnings.extend(
        f"inverse pair ({ax.prop},{ax.inverse}) lacks a domain or range; no rules emitted"
        for ax in _sorted_inverses(model)
        if not _has_domain_and_range(model.property(ax.prop))
    )
    return warnings


def extract_all(model: OntologyModel) -> ExtractionReport:
    """Run every scanner; dedup by id (provenance merged), sort by id."""
    merged: dict[str, Rule] = {}
    for extract in _EXTRACTORS.values():
        for rule in extract(model):
            seen = merged.setdefault(rule.id, rule)
            if seen is not rule:
                old, new = seen.provenance, rule.provenance
                merged[rule.id] = replace(
                    seen,
                    provenance=Provenance(
                        sources=tuple(sorted({*old.sources, *new.sources})),
                        trigger_axioms=tuple(sorted({*old.trigger_axioms, *new.trigger_axioms})),
                        display_form=old.display_form,
                    ),
                )
    ordered = [merged[rid] for rid in sorted(merged)]
    counts = dict.fromkeys(_EXTRACTORS, 0)
    for rule in ordered:
        counts[rule.pattern] += 1
    return ExtractionReport(rules=ordered, counts=counts, warnings=_guard_warnings(model))
