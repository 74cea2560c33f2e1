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

Each scanner body is a generator that yields one rule, without building its
atoms: ``(shape, names, triggers, display form)``, where the shape is its
branch's, the names are what the shape's function takes, and the triggers are
the axioms and property declarations that license the rule.  The
``_scanner(pattern)`` decorator turns it into the public entry point
``extract_<shape>(model) -> list[Rule]``, which builds each rule and its
provenance, already sorted and distinct (the model's source names, the
triggers' ``describe()`` texts, made once per model, and the display form),
and registers it in ``_EXTRACTORS`` in definition order, which is ``Pattern``
order.  The model's index holds what several scanners read sorted: the
property declarations, the inverse pairs and the source names.
``extract_all`` runs them all, deduplicates by rule id (merging trigger
axioms), returns the rules in canonical id order, and warns of symmetric
properties and inverse pairs skipped for a missing domain or range.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import wraps
from types import SimpleNamespace

from .model import (
    AllValuesFrom,
    Axiom,
    ClassLink,
    EquivalentClass,
    IntersectionOf,
    OntologyModel,
    PropertyDecl,
    PropertyKind,
    SubClassOf,
    SubPropertyOf,
    _paused,
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
    Term,
    Var,
    _Shape,
)

VX = Var("?x")
VY = Var("?y")
VZ = Var("?z")

# (shape, names, triggers, display form) of one rule
_Yield = tuple[_Shape, tuple[str, ...], list[Axiom | PropertyDecl], str]
_Shapes = Callable[[OntologyModel], Iterator[_Yield]]
_Scanner = Callable[[OntologyModel], list[Rule]]


class ExtractionReport(SimpleNamespace):
    """What ``extract_all`` returns: ``rules`` in id order, ``counts`` (the
    rules per pattern) and ``warnings``."""


_EXTRACTORS: dict[Pattern, _Scanner] = {}


def _scanner(pattern: Pattern) -> Callable[[_Shapes], _Scanner]:
    """Make a shape generator the public scanner of ``pattern`` and register it."""

    def register(shapes: _Shapes) -> _Scanner:
        @wraps(shapes)
        def scan(model: OntologyModel) -> list[Rule]:
            sources, describe = model._index.sources, model._index.texts.__getitem__
            rules = []
            for shape, names, triggers, form in shapes(model):
                # sorted and distinct, as Provenance(...) keeps them
                texts = (
                    (describe(triggers[0]),)
                    if len(triggers) == 1
                    else tuple(sorted(set(map(describe, triggers))))
                )
                provenance = tuple.__new__(Provenance, (Provenance, sources, texts, form))
                rules.append(shape.rule(pattern, names, provenance))
            return rules

        _EXTRACTORS[pattern] = scan
        return scan

    return register


def _has_domain_and_range(decl: PropertyDecl | None) -> bool:
    return decl is not None and decl.domain is not None and decl.range is not None


def _plain_object_props(model: OntologyModel) -> list[PropertyDecl]:
    # Strictly OBJECT kind, with both ends: symmetric/transitive properties have
    # scanners of their own and must not double-fire the domain/range shapes.
    return [
        d
        for d in model._index.props
        if d.kind is PropertyKind.OBJECT and _has_domain_and_range(d)
    ]


# ---------------------------------------------------------------------------
# the shapes of the scanners' branches, each a function of the names at hand


def _isa(var: Var, cls: str) -> IsA:
    return IsA(var, ClassRef(cls))


def _link(subject: Term, prop: str, obj: Term) -> Link:
    return Link(subject, PropRef(prop), obj)


def _sub(sub: str, sup: str) -> SchemaSubClassOf:
    return SchemaSubClassOf(ClassRef(sub), ClassRef(sup))


_FEATURES = _Shape(lambda cls, *feats: ([_isa(VX, cls)], [HasFeature(VX, f) for f in feats]))
_LIFT = _Shape(
    lambda a, b, sup: ([SchemaEquivalent(ClassRef(a), ClassRef(b)), _sub(b, sup)], [_sub(a, sup)])
)
_IDENTIFY = _Shape(lambda p, r, d: ([_link(VX, p, VY), _isa(VY, r)], [_isa(VX, d)]))
_CHAIN = _Shape(lambda a, b, c: ([_sub(a, b), _sub(b, c)], [_sub(a, c)]))
_PROPAGATE = _Shape(
    lambda p, r, sup: ([_link(VX, p, VY), _isa(VY, r), _sub(r, sup)], [_link(VX, p, ClassRef(sup))])
)
_LIFT_LINK = _Shape(lambda sub, sup: ([_link(VX, sub, VY)], [_link(VX, sup, VY)]))
_LINK_TO_CLASS = _Shape(lambda cls, p, to: ([_isa(VX, cls)], [_link(VX, p, ClassRef(to))]))
_TRANSITIVE = _Shape(lambda p: ([_link(VX, p, VY), _link(VY, p, VZ)], [_link(VX, p, VZ)]))
_LINK_CHAIN = _Shape(
    lambda a, p, b, c: (
        [_link(ClassRef(a), p, ClassRef(b)), _link(ClassRef(b), p, ClassRef(c))],
        [_link(ClassRef(a), p, ClassRef(c))],
    )
)
_SOLE_PART = _Shape(
    lambda part, whole: (
        [SolePart(ClassRef(part), ClassRef(whole))],
        [MorePartsExpected(ClassRef(whole))],
    )
)
_COOCCUR = _Shape(lambda d, r, p: ([_isa(VX, d), _isa(VY, r)], [_link(VX, p, VY)]))
_ONLY = _Shape(lambda filler, p: ([Not(_isa(VY, filler))], [Not(_link(VX, p, VY))]))
_PARTS = _Shape(lambda defined, *parts: ([_isa(VX, defined)], [_isa(VX, c) for c in parts]))


# ---------------------------------------------------------------------------
# the thirteen single-pattern entry points


@_scanner(Pattern.CLASS_FEATURE)
def extract_class_feature(model: OntologyModel) -> Iterator[_Yield]:
    by_domain: dict[str, list[PropertyDecl]] = {}
    for d in model._index.props:
        if d.kind is PropertyKind.DATATYPE and d.domain is not None:
            by_domain.setdefault(d.domain, []).append(d)
    for cls in sorted(by_domain):
        feats = by_domain[cls]  # already iri-sorted
        yield (
            _FEATURES,
            (cls, *(d.iri for d in feats)),
            feats,
            f"IF {cls} THEN {' and '.join(d.iri for d in feats)}",
        )


@_scanner(Pattern.EQUIVALENCE_INHERITANCE)
def extract_equivalence_inheritance(model: OntologyModel) -> Iterator[_Yield]:
    for ax in sorted(model.axioms_of(EquivalentClass)):
        for lifted, declared in ((ax.a, ax.b), (ax.b, ax.a)):
            for sup, up in model._index.sups.get(declared, ()):
                if sup == lifted:
                    continue
                yield (
                    _LIFT,
                    (lifted, declared, sup),
                    [ax, up],
                    f'IF {declared} equivalent {lifted} THEN ("part of" {sup}) ∈ {lifted}',
                )


@_scanner(Pattern.DOMAIN_RANGE_IDENTIFICATION)
def extract_domain_range_identification(model: OntologyModel) -> Iterator[_Yield]:
    for d in _plain_object_props(model):
        yield (
            _IDENTIFY,
            (d.iri, d.range, d.domain),
            [d],
            f"IF ({d.iri} {d.range}) THEN {d.domain}",
        )


@_scanner(Pattern.SUBCLASS_TRANSITIVITY)
def extract_subclass_transitivity(model: OntologyModel) -> Iterator[_Yield]:
    for first in sorted(model.axioms_of(SubClassOf)):
        a, b = first.sub, first.sup
        for c, second in model._index.sups.get(b, ()):  # joined through the middle class
            if c == a:
                continue
            yield (
                _CHAIN,
                (a, b, c),
                [first, second],
                f'IF ({a} "part of" {b}) and ({b} "part of" {c}) THEN ({a} "part of" {c})',
            )


@_scanner(Pattern.RELATION_PROPAGATION)
def extract_relation_propagation(model: OntologyModel) -> Iterator[_Yield]:
    for d in _plain_object_props(model):
        for sup, up in model._index.sups.get(d.range, ()):
            yield (
                _PROPAGATE,
                (d.iri, d.range, sup),
                [d, up],
                f'IF ({d.domain} "{d.iri}" {d.range}) and '
                f'({d.range} "part of" {sup}) THEN ({d.domain} "{d.iri}" {sup})',
            )


@_scanner(Pattern.SUBPROPERTY_LIFT)
def extract_subproperty_lift(model: OntologyModel) -> Iterator[_Yield]:
    for ax in sorted(model.axioms_of(SubPropertyOf)):
        yield (
            _LIFT_LINK,
            (ax.sub, ax.sup),
            [ax],
            f'IF {ax.sub} and "subproperty of" THEN {ax.sup}',
        )


@_scanner(Pattern.SYMMETRIC)
def extract_symmetric(model: OntologyModel) -> Iterator[_Yield]:
    for d in model._index.props:
        if d.kind is not PropertyKind.SYMMETRIC or not _has_domain_and_range(d):
            continue
        for here, there in ((d.domain, d.range), (d.range, d.domain)):
            yield (
                _LINK_TO_CLASS,
                (here, d.iri, there),
                [d],
                f"IF {here} THEN ({d.iri} {there})",
            )


@_scanner(Pattern.TRANSITIVE_PROPERTY)
def extract_transitive(model: OntologyModel) -> Iterator[_Yield]:
    # property -> subject -> that subject's links, sorted by object
    links: dict[str, dict[str, list[ClassLink]]] = {}
    for ax in sorted(model.axioms_of(ClassLink)):
        if ax.subject != ax.obj:
            links.setdefault(ax.prop, {}).setdefault(ax.subject, []).append(ax)
    for d in model._index.props:
        if d.kind is not PropertyKind.TRANSITIVE:
            continue
        yield (
            _TRANSITIVE,
            (d.iri,),
            [d],
            f'IF (?x "{d.iri}" ?y) and (?y "{d.iri}" ?z) THEN (?x "{d.iri}" ?z)',
        )
        by_subject = links.get(d.iri, {})
        for first in (ax for mine in by_subject.values() for ax in mine):
            for second in by_subject.get(first.obj, ()):  # joined through the middle class
                if first.subject == second.obj:
                    continue
                a, b, c = first.subject, first.obj, second.obj
                yield (
                    _LINK_CHAIN,
                    (a, d.iri, b, c),
                    [d, first, second],
                    f'IF ({a} "{d.iri}" {b}) and ({b} "{d.iri}" {c}) THEN ({a} "{d.iri}" {c})',
                )


@_scanner(Pattern.SOLE_PARTOF)
def extract_sole_partof(model: OntologyModel) -> Iterator[_Yield]:
    subs = model._index.subs
    for whole in sorted(subs):
        parts = subs[whole]
        if len(parts) != 1:
            continue
        part, ax = parts[0]
        yield (
            _SOLE_PART,
            (part, whole),
            [ax],
            f'IF {whole} and only one "part of" THEN (more "part of" ∈ {whole})',
        )


@_scanner(Pattern.COOCCURRENCE)
def extract_cooccurrence(model: OntologyModel) -> Iterator[_Yield]:
    for d in _plain_object_props(model):
        yield (
            _COOCCUR,
            (d.domain, d.range, d.iri),
            [d],
            f"IF {d.domain} and {d.range} THEN {d.iri}",
        )


@_scanner(Pattern.ALLVALUESFROM)
def extract_allvaluesfrom(model: OntologyModel) -> Iterator[_Yield]:
    for ax in sorted(model.axioms_of(AllValuesFrom)):
        yield (
            _ONLY,
            (ax.filler, ax.on_property),
            [ax],
            f"IF not {ax.filler} THEN not {ax.on_property}",
        )


@_scanner(Pattern.INTERSECTION)
def extract_intersection(model: OntologyModel) -> Iterator[_Yield]:
    for ax in sorted(model.axioms_of(IntersectionOf)):
        yield (
            _PARTS,
            (ax.defined, *ax.parts),  # listing order kept
            [ax],
            f"IF {ax.defined} THEN {' and '.join(ax.parts)}",
        )


@_scanner(Pattern.INVERSE)
def extract_inverse(model: OntologyModel) -> Iterator[_Yield]:
    for ax in model._index.inverses:
        decl = model.property(ax.prop)
        if not _has_domain_and_range(decl):
            continue
        d, r = decl.domain, decl.range
        triggers = [ax, decl]
        yield _LINK_TO_CLASS, (d, ax.prop, r), triggers, f"IF {d} THEN ({ax.prop} {r})"
        yield (
            _LINK_TO_CLASS,
            (r, ax.inverse, d),
            triggers,
            f"IF {r} THEN ({ax.inverse} {d})",
        )


def _guard_warnings(model: OntologyModel) -> list[str]:
    """The symmetric properties and inverse pairs skipped for a missing domain or range."""
    warnings = [
        f"symmetric property {d.iri} lacks a domain or range; no rules emitted"
        for d in model._index.props
        if d.kind is PropertyKind.SYMMETRIC and not _has_domain_and_range(d)
    ]
    warnings.extend(
        f"inverse pair ({ax.prop},{ax.inverse}) lacks a domain or range; no rules emitted"
        for ax in model._index.inverses
        if not _has_domain_and_range(model.property(ax.prop))
    )
    return warnings


@_paused
def extract_all(model: OntologyModel) -> ExtractionReport:
    """Run every scanner; dedup by id (trigger axioms merged), sort by id."""
    merged: dict[str, Rule] = {}
    for extract in _EXTRACTORS.values():
        for rule in extract(model):
            seen = merged.setdefault(rule.id, rule)
            if seen is not rule:
                # Every rule of one model carries the same sources.
                old = seen.provenance
                triggers = old.trigger_axioms + rule.provenance.trigger_axioms
                provenance = Provenance(old.sources, triggers, old.display_form)
                merged[rule.id] = seen._with_provenance(provenance)
    ordered = [merged[rid] for rid in sorted(merged)]
    counts = dict.fromkeys(_EXTRACTORS, 0)
    for rule in ordered:
        counts[rule.pattern] += 1
    return ExtractionReport(rules=ordered, counts=counts, warnings=_guard_warnings(model))
