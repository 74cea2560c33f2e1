"""The value types: terms, atoms, rules, facts, axioms and diagnostics.

Each is an immutable, hashable value: equal to a value of its own kind built
from equal fields, unequal to every value of another kind, and printed as
``Kind(field=value, ...)``, which error messages show.
"""

from __future__ import annotations

import pickle

import pytest

from owlrules import (
    AllValuesFrom,
    ClassLink,
    ContradictionError,
    EquivalentClass,
    ExtractionReport,
    FactBase,
    FeatureExpected,
    InferenceResult,
    IntersectionOf,
    InverseOf,
    Iri,
    LinkFact,
    Membership,
    NegMembership,
    OntologyModel,
    Pattern,
    PropertyDecl,
    PropertyKind,
    Rule,
    SubClassOf,
    SubPropertyOf,
)
from owlrules.model import Value
from owlrules.parser import Location, ParseDiagnostic, Severity
from owlrules.rules import (
    ClassRef,
    HasFeature,
    IndividualRef,
    IsA,
    Link,
    LiteralTok,
    MorePartsExpected,
    Not,
    PropRef,
    Provenance,
    SchemaEquivalent,
    SchemaSubClassOf,
    SolePart,
    Var,
)

A, B, P = Iri("A"), Iri("B"), Iri("p")
VX, VY = Var("?x"), Var("?y")
CA, CB = ClassRef(A), ClassRef(B)

# Each value type, built once, with the repr that error messages show.
REPRS = [
    (Var("?x"), "Var(name='?x')"),
    (CA, "ClassRef(iri='A')"),
    (PropRef(P), "PropRef(iri='p')"),
    (IndividualRef(Iri("ann")), "IndividualRef(iri='ann')"),
    (LiteralTok("it's"), 'LiteralTok(text="it\'s")'),
    (
        IsA(subject=VX, cls=CA),
        "IsA(subject=Var(name='?x'), cls=ClassRef(iri='A'))",
    ),
    (
        Link(VX, PropRef(P), VY),
        "Link(subject=Var(name='?x'), prop=PropRef(iri='p'), obj=Var(name='?y'))",
    ),
    (HasFeature(VX, Iri("f")), "HasFeature(subject=Var(name='?x'), feature='f')"),
    (
        Not(IsA(VY, CB)),
        "Not(inner=IsA(subject=Var(name='?y'), cls=ClassRef(iri='B')))",
    ),
    (
        SchemaSubClassOf(CA, CB),
        "SchemaSubClassOf(sub=ClassRef(iri='A'), sup=ClassRef(iri='B'))",
    ),
    (
        SchemaEquivalent(CA, CB),
        "SchemaEquivalent(a=ClassRef(iri='A'), b=ClassRef(iri='B'))",
    ),
    (
        SolePart(CA, CB),
        "SolePart(part=ClassRef(iri='A'), whole=ClassRef(iri='B'))",
    ),
    (MorePartsExpected(CB), "MorePartsExpected(whole=ClassRef(iri='B'))"),
    (
        Provenance(("a.owl",), ("SubClassOf(A,B)",), "IF A THEN B"),
        "Provenance(sources=('a.owl',), trigger_axioms=('SubClassOf(A,B)',), "
        "display_form='IF A THEN B')",
    ),
    (
        Rule("x-1", (IsA(VX, CA),), (IsA(VX, CB),), Pattern.INTERSECTION, Provenance()),
        "Rule(id='x-1', antecedent=(IsA(subject=Var(name='?x'), "
        "cls=ClassRef(iri='A')),), consequent=(IsA(subject=Var(name='?x'), "
        "cls=ClassRef(iri='B')),), pattern=<Pattern.INTERSECTION: "
        "'intersection'>, provenance=Provenance(sources=(), trigger_axioms=(), "
        "display_form=''))",
    ),
    (
        PropertyDecl(P, PropertyKind.DATATYPE, range=Iri("xs:int")),
        "PropertyDecl(iri='p', kind=<PropertyKind.DATATYPE: 'datatype'>, "
        "domain=None, range='xs:int')",
    ),
    (SubClassOf(A, B), "SubClassOf(sub='A', sup='B')"),
    (EquivalentClass(B, A), "EquivalentClass(a='A', b='B')"),
    (SubPropertyOf(P, Iri("q")), "SubPropertyOf(sub='p', sup='q')"),
    (InverseOf(P, Iri("q")), "InverseOf(prop='p', inverse='q')"),
    (AllValuesFrom(P, B), "AllValuesFrom(on_property='p', filler='B')"),
    (
        IntersectionOf(Iri("C"), [A, B]),
        "IntersectionOf(defined='C', parts=('A', 'B'))",
    ),
    (
        ClassLink(A, P, B),
        "ClassLink(subject='A', prop='p', obj='B')",
    ),
    (
        Membership(individual=Iri("ann"), cls=A),
        "Membership(individual='ann', cls='A')",
    ),
    (
        NegMembership(individual=Iri("ann"), cls=A),
        "NegMembership(individual='ann', cls='A')",
    ),
    (
        LinkFact(Iri("ann"), P, B, True),
        "LinkFact(subject='ann', prop='p', obj='B', "
        "obj_is_class=True)",
    ),
    (
        FeatureExpected(Iri("ann"), Iri("f")),
        "FeatureExpected(individual='ann', feature='f')",
    ),
    (Location(3, 7), "Location(line=3, col=7)"),
    (
        ParseDiagnostic(Severity.WARNING, "skipped", Location(3, 7)),
        "ParseDiagnostic(severity=<Severity.WARNING: 'warning'>, message='skipped', "
        "location=Location(line=3, col=7))",
    ),
]
VALUES = [value for value, _ in REPRS]


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v in VALUES])
def test_a_value_prints_its_kind_and_fields(value, text):
    assert repr(value) == text


def test_the_records_print_their_kind_and_fields():
    model = OntologyModel(
        (A,), {P: PropertyDecl(P, PropertyKind.OBJECT)}, (SubClassOf(A, B),), ("a.owl",), ("n",)
    )
    assert repr(model) == (
        "OntologyModel(classes=('A',), properties={'p': "
        "PropertyDecl(iri='p', kind=<PropertyKind.OBJECT: 'object'>, "
        "domain=None, range=None)}, axioms=(SubClassOf(sub='A', "
        "sup='B'),), source_names=('a.owl',), notes=('n',))"
    )
    report = ExtractionReport([], {Pattern.SYMMETRIC: 0}, ["w"])
    assert repr(report) == (
        "ExtractionReport(rules=[], counts={<Pattern.SYMMETRIC: 'symmetric'>: 0}, warnings=['w'])"
    )
    base = FactBase()
    result = InferenceResult(base, 1, [], [], True, [], [])
    assert repr(result) == (
        f"InferenceResult(final={base!r}, iterations=1, derived=[], violations=[], "
        "converged=True, derived_text=[], violation_text=[])"
    )


def test_kinds_built_from_equal_fields_stay_apart():
    a, x, y, q = Iri("a"), Iri("X"), Iri("Y"), Iri("q")
    cx = ClassRef(x)
    groups = [
        [Membership(a, x), NegMembership(a, x), FeatureExpected(a, x)],
        [LinkFact(a, q, y), ClassLink(a, q, y)],
        [ClassRef(y), PropRef(y), IndividualRef(y), LiteralTok("Y")],
        [IsA(VX, cx), SchemaSubClassOf(VX, cx), SchemaEquivalent(VX, cx), SolePart(VX, cx)],
        [MorePartsExpected(cx), Not(IsA(VX, cx)), HasFeature(VX, x)],
        [SubClassOf(x, y), SubPropertyOf(x, y), InverseOf(x, y), AllValuesFrom(x, y)],
        [EquivalentClass(x, y)],
    ]
    every = [value for group in groups for value in group] + VALUES
    for i, one in enumerate(every):
        for other in every[i + 1 :]:
            assert one != other and not one == other, (one, other)
    as_keys = {value: i for i, value in enumerate(every)}
    assert len(set(every)) == len(every) == len(as_keys)
    for i, value in enumerate(every):
        assert as_keys[value] == i
        twin = pickle.loads(pickle.dumps(value))  # an equal value, built anew
        assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)
        assert not twin != value


def test_a_negated_membership_is_not_mistaken_for_the_membership():
    a = Iri("a")
    base = FactBase([Membership(a, A), FeatureExpected(a, A)])
    assert NegMembership(a, A) not in base and Membership(a, A) in base
    with pytest.raises(ContradictionError):
        base.add(NegMembership(a, A))  # not dropped as a duplicate
    assert len(base) == 2


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_a_value_takes_no_assignment_and_has_no_instance_dict(value):
    assert not hasattr(value, "__dict__")
    for name in (*value.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_a_value_rebuilds_equal_from_its_fields_by_position_and_by_name(value):
    kind = value[0]
    fields = tuple(getattr(value, name) for name in kind.__match_args__)
    # A rule's tuple holds its shape and names where its atom fields were.
    assert (value[1:] == fields) is (kind is not Rule)
    assert kind(*fields) == value
    assert kind(**dict(zip(kind.__match_args__, fields))) == value


# The kinds whose last field has a default, so that one argument short is valid.
DEFAULTED = (LinkFact, PropertyDecl, Provenance)
REQUIRED = [value for value in VALUES if value[0] not in DEFAULTED]


@pytest.mark.parametrize("value", REQUIRED, ids=[type(v).__name__ for v in REQUIRED])
def test_a_value_one_argument_short_names_its_constructor_and_the_missing_field(value):
    kind = value[0]
    message = (
        f"{kind.__name__}.__new__() missing 1 required positional argument: "
        f"'{kind.__match_args__[-1]}'"
    )
    fields = [getattr(value, name) for name in kind.__match_args__]
    with pytest.raises(TypeError) as caught:
        kind(*fields[:-1])
    assert str(caught.value) == message


def test_every_value_type_declares_its_own_slots_and_has_a_value_above():
    def walk(cls: type) -> list[type]:
        return [kind for sub in cls.__subclasses__() for kind in (sub, *walk(sub))]

    kinds = walk(Value)
    # One value of each kind, each checked for an instance dict above.
    assert len(kinds) == len(set(kinds)) == len(VALUES)
    assert set(kinds) == {type(value) for value in VALUES}
    for kind in kinds:
        # Without its own empty __slots__, every instance would carry a dict.
        assert "__slots__" in vars(kind), kind


def test_a_model_takes_no_assignment():
    model = OntologyModel()
    with pytest.raises(AttributeError):
        model.classes = (A,)
    assert model.classes == () and model.properties == {}
