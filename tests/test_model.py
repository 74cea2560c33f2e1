from __future__ import annotations

import logging
import pickle
import random
import sys

import pytest

from owlrules import (
    AllValuesFrom,
    ClassLink,
    EquivalentClass,
    IntersectionOf,
    Iri,
    MergeConflictError,
    ModelBuilder,
    PropertyDecl,
    PropertyKind,
    SubClassOf,
    add_axiom,
    iri,
    merge,
)


def test_iri_normalization_strips_hash_and_whitespace():
    assert iri("#Car") == Iri("Car")
    assert iri("# Car") == Iri("Car")
    assert iri("  Vehicle  ") == Iri("Vehicle")
    assert iri("##x") == Iri("x")


def test_iri_normalization_is_idempotent():
    for raw in ("#Car", "# Car", "plain", "  pad  ", "##deep"):
        once = iri(raw)
        assert iri(str(once)) == once


@pytest.mark.parametrize("bad", ["", "   ", "a b", "tab\tname"])
def test_iri_rejects_empty_and_whitespace(bad):
    with pytest.raises(ValueError):
        Iri(bad)


def test_iris_order_lexicographically():
    assert sorted([Iri("b"), Iri("a"), Iri("c")]) == [Iri("a"), Iri("b"), Iri("c")]


def test_every_whitespace_code_point_is_rejected_inside_a_name():
    whitespace = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
    assert len(whitespace) == 29  # Unicode White_Space plus the four C0 separators
    for ch in whitespace:
        for text in (f"a{ch}b", ch, f"{ch}a", f"a{ch}"):
            with pytest.raises(ValueError) as exc:
                Iri(text)
            assert str(exc.value) == f"IRI contains whitespace: {text!r}"
    with pytest.raises(ValueError) as exc:
        Iri("")
    assert str(exc.value) == "IRI must be non-empty"


@pytest.mark.parametrize("ch", ["\u200b", "\u180e", "\u2060", "\ufeff", "\u00ad"])
def test_invisible_characters_that_are_not_whitespace_are_accepted(ch):
    name = Iri(f"a{ch}b")
    assert name.value == f"a{ch}b"
    assert Iri(ch) == ch


def test_an_iri_sorts_hashes_and_compares_as_its_text():
    rng = random.Random(5)
    texts = [
        "".join(rng.choice("aAbB\u00e9\u4e2d_#0") for _ in range(rng.randint(1, 4)))
        for _ in range(200)
    ]
    names = [Iri(t) for t in texts]
    assert sorted(names) == sorted(texts)
    assert all(type(n) is Iri for n in sorted(names))
    assert all(hash(n) == hash(t) and n == t for n, t in zip(names, texts))
    assert len(set(names) | set(texts)) == len(set(texts))


def test_an_iri_keeps_its_text_forms():
    car = Iri("Car")
    assert repr(car) == "Iri(value='Car')"
    assert repr(Iri("it's")) == 'Iri(value="it\'s")'
    assert type(car.value) is str and car.value == "Car"
    assert type(str(car)) is str and str(car) == "Car"
    assert f"<{car}>" == "<Car>"
    assert Iri(value="Car") == car
    copy = pickle.loads(pickle.dumps(car))
    assert type(copy) is Iri and copy == car


def test_an_iri_cannot_take_attributes():
    car = Iri("Car")
    with pytest.raises(AttributeError):
        car.value = "Bus"
    with pytest.raises(AttributeError):
        car.note = "x"
    assert not hasattr(car, "__dict__")


def test_equivalent_class_is_canonicalized():
    assert EquivalentClass(Iri("Car"), Iri("Auto")) == EquivalentClass(Iri("Auto"), Iri("Car"))
    assert EquivalentClass(Iri("Car"), Iri("Auto")).a == Iri("Auto")


def test_equivalent_class_rejects_self_equivalence():
    with pytest.raises(ValueError):
        EquivalentClass(Iri("Car"), Iri("Car"))


def test_intersection_needs_two_distinct_parts():
    with pytest.raises(ValueError):
        IntersectionOf(Iri("Man"), (Iri("Male"),))
    with pytest.raises(ValueError):
        IntersectionOf(Iri("Man"), (Iri("Man"), Iri("Male")))
    ax = IntersectionOf(Iri("Man"), (Iri("Male"), Iri("Human")))
    assert ax.parts == (Iri("Male"), Iri("Human"))


def test_class_link_allows_self_reference():
    ax = ClassLink(Iri("Node"), Iri("connectedTo"), Iri("Node"))
    assert ax.subject == ax.obj


def test_describe_strings_name_the_participants():
    assert SubClassOf(Iri("House"), Iri("City")).describe() == "SubClassOf(House,City)"
    decl = PropertyDecl(Iri("Wheel"), PropertyKind.DATATYPE, Iri("Car"), Iri("xs:string"))
    assert decl.describe() == "DatatypeProperty(Wheel,domain=Car,range=xs:string)"


# ---------------------------------------------------------------------------
# builder behavior


def test_add_axiom_is_idempotent():
    b = ModelBuilder()
    b.add_axiom(SubClassOf(Iri("House"), Iri("City")))
    b.add_axiom(SubClassOf(Iri("House"), Iri("City")))
    assert len(b.build().axioms) == 1


def test_equivalence_insert_collapses_both_orientations():
    b = ModelBuilder()
    b.add_axiom(EquivalentClass(Iri("Car"), Iri("Auto")))
    b.add_axiom(EquivalentClass(Iri("Auto"), Iri("Car")))
    assert len(b.build().axioms) == 1


def test_class_link_implicitly_declares_every_name():
    b = ModelBuilder()
    b.add_axiom(ClassLink(Iri("Latgale"), Iri("subAreaOf"), Iri("Latvia")))
    model = b.build()
    assert model.has_class(Iri("Latgale"))
    assert model.has_class(Iri("Latvia"))
    prop = model.property(Iri("subAreaOf"))
    assert prop is not None and prop.implicit


def test_datatype_range_never_becomes_a_class():
    b = ModelBuilder()
    b.declare_property(PropertyDecl(Iri("Wheel"), PropertyKind.DATATYPE, Iri("Car"), Iri("xs:string")))
    model = b.build()
    assert model.has_class(Iri("Car"))
    assert not model.has_class(Iri("xs:string"))


def test_explicit_declaration_wins_over_implicit():
    b = ModelBuilder()
    b.add_axiom(ClassLink(Iri("A"), Iri("p"), Iri("B")))
    b.declare_property(PropertyDecl(Iri("p"), PropertyKind.TRANSITIVE))
    model = b.build()
    assert model.property(Iri("p")).kind is PropertyKind.TRANSITIVE


def test_add_axiom_function_leaves_input_untouched():
    b = ModelBuilder()
    b.add_axiom(SubClassOf(Iri("A"), Iri("B")))
    before = b.build()
    after = add_axiom(before, SubClassOf(Iri("B"), Iri("C")))
    assert len(before.axioms) == 1
    assert len(after.axioms) == 2


# ---------------------------------------------------------------------------
# structural equality


def _chain_model(*, sources=(), flip=False):
    b = ModelBuilder()
    edges = [SubClassOf(Iri("House"), Iri("City")), SubClassOf(Iri("City"), Iri("Country"))]
    if flip:
        edges.reverse()
    for e in edges:
        b.add_axiom(e)
    for s in sources:
        b.add_source(s)
    return b.build()


def test_equality_ignores_sources_and_axiom_order():
    assert _chain_model(sources=("a.owl",)) == _chain_model(sources=("b.owl",), flip=True)


def test_equality_detects_differing_axioms():
    b = ModelBuilder()
    b.add_axiom(SubClassOf(Iri("House"), Iri("City")))
    assert b.build() != _chain_model()


def test_models_are_unhashable():
    with pytest.raises(TypeError):
        hash(_chain_model())


# ---------------------------------------------------------------------------
# the per-model axiom index


def test_lists_returned_by_the_index_are_the_callers_own():
    model = _chain_model()
    model.axioms_of(SubClassOf).clear()
    model.superclasses_of(Iri("House")).append(Iri("Planet"))
    model.subs_by_super()[Iri("City")].clear()
    assert model.axioms_of(SubClassOf) == [
        SubClassOf(Iri("House"), Iri("City")),
        SubClassOf(Iri("City"), Iri("Country")),
    ]
    assert model.superclasses_of(Iri("House")) == [Iri("City")]
    assert model.subs_by_super() == {Iri("City"): [Iri("House")], Iri("Country"): [Iri("City")]}
    assert model == _chain_model()


def test_add_axiom_indexes_the_new_model_only():
    before = _chain_model()
    assert before.superclasses_of(Iri("House")) == [Iri("City")]  # index built
    after = add_axiom(before, SubClassOf(Iri("House"), Iri("Building")))
    assert after.superclasses_of(Iri("House")) == [Iri("Building"), Iri("City")]
    assert before.superclasses_of(Iri("House")) == [Iri("City")]
    assert after.has_class(Iri("Building")) and not before.has_class(Iri("Building"))


def test_building_the_index_leaves_equality_alone():
    indexed, fresh, other = _chain_model(), _chain_model(flip=True), _chain_model()
    indexed.superclasses_of(Iri("House"))
    indexed.has_class(Iri("City"))
    assert indexed == fresh and fresh == indexed
    other.axioms_of(SubClassOf)
    assert indexed == other
    grown = add_axiom(indexed, SubClassOf(Iri("House"), Iri("Building")))
    grown.axioms_of(SubClassOf)
    assert grown != indexed and indexed != grown


# ---------------------------------------------------------------------------
# merge


def test_merge_with_empty_model_is_identity():
    a = _chain_model(sources=("a.owl",))
    empty = ModelBuilder().build()
    assert merge([a, empty]) == a


def test_merge_unions_class_declarations():
    b1 = ModelBuilder()
    b1.declare_class(Iri("Car"))
    b2 = ModelBuilder()
    b2.declare_class(Iri("Car"))
    merged = merge([b1.build(), b2.build()])
    assert merged.class_iris() == frozenset({Iri("Car")})


def test_merge_of_two_subclass_files_counts_axioms_and_classes():
    b1 = ModelBuilder()
    b1.add_axiom(SubClassOf(Iri("House"), Iri("City")))
    b2 = ModelBuilder()
    b2.add_axiom(SubClassOf(Iri("City"), Iri("Country")))
    merged = merge([b1.build(), b2.build()])
    assert len(merged.axioms) == 2
    assert len(merged.class_iris()) == 3


def test_merge_concatenates_source_names():
    b1 = ModelBuilder()
    b1.add_source("a.owl")
    b2 = ModelBuilder()
    b2.add_source("b.owl")
    assert merge([b1.build(), b2.build()]).source_names == ("a.owl", "b.owl")


def test_merge_rejects_conflicting_property_kinds():
    b1 = ModelBuilder()
    b1.declare_property(PropertyDecl(Iri("p"), PropertyKind.DATATYPE))
    b2 = ModelBuilder()
    b2.declare_property(PropertyDecl(Iri("p"), PropertyKind.SYMMETRIC))
    with pytest.raises(MergeConflictError) as exc:
        merge([b1.build(), b2.build()])
    message = str(exc.value)
    assert "p" in message and "datatype" in message and "symmetric" in message


def test_merge_kind_conflict_ignores_implicit_declarations():
    b1 = ModelBuilder()
    b1.add_axiom(ClassLink(Iri("A"), Iri("p"), Iri("B")))  # implicit object kind
    b2 = ModelBuilder()
    b2.declare_property(PropertyDecl(Iri("p"), PropertyKind.TRANSITIVE))
    merged = merge([b1.build(), b2.build()])
    assert merged.property(Iri("p")).kind is PropertyKind.TRANSITIVE


def test_merge_domain_conflict_takes_lexicographic_min_and_warns(caplog):
    b1 = ModelBuilder()
    b1.declare_property(PropertyDecl(Iri("p"), PropertyKind.OBJECT, domain=Iri("Zebra")))
    b2 = ModelBuilder()
    b2.declare_property(PropertyDecl(Iri("p"), PropertyKind.OBJECT, domain=Iri("Ant")))
    with caplog.at_level(logging.WARNING):
        merged = merge([b1.build(), b2.build()])
    assert merged.property(Iri("p")).domain == Iri("Ant")
    assert any("p" in r.message for r in caplog.records)


def test_merge_is_commutative_and_associative():
    b1 = ModelBuilder()
    b1.add_axiom(SubClassOf(Iri("A"), Iri("B")))
    b2 = ModelBuilder()
    b2.add_axiom(SubClassOf(Iri("B"), Iri("C")))
    b3 = ModelBuilder()
    b3.add_axiom(AllValuesFrom(Iri("p"), Iri("F")))
    m1, m2, m3 = b1.build(), b2.build(), b3.build()
    assert merge([m1, m2]) == merge([m2, m1])
    assert merge([merge([m1, m2]), m3]) == merge([m1, merge([m2, m3])])


def test_merge_requires_at_least_one_model():
    with pytest.raises(ValueError):
        merge([])
