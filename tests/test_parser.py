from __future__ import annotations

import pytest
from conftest import FRAGMENTS, load_model, load_with_diagnostics, nested_subclass_chain

from owlrules import (
    AllValuesFrom,
    ClassLink,
    ContradictionError,
    EquivalentClass,
    FactBase,
    IntersectionOf,
    InverseOf,
    Iri,
    LinkFact,
    Location,
    Membership,
    ModelBuilder,
    NegMembership,
    PropertyDecl,
    PropertyKind,
    Severity,
    SubClassOf,
    SubPropertyOf,
    format_diagnostic,
    format_fact,
    has_errors,
    parse_fact_base,
    parse_ontology,
    render_fact_base,
    render_rdfxml,
)


def test_car_listing_yields_class_and_two_datatype_properties():
    model = load_model("class_feature.owl")
    assert model.has_class(Iri("Car"))
    for name in ("Wheel", "Engine"):
        decl = model.property(Iri(name))
        assert decl is not None
        assert decl.kind is PropertyKind.DATATYPE
        assert decl.domain == Iri("Car")
        assert decl.range == Iri("xs:string")


def test_empty_root_is_empty_model_with_no_diagnostics():
    model, diags = load_with_diagnostics("empty.owl")
    assert diags == []
    assert model.classes == ()
    assert model.axioms == ()


@pytest.mark.parametrize(
    "group",
    [name for name, variants in FRAGMENTS.items() if len(variants) > 1],
)
def test_listing_variants_parse_to_equal_models(group):
    variants = FRAGMENTS[group]
    first = load_model(variants[0])
    for other in variants[1:]:
        assert load_model(other) == first, f"{other} differs from {variants[0]}"


def test_subclass_chain_axioms():
    model = load_model("subclass_chain_resource.owl")
    assert set(model.axioms_of(SubClassOf)) == {
        SubClassOf(Iri("House"), Iri("City")),
        SubClassOf(Iri("City"), Iri("Country")),
    }


def test_transitive_listing_parses_links_and_property():
    for name in ("transitive_nested.owl", "transitive_resource.owl"):
        model = load_model(name)
        for cls in ("Latgale", "Latvia", "EU"):
            assert model.has_class(Iri(cls)), f"{name} missing {cls}"
        assert model.property(Iri("subAreaOf")).kind is PropertyKind.TRANSITIVE
        assert set(model.axioms_of(ClassLink)) == {
            ClassLink(Iri("Latgale"), Iri("subAreaOf"), Iri("Latvia")),
            ClassLink(Iri("Latvia"), Iri("subAreaOf"), Iri("EU")),
        }


def test_sameas_reference_with_stray_space_normalizes():
    model = load_model("equivalence_sameas.owl")
    assert model.axioms_of(EquivalentClass) == [EquivalentClass(Iri("Auto"), Iri("Car"))]


def test_intersection_listing_keeps_part_order():
    model = load_model("intersection.owl")
    assert model.axioms_of(IntersectionOf) == [
        IntersectionOf(Iri("Man"), (Iri("Male"), Iri("Human")))
    ]


def test_bare_restriction_becomes_model_level_axiom():
    model = load_model("allvaluesfrom.owl")
    assert model.axioms_of(AllValuesFrom) == [AllValuesFrom(Iri("hasPass"), Iri("Citizen"))]


def test_restriction_under_subclassof_also_recognized():
    text = """
<owl:Class rdf:ID="Person">
<rdfs:subClassOf>
<owl:Restriction>
<owl:onProperty rdf:resource="#hasPass"/>
<owl:allValuesFrom rdf:resource="#Citizen"/>
</owl:Restriction>
</rdfs:subClassOf>
</owl:Class>
"""
    model, diags = parse_ontology(text, "inline")
    assert not has_errors(diags)
    assert model.axioms_of(AllValuesFrom) == [AllValuesFrom(Iri("hasPass"), Iri("Citizen"))]


def test_inverse_listing_parses_pair_and_domain_range():
    model = load_model("inverse.owl")
    assert model.axioms_of(InverseOf) == [InverseOf(Iri("owns"), Iri("is_owned_by"))]
    decl = model.property(Iri("owns"))
    assert decl.domain == Iri("Human") and decl.range == Iri("Plane")


def test_subproperty_listing():
    model = load_model("subproperty.owl")
    assert model.axioms_of(SubPropertyOf) == [SubPropertyOf(Iri("hasFather"), Iri("hasParent"))]


def test_explicit_rdf_root_is_accepted_unwrapped():
    text = '<rdf:RDF xmlns:owl="http://www.w3.org/2002/07/owl#">\n<owl:Class rdf:ID="A"/>\n</rdf:RDF>'
    model, diags = parse_ontology(text, "rooted")
    assert diags == []
    assert model.has_class(Iri("A"))


def test_a_hundred_nested_subclass_levels_yield_every_axiom():
    model, diags = parse_ontology(nested_subclass_chain(100), "deep")
    assert diags == []
    assert set(model.axioms_of(SubClassOf)) == {
        SubClassOf(Iri(f"C{i}"), Iri(f"C{i + 1}")) for i in range(100)
    }


# ---------------------------------------------------------------------------
# diagnostics


def test_malformed_xml_is_an_error_with_location():
    model, diags = parse_ontology("<owl:Class rdf:ID='A'>", "broken.owl")
    assert has_errors(diags)
    err = next(d for d in diags if d.severity is Severity.ERROR)
    assert err.location.line >= 1
    assert "malformed" in err.message


def test_class_without_id_or_about_is_an_error():
    model, diags = parse_ontology('<owl:Class>\n<rdfs:subClassOf rdf:resource="#B"/>\n</owl:Class>', "x")
    assert has_errors(diags)


def test_unknown_owl_element_warns_and_is_skipped():
    text = '<owl:Class rdf:ID="A">\n<owl:disjointWith rdf:resource="#B"/>\n</owl:Class>'
    model, diags = parse_ontology(text, "x")
    assert not has_errors(diags)
    assert any(d.severity is Severity.WARNING for d in diags)
    assert model.axioms == ()


def test_duplicate_domain_keeps_first_and_warns():
    text = (
        '<owl:ObjectProperty rdf:ID="p">\n'
        '<rdfs:domain rdf:resource="#A"/>\n'
        '<rdfs:domain rdf:resource="#B"/>\n'
        '<rdfs:range rdf:resource="#C"/>\n'
        "</owl:ObjectProperty>"
    )
    model, diags = parse_ontology(text, "x")
    assert model.property(Iri("p")).domain == Iri("A")
    assert any(d.severity is Severity.WARNING for d in diags)


def test_diagnostic_lines_stay_within_input_bounds():
    text = '<owl:Class rdf:ID="A">\n<owl:bogus rdf:resource="#B"/>\n</owl:Class>'
    _, diags = parse_ontology(text, "x")
    height = text.count("\n") + 1
    for d in diags:
        assert 1 <= d.location.line <= height


def test_wrapping_preserves_line_numbers():
    # The warning sits on line 2 of the raw (unwrapped) fragment.
    text = '<owl:Class rdf:ID="A">\n<owl:bogus rdf:resource="#B"/>\n</owl:Class>'
    _, diags = parse_ontology(text, "x")
    warning = next(d for d in diags if d.severity is Severity.WARNING)
    assert warning.location.line == 2


def test_format_diagnostic_layout():
    _, diags = parse_ontology("<owl:Class rdf:ID='A'>", "file.owl")
    line = format_diagnostic(diags[0], "file.owl")
    assert line.startswith("ERROR file.owl:")
    parts = line.split(" ", 2)
    _, loc, _ = parts
    assert loc.count(":") == 2


# ---------------------------------------------------------------------------
# fact files


def test_fact_file_round_trip():
    text = "# comment\n\nisa(fox1, Fox)\nisa(hole1, Hole)\nlink(latgale, subAreaOf, latvia)\n"
    base, diags = parse_fact_base(text)
    assert diags == []
    assert set(base) == {
        Membership(Iri("fox1"), Iri("Fox")),
        Membership(Iri("hole1"), Iri("Hole")),
        LinkFact(Iri("latgale"), Iri("subAreaOf"), Iri("latvia")),
    }
    reparsed, rediags = parse_fact_base(render_fact_base(base.facts))
    assert rediags == []
    assert set(reparsed) == set(base)


def test_negated_memberships_round_trip():
    text = "not isa(anna, Citizen)\nisa(bob, Citizen)\n"
    base, diags = parse_fact_base(text)
    assert diags == []
    assert list(base) == [
        NegMembership(Iri("anna"), Iri("Citizen")),
        Membership(Iri("bob"), Iri("Citizen")),
    ]
    assert render_fact_base(base.facts) == text


def test_a_membership_and_its_negation_contradict():
    with pytest.raises(ContradictionError):
        parse_fact_base("isa(anna, Citizen)\nnot isa(anna, Citizen)\n")


def test_a_fact_file_contradiction_carries_the_second_statements_location():
    text = "isa(anna, Citizen)\n# comment\n\n   not isa(anna, Citizen)\nisa(bob, Citizen)\n"
    with pytest.raises(ContradictionError) as exc:
        parse_fact_base(text)
    assert exc.value.location == Location(4, 4)


def test_a_fact_file_contradiction_carries_every_malformed_line():
    text = "oops\nisa(a, B)\nnot isa(a, B)\nnot isa(c, D)\nisa(c, D)\nlink(x)\n"
    with pytest.raises(ContradictionError) as exc:
        parse_fact_base(text)
    assert exc.value.location == Location(3, 1)  # the first pair's second statement
    assert [(d.severity, d.location.line) for d in exc.value.diagnostics] == [
        (Severity.ERROR, 1),
        (Severity.ERROR, 6),
    ]


def test_empty_fact_file():
    base, diags = parse_fact_base("")
    assert diags == []
    assert len(base) == 0


def test_duplicate_facts_collapse():
    base, _ = parse_fact_base("isa(a, B)\nisa(a, B)\n")
    assert len(base) == 1


def test_malformed_fact_line_reports_line_number():
    base, diags = parse_fact_base("isa(a, B)\nnonsense here\n")
    assert has_errors(diags)
    err = next(d for d in diags if d.severity is Severity.ERROR)
    assert err.location.line == 2


def test_feature_fact_parses():
    base, diags = parse_fact_base("feature(car1, Engine)\n")
    assert diags == []
    only = base.facts[0]
    assert format_fact(only) == "feature(car1, Engine)"


# ---------------------------------------------------------------------------
# debug printer round trip


@pytest.mark.parametrize("name", sorted({f for v in FRAGMENTS.values() for f in v}))
def test_rdfxml_print_parse_round_trip(name):
    model = load_model(name)
    printed = render_rdfxml(model)
    reparsed, diags = parse_ontology(printed, f"printed:{name}")
    assert not has_errors(diags), [d.message for d in diags]
    assert reparsed == model


QUOTED_NAMES_RDFXML = (
    "<rdf:RDF>\n"
    "  <owl:Class rdf:ID=\"Both&quot;'&gt;\"/>\n"
    "  <owl:Class rdf:ID=\"O'Brien\"/>\n"
    "  <owl:Class rdf:ID=\"R&amp;D\"/>\n"
    "  <owl:Class rdf:ID='Say\"Hi'/>\n"
    "  <owl:Class rdf:ID=\"a&lt;b\"/>\n"
    "  <owl:ObjectProperty rdf:ID=\"has&amp;'ref\">\n"
    "    <rdfs:domain rdf:resource='#Say\"Hi'/>\n"
    "    <rdfs:range rdf:resource=\"#R&amp;D\"/>\n"
    "  </owl:ObjectProperty>\n"
    "  <owl:DatatypeProperty rdf:ID='label\"&lt;'>\n"
    "    <rdfs:domain rdf:resource=\"#O'Brien\"/>\n"
    "    <rdfs:range rdf:resource=\"xs:&quot;str'&amp;&lt;\"/>\n"
    "  </owl:DatatypeProperty>\n"
    "  <owl:Class rdf:about=\"#a&lt;b\">\n"
    "    <rdfs:subClassOf rdf:resource=\"#Both&quot;'&gt;\"/>\n"
    "  </owl:Class>\n"
    "</rdf:RDF>\n"
)


def test_rdfxml_quotes_names_holding_quotes_ampersands_and_angles():
    # The expected text is what xml.sax.saxutils.quoteattr gave when it was
    # imported at module level: single quotes around a value holding only a
    # double quote, &quot; when it holds both.
    b = ModelBuilder("quotes.owl")
    for name in ('Say"Hi', "O'Brien", "R&D", "a<b", "Both\"'>"):
        b.declare_class(Iri(name))
    b.declare_property(
        PropertyDecl(Iri("has&'ref"), PropertyKind.OBJECT, Iri('Say"Hi'), Iri("R&D"))
    )
    b.declare_property(
        PropertyDecl(Iri('label"<'), PropertyKind.DATATYPE, Iri("O'Brien"), Iri("xs:\"str'&<"))
    )
    b.add_axiom(SubClassOf(Iri("a<b"), Iri("Both\"'>")))
    model = b.build()
    printed = render_rdfxml(model)
    assert printed == QUOTED_NAMES_RDFXML
    reparsed, diags = parse_ontology(printed, "printed:quotes")
    assert diags == []
    assert reparsed == model
