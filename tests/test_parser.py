from __future__ import annotations

import contextlib
import gc
import io
import random
import sys

import pytest
from conftest import (
    CORPUS_DIR,
    DATA_DIR,
    FRAGMENTS,
    load_model,
    load_with_diagnostics,
    nested_subclass_chain,
)
from oracles import random_instance

from owlrules import (
    AllValuesFrom,
    ClassLink,
    ContradictionError,
    EquivalentClass,
    FactBase,
    FeatureExpected,
    IntersectionOf,
    InverseOf,
    Iri,
    LinkFact,
    Membership,
    ModelBuilder,
    NegMembership,
    Pattern,
    PropertyDecl,
    PropertyKind,
    SubClassOf,
    SubPropertyOf,
    extract_all,
    format_diagnostic,
    format_fact,
    has_errors,
    parse_fact_base,
    parse_ontology,
    run_fixpoint,
    schema_closure,
)
from owlrules import cli
from owlrules.parser import MAX_DEPTH, Location, Severity


def test_car_listing_yields_class_and_two_datatype_properties():
    model = load_model("class_feature.owl")
    assert Iri("Car") in model.classes
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


@pytest.mark.parametrize("text", ["", "<!-- nothing -->"], ids=["no-text", "a-comment"])
def test_a_document_without_an_element_is_an_empty_model_with_no_diagnostics(text):
    model, diags = parse_ontology(text, "x.owl")
    assert diags == []
    assert (model.classes, model.properties, model.axioms) == ((), {}, ())


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
            assert Iri(cls) in model.classes, f"{name} missing {cls}"
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
    assert Iri("A") in model.classes


def test_a_hundred_nested_subclass_levels_yield_every_axiom():
    model, diags = parse_ontology(nested_subclass_chain(100), "deep")
    assert diags == []
    assert set(model.axioms_of(SubClassOf)) == {
        SubClassOf(Iri(f"C{i}"), Iri(f"C{i + 1}")) for i in range(100)
    }


@pytest.mark.parametrize(
    "text",
    [
        (DATA_DIR / "patterns.owl").read_text(encoding="utf-8"),
        "<owl:Class rdf:ID='A'>",
        nested_subclass_chain(300),
    ],
    ids=["well-formed", "malformed", "too-deep"],
)
def test_a_parse_leaves_nothing_for_the_cycle_collector(text):
    # The element tree is freed when the parse returns, not at a collection.
    gc.collect()
    gc.disable()
    try:
        parse_ontology(text, "x")
        assert gc.collect() == 0
    finally:
        gc.enable()


_ONTOLOGIES = sorted([*DATA_DIR.glob("*.owl"), *CORPUS_DIR.glob("*.owl")])
_FACT_FILES = sorted([*DATA_DIR.glob("*.facts"), *CORPUS_DIR.glob("facts_*.txt")])


def _each_stage(path, tmp):
    """Runs every stage on the ontology at ``path``, yielding after each:
    the library stages, then ``main``'s commands, writing to ``tmp``."""
    model, _ = parse_ontology(path.read_text(encoding="utf-8"), path.name)
    yield "parse_ontology"
    rules = extract_all(model).rules
    yield "extract_all"
    schema = (Pattern.SUBCLASS_TRANSITIVITY, Pattern.EQUIVALENCE_INHERITANCE)
    schema_closure(model, [r for r in rules if r.pattern in schema])
    yield "schema_closure"
    executable = [r for r in rules if r.executable]
    for facts in _FACT_FILES:
        base, _ = parse_fact_base(facts.read_text(encoding="utf-8"))
        yield f"parse_fact_base {facts.name}"
        with contextlib.suppress(ContradictionError):
            run_fixpoint(executable, base, 1000)
        yield f"run_fixpoint {facts.name}"
    out = ["--output", str(tmp / "out")]
    for argv in (["extract"], ["extract", "--format", "structured"], ["classify"]):
        cli.main([*argv, str(path), *out])
        yield f"main {' '.join(argv)}"
    for facts in _FACT_FILES:
        cli.main(["infer", str(path), "--facts", str(facts), *out])
        yield f"main infer {facts.name}"


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """One pass over every input first: the first ``main`` builds its argument
    parser, and the first rule of each shape compiles its writers, once per
    process; both leave cycles behind once, which no later call repeats."""
    tmp = tmp_path_factory.mktemp("warm-up")
    with contextlib.redirect_stderr(io.StringIO()):
        for path in _ONTOLOGIES:
            for _ in _each_stage(path, tmp):
                pass


@pytest.mark.parametrize("path", _ONTOLOGIES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_stage_leaves_anything_for_the_cycle_collector(warmed, path, tmp_path):
    gc.collect()
    gc.disable()
    try:
        # With the collector off, what a stage makes stays in the youngest
        # generation, which is all that each collection here has to scan.
        left = [(stage, gc.collect(0)) for stage in _each_stage(path, tmp_path)]
    finally:
        gc.enable()
    assert [(stage, n) for stage, n in left if n] == []


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


@pytest.mark.parametrize(
    "text",
    [
        '<?xml version="1.0"?>\n<owl:Class rdf:ID="A">\n<owl:bogus rdf:resource="#B"/>\n'
        '<rdfs:subClassOf rdf:resource="#B"/>\n</owl:Class>\n',
        '<rdf:RDF>\n  <owl:Class rdf:ID="A"><owl:bogus/></owl:Class>\n</rdf:RDF>\n',
        "<owl:Class rdf:ID='A'>",
    ],
    ids=["declared-fragment", "rdf-root", "malformed"],
)
def test_an_ontology_with_a_byte_order_mark_parses_as_without(text):
    model, diags = parse_ontology(text, "x.owl")
    assert diags  # each text has a located diagnostic to compare
    assert parse_ontology("\ufeff" + text, "x.owl") == (model, diags)


def _diagnostic_lines(body: str) -> list[str]:
    """The formatted diagnostics of ``body`` read inside an ``rdf:RDF`` root,
    which starts on line 1, so ``body`` starts on line 2."""
    _, diags = parse_ontology(f"<rdf:RDF>\n{body}\n</rdf:RDF>\n", "x.owl")
    return [format_diagnostic(d, "x.owl") for d in diags]


_CONSTRUCT_DIAGNOSTICS = {
    "bad-id": (
        '<owl:Class rdf:ID="#"/>',
        ["ERROR x.owl:2:1 bad identifier on owl:Class: IRI must be non-empty"],
    ),
    "bad-resource": (
        '<owl:Class rdf:ID="A">\n  <rdfs:subClassOf rdf:resource="a b"/>\n</owl:Class>',
        ["ERROR x.owl:3:3 bad reference on rdfs:subClassOf: IRI contains whitespace: 'a b'"],
    ),
    "reference-without-target": (
        '<owl:Class rdf:ID="A">\n  <owl:equivalentClass>\n    <owl:Restriction/>\n'
        "  </owl:equivalentClass>\n</owl:Class>",
        [
            "WARNING x.owl:3:3 owl:equivalentClass has no rdf:resource and no nested "
            "declaration; skipped"
        ],
    ),
    "self-subclass": (
        '<owl:Class rdf:ID="A">\n  <rdfs:subClassOf rdf:resource="#A"/>\n</owl:Class>',
        ["WARNING x.owl:3:3 axiom skipped: SubClassOf may not relate A to itself"],
    ),
    "intersection-without-collection": (
        '<owl:Class rdf:ID="A">\n  <owl:intersectionOf>\n    <owl:Class rdf:about="#B"/>\n'
        "  </owl:intersectionOf>\n</owl:Class>",
        ['WARNING x.owl:3:3 owl:intersectionOf without rdf:parseType="Collection"; skipped'],
    ),
    "intersection-with-a-restriction": (
        '<owl:Class rdf:ID="A">\n  <owl:intersectionOf rdf:parseType="Collection">\n'
        '    <owl:Class rdf:about="#B"/>\n    <owl:Restriction/>\n'
        '    <owl:Class rdf:about="#C"/>\n  </owl:intersectionOf>\n</owl:Class>',
        ["WARNING x.owl:5:5 unexpected owl:Restriction in intersection listing; skipped"],
    ),
    "intersection-of-one": (
        '<owl:Class rdf:ID="A">\n  <owl:intersectionOf rdf:parseType="Collection">\n'
        '    <owl:Class rdf:about="#B"/>\n  </owl:intersectionOf>\n</owl:Class>',
        ["WARNING x.owl:3:3 intersection listing needs at least two classes; skipped"],
    ),
    "property-without-id": (
        '<owl:ObjectProperty>\n  <rdfs:domain rdf:resource="#A"/>\n</owl:ObjectProperty>',
        ["ERROR x.owl:2:1 owl:ObjectProperty has neither rdf:ID nor rdf:about"],
    ),
    "property-with-two-domains": (
        '<owl:ObjectProperty rdf:ID="p">\n  <rdfs:domain rdf:resource="#A"/>\n'
        '  <rdfs:domain rdf:resource="#B"/>\n</owl:ObjectProperty>',
        ["WARNING x.owl:4:3 property p has multiple domains; keeping the first (A)"],
    ),
    "domain-without-target": (
        '<owl:ObjectProperty rdf:ID="p">\n  <rdfs:domain/>\n</owl:ObjectProperty>',
        ["WARNING x.owl:3:3 rdfs:domain has no rdf:resource and no nested declaration; skipped"],
    ),
    "class-typed-again": (
        '<owl:Class rdf:ID="A">\n  <rdf:type rdf:resource="owl:Class"/>\n</owl:Class>',
        [],
    ),
    "property-with-two-ranges": (
        '<owl:ObjectProperty rdf:ID="p">\n  <rdfs:range rdf:resource="#A"/>\n'
        '  <rdfs:range rdf:resource="#B"/>\n</owl:ObjectProperty>',
        ["WARNING x.owl:4:3 property p has multiple ranges; keeping the first (A)"],
    ),
    "property-children": (
        '<owl:ObjectProperty rdf:ID="p">\n  <owl:bogus/>\n  <hasPart rdf:resource="#B"/>\n'
        "</owl:ObjectProperty>",
        [
            "WARNING x.owl:3:3 unknown element owl:bogus in property context; skipped",
            "WARNING x.owl:4:3 unexpected element hasPart in property context; skipped",
        ],
    ),
    "property-redeclared": (
        '<owl:ObjectProperty rdf:ID="p"/>\n<owl:TransitiveProperty rdf:ID="p"/>',
        ["WARNING x.owl:3:1 property p re-declared as transitive; keeping object"],
    ),
    "datatype-range-without-resource": (
        '<owl:DatatypeProperty rdf:ID="d">\n  <rdfs:range>\n    <owl:Class rdf:ID="C"/>\n'
        "  </rdfs:range>\n</owl:DatatypeProperty>",
        ["WARNING x.owl:3:3 rdfs:range on a datatype property needs rdf:resource; skipped"],
    ),
    "datatype-range-bad-token": (
        '<owl:DatatypeProperty rdf:ID="d">\n  <rdfs:range rdf:resource="#"/>\n'
        "</owl:DatatypeProperty>",
        ["ERROR x.owl:3:3 bad range token: IRI must be non-empty"],
    ),
    "restriction-unknown-child": (
        '<owl:Restriction>\n  <owl:onProperty rdf:resource="#p"/>\n'
        '  <owl:someValuesFrom rdf:resource="#B"/>\n  <owl:allValuesFrom rdf:resource="#C"/>\n'
        "</owl:Restriction>",
        ["WARNING x.owl:4:3 unknown element owl:someValuesFrom in restriction; skipped"],
    ),
    "restriction-incomplete": (
        '<owl:Restriction>\n  <owl:onProperty rdf:resource="#p"/>\n</owl:Restriction>',
        ["WARNING x.owl:2:1 restriction without owl:onProperty and owl:allValuesFrom; skipped"],
    ),
}


@pytest.mark.parametrize("name", list(_CONSTRUCT_DIAGNOSTICS))
def test_each_skipped_construct_has_its_located_diagnostic(name):
    body, expected = _CONSTRUCT_DIAGNOSTICS[name]
    assert _diagnostic_lines(body) == expected


def test_a_repeated_bad_reference_reports_each_location():
    # The parser reads each distinct reference once; a bad one is read again
    # wherever it appears, so that each use gets its own located error.
    body = (
        '<owl:Class rdf:ID="A">\n  <rdfs:subClassOf rdf:resource="a b"/>\n'
        '  <rdfs:subClassOf rdf:resource="#B"/>\n</owl:Class>\n'
        '<owl:Class rdf:ID="C">\n  <rdfs:subClassOf rdf:resource="a b"/>\n'
        '  <rdfs:subClassOf rdf:resource="#B"/>\n</owl:Class>'
    )
    error = "bad reference on rdfs:subClassOf: IRI contains whitespace: 'a b'"
    assert _diagnostic_lines(body) == [f"ERROR x.owl:3:3 {error}", f"ERROR x.owl:7:3 {error}"]
    model, _ = parse_ontology(f"<rdf:RDF>\n{body}\n</rdf:RDF>\n", "x.owl")
    assert set(model.axioms) == {SubClassOf(Iri("A"), Iri("B")), SubClassOf(Iri("C"), Iri("B"))}


def test_a_nested_property_declaration_used_as_a_reference_is_declared_and_linked():
    body = (
        '<owl:Class rdf:ID="A">\n  <owl:equivalentClass>\n'
        '    <owl:ObjectProperty rdf:ID="p"/>\n  </owl:equivalentClass>\n</owl:Class>'
    )
    model, diags = parse_ontology(body, "x.owl")
    assert diags == []
    assert model.property(Iri("p")) == PropertyDecl(Iri("p"), PropertyKind.OBJECT)
    assert model.axioms == (EquivalentClass(Iri("A"), Iri("p")),)


@pytest.mark.parametrize("prolog", ["<!-- a comment -->\n", "<!DOCTYPE rdf:RDF>\n"])
def test_a_comment_or_doctype_before_the_root_keeps_the_root(prolog):
    text = f'{prolog}<rdf:RDF>\n<owl:Class rdf:ID="A">\n  <owl:bogus/>\n</owl:Class>\n</rdf:RDF>\n'
    model, diags = parse_ontology(text, "x.owl")
    assert [format_diagnostic(d, "x.owl") for d in diags] == [
        "WARNING x.owl:4:3 unknown element owl:bogus in class context; skipped"
    ]
    assert model.classes == (Iri("A"),)


# Documents whose first line holds what a synthetic root would shift: each
# diagnostic gives the file's own line and column, and the classes read.
_DOCUMENT_DIAGNOSTICS = {
    "fragment": (
        '<owl:Class rdf:ID="#"/>',
        (),
        ["ERROR x.owl:1:1 bad identifier on owl:Class: IRI must be non-empty"],
    ),
    "after-a-declaration": (
        '<?xml version="1.0"?><owl:Class rdf:ID="#"/>',
        (),
        ["ERROR x.owl:1:22 bad identifier on owl:Class: IRI must be non-empty"],
    ),
    "after-a-comment": (
        '<!-- c --><owl:Class rdf:ID="#"/>',
        (),
        ["ERROR x.owl:1:11 bad identifier on owl:Class: IRI must be non-empty"],
    ),
    "second-element": (
        '<owl:Class rdf:ID="A"/><owl:Class rdf:ID="#"/>',
        ("A",),
        ["ERROR x.owl:1:24 bad identifier on owl:Class: IRI must be non-empty"],
    ),
    "nested-elements": (
        '<owl:Class rdf:ID="A"><owl:bogus/></owl:Class>\n'
        '<owl:Class rdf:ID="B"><owl:bogus/></owl:Class>',
        ("A", "B"),
        [
            "WARNING x.owl:1:23 unknown element owl:bogus in class context; skipped",
            "WARNING x.owl:2:23 unknown element owl:bogus in class context; skipped",
        ],
    ),
    "malformed-after-an-element": (
        '<owl:Class rdf:ID="A"/><owl:Class rdf:ID="B" & />',
        ("A",),
        ["ERROR x.owl:1:46 malformed XML: not well-formed (invalid token)"],
    ),
    "after-a-doctype": ('<!DOCTYPE owl>\n<owl:Class rdf:ID="A"/>', ("A",), []),
    "text-before-the-root": (
        'junk<rdf:RDF><owl:Class rdf:ID="A"/></rdf:RDF>',
        (),
        ["ERROR x.owl:1:5 malformed XML: not well-formed (invalid token)"],
    ),
    "text-before-a-fragment": (
        'junk<owl:Class rdf:ID="A"/>',
        (),
        ["ERROR x.owl:1:5 malformed XML: not well-formed (invalid token)"],
    ),
    "a-literal-before-a-fragment": (
        '"<owl:Class rdf:ID="A"/>',
        (),
        ["ERROR x.owl:1:21 malformed XML: not well-formed (invalid token)"],
    ),
    "unclosed-element": (
        '<owl:Class rdf:ID="A">',
        ("A",),
        ["ERROR x.owl:1:23 malformed XML: no element found"],
    ),
    "unclosed-element-then-a-line-break": (
        '<owl:Class rdf:ID="A">\n',
        ("A",),
        ["ERROR x.owl:2:1 malformed XML: no element found"],
    ),
    "unclosed-second-element": (
        '<owl:Class rdf:ID="A"/><owl:Class rdf:ID="B">',
        ("A", "B"),
        ["ERROR x.owl:1:46 malformed XML: no element found"],
    ),
    "unclosed-tag-in-an-element": (
        '<owl:Class rdf:ID="A">\n<rdfs:su',
        ("A",),
        ["ERROR x.owl:2:1 malformed XML: unclosed token"],
    ),
    "stray-root-end-tag": (
        '<owl:Class rdf:ID="A"/></rdf:RDF>',
        ("A",),
        ["ERROR x.owl:1:35 malformed XML: not well-formed (invalid token)"],
    ),
    # The depth guard stops at the 256th element of the file, each one 3 columns on.
    "too-deep": (
        "<a>" * 300,
        (),
        [
            f"ERROR x.owl:1:766 elements nested deeper than {MAX_DEPTH} levels; reading stopped",
            "WARNING x.owl:1:1 unknown top-level element a; skipped",
        ],
    ),
    "too-deep-after-a-declaration": (
        '<?xml version="1.0"?>' + "<a>" * 300,
        (),
        [
            f"ERROR x.owl:1:787 elements nested deeper than {MAX_DEPTH} levels; reading stopped",
            "WARNING x.owl:1:22 unknown top-level element a; skipped",
        ],
    ),
}


@pytest.mark.parametrize("name", list(_DOCUMENT_DIAGNOSTICS))
def test_a_document_reports_each_diagnostic_at_its_own_line_and_column(name):
    text, classes, expected = _DOCUMENT_DIAGNOSTICS[name]
    model, diags = parse_ontology(text, "x.owl")
    assert [format_diagnostic(d, "x.owl") for d in diags] == expected
    assert model.classes == tuple(map(Iri, classes))


@pytest.mark.parametrize("root", [False, True], ids=["fragment", "rdf-root"])
def test_the_depth_guard_reports_the_first_element_past_the_limit(root):
    # Element k of the chain is on line k, under a root line when there is one.
    text = nested_subclass_chain(300)
    if root:
        text = f"<rdf:RDF>\n{text}</rdf:RDF>\n"
    model, diags = parse_ontology(text, "x.owl")
    line = MAX_DEPTH + root
    assert [format_diagnostic(d, "x.owl") for d in diags] == [
        f"ERROR x.owl:{line}:1 elements nested deeper than {MAX_DEPTH} levels; reading stopped"
    ]
    assert len(model.classes) == MAX_DEPTH // 2  # the classes read before it


def test_whitespace_in_a_custom_element_name_is_malformed_xml():
    # expat ends every such name before parse_class_link could read it.
    whitespace = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
    assert len(whitespace) == 29
    for ch in whitespace:
        for name in (f"has{ch}Part", f"{ch}hasPart"):
            text = (
                f'<rdf:RDF>\n<owl:Class rdf:ID="A">\n  <{name} rdf:resource="#B"/>\n'
                "</owl:Class>\n</rdf:RDF>\n"
            )
            model, diags = parse_ontology(text, "x.owl")
            # A line break in the name may move the error to the next line.
            lines = (3, 4) if ch in "\n\r" else (3,)
            assert [d.severity for d in diags] == [Severity.ERROR], repr(ch)
            assert diags[0].location.line in lines, repr(ch)
            assert diags[0].message.startswith("malformed XML: "), repr(ch)
            assert model.axioms == ()


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
    reparsed, rediags = parse_fact_base("".join(format_fact(f) + "\n" for f in base))
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
    assert "".join(format_fact(f) + "\n" for f in base) == text


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


def test_a_fact_file_with_a_byte_order_mark_parses_as_without():
    text = "isa(anna, Citizen)\nnonsense here\nlink(anna, livesIn, riga)\n"
    base, diags = parse_fact_base(text)
    marked, marked_diags = parse_fact_base("\ufeff" + text)
    assert tuple(marked) == tuple(base) and len(base) == 2
    assert marked_diags == diags and diags[0].location == Location(2, 1)
    with pytest.raises(ContradictionError) as exc:
        parse_fact_base("\ufeffisa(a, B)\n  not isa(a, B)\n")
    assert exc.value.location == Location(2, 3)


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
    only = tuple(base)[0]
    assert format_fact(only) == "feature(car1, Engine)"


@pytest.mark.parametrize(
    "line", ["link(a, p)", "isa(a, B, c)", "not link(a, p, b)", "not feature(a, F)", "feature(a)"]
)
def test_a_fact_of_the_wrong_arity_or_negation_is_malformed(line):
    base, diags = parse_fact_base(f"isa(a, B)\n  {line}\n")
    assert tuple(base) == (Membership(Iri("a"), Iri("B")),)
    assert [format_diagnostic(d, "f.facts") for d in diags] == [
        f"ERROR f.facts:2:1 malformed fact line: {line!r}"
    ]


def test_every_unflagged_fact_reads_back_from_its_line():
    kinds = set()
    for seed in range(60):
        rules, facts = random_instance(random.Random(seed))
        final = run_fixpoint(rules, FactBase(facts), cap=1000).final
        negations = [NegMembership(f.individual, f.cls) for f in final if type(f) is Membership]
        for fact in [*final, *negations]:
            if type(fact) is LinkFact and fact.obj_is_class:
                continue
            base, diags = parse_fact_base(format_fact(fact) + "\n")
            assert (tuple(base), diags) == ((fact,), [])
            kinds.add(type(fact))
    assert kinds == {Membership, NegMembership, LinkFact, FeatureExpected}


# ---------------------------------------------------------------------------
# names escaped as XML entities


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
    # Attribute values quoted as xml.sax.saxutils.quoteattr writes them:
    # single quotes around a value holding only a double quote, &quot; when
    # it holds both.
    parsed, diags = parse_ontology(QUOTED_NAMES_RDFXML, "quotes.owl")
    assert diags == []
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
    assert parsed == b.build()
