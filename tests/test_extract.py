from __future__ import annotations

import ast
import pickle
import random
from collections import Counter
from pathlib import Path

import pytest
from conftest import CANONICAL_FILES, DATA_DIR, FRAGMENTS, load_model
from oracles import (
    expected_pattern_counts,
    json_dumps_structured,
    pair_chain_rule_ids,
    random_model,
    render_text_by_match,
    rule_id_by_match,
)

from owlrules import (
    ClassLink,
    EquivalentClass,
    IntersectionOf,
    InverseOf,
    Iri,
    ModelBuilder,
    Pattern,
    PropertyDecl,
    PropertyKind,
    Rule,
    RuleCategory,
    SubClassOf,
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
    merge,
    parse_ontology,
    parse_structured,
    render_structured,
    render_text,
)
import owlrules
from owlrules import extract
from owlrules import rules as rules_module
from owlrules.model import Axiom
from owlrules.rules import ClassRef, Var

PER_PATTERN = {
    "class-feature": extract_class_feature,
    "equivalence-inheritance": extract_equivalence_inheritance,
    "domain-range-identification": extract_domain_range_identification,
    "subclass-transitivity": extract_subclass_transitivity,
    "relation-propagation": extract_relation_propagation,
    "subproperty-lift": extract_subproperty_lift,
    "symmetric": extract_symmetric,
    "transitive-property": extract_transitive,
    "sole-partof": extract_sole_partof,
    "cooccurrence": extract_cooccurrence,
    "allvaluesfrom": extract_allvaluesfrom,
    "intersection": extract_intersection,
    "inverse": extract_inverse,
}

# What each canonical fragment's own scanner must produce, verbatim.
GOLDEN = {
    "class-feature": ["IF Car(?x) THEN hasFeature(?x,Engine) and hasFeature(?x,Wheel)"],
    "equivalence-inheritance": [
        "IF equivalent(Auto,Car) and subClassOf(Car,Vehicle) THEN subClassOf(Auto,Vehicle)"
    ],
    "domain-range-identification": ["IF (?x liveIn ?y) and House(?y) THEN Man(?x)"],
    "subclass-transitivity": [
        "IF subClassOf(House,City) and subClassOf(City,Country) THEN subClassOf(House,Country)"
    ],
    "relation-propagation": [
        "IF (?x liveIn ?y) and House(?y) and subClassOf(House,City) THEN (?x liveIn City)"
    ],
    "subproperty-lift": ["IF (?x hasFather ?y) THEN (?x hasParent ?y)"],
    "symmetric": [
        "IF Programmer(?x) THEN (?x colleagueOf Engineer)",
        "IF Engineer(?x) THEN (?x colleagueOf Programmer)",
    ],
    "transitive-property": [
        "IF (?x subAreaOf ?y) and (?y subAreaOf ?z) THEN (?x subAreaOf ?z)",
        "IF (Latgale subAreaOf Latvia) and (Latvia subAreaOf EU) THEN (Latgale subAreaOf EU)",
    ],
    "sole-partof": ["IF solePart(House,City) THEN morePartsExpected(City)"],
    "cooccurrence": ["IF Fox(?x) and Hole(?y) THEN (?x liveIn ?y)"],
    "allvaluesfrom": ["IF not Citizen(?y) THEN not (?x hasPass ?y)"],
    "intersection": ["IF Man(?x) THEN Male(?x) and Human(?x)"],
    "inverse": [
        "IF Human(?x) THEN (?x owns Plane)",
        "IF Plane(?x) THEN (?x is_owned_by Human)",
    ],
}


@pytest.mark.parametrize("pattern_name", sorted(PER_PATTERN))
def test_canonical_fragment_reproduces_golden_rules(pattern_name):
    model = load_model(FRAGMENTS[pattern_name][0])
    rules = PER_PATTERN[pattern_name](model)
    assert [render_text(r) for r in rules] == GOLDEN[pattern_name]
    for rule in rules:
        assert rule.pattern.value == pattern_name
        assert rule.executable is (pattern_name != "sole-partof")


@pytest.mark.parametrize("pattern_name", sorted(PER_PATTERN))
def test_variant_fragments_reproduce_the_same_rules(pattern_name):
    texts = None
    for variant in FRAGMENTS[pattern_name]:
        rendered = [render_text(r) for r in PER_PATTERN[pattern_name](load_model(variant))]
        if texts is None:
            texts = rendered
        else:
            assert rendered == texts, f"{variant} disagrees"


def test_rule_provenance_names_source_and_triggers():
    model = load_model("subproperty.owl")
    (rule,) = extract_subproperty_lift(model)
    assert rule.provenance.sources == ("subproperty.owl",)
    assert rule.provenance.trigger_axioms == ("SubPropertyOf(hasFather,hasParent)",)
    assert rule.provenance.display_form


# ---------------------------------------------------------------------------
# scanner-specific edges


def test_equivalence_lifts_in_both_directions():
    b = ModelBuilder()
    b.add_axiom(EquivalentClass(Iri("A"), Iri("B")))
    b.add_axiom(SubClassOf(Iri("A"), Iri("X")))
    b.add_axiom(SubClassOf(Iri("B"), Iri("Y")))
    rules = extract_equivalence_inheritance(b.build())
    texts = {render_text(r) for r in rules}
    assert texts == {
        "IF equivalent(B,A) and subClassOf(A,X) THEN subClassOf(B,X)",
        "IF equivalent(A,B) and subClassOf(B,Y) THEN subClassOf(A,Y)",
    }


def test_equivalence_skips_lift_onto_itself():
    b = ModelBuilder()
    b.add_axiom(EquivalentClass(Iri("A"), Iri("B")))
    b.add_axiom(SubClassOf(Iri("A"), Iri("B")))
    assert extract_equivalence_inheritance(b.build()) == []


def test_domain_range_needs_both_ends_and_plain_object_kind():
    b = ModelBuilder()
    b.declare_property(PropertyDecl(Iri("partial"), PropertyKind.OBJECT, Iri("A"), None))
    b.declare_property(PropertyDecl(Iri("sym"), PropertyKind.SYMMETRIC, Iri("A"), Iri("B")))
    b.declare_property(PropertyDecl(Iri("data"), PropertyKind.DATATYPE, Iri("A"), Iri("xs:int")))
    model = b.build()
    assert extract_domain_range_identification(model) == []
    assert extract_cooccurrence(model) == []


def test_subclass_transitivity_on_a_four_chain():
    b = ModelBuilder()
    for sub, sup in (("A", "B"), ("B", "C"), ("C", "D")):
        b.add_axiom(SubClassOf(Iri(sub), Iri(sup)))
    rules = extract_subclass_transitivity(b.build())
    assert [render_text(r) for r in rules] == [
        "IF subClassOf(A,B) and subClassOf(B,C) THEN subClassOf(A,C)",
        "IF subClassOf(B,C) and subClassOf(C,D) THEN subClassOf(B,D)",
    ]


def test_subclass_transitivity_skips_two_cycles():
    b = ModelBuilder()
    b.add_axiom(SubClassOf(Iri("A"), Iri("B")))
    b.add_axiom(SubClassOf(Iri("B"), Iri("A")))
    assert extract_subclass_transitivity(b.build()) == []


def test_transitive_without_class_links_emits_only_the_variable_form():
    b = ModelBuilder()
    b.declare_property(PropertyDecl(Iri("ancestorOf"), PropertyKind.TRANSITIVE))
    rules = extract_transitive(b.build())
    assert [render_text(r) for r in rules] == [
        "IF (?x ancestorOf ?y) and (?y ancestorOf ?z) THEN (?x ancestorOf ?z)"
    ]


def test_transitive_class_links_on_a_two_cycle_chain_no_class_to_itself():
    b = ModelBuilder()
    b.declare_property(PropertyDecl(Iri("p"), PropertyKind.TRANSITIVE))
    for sub, obj in (("A", "B"), ("B", "A"), ("B", "C")):
        b.add_axiom(ClassLink(Iri(sub), Iri("p"), Iri(obj)))
    assert [render_text(r) for r in extract_transitive(b.build())] == [
        "IF (?x p ?y) and (?y p ?z) THEN (?x p ?z)",
        "IF (A p B) and (B p C) THEN (A p C)",
    ]


def test_sole_partof_guard_is_exactly_one_subclass():
    b = ModelBuilder()
    b.add_axiom(SubClassOf(Iri("House"), Iri("City")))
    b.add_axiom(SubClassOf(Iri("Park"), Iri("City")))
    assert extract_sole_partof(b.build()) == []


def test_symmetric_without_domain_or_range_warns_instead_of_emitting():
    b = ModelBuilder()
    b.declare_property(PropertyDecl(Iri("nextTo"), PropertyKind.SYMMETRIC))
    model = b.build()
    assert extract_symmetric(model) == []
    report = extract_all(model)
    assert report.rules == []
    assert any("nextTo" in w for w in report.warnings)


def test_inverse_without_domain_or_range_warns_instead_of_emitting():
    b = ModelBuilder()
    b.add_axiom(InverseOf(Iri("owns"), Iri("ownedBy")))
    model = b.build()
    assert extract_inverse(model) == []
    report = extract_all(model)
    assert any("owns" in w for w in report.warnings)


def test_two_fully_annotated_inverse_pairs_give_four_rules():
    b = ModelBuilder()
    b.add_axiom(InverseOf(Iri("owns"), Iri("ownedBy")))
    b.add_axiom(InverseOf(Iri("likes"), Iri("likedBy")))
    b.declare_property(PropertyDecl(Iri("owns"), PropertyKind.OBJECT, Iri("A"), Iri("B")))
    b.declare_property(PropertyDecl(Iri("likes"), PropertyKind.OBJECT, Iri("C"), Iri("D")))
    assert len(extract_inverse(b.build())) == 4


def test_intersection_consequent_keeps_listing_order():
    b = ModelBuilder()
    b.add_axiom(IntersectionOf(Iri("Man"), (Iri("Male"), Iri("Human"))))
    (rule,) = extract_intersection(b.build())
    assert render_text(rule) == "IF Man(?x) THEN Male(?x) and Human(?x)"


# ---------------------------------------------------------------------------
# extract_all


def _merged_corpus(files=CANONICAL_FILES):
    return merge([load_model(f) for f in files])


def test_extract_all_on_empty_model_is_empty():
    report = extract_all(ModelBuilder().build())
    assert report.rules == []
    assert sum(report.counts.values()) == 0
    assert set(report.counts) == set(Pattern)


def test_extract_all_counts_sum_to_rule_total():
    report = extract_all(_merged_corpus())
    assert sum(report.counts.values()) == len(report.rules)


def test_extract_all_is_sorted_and_duplicate_free():
    report = extract_all(_merged_corpus())
    ids = [r.id for r in report.rules]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_extract_all_is_pure():
    model = _merged_corpus()
    first = extract_all(model)
    second = extract_all(model)
    assert [r.id for r in first.rules] == [r.id for r in second.rules]
    assert first.counts == second.counts


def test_extract_all_is_file_order_independent():
    rng = random.Random(11)
    baseline = [r.id for r in extract_all(_merged_corpus()).rules]
    files = list(CANONICAL_FILES)
    for _ in range(5):
        rng.shuffle(files)
        ids = [r.id for r in extract_all(_merged_corpus(files)).rules]
        assert ids == baseline


def test_relation_propagation_fragment_co_fires_three_other_patterns():
    report = extract_all(load_model("relation_propagation_resource.owl"))
    fired = {r.pattern.value for r in report.rules}
    assert fired == {
        "relation-propagation",
        "domain-range-identification",
        "cooccurrence",
        "sole-partof",
    }


def test_mutual_inverse_pairs_dedupe_with_merged_provenance():
    b = ModelBuilder()
    b.add_axiom(InverseOf(Iri("owns"), Iri("ownedBy")))
    b.add_axiom(InverseOf(Iri("ownedBy"), Iri("owns")))
    b.declare_property(PropertyDecl(Iri("owns"), PropertyKind.OBJECT, Iri("A"), Iri("B")))
    b.declare_property(PropertyDecl(Iri("ownedBy"), PropertyKind.OBJECT, Iri("B"), Iri("A")))
    model = b.build()
    emitted: dict[str, set[str]] = {}
    for rule in extract_inverse(model):
        emitted.setdefault(rule.id, set()).update(rule.provenance.trigger_axioms)
    inverse_rules = [r for r in extract_all(model).rules if r.pattern is Pattern.INVERSE]
    assert len(inverse_rules) == 2  # four emissions collapse pairwise
    for rule in inverse_rules:
        # Each of the two emissions names its own axiom and declaration.
        assert len(emitted[rule.id]) == 4
        assert rule.provenance.trigger_axioms == tuple(sorted(emitted[rule.id]))


def test_render_text_is_injective_over_corpus_extraction():
    rules = extract_all(_merged_corpus()).rules
    texts = [render_text(r) for r in rules]
    assert len(texts) == len(set(texts))


def test_category_tally_of_the_per_fragment_union():
    rules: list[Rule] = []
    for pattern_name, files in FRAGMENTS.items():
        rules.extend(PER_PATTERN[pattern_name](load_model(files[0])))
    assert len(rules) == 16
    tally: dict[RuleCategory, int] = {c: 0 for c in RuleCategory}
    for rule in rules:
        tally[rule.category] += 1
    assert tally == {
        RuleCategory.IDENTIFYING: 2,
        RuleCategory.SPECIFYING: 3,
        RuleCategory.UNOBVIOUS: 6,
        RuleCategory.MEANING_ENRICHING: 5,
    }


# ---------------------------------------------------------------------------
# randomized guards


def test_pattern_counts_match_brute_force_enumeration():
    rng = random.Random(2024)
    for _ in range(40):
        model = random_model(rng)
        expected = expected_pattern_counts(model)
        for pattern_name, op in PER_PATTERN.items():
            got = len(op(model))
            assert got == expected[Pattern(pattern_name)], (
                f"{pattern_name}: scanner found {got}, guard enumeration "
                f"{expected[Pattern(pattern_name)]}"
            )
        # The two pair-joined shapes: the same rules, in the same order.
        for pattern, ids in pair_chain_rule_ids(model).items():
            assert [r.id for r in PER_PATTERN[pattern.value](model)] == ids, pattern.value


def test_adding_an_axiom_only_retracts_sole_partof_rules():
    rng = random.Random(99)
    grown = 0
    for _ in range(40):
        model = random_model(rng)
        before = {r.id: r for r in extract_all(model).rules}
        extra = SubClassOf(*rng.sample([Iri(f"C{i}") for i in range(6)], 2))
        extra_model = ModelBuilder()
        extra_model.add_axiom(extra)
        bigger = merge([model, extra_model.build()])
        if bigger == model:
            continue
        grown += 1
        after = set(r.id for r in extract_all(bigger).rules)
        for rule_id, rule in before.items():
            if rule.pattern is Pattern.SOLE_PARTOF:
                continue
            assert rule_id in after, f"{rule_id} vanished after adding {extra.describe()}"
    assert grown > 10  # the loop must actually have exercised growth


def _bench_entry_points() -> dict[str, str]:
    """``bench/worker.py``'s table of pattern -> scanner name, read without importing it."""
    worker = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
    for node in ast.parse(worker.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "ENTRY_POINTS"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/worker.py has no ENTRY_POINTS table")


def test_scanner_registry_is_one_public_scanner_per_pattern_in_pattern_order():
    assert list(extract._EXTRACTORS) == list(Pattern)
    names = _bench_entry_points()
    assert list(names) == [p.value for p in extract._EXTRACTORS]
    for pattern, scanner in extract._EXTRACTORS.items():
        assert scanner is getattr(owlrules, names[pattern.value])
        assert scanner.__name__ == names[pattern.value]


def test_each_scanner_emits_only_its_pattern_with_the_models_sorted_sources():
    text = (DATA_DIR / "patterns.owl").read_text(encoding="utf-8")
    parsed = {}
    for name in ("z/patterns.owl", "a/patterns.owl"):
        parsed[name], diags = parse_ontology(text, name=name)
        assert not diags
    model = merge([parsed["z/patterns.owl"], parsed["a/patterns.owl"], parsed["z/patterns.owl"]])
    assert model.source_names == ("z/patterns.owl", "a/patterns.owl", "z/patterns.owl")
    for pattern, scanner in extract._EXTRACTORS.items():
        rules = scanner(model)
        assert isinstance(rules, list) and rules, pattern  # patterns.owl fires every shape
        for rule in rules:
            assert rule.pattern is pattern
            assert rule.provenance.sources == ("a/patterns.owl", "z/patterns.owl")


@pytest.mark.parametrize("seed", range(40))
def test_extracted_rules_match_the_references_and_rebuild_from_their_atoms(seed):
    # Each scanner rule must read as the pattern-matching and stdlib-encoder
    # references say, and equal (with an equal hash) the rule rebuilt from its
    # atoms by Rule and the rule read back from a pickle.
    rules = extract_all(random_model(random.Random(7000 + seed), max_axioms=30)).rules
    assert json_dumps_structured(rules, ("r.owl",)) == render_structured(rules, ("r.owl",))
    for rule in rules:
        assert render_text(rule) == render_text_by_match(rule)
        assert rule.id == rule_id_by_match(rule)
        for twin in (
            Rule(rule.pattern, rule.antecedent, rule.consequent, rule.provenance),
            pickle.loads(pickle.dumps(rule)),
        ):
            assert twin == rule and hash(twin) == hash(rule)


def test_the_random_models_fire_every_scanner_branch():
    # The test above meets every branch of every scanner, and both arities of
    # the variable-length class-feature shape.
    seen = set()
    for seed in range(40):
        for rule in extract_all(random_model(random.Random(7000 + seed), max_axioms=30)).rules:
            seen.add((rule.pattern, type(rule.antecedent[0][1]), len(rule.consequent)))
    assert {pattern for pattern, _, _ in seen} == set(Pattern)
    assert {(kind, n) for p, kind, n in seen if p is Pattern.TRANSITIVE_PROPERTY} == {
        (Var, 1),
        (ClassRef, 1),
    }
    assert {n for p, _, n in seen if p is Pattern.CLASS_FEATURE} == {1, 2}


def test_each_shape_writer_is_compiled_once_on_placeholders_only(monkeypatch):
    # Each interned shape compiles its id writer once per pattern and its text
    # and JSON writers once, on first use, and no compiled writer holds a name
    # of a rule.  The shapes are interned afresh here, so that every writer
    # the models need is compiled while counted.
    monkeypatch.setattr(rules_module, "_SHAPES", {})
    for shape in vars(extract).values():
        if isinstance(shape, rules_module._Shape):
            monkeypatch.setattr(shape, "forms", {})
    compile_writer = rules_module._compile
    compiled: Counter = Counter()
    writers = []

    def counting(skeleton, kind):
        compiled[skeleton, kind] += 1
        writers.append(compile_writer(skeleton, kind))
        return writers[-1]

    monkeypatch.setattr(rules_module, "_compile", counting)
    models = [
        parse_ontology(path.read_text(encoding="utf-8"), path.name)[0]
        for path in sorted(DATA_DIR.glob("*.owl"))
    ] + [random_model(random.Random(7100 + seed), max_axioms=30) for seed in range(20)]
    names = set()

    def extract_and_render_all():
        for model in models:
            rules = extract_all(model).rules
            [render_text(rule) for rule in rules]
            assert parse_structured(render_structured(rules))[0] == rules
            names.update(name for rule in rules for name in rule.names)

    extract_and_render_all()
    first = Counter(compiled)
    extract_and_render_all()
    assert compiled == first and set(compiled.values()) == {1}
    assert {kind for _, kind in compiled} == set(Pattern) | {"text", "json"}
    for writer in writers:
        code = writer.__code__
        texts = [c for c in code.co_consts if isinstance(c, str)]
        texts += [*code.co_names, *code.co_varnames]
        assert [name for name in names for text in texts if name in text] == []


def test_extract_all_describes_each_axiom_and_declaration_at_most_once(monkeypatch):
    # A rule cites each trigger by its describe() text; an axiom or property
    # declaration that licenses many rules is still described once per model.
    calls: Counter = Counter()
    for kind in (PropertyDecl, Axiom, IntersectionOf):

        def counted(value, describe=kind.describe):
            calls[value] += 1
            return describe(value)

        monkeypatch.setattr(kind, "describe", counted)
    text = (DATA_DIR / "patterns.owl").read_text(encoding="utf-8")
    models = [parse_ontology(text, name="patterns.owl")[0]]
    models += [random_model(random.Random(7000 + seed), max_axioms=30) for seed in range(5)]
    for model in models:
        calls.clear()
        rules = extract_all(model).rules
        cited = {cite for rule in rules for cite in rule.provenance.trigger_axioms}
        assert calls and len(calls) == len(cited)
        assert max(calls.values()) == 1, calls.most_common(3)
