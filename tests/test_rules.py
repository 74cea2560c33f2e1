from __future__ import annotations

import json
import random

import pytest
from oracles import (
    json_dumps_structured,
    render_atom_by_match,
    render_term_by_match,
    render_text_by_match,
    rule_id_by_match,
)

from owlrules import (
    CATEGORY_ORDER,
    Atom,
    ClassRef,
    HasFeature,
    IndividualRef,
    IsA,
    Iri,
    Link,
    LiteralTok,
    MorePartsExpected,
    Not,
    Pattern,
    PropRef,
    Provenance,
    Rule,
    RuleCategory,
    SchemaEquivalent,
    SchemaSubClassOf,
    SolePart,
    Term,
    UnknownPatternError,
    Var,
    classify,
    coerce_pattern,
    is_executable_pattern,
    make_rule,
    parse_structured,
    render_atom,
    render_structured,
    render_term,
    render_text,
    rule_to_obj,
    with_provenance,
)

VX, VY = Var("?x"), Var("?y")

EXPECTED_CATEGORY = {
    Pattern.CLASS_FEATURE: RuleCategory.SPECIFYING,
    Pattern.EQUIVALENCE_INHERITANCE: RuleCategory.UNOBVIOUS,
    Pattern.DOMAIN_RANGE_IDENTIFICATION: RuleCategory.IDENTIFYING,
    Pattern.SUBCLASS_TRANSITIVITY: RuleCategory.UNOBVIOUS,
    Pattern.RELATION_PROPAGATION: RuleCategory.UNOBVIOUS,
    Pattern.SUBPROPERTY_LIFT: RuleCategory.IDENTIFYING,
    Pattern.SYMMETRIC: RuleCategory.MEANING_ENRICHING,
    Pattern.TRANSITIVE_PROPERTY: RuleCategory.UNOBVIOUS,
    Pattern.SOLE_PARTOF: RuleCategory.UNOBVIOUS,
    Pattern.COOCCURRENCE: RuleCategory.SPECIFYING,
    Pattern.ALLVALUESFROM: RuleCategory.MEANING_ENRICHING,
    Pattern.INTERSECTION: RuleCategory.SPECIFYING,
    Pattern.INVERSE: RuleCategory.MEANING_ENRICHING,
}


def test_classification_is_total_and_exact():
    assert set(EXPECTED_CATEGORY) == set(Pattern)
    for pattern, category in EXPECTED_CATEGORY.items():
        assert classify(pattern) is category
        assert classify(pattern.value) is category


def test_category_order_is_fixed():
    assert CATEGORY_ORDER == (
        RuleCategory.IDENTIFYING,
        RuleCategory.SPECIFYING,
        RuleCategory.UNOBVIOUS,
        RuleCategory.MEANING_ENRICHING,
    )
    assert [c.value for c in CATEGORY_ORDER] == [
        "identifying",
        "specifying",
        "unobvious",
        "meaning-enriching",
    ]


def test_unknown_pattern_is_rejected():
    with pytest.raises(UnknownPatternError):
        classify("no-such-pattern")
    with pytest.raises(UnknownPatternError):
        coerce_pattern("")


def test_only_sole_partof_is_non_executable():
    for pattern in Pattern:
        expected = pattern is not Pattern.SOLE_PARTOF
        assert is_executable_pattern(pattern) is expected


def test_var_names_are_restricted():
    with pytest.raises(ValueError):
        Var("?w")
    with pytest.raises(ValueError):
        Var("x")


def test_not_refuses_to_nest():
    inner = Not(IsA(VX, ClassRef(Iri("C"))))
    with pytest.raises(ValueError):
        Not(inner)


# ---------------------------------------------------------------------------
# rule construction


def _fox_rule() -> Rule:
    return make_rule(
        Pattern.COOCCURRENCE,
        [IsA(VX, ClassRef(Iri("Fox"))), IsA(VY, ClassRef(Iri("Hole")))],
        [Link(VX, PropRef(Iri("liveIn")), VY)],
    )


def test_rule_id_is_stable_and_pattern_prefixed():
    a, b = _fox_rule(), _fox_rule()
    assert a.id == b.id
    assert a.id.startswith("cooccurrence-")
    suffix = a.id.rsplit("-", 1)[1]
    assert len(suffix) == 10
    int(suffix, 16)  # hex digest tail


def test_rule_id_distinguishes_content():
    other = make_rule(
        Pattern.COOCCURRENCE,
        [IsA(VX, ClassRef(Iri("Fox"))), IsA(VY, ClassRef(Iri("Hole")))],
        [Link(VX, PropRef(Iri("sleepsIn")), VY)],
    )
    assert other.id != _fox_rule().id


def test_rule_requires_nonempty_sides():
    with pytest.raises(ValueError):
        make_rule(Pattern.COOCCURRENCE, [], [Link(VX, PropRef(Iri("p")), VY)])
    with pytest.raises(ValueError):
        make_rule(Pattern.COOCCURRENCE, [IsA(VX, ClassRef(Iri("A")))], [])


def test_rule_rejects_category_drift():
    template = _fox_rule()
    with pytest.raises(ValueError):
        Rule(
            id=template.id,
            pattern=template.pattern,
            category=RuleCategory.UNOBVIOUS,  # wrong on purpose
            executable=True,
            antecedent=template.antecedent,
            consequent=template.consequent,
            provenance=template.provenance,
        )


def test_rule_rejects_executable_drift():
    template = _fox_rule()
    with pytest.raises(ValueError):
        Rule(
            id=template.id,
            pattern=template.pattern,
            category=template.category,
            executable=False,  # cooccurrence rules are executable
            antecedent=template.antecedent,
            consequent=template.consequent,
            provenance=template.provenance,
        )


def test_with_provenance_keeps_identity():
    rule = _fox_rule()
    tagged = with_provenance(rule, Provenance(sources=("a.owl",), display_form="IF Fox..."))
    assert tagged.id == rule.id
    assert tagged.provenance.sources == ("a.owl",)
    assert rule.provenance.sources == ()


# ---------------------------------------------------------------------------
# text rendering


def test_render_term_forms():
    assert render_term(VX) == "?x"
    assert render_term(ClassRef(Iri("Car"))) == "Car"
    assert render_term(PropRef(Iri("liveIn"))) == "liveIn"
    assert render_term(IndividualRef(Iri("john"))) == "john"
    assert render_term(LiteralTok("42")) == '"42"'


def test_render_atom_forms():
    assert render_atom(IsA(VX, ClassRef(Iri("Car")))) == "Car(?x)"
    assert render_atom(Link(VX, PropRef(Iri("liveIn")), VY)) == "(?x liveIn ?y)"
    assert (
        render_atom(Link(VX, PropRef(Iri("liveIn")), ClassRef(Iri("City"))))
        == "(?x liveIn City)"
    )
    assert render_atom(HasFeature(VX, Iri("Wheel"))) == "hasFeature(?x,Wheel)"
    assert render_atom(Not(IsA(VY, ClassRef(Iri("Citizen"))))) == "not Citizen(?y)"
    assert (
        render_atom(SchemaSubClassOf(ClassRef(Iri("House")), ClassRef(Iri("City"))))
        == "subClassOf(House,City)"
    )
    assert (
        render_atom(SchemaEquivalent(ClassRef(Iri("Auto")), ClassRef(Iri("Car"))))
        == "equivalent(Auto,Car)"
    )
    assert (
        render_atom(SolePart(ClassRef(Iri("House")), ClassRef(Iri("City"))))
        == "solePart(House,City)"
    )
    assert render_atom(MorePartsExpected(ClassRef(Iri("City")))) == "morePartsExpected(City)"


def test_render_text_joins_with_and():
    assert render_text(_fox_rule()) == "IF Fox(?x) and Hole(?y) THEN (?x liveIn ?y)"


def test_render_text_has_no_trailing_whitespace():
    line = render_text(_fox_rule())
    assert line == line.strip()


# ---------------------------------------------------------------------------
# structured format


def _sample_rules() -> list[Rule]:
    rules = [
        _fox_rule(),
        make_rule(
            Pattern.SOLE_PARTOF,
            [SolePart(ClassRef(Iri("House")), ClassRef(Iri("City")))],
            [MorePartsExpected(ClassRef(Iri("City")))],
            Provenance(sources=("sole.owl",), trigger_axioms=("SubClassOf(House,City)",)),
        ),
        make_rule(
            Pattern.ALLVALUESFROM,
            [Not(IsA(VY, ClassRef(Iri("Citizen"))))],
            [Not(Link(VX, PropRef(Iri("hasPass")), VY))],
        ),
    ]
    return rules


def test_structured_empty_document():
    doc = json.loads(render_structured([]))
    assert doc["version"] == 1
    assert doc["rules"] == []


def test_structured_document_shape():
    doc = json.loads(render_structured(_sample_rules(), source=("a.owl",)))
    assert doc["source"] == ["a.owl"]
    for entry in doc["rules"]:
        assert set(entry) == {
            "id",
            "pattern",
            "category",
            "executable",
            "if",
            "then",
            "provenance",
        }
        assert entry["category"] in {c.value for c in RuleCategory}
        assert set(entry["provenance"]) == {"source", "trigger_axioms", "display_form"}


def test_structured_rules_sorted_by_id_and_shuffle_stable():
    rules = _sample_rules()
    rendered = render_structured(rules)
    doc = json.loads(rendered)
    ids = [r["id"] for r in doc["rules"]]
    assert ids == sorted(ids)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = rules[:]
        rng.shuffle(shuffled)
        assert render_structured(shuffled) == rendered


def test_structured_round_trip():
    rules = _sample_rules()
    reparsed, source = parse_structured(render_structured(rules, source=("x.owl",)))
    assert source == ["x.owl"]
    assert sorted(r.id for r in reparsed) == sorted(r.id for r in rules)
    by_id = {r.id: r for r in rules}
    for rule in reparsed:
        original = by_id[rule.id]
        assert rule.antecedent == original.antecedent
        assert rule.consequent == original.consequent
        assert rule.pattern is original.pattern
        assert rule.provenance == original.provenance


def test_structured_output_ends_with_newline():
    assert render_structured([]).endswith("\n")


def test_rule_to_obj_link_object_key():
    entry = rule_to_obj(_fox_rule())
    then = entry["then"][0]
    assert then["kind"] == "link"
    assert then["object"] == {"var": "?y"}
    assert entry["if"][0] == {"kind": "isa", "subject": {"var": "?x"}, "class": {"class": "Fox"}}


# ---------------------------------------------------------------------------
# the direct writer against the stdlib encoder

# Pieces that exercise JSON escaping: quotes, backslashes, control characters,
# "</", DEL, non-ASCII, a line separator and an astral character (written as
# a surrogate pair).
_PIECES = (
    '"', "\\", "\x00", "\x08", "\n", "\t", "\x1f", "\x7f", "</", "'",
    "\u00e9", "\u2028", "\u4e2d", "\U0001f600", "a", "Z", "9", "-", "#", " ",
)


def _text(rng: random.Random, lo: int = 0) -> str:
    return "".join(rng.choice(_PIECES) for _ in range(rng.randint(lo, 6)))


def _name(rng: random.Random) -> Iri:
    # An IRI is non-empty and free of whitespace.
    while True:
        text = "".join(c for c in _text(rng, lo=1) if not c.isspace())
        if text:
            return Iri(text)


def _random_term(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return Var(rng.choice(("?x", "?y", "?z")))
    if kind == 1:
        return ClassRef(_name(rng))
    if kind == 2:
        return PropRef(_name(rng))
    if kind == 3:
        return IndividualRef(_name(rng))
    return LiteralTok(_text(rng))


_ATOM_MAKERS = (
    lambda rng, t: IsA(t(rng), t(rng)),
    lambda rng, t: Link(t(rng), t(rng), t(rng)),
    lambda rng, t: HasFeature(t(rng), _name(rng)),
    lambda rng, t: Not(IsA(t(rng), t(rng))),
    lambda rng, t: Not(Link(t(rng), t(rng), t(rng))),
    lambda rng, t: SchemaSubClassOf(t(rng), t(rng)),
    lambda rng, t: SchemaEquivalent(t(rng), t(rng)),
    lambda rng, t: SolePart(t(rng), t(rng)),
    lambda rng, t: MorePartsExpected(t(rng)),
)


def _random_atoms(rng: random.Random) -> list:
    return [rng.choice(_ATOM_MAKERS)(rng, _random_term) for _ in range(rng.randint(1, 3))]


def _random_rules(rng: random.Random, count: int) -> list[Rule]:
    rules = []
    for _ in range(count):
        prov = Provenance(
            sources=tuple(_text(rng) for _ in range(rng.randint(0, 3))),
            trigger_axioms=tuple(_text(rng) for _ in range(rng.randint(0, 3))),
            display_form=_text(rng),
        )
        pattern = rng.choice(list(Pattern))
        rules.append(make_rule(pattern, _random_atoms(rng), _random_atoms(rng), prov))
    return rules


def test_the_random_rules_draw_every_atom_kind():
    rng = random.Random(0)
    shapes = set()
    for rule in _random_rules(rng, 60):
        for atom in rule.antecedent + rule.consequent:
            shapes.add((Not, type(atom.inner)) if isinstance(atom, Not) else type(atom))
    assert shapes == {
        IsA,
        Link,
        HasFeature,
        (Not, IsA),
        (Not, Link),
        SchemaSubClassOf,
        SchemaEquivalent,
        SolePart,
        MorePartsExpected,
    }


@pytest.mark.parametrize("seed", range(40))
def test_structured_writer_matches_the_stdlib_encoder(seed):
    rng = random.Random(seed)
    rules = _random_rules(rng, rng.randint(0, 8))
    # Repeat a rule now and then: equal ids keep their input order.
    if rules and rng.random() < 0.3:
        rules.insert(rng.randrange(len(rules)), rng.choice(rules))
    source = tuple(_text(rng) for _ in range(rng.randint(0, 3)))
    expected = json_dumps_structured(rules, source)
    assert render_structured(rules, source=source) == expected
    ordered = sorted(rules, key=lambda r: r.id)
    assert [rule_to_obj(r) for r in ordered] == json.loads(expected)["rules"]


def test_structured_writer_matches_on_empty_lists():
    empty = '{\n  "version": 1,\n  "source": [],\n  "rules": []\n}\n'
    assert render_structured([]) == json_dumps_structured([]) == empty
    bare = make_rule(Pattern.SYMMETRIC, [IsA(VX, ClassRef(Iri("A")))], [IsA(VX, ClassRef(Iri("B")))])
    assert bare.provenance == Provenance()
    text = render_structured([bare])
    assert text == json_dumps_structured([bare])
    assert '"source": [],' in text and '"trigger_axioms": [],' in text


def test_structured_writer_escapes_like_the_stdlib_encoder():
    nasty = '"\\\x00\x1f\x7f</\u00e9\u2028\u4e2d\U0001f600'
    rule = make_rule(
        Pattern.ALLVALUESFROM,
        [Not(IsA(VY, ClassRef(Iri('C"\\</\u00e9'))))],
        [Not(Link(VX, PropRef(Iri("p\u4e2d\U0001f600")), LiteralTok(nasty)))],
        Provenance(sources=(nasty, "a.owl", nasty), trigger_axioms=(nasty,), display_form=nasty),
    )
    text = render_structured([rule], source=(nasty,))
    assert text == json_dumps_structured([rule], (nasty,))
    assert text.isascii()
    assert "\\ud83d\\ude00" in text and "\\u2028" in text and "\\u00e9" in text
    (reparsed,), source = parse_structured(text)
    assert source == [nasty]
    assert (reparsed.antecedent, reparsed.consequent) == (rule.antecedent, rule.consequent)
    assert reparsed.provenance.sources == (nasty, "a.owl")


# ---------------------------------------------------------------------------
# type-dispatched rendering against the pattern-matching reference


@pytest.mark.parametrize("seed", range(10))
def test_rule_text_and_ids_match_the_pattern_matching_reference(seed):
    rng = random.Random(1000 + seed)
    for rule in _random_rules(rng, 40):
        assert render_text(rule) == render_text_by_match(rule)
        assert rule.id == rule_id_by_match(rule)
        for atom in rule.antecedent + rule.consequent:
            assert render_atom(atom) == render_atom_by_match(atom)
            for term in vars(atom).values():
                if isinstance(term, Term):
                    assert render_term(term) == render_term_by_match(term)


def test_unknown_terms_and_atoms_are_type_errors():
    with pytest.raises(TypeError, match="unknown term"):
        render_term(Term())
    with pytest.raises(TypeError, match="unknown term"):
        render_atom(IsA(VX, Term()))
    with pytest.raises(TypeError, match="unknown atom"):
        render_atom(Not(Atom()))
    ok = IsA(VX, ClassRef(Iri("A")))
    for bad in (Atom(), IsA(VX, Term())):
        category = RuleCategory.MEANING_ENRICHING
        rule = Rule("x", (bad,), (ok,), Pattern.SYMMETRIC, category, True, Provenance())
        with pytest.raises(TypeError, match="unknown"):
            render_structured([rule])
