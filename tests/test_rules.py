from __future__ import annotations

import json
import pickle
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
    AllValuesFrom,
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
    SubPropertyOf,
    UnknownPatternError,
    extract_all,
    parse_structured,
    render_structured,
    render_text,
)
from owlrules.rules import (
    Atom,
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
    Term,
    Var,
    classify,
    coerce_pattern,
    make_rule,
    render_atom,
    render_term,
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


def _rule_of(pattern: Pattern) -> Rule:
    return make_rule(pattern, [IsA(VX, ClassRef(Iri("A")))], [IsA(VX, ClassRef(Iri("B")))])


def test_only_sole_partof_is_non_executable():
    for pattern in Pattern:
        expected = pattern is not Pattern.SOLE_PARTOF
        assert _rule_of(pattern).executable is expected


def test_a_rules_category_is_its_patterns():
    for pattern in Pattern:
        assert _rule_of(pattern).category is classify(pattern)


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


def _rule_fields(rule: Rule) -> dict:
    return {
        "id": rule.id,
        "antecedent": rule.antecedent,
        "consequent": rule.consequent,
        "pattern": rule.pattern,
        "provenance": rule.provenance,
    }


def test_rule_rejects_category_drift():
    # The category is read from the pattern: a rule cannot be given another.
    template = _fox_rule()
    with pytest.raises(TypeError):
        Rule(**_rule_fields(template), category=RuleCategory.UNOBVIOUS)
    with pytest.raises(AttributeError):
        template.category = RuleCategory.UNOBVIOUS
    assert Rule(**_rule_fields(template)).category is RuleCategory.SPECIFYING


def test_rule_rejects_executable_drift():
    template = _fox_rule()
    with pytest.raises(TypeError):
        Rule(**_rule_fields(template), executable=False)
    with pytest.raises(AttributeError):
        template.executable = False
    assert Rule(**_rule_fields(template)).executable is True


@pytest.mark.parametrize("seed", range(10))
def test_provenance_keeps_its_lists_sorted_and_distinct(seed):
    rng = random.Random(seed)
    sources = ["b.owl", "a.owl", "c.owl"]
    triggers = ["SubClassOf(B,C)", "InverseOf(p,q)", "SubClassOf(A,B)"]
    expected = Provenance(("a.owl", "b.owl", "c.owl"), sorted(triggers), "IF A THEN C")
    assert expected.sources == ("a.owl", "b.owl", "c.owl")
    assert expected.trigger_axioms == ("InverseOf(p,q)", "SubClassOf(A,B)", "SubClassOf(B,C)")
    # The same sets, permuted and with repeats, as tuples and as lists.
    permuted = [sources + rng.choices(sources, k=3), triggers + rng.choices(triggers, k=3)]
    for values in permuted:
        rng.shuffle(values)
    prov = Provenance(tuple(permuted[0]), permuted[1], "IF A THEN C")
    assert prov == expected and hash(prov) == hash(expected)
    assert type(prov.sources) is type(prov.trigger_axioms) is tuple


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


def _malformed_documents() -> dict[str, str]:
    """Broken rule documents by name, each derived from a good one."""
    good = json.loads(render_structured([_fox_rule()]))
    (rule,) = good["rules"]
    # JSON's true and 1.0 compare equal to 1 but are not the integer version.
    docs = {"version-2": {**good, "version": 2}, "version-true": {**good, "version": True}}
    docs["version-float"] = {**good, "version": 1.0}
    for key in ("rules", "source"):
        docs[f"no-{key}"] = {k: v for k, v in good.items() if k != key}
        docs[f"number-{key}"] = {**good, key: 5}
    docs["string-source"] = {**good, "source": "a.owl"}
    bad_rules = {
        f"rule-without-{key}": {k: v for k, v in rule.items() if k != key}
        for key in ("id", "pattern", "category", "executable", "if", "then", "provenance")
    }
    prov = rule["provenance"]
    isa = {"kind": "isa", "subject": {"var": "?x"}, "class": {"class": "Fox"}}
    bad_rules |= {
        "rule-number": 5,
        "rule-string": "rule",
        "rule-list": [rule],
        "provenance-number": {**rule, "provenance": 5},
        "provenance-partial": {**rule, "provenance": {"source": []}},
        "provenance-string-source": {**rule, "provenance": {**prov, "source": "a.owl"}},
        "provenance-number-display": {**rule, "provenance": {**prov, "display_form": 5}},
        "atom-number": {**rule, "if": [5]},
        "term-list": {**rule, "if": [{**isa, "subject": []}]},
        "iri-number": {**rule, "if": [{**isa, "class": {"class": 5}}]},
        "literal-number": {**rule, "if": [{**isa, "subject": {"literal": 5}}]},
        "pattern-list": {**rule, "pattern": []},
        # The category and the executable flag are the pattern's; JSON's 1 is not true.
        "category-mismatch": {**rule, "category": "identifying"},
        "category-number": {**rule, "category": 5},
        "executable-flipped": {**rule, "executable": False},
        "executable-number": {**rule, "executable": 1},
        "wrong-id": {**rule, "id": "cooccurrence-0000000000"},
        "term-unknown-key": {**rule, "if": [{**isa, "subject": {"individual-ish": "x"}}]},
        "atom-unknown-kind": {**rule, "if": [{**isa, "kind": "member"}]},
        "feature-class-term": {
            **rule,
            "if": [{"kind": "feature", "subject": {"var": "?x"}, "feature": {"class": "F"}}],
        },
    }
    docs |= {name: {**good, "rules": [bad]} for name, bad in bad_rules.items()}
    # Deep nesting, written as text: 700 negations in a rule's "if", and
    # arrays nested deeper than the JSON decoder recurses.
    nested = json.dumps(isa)
    for _ in range(700):
        nested = f'{{"kind": "not", "inner": {nested}}}'
    deep_not = json.dumps({**good, "rules": [{**rule, "if": []}]}).replace(
        '"if": []', f'"if": [{nested}]'
    )
    raw = {"array": "[]", "string": '"rules"', "truncated": "{", "deep-not": deep_not}
    raw["deep-arrays"] = "[" * 100000 + "]" * 100000
    return raw | {name: json.dumps(doc) for name, doc in docs.items()}


_MALFORMED = _malformed_documents()

# The start of the message for the documents that name an unknown kind.
_UNKNOWN_KIND_MESSAGES = {
    "term-unknown-key": "bad term object: {'individual-ish': 'x'}",
    "atom-unknown-kind": "bad atom object: {'kind': 'member', ",
    "feature-class-term": "feature must be a prop term: {'kind': 'feature', ",
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_parse_structured_rejects_malformed_documents_with_value_error(name):
    with pytest.raises(ValueError) as exc:
        parse_structured(_MALFORMED[name])
    assert str(exc.value).startswith(_UNKNOWN_KIND_MESSAGES.get(name, ""))


def test_structured_output_ends_with_newline():
    assert render_structured([]).endswith("\n")


def test_structured_link_object_key():
    (entry,) = json.loads(render_structured([_fox_rule()]))["rules"]
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


def _name(rng: random.Random) -> str:
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


@pytest.mark.parametrize("seed", range(20))
def test_structured_documents_read_back_as_the_rules_written(seed):
    rng = random.Random(500 + seed)
    rules = _random_rules(rng, rng.randint(0, 12))
    source = tuple(_text(rng) for _ in range(rng.randint(0, 3)))
    # The writer sorts the rules by id, and each list of strings as a set.
    expected = [
        Rule(
            r.id,
            r.antecedent,
            r.consequent,
            r.pattern,
            Provenance(
                tuple(sorted(set(r.provenance.sources))),
                tuple(sorted(set(r.provenance.trigger_axioms))),
                r.provenance.display_form,
            ),
        )
        for r in sorted(rules, key=lambda r: r.id)
    ]
    assert parse_structured(render_structured(rules, source=source)) == (
        expected,
        sorted(set(source)),
    )


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


# The fields of each atom kind that hold a term.
_TERM_FIELDS = {
    IsA: ("subject", "cls"),
    Link: ("subject", "prop", "obj"),
    HasFeature: ("subject",),
    Not: (),
    SchemaSubClassOf: ("sub", "sup"),
    SchemaEquivalent: ("a", "b"),
    SolePart: ("part", "whole"),
    MorePartsExpected: ("whole",),
}


@pytest.mark.parametrize("seed", range(10))
def test_rule_text_and_ids_match_the_pattern_matching_reference(seed):
    rng = random.Random(1000 + seed)
    for rule in _random_rules(rng, 40):
        assert render_text(rule) == render_text_by_match(rule)
        assert rule.id == rule_id_by_match(rule)
        for atom in rule.antecedent + rule.consequent:
            assert render_atom(atom) == render_atom_by_match(atom)
            for name in _TERM_FIELDS[type(atom)]:
                term = getattr(atom, name)
                assert render_term(term) == render_term_by_match(term)


def test_unknown_terms_and_atoms_are_type_errors():
    with pytest.raises(TypeError, match="unknown term"):
        render_term(Term())
    with pytest.raises(TypeError, match="unknown term"):
        render_atom(IsA(VX, Term()))
    with pytest.raises(TypeError, match="unknown atom"):
        render_atom(Not(Atom()))
    ok = IsA(VX, ClassRef(Iri("A")))
    with pytest.raises(TypeError, match="unknown atom"):
        make_rule(Pattern.SYMMETRIC, [ok, Atom()], [ok])
    # A rule walks its atoms when it is built, so a rule built directly
    # refuses them at once.
    for bad in (Atom(), IsA(VX, Term())):
        with pytest.raises(TypeError, match="unknown"):
            Rule("x", (bad,), (ok,), Pattern.SYMMETRIC, Provenance())


def test_a_rule_built_directly_coerces_its_pattern():
    a, b = IsA(VX, ClassRef(Iri("A"))), IsA(VX, ClassRef(Iri("B")))
    rule = Rule("x", (a,), (b,), "symmetric", Provenance())
    assert rule.pattern is Pattern.SYMMETRIC
    assert rule.category is RuleCategory.MEANING_ENRICHING
    assert render_structured([rule], ["a.owl"]) == json_dumps_structured([rule], ("a.owl",))
    with pytest.raises(UnknownPatternError):
        Rule("x", (a,), (b,), "no-such-pattern", Provenance())


# ---------------------------------------------------------------------------
# names that look like template syntax

# Format fields, lone and doubled braces, a printf directive, a control
# character, an escaped quote, and digits between NUL characters; then Python
# quotes and f-string syntax, which no compiled writer's source ever holds.
_TEMPLATE_LIKE = (
    "{0}", "{", "}}", "%s", "\x01", '\\"', "\x000\x00",
    "'", '"""', "'{0}'", "__import__('os')", "f'{x}'", r"\N{DASH}",
)


def _model_named(n: str):
    """A model whose every name is built from ``n``, on which all 13 scanners fire."""
    a, b, c, d, e = (Iri(f"{n}{suffix}") for suffix in ("", "1", "2", n, "3"))
    p, t = Iri(n), Iri(f"{n}t")
    builder = ModelBuilder()
    builder.declare_property(PropertyDecl(Iri(f"{n}f"), PropertyKind.DATATYPE, a))
    builder.declare_property(PropertyDecl(Iri(f"{n}g"), PropertyKind.DATATYPE, a))
    builder.declare_property(PropertyDecl(p, PropertyKind.OBJECT, a, b))
    builder.declare_property(PropertyDecl(Iri(f"{n}s"), PropertyKind.SYMMETRIC, a, c))
    builder.declare_property(PropertyDecl(t, PropertyKind.TRANSITIVE))
    for axiom in (
        SubClassOf(b, c),
        SubClassOf(c, d),
        EquivalentClass(a, e),
        SubClassOf(e, d),
        SubPropertyOf(p, t),
        InverseOf(p, Iri(f"{n}i")),
        AllValuesFrom(p, d),
        IntersectionOf(e, (b, c)),
        ClassLink(a, t, b),
        ClassLink(b, t, c),
    ):
        builder.add_axiom(axiom)
    return builder.build()


def _rule_named(n: str) -> Rule:
    """A rule that holds ``n`` in every term kind and as a bare feature."""
    name = Iri(n)
    return make_rule(
        Pattern.INTERSECTION,
        [
            IsA(IndividualRef(name), ClassRef(name)),
            Link(LiteralTok(n), PropRef(name), VX),
            Not(Link(VX, PropRef(name), IndividualRef(name))),
            SchemaEquivalent(ClassRef(name), LiteralTok(n)),
        ],
        [HasFeature(VX, name), SolePart(LiteralTok(n), ClassRef(name))],
        Provenance((n,), (n,), n),
    )


@pytest.mark.parametrize("n", _TEMPLATE_LIKE)
def test_names_that_look_like_template_syntax_go_in_verbatim(n):
    extracted = extract_all(_model_named(n)).rules
    assert {r.pattern for r in extracted} == set(Pattern)
    built = [
        make_rule(r.pattern, r.antecedent, r.consequent, r.provenance) for r in extracted
    ] + [_rule_named(n)]
    assert built[:-1] == extracted
    for rules in (extracted, built):
        for rule in rules:
            assert render_text(rule) == render_text_by_match(rule)
            assert rule.id == rule_id_by_match(rule)
            assert pickle.loads(pickle.dumps(rule)) == rule
        text = render_structured(rules, (n,))
        assert text == json_dumps_structured(rules, (n,))
        assert parse_structured(text)[0] == sorted(rules, key=lambda r: r.id)
    assert f"hasFeature(?x,{n})" in render_text(built[-1])
