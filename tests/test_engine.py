from __future__ import annotations

import gc
import random
import sys
from contextlib import contextmanager

import pytest
from conftest import DATA_DIR, corpus_text, load_model
from oracles import (
    closure_pairs,
    equivalence_lift_pairs,
    format_fact_by_match,
    joint_closure_pairs,
    naive_saturate,
    random_dag_model,
    random_instance,
    random_rule_instance,
)

from owlrules import (
    ContradictionError,
    EquivalentClass,
    Fact,
    FactBase,
    FeatureExpected,
    Iri,
    LinkFact,
    Membership,
    ModelBuilder,
    NegMembership,
    NonExecutableRuleError,
    Pattern,
    SubClassOf,
    extract_all,
    extract_allvaluesfrom,
    extract_cooccurrence,
    extract_intersection,
    extract_subclass_transitivity,
    extract_subproperty_lift,
    extract_symmetric,
    extract_transitive,
    format_fact,
    has_errors,
    parse_fact_base,
    parse_ontology,
    run_fixpoint,
    schema_closure,
)
from owlrules import cli, engine
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
    Rule,
    SchemaEquivalent,
    SchemaSubClassOf,
    SolePart,
    Var,
)

VX, VY, VZ = Var("?x"), Var("?y"), Var("?z")
CAP = 1000


def _facts(name: str) -> FactBase:
    base, diags = parse_fact_base(corpus_text(name))
    assert diags == []
    return base


def _executable(model) -> list:
    return [r for r in extract_all(model).rules if r.executable]


# ---------------------------------------------------------------------------
# fact base behavior


def test_format_fact_forms():
    assert format_fact(Membership(Iri("john"), Iri("Man"))) == "isa(john, Man)"
    assert format_fact(NegMembership(Iri("john"), Iri("Man"))) == "not isa(john, Man)"
    assert format_fact(LinkFact(Iri("a"), Iri("p"), Iri("b"))) == "link(a, p, b)"


def test_format_fact_matches_the_pattern_matching_reference():
    names = [Iri(t) for t in ("a", "Car", 'q"\\', "\u00e9t\u00e9", "#1")]
    kinds = (Membership, NegMembership, FeatureExpected)
    facts: list[Fact] = [kind(a, b) for kind in kinds for a in names for b in names]
    facts += [
        LinkFact(a, p, b, flag)
        for a in names
        for p in names[:2]
        for b in names
        for flag in (False, True)
    ]
    for fact in facts:
        assert format_fact(fact) == format_fact_by_match(fact)
    with pytest.raises(TypeError, match="unknown fact"):
        format_fact(Fact())


def test_fact_base_is_duplicate_free_and_tracks_derivations():
    base = FactBase()
    assert base.add(Membership(Iri("a"), Iri("B")))
    assert not base.add(Membership(Iri("a"), Iri("B")))
    base.add(LinkFact(Iri("a"), Iri("p"), Iri("b")), derived_by="some-rule")
    assert base.source_of(Membership(Iri("a"), Iri("B"))) == "initial"
    assert base.source_of(LinkFact(Iri("a"), Iri("p"), Iri("b"))) == "some-rule"


def test_fact_base_rejects_contradictions_on_add():
    base = FactBase()
    base.add(Membership(Iri("john"), Iri("Citizen")))
    with pytest.raises(ContradictionError) as exc:
        base.add(NegMembership(Iri("john"), Iri("Citizen")))
    assert "john" in str(exc.value) and "Citizen" in str(exc.value)


# ---------------------------------------------------------------------------
# scenario reproductions


def test_transitive_scenario_derives_the_third_link():
    rules = extract_transitive(load_model("transitive_resource.owl"))
    result = run_fixpoint(rules, _facts("facts_subarea.txt"), CAP)
    derived_facts = [f for f, _ in result.derived]
    assert LinkFact(Iri("latgale"), Iri("subAreaOf"), Iri("eu")) in derived_facts
    assert result.converged
    assert result.iterations == 2


def test_transitive_derivation_is_marked_with_the_variable_rule():
    rules = extract_transitive(load_model("transitive_resource.owl"))
    variable_rule = next(
        r for r in rules if all(isinstance(a.subject, Var) for a in r.antecedent)
    )
    result = run_fixpoint(rules, _facts("facts_subarea.txt"), CAP)
    new_link = LinkFact(Iri("latgale"), Iri("subAreaOf"), Iri("eu"))
    assert result.final.source_of(new_link) == variable_rule.id


def test_intersection_scenario_derives_both_memberships():
    rules = extract_intersection(load_model("intersection.owl"))
    result = run_fixpoint(rules, _facts("facts_man.txt"), CAP)
    final = set(result.final)
    assert Membership(Iri("john"), Iri("Male")) in final
    assert Membership(Iri("john"), Iri("Human")) in final


def test_subproperty_scenario_lifts_the_link():
    rules = extract_subproperty_lift(load_model("subproperty.owl"))
    result = run_fixpoint(rules, _facts("facts_father.txt"), CAP)
    assert LinkFact(Iri("tom"), Iri("hasParent"), Iri("bob")) in set(result.final)


def test_cooccurrence_scenario_is_a_cross_product():
    rules = extract_cooccurrence(load_model("cooccurrence.owl"))
    base = FactBase(
        [
            Membership(Iri("f1"), Iri("Fox")),
            Membership(Iri("f2"), Iri("Fox")),
            Membership(Iri("h1"), Iri("Hole")),
        ]
    )
    result = run_fixpoint(rules, base, CAP)
    assert len(result.derived) == 2
    derived = {f for f, _ in result.derived}
    assert derived == {
        LinkFact(Iri("f1"), Iri("liveIn"), Iri("h1")),
        LinkFact(Iri("f2"), Iri("liveIn"), Iri("h1")),
    }


def test_allvaluesfrom_scenario_reports_a_violation():
    rules = extract_allvaluesfrom(load_model("allvaluesfrom.owl"))
    result = run_fixpoint(rules, _facts("facts_pass.txt"), CAP)
    assert result.derived == []
    assert len(result.violations) == 1
    fact, rule_id = result.violations[0]
    assert fact == LinkFact(Iri("anna"), Iri("hasPass"), Iri("p1"))
    assert rule_id == rules[0].id


def test_allvaluesfrom_is_satisfied_by_the_filler_membership():
    rules = extract_allvaluesfrom(load_model("allvaluesfrom.owl"))
    base = FactBase(
        [
            LinkFact(Iri("anna"), Iri("hasPass"), Iri("p1")),
            Membership(Iri("p1"), Iri("Citizen")),
        ]
    )
    result = run_fixpoint(rules, base, CAP)
    assert result.violations == []


def test_empty_rule_list_is_a_single_settled_round():
    base = FactBase([Membership(Iri("a"), Iri("B"))])
    result = run_fixpoint([], base, CAP)
    assert result.derived == []
    assert result.iterations == 1
    assert result.converged


# ---------------------------------------------------------------------------
# class-flagged links


def test_symmetric_consequents_are_class_flagged():
    rules = extract_symmetric(load_model("symmetric.owl"))
    base = FactBase([Membership(Iri("ada"), Iri("Programmer"))])
    result = run_fixpoint(rules, base, CAP)
    (derived, _) = result.derived[0]
    assert derived == LinkFact(Iri("ada"), Iri("colleagueOf"), Iri("Engineer"), obj_is_class=True)


def test_flagged_links_never_bind_object_variables():
    lift = Rule(
        Pattern.SUBPROPERTY_LIFT,
        [Link(VX, PropRef(Iri("colleagueOf")), VY)],
        [Link(VX, PropRef(Iri("knows")), VY)],
    )
    flagged = LinkFact(Iri("ada"), Iri("colleagueOf"), Iri("Engineer"), obj_is_class=True)
    result = run_fixpoint([lift], FactBase([flagged]), CAP)
    assert result.derived == []


def test_flagged_links_do_match_ground_class_objects():
    p = PropRef(Iri("subAreaOf"))
    grounded = Rule(
        Pattern.TRANSITIVE_PROPERTY,
        [
            Link(ClassRef(Iri("Latgale")), p, ClassRef(Iri("Latvia"))),
            Link(ClassRef(Iri("Latvia")), p, ClassRef(Iri("EU"))),
        ],
        [Link(ClassRef(Iri("Latgale")), p, ClassRef(Iri("EU")))],
    )
    base = FactBase(
        [
            LinkFact(Iri("Latgale"), Iri("subAreaOf"), Iri("Latvia"), obj_is_class=True),
            LinkFact(Iri("Latvia"), Iri("subAreaOf"), Iri("EU"), obj_is_class=True),
        ]
    )
    result = run_fixpoint([grounded], base, CAP)
    derived = {f for f, _ in result.derived}
    assert derived == {
        LinkFact(Iri("Latgale"), Iri("subAreaOf"), Iri("EU"), obj_is_class=True)
    }


def test_flagged_links_are_exempt_from_violation_scans():
    rules = extract_allvaluesfrom(load_model("allvaluesfrom.owl"))
    flagged = LinkFact(Iri("ada"), Iri("hasPass"), Iri("Visa"), obj_is_class=True)
    result = run_fixpoint(rules, FactBase([flagged]), CAP)
    assert result.violations == []


# ---------------------------------------------------------------------------
# indexed lookup edge cases


def test_an_atom_that_repeats_a_variable_matches_only_equal_components():
    rule = Rule(
        Pattern.SUBPROPERTY_LIFT,
        [Link(VX, PropRef(Iri("p")), VX)],
        [Link(VX, PropRef(Iri("q")), VX)],
    )
    base = FactBase(
        [
            LinkFact(Iri("a"), Iri("p"), Iri("b")),
            LinkFact(Iri("b"), Iri("p"), Iri("b")),
            LinkFact(Iri("c"), Iri("p"), Iri("c"), obj_is_class=True),
        ]
    )
    result = run_fixpoint([rule], base, CAP)
    assert [f for f, _ in result.derived] == [LinkFact(Iri("b"), Iri("q"), Iri("b"))]


def test_a_variable_property_matches_links_of_every_property():
    rule = Rule(
        Pattern.SUBPROPERTY_LIFT,
        [Link(VX, VY, VZ)],
        [Link(VX, PropRef(Iri("related")), VZ)],
    )
    base = FactBase(
        [
            LinkFact(Iri("a"), Iri("p"), Iri("b")),
            Membership(Iri("a"), Iri("p")),
            LinkFact(Iri("c"), Iri("q"), Iri("d")),
            LinkFact(Iri("e"), Iri("q"), Iri("Engineer"), obj_is_class=True),
        ]
    )
    result = run_fixpoint([rule], base, CAP)
    assert [f for f, _ in result.derived] == [
        LinkFact(Iri("a"), Iri("related"), Iri("b")),
        LinkFact(Iri("c"), Iri("related"), Iri("d")),
    ]


def test_a_flagged_link_reached_by_its_object_never_binds_the_object():
    # ?y is bound by the first atom, so the link atom looks its facts up by
    # object; the class-flagged link shares that object but must not match.
    rule = Rule(
        Pattern.DOMAIN_RANGE_IDENTIFICATION,
        [IsA(VY, ClassRef(Iri("Role"))), Link(VX, PropRef(Iri("knows")), VY)],
        [IsA(VX, ClassRef(Iri("Social")))],
    )
    base = FactBase(
        [
            Membership(Iri("Engineer"), Iri("Role")),
            LinkFact(Iri("ada"), Iri("knows"), Iri("Engineer"), obj_is_class=True),
            LinkFact(Iri("bob"), Iri("knows"), Iri("Engineer")),
        ]
    )
    result = run_fixpoint([rule], base, CAP)
    assert [f for f, _ in result.derived] == [Membership(Iri("bob"), Iri("Social"))]


def test_a_fact_two_rules_derive_in_one_round_belongs_to_the_earlier_rule():
    to_c = [IsA(VX, ClassRef(Iri("C")))]
    from_a = Rule(Pattern.INTERSECTION, [IsA(VX, ClassRef(Iri("A")))], to_c)
    from_b = Rule(Pattern.INTERSECTION, [IsA(VX, ClassRef(Iri("B")))], to_c)
    base = FactBase([Membership(Iri("i"), Iri("A")), Membership(Iri("i"), Iri("B"))])
    shared = Membership(Iri("i"), Iri("C"))
    for first, second in ((from_a, from_b), (from_b, from_a)):
        result = run_fixpoint([first, second], base, CAP)
        assert result.derived == [(shared, first.id)]
        assert result.final.source_of(shared) == first.id


def test_combined_fixture_derivations_keep_their_order_and_rule_ids():
    model, _ = parse_ontology((DATA_DIR / "combined.owl").read_text(encoding="utf-8"))
    base, diags = parse_fact_base((DATA_DIR / "combined.facts").read_text(encoding="utf-8"))
    assert diags == []
    result = run_fixpoint(_executable(model), base, CAP)
    lines = "".join(f"{rule_id} {format_fact(fact)}\n" for fact, rule_id in result.derived)
    assert lines == (DATA_DIR / "combined.derivations.txt").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# error paths and caps


def test_non_executable_rules_are_rejected_by_id():
    rule = Rule(
        Pattern.SOLE_PARTOF,
        [SolePart(ClassRef(Iri("House")), ClassRef(Iri("City")))],
        [MorePartsExpected(ClassRef(Iri("City")))],
    )
    with pytest.raises(NonExecutableRuleError) as exc:
        run_fixpoint([rule], FactBase(), CAP)
    assert rule.id in str(exc.value)


def _positive(antecedent: list, consequent: list):
    return Rule(Pattern.INTERSECTION, antecedent, consequent)


def test_an_unbound_consequent_variable_is_rejected_before_the_rule_fires():
    rule = _positive([IsA(VX, ClassRef(Iri("A")))], [IsA(VZ, ClassRef(Iri("B")))])
    # No fact matches the antecedent: the rule is rejected all the same.
    with pytest.raises(ValueError, match=rf"^rule {rule.id}: consequent variable \?z is unbound$"):
        run_fixpoint([rule], FactBase(), CAP)


def test_a_literal_in_a_consequent_is_rejected_with_the_rule_id():
    rule = _positive(
        [IsA(VX, ClassRef(Iri("A")))], [Link(VX, PropRef(Iri("age")), LiteralTok("42"))]
    )
    # The rule's own term, not the slot or placeholder its shape was compiled on.
    message = rf"^rule {rule.id}: cannot ground LiteralTok\(text='42'\)$"
    with pytest.raises(ValueError, match=message):
        run_fixpoint([rule], FactBase([Membership(Iri("a"), Iri("A"))]), CAP)


def test_a_negated_antecedent_on_a_positive_rule_is_rejected():
    rule = _positive(
        [IsA(VX, ClassRef(Iri("A"))), Not(IsA(VX, ClassRef(Iri("B"))))],
        [IsA(VX, ClassRef(Iri("C")))],
    )
    with pytest.raises(ValueError, match=rf"^rule {rule.id}: negated antecedents"):
        run_fixpoint([rule], FactBase(), CAP)


def test_an_unsupported_integrity_check_shape_is_rejected():
    rule = Rule(
        Pattern.ALLVALUESFROM, [IsA(VX, ClassRef(Iri("A")))], [Not(IsA(VX, ClassRef(Iri("B"))))]
    )
    with pytest.raises(ValueError, match=rf"^rule {rule.id}: unsupported integrity-check shape$"):
        run_fixpoint([rule], FactBase(), CAP)


@pytest.mark.parametrize(
    "consequent, error",
    [
        (lambda name: IsA(VZ, ClassRef(Iri(name))), "consequent variable ?z is unbound"),
        (lambda name: Link(VX, PropRef(Iri("p")), LiteralTok(name)), "cannot ground LiteralTok"),
    ],
)
def test_each_rule_of_a_bad_shape_is_named_on_every_call(consequent, error):
    # The failed shape is not kept: a later rule of it is named by its own id.
    rules = [_positive([IsA(VX, ClassRef(Iri(name)))], [consequent(name)]) for name in "AB"]
    assert rules[0].shape is rules[1].shape and rules[0].id != rules[1].id
    for _ in range(2):
        for rule in rules:
            with pytest.raises(ValueError) as exc:
                run_fixpoint([rule], FactBase(), CAP)
            assert str(exc.value).startswith(f"rule {rule.id}: {error}")


def test_a_second_call_compiles_no_rule_shape(monkeypatch):
    model, _ = parse_ontology((DATA_DIR / "combined.owl").read_text(encoding="utf-8"))
    base, _ = parse_fact_base((DATA_DIR / "combined.facts").read_text(encoding="utf-8"))
    rules = _executable(model)
    compiled = []

    def counting(shape, slots):
        compiled.append(shape)
        return compile_shape(shape, slots)

    compile_shape = engine._compile_shape
    monkeypatch.setattr(engine, "_PREPARED", {})
    monkeypatch.setattr(engine, "_compile_shape", counting)
    first = run_fixpoint(rules, base, CAP)
    assert 0 < len(compiled) <= len({rule.shape for rule in rules})
    compiled.clear()
    second = run_fixpoint(rules, base, CAP)
    assert compiled == []
    assert (second.derived, second.derived_text, second.violations, second.violation_text) == (
        first.derived,
        first.derived_text,
        first.violations,
        first.violation_text,
    )


@contextmanager
def _collections_watched(stage, collecting: bool):
    """Sets the collector to ``collecting``, with a threshold of 1 so that
    nearly every allocation while it is on starts a collection, and yields
    the generations of those that start while ``stage``'s own body runs.
    Puts the hook, the threshold and the collector's state back afterwards."""
    body = getattr(stage, "__wrapped__", stage).__code__
    started: list[int] = []
    inside: list[int] = []

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(info["generation"])
            frame = sys._getframe(1)  # the frame running when it started
            while frame is not None and frame.f_code is not body:
                frame = frame.f_back
            if frame is not None:
                inside.append(info["generation"])

    was, threshold = gc.isenabled(), gc.get_threshold()
    gc.callbacks.append(hook)
    gc.set_threshold(1)
    (gc.enable if collecting else gc.disable)()
    try:
        if collecting:  # the hook sees the collections that allocations start
            [[] for _ in range(1000)]
            assert started
        yield inside
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*threshold)
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("contradicted", [False, True])
@pytest.mark.parametrize("collecting", [True, False])
def test_run_fixpoint_pauses_the_collector_and_restores_its_state(
    monkeypatch, collecting, contradicted
):
    rule = _positive([IsA(VX, ClassRef(Iri("A")))], [IsA(VX, ClassRef(Iri("B")))])
    facts = [Membership(Iri("a"), Iri("A"))]
    if contradicted:
        facts.append(NegMembership(Iri("a"), Iri("B")))
    during = []
    rounds = engine._round
    monkeypatch.setattr(
        engine, "_round", lambda *args: during.append(gc.isenabled()) or rounds(*args)
    )
    with _collections_watched(run_fixpoint, collecting) as inside:
        if contradicted:
            with pytest.raises(ContradictionError):
                run_fixpoint([rule], FactBase(facts), CAP)
        else:
            run_fixpoint([rule], FactBase(facts), CAP)
        assert gc.isenabled() is collecting
    assert during and not any(during)
    assert inside == []


def _data_text(name: str) -> str:
    return (DATA_DIR / name).read_text(encoding="utf-8")


def _data_model(name: str):
    model, diags = parse_ontology(_data_text(name), name)
    assert not has_errors(diags)
    return model


def _schema_rules(model) -> list:
    schema = (Pattern.SUBCLASS_TRANSITIVITY, Pattern.EQUIVALENCE_INHERITANCE)
    return [r for r in extract_all(model).rules if r.pattern in schema]


def _data(name: str) -> str:
    return str(DATA_DIR / name)


def _cli(*argv):
    """A ``main`` case: ``argv``, where a ``(name, text)`` pair is a file
    written with ``text``, and the output goes to a file."""

    def make(tmp):
        paths = []
        for arg in argv:
            if isinstance(arg, tuple):
                (tmp / arg[0]).write_text(arg[1], encoding="utf-8")
                arg = str(tmp / arg[0])
            paths.append(arg)
        return cli.main, ([*paths, "--output", str(tmp / "out")],)

    return make


# Each case makes a stage's arguments, and names what the stage returns
# (``None`` for anything) or the exception it raises.
_STAGE_CASES = {
    "parse": (lambda tmp: (parse_ontology, (_data_text("patterns.owl"),)), None),
    "parse-error": (lambda tmp: (parse_ontology, ("<owl:Class rdf:ID='A'>",)), None),
    "facts": (lambda tmp: (parse_fact_base, (_data_text("combined.facts"),)), None),
    "facts-contradiction": (
        lambda tmp: (parse_fact_base, ("isa(a, B)\nnot isa(a, B)\n",)),
        ContradictionError,
    ),
    "extract": (lambda tmp: (extract_all, (_data_model("patterns.owl"),)), None),
    "fixpoint": (
        lambda tmp: (
            run_fixpoint,
            (
                _executable(_data_model("combined.owl")),
                parse_fact_base(_data_text("combined.facts"))[0],
                CAP,
            ),
        ),
        None,
    ),
    "fixpoint-contradiction": (
        lambda tmp: (
            run_fixpoint,
            (
                [_positive([IsA(VX, ClassRef(Iri("A")))], [IsA(VX, ClassRef(Iri("B")))])],
                FactBase([Membership(Iri("a"), Iri("A")), NegMembership(Iri("a"), Iri("B"))]),
                CAP,
            ),
        ),
        ContradictionError,
    ),
    "fixpoint-nonexecutable": (
        lambda tmp: (
            run_fixpoint,
            (extract_all(_data_model("patterns.owl")).rules, FactBase(), CAP),
        ),
        NonExecutableRuleError,
    ),
    "closure": (
        lambda tmp: (schema_closure, (model := _data_model("patterns.owl"), _schema_rules(model))),
        None,
    ),
    "main-exit-0": (_cli("extract", _data("patterns.owl"), "--format", "structured"), 0),
    "main-exit-1": (_cli("extract", _data("patterns.owl"), _data("no-such.owl")), 1),
    "main-exit-2": (
        _cli(
            "extract",
            ("object.owl", '<owl:ObjectProperty rdf:ID="p"/>'),
            ("datatype.owl", '<owl:DatatypeProperty rdf:ID="p"/>'),
        ),
        2,
    ),
    "main-exit-3": (
        _cli("infer", _data("combined.owl"), "--facts", ("x.facts", "isa(a, B)\nnot isa(a, B)\n")),
        3,
    ),
    "main-exit-4": (
        _cli("infer", _data("chain40.owl"), "--facts", _data("chain40.facts"), "--cap", "1"),
        4,
    ),
    "main-exit-5": (
        _cli("infer", _data("combined.owl"), "--facts", _data("combined.facts"), "--strict"),
        5,
    ),
    "main-usage": (_cli("infer", _data("combined.owl")), SystemExit),
}


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("case", list(_STAGE_CASES))
def test_each_stage_pauses_the_collector_and_restores_its_state(tmp_path, case, collecting):
    make, outcome = _STAGE_CASES[case]
    stage, args = make(tmp_path)
    with _collections_watched(stage, collecting) as inside:
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                stage(*args)
        else:
            result = stage(*args)
            assert outcome is None or result == outcome
        assert gc.isenabled() is collecting
    assert inside == []


def test_a_schema_consequent_beside_an_instance_consequent_is_skipped():
    a, b = ClassRef(Iri("A")), ClassRef(Iri("B"))
    rule = Rule(
        Pattern.INTERSECTION, [IsA(VX, a)], [IsA(VX, b), SchemaSubClassOf(a, b)]
    )
    result = run_fixpoint([rule], FactBase([Membership(Iri("i"), Iri("A"))]), CAP)
    assert result.derived == [(Membership(Iri("i"), Iri("B")), rule.id)]
    assert result.violations == [] and result.converged


def test_a_literal_in_an_antecedent_silences_the_rule():
    # The literal spells a name the facts use, and still matches nothing.
    rule = _positive(
        [Link(VX, PropRef(Iri("age")), LiteralTok("n42")), HasFeature(VX, Iri("Wheel"))],
        [IsA(VX, ClassRef(Iri("Aged")))],
    )
    base = FactBase(
        [LinkFact(Iri("a"), Iri("age"), Iri("n42")), FeatureExpected(Iri("a"), Iri("Wheel"))]
    )
    result = run_fixpoint([rule], base, CAP)
    assert (result.derived, result.iterations, result.converged) == ([], 1, True)


def test_initial_contradiction_is_reported():
    with pytest.raises(ContradictionError, match=r"contradiction on \(a, B\)"):
        FactBase([Membership(Iri("a"), Iri("B")), NegMembership(Iri("a"), Iri("B"))])


def test_cap_of_one_leaves_a_long_chain_unconverged():
    p = PropRef(Iri("next"))
    chain_rule = Rule(
        Pattern.TRANSITIVE_PROPERTY,
        [Link(VX, p, VY), Link(VY, p, VZ)],
        [Link(VX, p, VZ)],
    )
    base = FactBase(
        [LinkFact(Iri(f"n{i}"), Iri("next"), Iri(f"n{i + 1}")) for i in range(6)]
    )
    capped = run_fixpoint([chain_rule], base, 1)
    assert not capped.converged
    assert capped.iterations == 1
    full = run_fixpoint([chain_rule], base, CAP)
    assert full.converged
    assert len(full.derived) > len(capped.derived)


def test_cap_below_one_is_rejected():
    with pytest.raises(ValueError):
        run_fixpoint([], FactBase(), 0)


def test_run_fixpoint_does_not_mutate_the_input():
    rules = extract_intersection(load_model("intersection.owl"))
    base = _facts("facts_man.txt")
    snapshot = list(base)
    run_fixpoint(rules, base, CAP)
    assert list(base) == snapshot


def test_derived_facts_are_new_facts():
    rules = extract_transitive(load_model("transitive_resource.owl"))
    base = _facts("facts_subarea.txt")
    result = run_fixpoint(rules, base, CAP)
    for fact, _ in result.derived:
        assert fact not in base


# ---------------------------------------------------------------------------
# randomized cross-checks


def test_fixpoint_agrees_with_naive_saturation():
    rng = random.Random(5)
    for _ in range(15):
        rules, facts = random_instance(rng)
        result = run_fixpoint(rules, FactBase(facts), CAP)
        oracle_final, oracle_violations = naive_saturate(rules, facts)
        assert set(result.final) == oracle_final
        assert set(result.violations) == oracle_violations
        assert result.converged


def test_fixpoint_agrees_with_naive_saturation_on_hand_built_rules():
    rng = random.Random(9)
    for _ in range(300):
        rules, facts = random_rule_instance(rng)
        result = run_fixpoint(rules, FactBase(facts), CAP)
        oracle_final, oracle_violations = naive_saturate(rules, facts)
        assert set(result.final) == oracle_final, (rules, facts)
        assert set(result.violations) == oracle_violations, (rules, facts)
        assert result.converged


# A naive round-by-round reference for run_fixpoint's output contract.  Each
# round fires every rule, in list order, on every binding over the facts known
# when the round starts; a new fact belongs to the first rule that derives it.
# It lives here rather than in oracles.py, which the benchmark worker imports.

_KIND_OF = {IsA: Membership, Link: LinkFact, HasFeature: FeatureExpected}


def _unify(atom, fact: Fact, binds: dict) -> dict | None:
    if type(fact) is not _KIND_OF.get(type(atom)):
        return None
    if isinstance(atom, Link) and isinstance(atom.obj, Var) and fact.obj_is_class:
        return None  # a class-flagged object binds no variable
    for term, value in zip(atom[1:], fact[1:]):
        if isinstance(term, Var):
            if binds.setdefault(term, value) != value:
                return None
        elif isinstance(term, (ClassRef, PropRef, IndividualRef)):
            if term.iri != value:
                return None
        elif not (isinstance(term, str) and term == value):
            return None  # a literal matches no name
    return binds


def _reference_heads(rule, facts: list[Fact]) -> list[Fact]:
    atoms = []
    for atom in rule.antecedent:
        if isinstance(atom, (SchemaSubClassOf, SchemaEquivalent)):
            if any(isinstance(t, Var) for t in atom[1:]):
                return []  # a variable-bearing schema atom silences the rule
        else:
            atoms.append(atom)
    bindings = [{}]
    for atom in atoms:
        bindings = [
            b for old in bindings for f in facts if (b := _unify(atom, f, dict(old))) is not None
        ]
    heads = []
    for b in bindings:
        for atom in rule.consequent:
            if type(atom) in _KIND_OF:
                values = [b[t] if isinstance(t, Var) else getattr(t, "iri", t) for t in atom[1:]]
                if isinstance(atom, Link):
                    values.append(isinstance(atom.obj, ClassRef))
                heads.append(_KIND_OF[type(atom)](*values))
    return heads


def _reference_run(rules, facts: list[Fact], cap: int):
    """``(rounds, iterations, converged, violations)``: ``rounds`` holds each
    round's new facts with their rule ids, in canonical order."""
    known = list(facts)
    rounds = []
    iterations, converged = 0, False
    while iterations < cap:
        iterations += 1
        start = list(known)
        fresh: dict[Fact, str] = {}
        for rule in rules:
            if not any(isinstance(a, Not) for a in rule.consequent):
                for fact in _reference_heads(rule, start):
                    if fact not in start and fact not in fresh:
                        fresh[fact] = rule.id
        if not fresh:
            converged = True
            break
        # By text; a class-flagged link after the unflagged one that reads the same.
        rounds.append(sorted(fresh.items(), key=lambda fr: (format_fact(fr[0]), fr[0][-1] is True)))
        known += fresh
    violations = {
        (fact, rule.id)
        for rule in rules
        if any(isinstance(a, Not) for a in rule.consequent)
        for fact in known
        if type(fact) is LinkFact
        and fact.prop == rule.consequent[0].inner.prop.iri
        and not fact.obj_is_class
        and Membership(fact.obj, rule.antecedent[0].inner.cls.iri) not in known
    }
    return rounds, iterations, converged, violations


def test_fixpoint_matches_the_round_by_round_reference_under_every_cap():
    rng = random.Random(1010)
    for case in range(600):  # 300 of each generator
        make = random_rule_instance if case % 2 else random_instance
        rules, facts = make(rng)
        full = run_fixpoint(rules, FactBase(facts), CAP)
        for cap in range(1, full.iterations + 1):
            result = run_fixpoint(rules, FactBase(facts), cap)
            rounds, iterations, converged, violations = _reference_run(rules, facts, cap)
            got = (result.derived, result.iterations, result.converged, set(result.violations))
            want = ([pair for r in rounds for pair in r], iterations, converged, violations)
            assert got == want, (case, cap, rules, facts)
            assert result.derived_text == [format_fact(fact) for fact, _ in result.derived]
            assert result.violation_text == [format_fact(fact) for fact, _ in result.violations]
            assert result.violations == sorted(
                result.violations, key=lambda v: (format_fact(v[0]), v[1])
            )


def _round_ends(name: str) -> list[int]:
    """How many facts the golden fixture ``name`` derives by the end of each round."""
    model, _ = parse_ontology((DATA_DIR / f"{name}.owl").read_text(encoding="utf-8"))
    base, _ = parse_fact_base((DATA_DIR / f"{name}.facts").read_text(encoding="utf-8"))
    rules = _executable(model)
    full = run_fixpoint(rules, base, CAP)
    return [len(run_fixpoint(rules, base, cap).derived) for cap in range(1, full.iterations)]


@pytest.mark.parametrize(
    "name, golden",
    [("chain40", "infer"), ("combined", "infer"), ("combined", "derivations")],
)
def test_golden_files_list_each_round_sorted_by_text(name, golden):
    lines = (DATA_DIR / f"{name}.{golden}.txt").read_text(encoding="utf-8").splitlines()
    if golden == "infer":
        facts = lines[1 : lines.index("violations:")]
    else:
        facts = [line.split(" ", 1)[1] for line in lines]
    ends = _round_ends(name)
    assert ends[-1] == len(facts) and len(ends) > 1
    for start, end in zip([0, *ends], ends):
        assert facts[start:end] == sorted(facts[start:end])


def test_adding_a_fact_never_shrinks_the_outcome():
    rng = random.Random(17)
    checked = 0
    while checked < 15:
        rules, facts = random_instance(rng)
        extra = Membership(Iri("i0"), Iri("A"))
        if extra in facts:
            continue
        checked += 1
        small = run_fixpoint(rules, FactBase(facts), CAP)
        large = run_fixpoint(rules, FactBase(facts + [extra]), CAP)
        assert set(small.final) <= set(large.final)


# ---------------------------------------------------------------------------
# schema closure


def test_schema_closure_completes_the_chain():
    model = load_model("subclass_chain_resource.owl")
    rules = extract_subclass_transitivity(model)
    assert schema_closure(model, rules) == [SubClassOf(Iri("House"), Iri("Country"))]


def test_schema_closure_lifts_across_equivalence():
    model = load_model("equivalence_nested.owl")
    rules = extract_all(model).rules
    schema_rules = [r for r in rules if r.pattern is Pattern.EQUIVALENCE_INHERITANCE]
    assert schema_closure(model, schema_rules) == [SubClassOf(Iri("Auto"), Iri("Vehicle"))]


def test_schema_closure_without_rules_derives_nothing():
    model = load_model("subclass_chain_resource.owl")
    assert schema_closure(model, []) == []


def test_schema_closure_rejects_instance_rules():
    model = load_model("cooccurrence.owl")
    stray = extract_cooccurrence(model)
    with pytest.raises(ValueError):
        schema_closure(model, stray)


def test_schema_closure_joint_fixpoint_interleaves_both_shapes():
    b = ModelBuilder()
    b.add_axiom(EquivalentClass(Iri("A"), Iri("B")))
    b.add_axiom(SubClassOf(Iri("B"), Iri("C")))
    b.add_axiom(SubClassOf(Iri("C"), Iri("D")))
    model = b.build()
    # Use genuinely extracted rules so the gate reflects real output.
    rules = [
        r
        for r in extract_all(model).rules
        if r.pattern in (Pattern.SUBCLASS_TRANSITIVITY, Pattern.EQUIVALENCE_INHERITANCE)
    ]
    derived = schema_closure(model, rules)
    edges = {(model_ax.sub, model_ax.sup) for model_ax in model.axioms_of(SubClassOf)}
    equivs = [(ax.a, ax.b) for ax in model.axioms_of(EquivalentClass)]
    expected = joint_closure_pairs(edges, equivs)
    assert {(ax.sub, ax.sup) for ax in derived} == expected
    # the interleaved result must include the lift of the derived (B,D) edge
    assert SubClassOf(Iri("A"), Iri("D")) in derived


def test_schema_closure_chains_only_when_a_transitivity_rule_is_given():
    # Each shape runs only when ``rules`` holds a rule of its pattern, and
    # extract_all emits a transitivity rule only for a chain of two given
    # subclass axioms: here, only once the unrelated D < E < F is added.
    def closure(*extra: tuple[str, str]) -> list[SubClassOf]:
        b = ModelBuilder()
        b.add_axiom(SubClassOf(Iri("X"), Iri("A")))
        b.add_axiom(EquivalentClass(Iri("A"), Iri("B")))
        for sub, sup in (("B", "C"), *extra):
            b.add_axiom(SubClassOf(Iri(sub), Iri(sup)))
        model = b.build()
        schema = (Pattern.SUBCLASS_TRANSITIVITY, Pattern.EQUIVALENCE_INHERITANCE)
        return schema_closure(model, [r for r in extract_all(model).rules if r.pattern in schema])

    assert closure() == [SubClassOf(Iri("A"), Iri("C"))]
    assert closure(("D", "E"), ("E", "F")) == [
        SubClassOf(Iri("A"), Iri("C")),
        SubClassOf(Iri("D"), Iri("F")),
        SubClassOf(Iri("X"), Iri("C")),
    ]


def test_schema_closure_matches_warshall_on_random_dags():
    rng = random.Random(31)
    gate = Rule(
        Pattern.SUBCLASS_TRANSITIVITY,
        [
            SchemaSubClassOf(ClassRef(Iri("A")), ClassRef(Iri("B"))),
            SchemaSubClassOf(ClassRef(Iri("B")), ClassRef(Iri("C"))),
        ],
        [SchemaSubClassOf(ClassRef(Iri("A")), ClassRef(Iri("C")))],
    )
    for _ in range(20):
        model, edges = random_dag_model(rng, max_nodes=25)
        derived = schema_closure(model, [gate])
        assert {(ax.sub, ax.sup) for ax in derived} == closure_pairs(edges)


def test_schema_closure_output_is_sorted():
    rng = random.Random(8)
    model, _ = random_dag_model(rng, max_nodes=25, p=0.3)
    rules = extract_subclass_transitivity(model)
    if not rules:
        pytest.skip("degenerate sample")
    derived = schema_closure(model, rules)
    keys = [(ax.sub, ax.sup) for ax in derived]
    assert keys == sorted(keys)


def _random_schema_model(rng: random.Random):
    """Random subclass edges (cycles allowed) plus chained equivalences.

    ``SubClassOf`` rejects an axiom relating a class to itself, so the
    self-pairs come from cycles instead: with transitivity on, a class on a
    cycle reaches itself, and that pair must never be reported.
    """
    names = [Iri(f"K{i}") for i in range(rng.randint(2, 9))]
    b = ModelBuilder()
    edges: set[tuple[str, str]] = set()
    for _ in range(rng.randint(0, 14)):
        sub, sup = rng.sample(names, 2)
        b.add_axiom(SubClassOf(sub, sup))
        edges.add((sub, sup))
    # a chain K0 = K1 = ... plus a few random equivalences
    equivs = [(names[i], names[i + 1]) for i in range(rng.randint(0, min(3, len(names) - 1)))]
    equivs += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2))]
    for a, c in equivs:
        b.add_axiom(EquivalentClass(a, c))
    model = b.build()
    return model, edges, [(ax.a, ax.b) for ax in model.axioms_of(EquivalentClass)]


_TRANSITIVITY = Rule(
    Pattern.SUBCLASS_TRANSITIVITY,
    [SchemaSubClassOf(ClassRef(Iri("A")), ClassRef(Iri("B")))],
    [SchemaSubClassOf(ClassRef(Iri("A")), ClassRef(Iri("B")))],
)
_EQUIVALENCE = Rule(
    Pattern.EQUIVALENCE_INHERITANCE,
    [SchemaEquivalent(ClassRef(Iri("A")), ClassRef(Iri("B")))],
    [SchemaSubClassOf(ClassRef(Iri("A")), ClassRef(Iri("B")))],
)


@pytest.mark.parametrize(
    "rules, oracle",
    [
        ([_EQUIVALENCE], equivalence_lift_pairs),
        ([_TRANSITIVITY, _EQUIVALENCE], joint_closure_pairs),
    ],
    ids=["equivalence-only", "joint"],
)
def test_schema_closure_matches_oracle_on_random_cyclic_graphs(rules, oracle):
    rng = random.Random(43)
    for _ in range(300):
        model, edges, equivs = _random_schema_model(rng)
        derived = schema_closure(model, rules)
        pairs = [(ax.sub, ax.sup) for ax in derived]
        assert pairs == sorted(pairs)
        assert set(pairs) == oracle(edges, equivs)
        assert all(sub != sup for sub, sup in pairs)


def test_schema_closure_chaining_alone_matches_warshall_on_random_cyclic_graphs():
    rng = random.Random(47)
    for _ in range(300):
        model, edges, _ = _random_schema_model(rng)
        pairs = [(ax.sub, ax.sup) for ax in schema_closure(model, [_TRANSITIVITY])]
        assert pairs == sorted(pairs)
        assert set(pairs) == closure_pairs(edges)


def test_schema_closure_never_derives_a_self_edge():
    # A⊑A is never known, so nothing is lifted through it: lifting D⊑A across
    # A≡D would give A⊑A, and lifting that across B≡A would give B⊑A.
    b = ModelBuilder()
    b.add_axiom(SubClassOf(Iri("D"), Iri("A")))
    b.add_axiom(EquivalentClass(Iri("A"), Iri("D")))
    b.add_axiom(EquivalentClass(Iri("B"), Iri("A")))
    assert schema_closure(b.build(), [_TRANSITIVITY, _EQUIVALENCE]) == []


def _large_schema_model(rng: random.Random, size: int):
    """``size`` classes, so that a bit row spans more than one 64-bit word.

    Each class but the last gets a random superclass among the classes after
    it, a few of those edges are reversed as well to close two-class cycles,
    and a few classes are declared equivalent.
    """
    names = [Iri(f"K{i:03d}") for i in range(size)]
    b = ModelBuilder()
    edges: set[tuple[str, str]] = set()
    for i in range(size - 1):
        edges.add((names[i], names[rng.randrange(i + 1, size)]))
    edges |= {(sup, sub) for sub, sup in rng.sample(sorted(edges), 3)}
    for sub, sup in edges:
        b.add_axiom(SubClassOf(sub, sup))
    for _ in range(4):
        b.add_axiom(EquivalentClass(*rng.sample(names, 2)))
    model = b.build()
    return model, edges, [(ax.a, ax.b) for ax in model.axioms_of(EquivalentClass)]


@pytest.mark.parametrize(
    "rules, oracle, cases",
    [
        ([_TRANSITIVITY], lambda edges, _: closure_pairs(edges), 6),
        ([_EQUIVALENCE], equivalence_lift_pairs, 6),
        ([_TRANSITIVITY, _EQUIVALENCE], joint_closure_pairs, 4),
    ],
    ids=["transitivity-only", "equivalence-only", "joint"],
)
def test_schema_closure_matches_oracle_on_rows_wider_than_a_word(rules, oracle, cases):
    rng = random.Random(53)
    for _ in range(cases):
        model, edges, equivs = _large_schema_model(rng, rng.randint(65, 130))
        pairs = [(ax.sub, ax.sup) for ax in schema_closure(model, rules)]
        assert pairs == sorted(pairs)
        assert set(pairs) == oracle(edges, equivs)
        assert any(sup >= "K064" for _, sup in pairs)


def test_schema_closure_of_the_patterns_ontology_matches_its_golden_file():
    model, diags = parse_ontology((DATA_DIR / "patterns.owl").read_text(encoding="utf-8"))
    assert not diags
    schema = (Pattern.SUBCLASS_TRANSITIVITY, Pattern.EQUIVALENCE_INHERITANCE)
    derived = schema_closure(model, [r for r in extract_all(model).rules if r.pattern in schema])
    text = "".join(f"{ax.sub} {ax.sup}\n" for ax in derived)
    assert text == (DATA_DIR / "patterns.closure.txt").read_text(encoding="utf-8")
