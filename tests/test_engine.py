from __future__ import annotations

import random

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
)

from owlrules import (
    ClassRef,
    ContradictionError,
    EquivalentClass,
    Fact,
    FactBase,
    FeatureExpected,
    Iri,
    IsA,
    Link,
    LinkFact,
    Membership,
    ModelBuilder,
    MorePartsExpected,
    NegMembership,
    NonExecutableRuleError,
    Pattern,
    PropRef,
    SchemaEquivalent,
    SchemaSubClassOf,
    SolePart,
    SubClassOf,
    Var,
    extract_all,
    extract_allvaluesfrom,
    extract_cooccurrence,
    extract_intersection,
    extract_subclass_transitivity,
    extract_subproperty_lift,
    extract_symmetric,
    extract_transitive,
    format_fact,
    make_rule,
    parse_fact_base,
    parse_ontology,
    run_fixpoint,
    schema_closure,
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
    lift = make_rule(
        Pattern.SUBPROPERTY_LIFT,
        [Link(VX, PropRef(Iri("colleagueOf")), VY)],
        [Link(VX, PropRef(Iri("knows")), VY)],
    )
    flagged = LinkFact(Iri("ada"), Iri("colleagueOf"), Iri("Engineer"), obj_is_class=True)
    result = run_fixpoint([lift], FactBase([flagged]), CAP)
    assert result.derived == []


def test_flagged_links_do_match_ground_class_objects():
    p = PropRef(Iri("subAreaOf"))
    grounded = make_rule(
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
    rule = make_rule(
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
    rule = make_rule(
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
    rule = make_rule(
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
    from_a = make_rule(Pattern.INTERSECTION, [IsA(VX, ClassRef(Iri("A")))], to_c)
    from_b = make_rule(Pattern.INTERSECTION, [IsA(VX, ClassRef(Iri("B")))], to_c)
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
    rule = make_rule(
        Pattern.SOLE_PARTOF,
        [SolePart(ClassRef(Iri("House")), ClassRef(Iri("City")))],
        [MorePartsExpected(ClassRef(Iri("City")))],
    )
    with pytest.raises(NonExecutableRuleError) as exc:
        run_fixpoint([rule], FactBase(), CAP)
    assert rule.id in str(exc.value)


def test_initial_contradiction_is_reported():
    with pytest.raises(ContradictionError, match=r"contradiction on \(a, B\)"):
        FactBase([Membership(Iri("a"), Iri("B")), NegMembership(Iri("a"), Iri("B"))])


def test_cap_of_one_leaves_a_long_chain_unconverged():
    p = PropRef(Iri("next"))
    chain_rule = make_rule(
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


def test_schema_closure_matches_warshall_on_random_dags():
    rng = random.Random(31)
    gate = make_rule(
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
    edges: set[tuple[Iri, Iri]] = set()
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


_TRANSITIVITY = make_rule(
    Pattern.SUBCLASS_TRANSITIVITY,
    [SchemaSubClassOf(ClassRef(Iri("A")), ClassRef(Iri("B")))],
    [SchemaSubClassOf(ClassRef(Iri("A")), ClassRef(Iri("B")))],
)
_EQUIVALENCE = make_rule(
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
