"""Acceptance gate: seven criteria, one test — and one pass/fail line — each.

``pytest -v tests/test_acceptance.py`` prints exactly one PASSED/FAILED line
per criterion.  Each test also prints a short evidence line (shown with
``-s`` or whenever the criterion fails).  Oracle implementations live in
``oracles.py`` and are deliberately independent of the package internals.
"""

import random
import time

from conftest import FRAGMENTS, corpus_path, corpus_text, load_model
from oracles import (
    closure_pairs,
    herbrand_cap,
    naive_saturate,
    random_dag_model,
    random_instance,
)
from owlrules import (
    FactBase,
    Iri,
    LinkFact,
    Membership,
    OntologyModel,
    Pattern,
    RuleCategory,
    extract_all,
    has_errors,
    merge,
    parse_fact_base,
    render_structured,
    render_text,
    run_fixpoint,
    schema_closure,
)
from owlrules.rules import ClassRef, SchemaSubClassOf, classify, make_rule
from owlrules.cli import main
from test_extract import GOLDEN, PER_PATTERN

ALL_CORPUS_FILES = tuple(name for group in FRAGMENTS.values() for name in group)

# The three fact-level reproduction scenarios: ontology, starting facts, and
# the exact set of facts the engine must derive (nothing more, nothing less).
SCENARIOS = (
    (
        "transitive_nested.owl",
        "facts_subarea.txt",
        frozenset({LinkFact(Iri("latgale"), Iri("subAreaOf"), Iri("eu"))}),
    ),
    (
        "intersection.owl",
        "facts_man.txt",
        frozenset(
            {
                Membership(Iri("john"), Iri("Male")),
                Membership(Iri("john"), Iri("Human")),
            }
        ),
    ),
    (
        "subproperty.owl",
        "facts_father.txt",
        frozenset({LinkFact(Iri("tom"), Iri("hasParent"), Iri("bob"))}),
    ),
)

# Both collections are reused by criterion 7, so they are computed once and
# cached; the timing stored alongside is the first (real) computation.
_SCENARIO_RUNS: list = []
_INSTANCE_RUNS: dict = {}


def scenario_runs():
    if not _SCENARIO_RUNS:
        for owl_name, facts_name, expected in SCENARIOS:
            report = extract_all(load_model(owl_name))
            executable = [r for r in report.rules if r.executable]
            base, diags = parse_fact_base(corpus_text(facts_name))
            assert not has_errors(diags), facts_name
            cap = herbrand_cap(executable, list(base))
            result = run_fixpoint(executable, base, cap)
            _SCENARIO_RUNS.append((owl_name, result, cap, expected))
    return _SCENARIO_RUNS


def instance_runs():
    if not _INSTANCE_RUNS:
        rng = random.Random(1207)
        records = []
        start = time.perf_counter()
        for _ in range(50):
            rules, facts = random_instance(rng)  # ≤10 individuals, ≤5 rules
            cap = herbrand_cap(rules, facts)
            result = run_fixpoint(rules, FactBase(facts), cap)
            want_facts, want_violations = naive_saturate(rules, facts)
            records.append((result, cap, want_facts, want_violations))
        _INSTANCE_RUNS["elapsed"] = time.perf_counter() - start
        _INSTANCE_RUNS["records"] = records
    return _INSTANCE_RUNS


def test_criterion_1_golden_corpus_and_variant_agreement():
    start = time.perf_counter()
    fragment_specific = 0
    for name in sorted(PER_PATTERN):
        rendered = [render_text(r) for r in PER_PATTERN[name](load_model(FRAGMENTS[name][0]))]
        assert rendered == GOLDEN[name], name
        # the three-variable chain generalization is the one extra rendering
        # beyond the fragment-specific forms
        fragment_specific += sum(1 for text in GOLDEN[name] if "?z" not in text)
    assert fragment_specific == 15

    variant_checks = 0
    for name, files in FRAGMENTS.items():
        baseline = None
        for variant in files:
            got = sorted(
                (r.id, render_text(r)) for r in PER_PATTERN[name](load_model(variant))
            )
            if baseline is None:
                baseline = got
            else:
                assert got == baseline, variant
                variant_checks += 1
    assert variant_checks == sum(len(v) - 1 for v in FRAGMENTS.values())

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 1: 15 fragment renderings exact, "
        f"{variant_checks} variant agreements, {elapsed:.3f}s"
    )


def test_criterion_2_category_assignment_is_exhaustive():
    expected = {
        Pattern.DOMAIN_RANGE_IDENTIFICATION: RuleCategory.IDENTIFYING,
        Pattern.SUBPROPERTY_LIFT: RuleCategory.IDENTIFYING,
        Pattern.CLASS_FEATURE: RuleCategory.SPECIFYING,
        Pattern.COOCCURRENCE: RuleCategory.SPECIFYING,
        Pattern.INTERSECTION: RuleCategory.SPECIFYING,
        Pattern.EQUIVALENCE_INHERITANCE: RuleCategory.UNOBVIOUS,
        Pattern.SUBCLASS_TRANSITIVITY: RuleCategory.UNOBVIOUS,
        Pattern.RELATION_PROPAGATION: RuleCategory.UNOBVIOUS,
        Pattern.TRANSITIVE_PROPERTY: RuleCategory.UNOBVIOUS,
        Pattern.SOLE_PARTOF: RuleCategory.UNOBVIOUS,
        Pattern.SYMMETRIC: RuleCategory.MEANING_ENRICHING,
        Pattern.ALLVALUESFROM: RuleCategory.MEANING_ENRICHING,
        Pattern.INVERSE: RuleCategory.MEANING_ENRICHING,
    }
    assert set(expected) == set(Pattern)
    for pattern, category in expected.items():
        assert classify(pattern) is category, pattern
    assert set(expected.values()) == set(RuleCategory)
    print("criterion 2: all 13 patterns map to their category, all 4 categories hit")


def test_criterion_3_fact_level_reproductions_are_exact():
    for owl_name, result, _cap, expected in scenario_runs():
        derived = {fact for fact, _rule in result.derived}
        assert derived == expected, owl_name
        assert result.violations == [], owl_name
        assert result.converged, owl_name
    print("criterion 3: 3 scenarios derive exactly the expected facts (zero tolerance)")


def test_criterion_4_closure_matches_independent_warshall():
    rng = random.Random(417)
    chain = make_rule(
        Pattern.SUBCLASS_TRANSITIVITY,
        [
            SchemaSubClassOf(ClassRef(Iri("A")), ClassRef(Iri("B"))),
            SchemaSubClassOf(ClassRef(Iri("B")), ClassRef(Iri("C"))),
        ],
        [SchemaSubClassOf(ClassRef(Iri("A")), ClassRef(Iri("C")))],
    )
    start = time.perf_counter()
    node_total = 0
    for _ in range(100):
        model, edges = random_dag_model(rng)  # ≤50 nodes, edge probability 0.1
        derived = schema_closure(model, [chain])
        assert {(ax.sub, ax.sup) for ax in derived} == closure_pairs(edges)
        node_total += len(model.classes)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 4: 100 random DAGs ({node_total} nodes) agree, {elapsed:.3f}s")


def test_criterion_5_fixpoint_matches_naive_saturation():
    data = instance_runs()
    assert len(data["records"]) == 50
    for result, _cap, want_facts, want_violations in data["records"]:
        assert set(result.final) == want_facts
        assert set(result.violations) == want_violations
    assert data["elapsed"] < 5.0
    print(f"criterion 5: 50 random instances agree with saturation, {data['elapsed']:.3f}s")


def test_criterion_6_order_independence_over_ten_shuffles(capsys):
    rng = random.Random(93)
    files = [str(corpus_path(name)) for name in ALL_CORPUS_FILES]

    def cli_structured(order):
        code = main(["extract", *order, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0
        return captured.out

    baseline = cli_structured(files)
    for _ in range(10):
        shuffled = files[:]
        rng.shuffle(shuffled)
        assert cli_structured(shuffled) == baseline

    merged = merge([load_model(name) for name in ALL_CORPUS_FILES])
    reference = render_structured(extract_all(merged).rules, source=merged.source_names)
    for _ in range(10):
        axioms = list(merged.axioms)
        rng.shuffle(axioms)
        classes = list(merged.classes)
        rng.shuffle(classes)
        props = list(merged.properties.items())
        rng.shuffle(props)
        scrambled = OntologyModel(
            classes=tuple(classes),
            properties=dict(props),
            axioms=tuple(axioms),
            source_names=merged.source_names,
        )
        got = render_structured(extract_all(scrambled).rules, source=scrambled.source_names)
        assert got == reference
    print("criterion 6: 10 file-order and 10 axiom-order shuffles are byte-identical")


def test_criterion_7_every_engine_run_terminates_below_the_cap():
    runs = [
        (f"scenario:{owl_name}", result, cap)
        for owl_name, result, cap, _expected in scenario_runs()
    ]
    runs += [
        (f"instance:{k}", result, cap)
        for k, (result, cap, _f, _v) in enumerate(instance_runs()["records"])
    ]
    for label, result, cap in runs:
        assert result.converged, label
        assert isinstance(result.iterations, int) and result.iterations >= 1, label
        assert result.iterations < cap, label
    worst = max(result.iterations / cap for _label, result, cap in runs)
    print(
        f"criterion 7: {len(runs)} engine runs converged below their caps "
        f"(worst iterations/cap = {worst:.3f})"
    )
