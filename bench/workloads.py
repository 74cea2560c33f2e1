"""The three workloads: input generation, the job the worker runs, and the
independent check of each output.

Checks run outside the timed region, once per distinct output, against the
oracles in ``tests/oracles.py``.  Each returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import generators as gen
from oracles import expected_pattern_counts, joint_closure_pairs, naive_saturate
from owlrules import (
    FeatureExpected,
    LinkFact,
    Membership,
    Pattern,
    extract_all,
    parse_structured,
)

# Sizes per workload: the benchmark's, then the small smoke-test ones.
SIZES: dict[str, tuple[dict, dict]] = {
    "mixed-infer": ({"modules": 2, "chain_links": 16}, {"modules": 1, "chain_links": 8}),
    "ontology-extract": ({"classes": 350, "props": 350}, {"classes": 60, "props": 60}),
    "dag-closure": (
        {"layers": 7, "width": 6, "parents": 4},
        {"layers": 5, "width": 4, "parents": 2},
    ),
}

NAMES = tuple(SIZES)


@dataclass
class Prepared:
    job: dict  # what worker.py runs; paths are relative to the work directory
    check: Callable[[str], list[str]]
    sizes: str  # input sizes, for the report


def prepare(name: str, seed: int, workdir: Path, smoke: bool = False) -> Prepared:
    """Generate ``name``'s inputs from ``seed`` into ``workdir``."""
    size = SIZES[name][1 if smoke else 0]
    rng = random.Random(f"{name}:{seed}")
    return _PREPARE[name](rng, size, workdir)


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text, encoding="utf-8")
    return name


def render_fact(fact) -> str:
    """The fact-file line for ``fact``; class-flagged links have no marker."""
    if isinstance(fact, Membership):
        return f"isa({fact.individual}, {fact.cls})"
    if isinstance(fact, LinkFact):
        return f"link({fact.subject}, {fact.prop}, {fact.obj})"
    if isinstance(fact, FeatureExpected):
        return f"feature({fact.individual}, {fact.feature})"
    raise TypeError(f"unexpected fact {fact!r}")


def infer_problems(text: str, derived: set[str], violations: set[str]) -> list[str]:
    """Compare an ``infer`` text report with the expected derived and violation lines."""
    lines = text.splitlines()
    try:
        d, v = lines.index("derived:"), lines.index("violations:")
    except ValueError:
        return ["output lacks the derived: and violations: sections"]
    problems = []
    for label, got, want in (
        ("derived", lines[d + 1 : v], derived),
        ("violation", lines[v + 1 : -1], violations),
    ):
        if len(set(got)) != len(got):
            problems.append(f"duplicate {label} lines")
        if set(got) != want:
            problems.append(
                f"{label} lines: {len(set(got) - want)} unexpected, {len(want - set(got))} missing"
            )
    if not lines[-1].startswith("summary:") or "converged=yes" not in lines[-1]:
        problems.append(f"bad summary line: {lines[-1]!r}")
    return problems


def _mixed(rng: random.Random, size: dict, workdir: Path) -> Prepared:
    inp = gen.mixed_infer(rng, **size)
    owl = _write(workdir, "input.owl", inp.ontology.to_rdfxml())
    facts = _write(workdir, "input.facts", gen.facts_text(inp.facts))
    out = "output.txt"
    job = {
        "kind": "cli",
        "argv": ["infer", owl, "--facts", facts, "--output", out],
        "output": out,
        "ontologies": [owl],
        "inputs": [owl, facts],
    }
    model = inp.ontology.to_model(owl)

    @cache
    def expected() -> tuple[set[str], set[str]]:
        rules = [r for r in extract_all(model).rules if r.executable]
        initial = gen.facts_objects(inp.facts)
        final, violations = naive_saturate(rules, initial)
        derived = {render_fact(f) for f in final - set(initial)}
        return derived, {f"{render_fact(f)} [{rule_id}]" for f, rule_id in violations}

    sizes = (
        f"{len(model.classes)} classes, {len(model.properties)} properties, "
        f"{len(model.axioms)} axioms, {len(inp.facts)} facts"
    )
    return Prepared(job, lambda text: infer_problems(text, *expected()), sizes)


def _ontology(rng: random.Random, size: dict, workdir: Path) -> Prepared:
    onto = gen.ontology_extract(rng, **size)
    owl = _write(workdir, "input.owl", onto.to_rdfxml())
    out = "output.json"
    job = {
        "kind": "cli",
        "argv": ["extract", owl, "--format", "structured", "--output", out],
        "output": out,
        "ontologies": [owl],
        "inputs": [owl],
    }
    model = onto.to_model(owl)
    want = cache(lambda: expected_pattern_counts(model))

    def check(text: str) -> list[str]:
        try:
            rules, _ = parse_structured(text)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"structured output does not parse back: {exc!r}"]
        got = Counter(r.pattern for r in rules)
        return [
            f"{p.value}: {got[p]} rules, expected {want()[p]}"
            for p in Pattern
            if got[p] != want()[p]
        ]

    sizes = (
        f"{len(model.classes)} classes, {len(model.properties)} properties, "
        f"{len(model.axioms)} axioms"
    )
    return Prepared(job, check, sizes)


def _dag(rng: random.Random, size: dict, workdir: Path) -> Prepared:
    inp = gen.dag_closure(rng, **size)
    owl = _write(workdir, "input.owl", inp.ontology.to_rdfxml())
    out = "output.txt"
    job = {"kind": "pipeline", "output": out, "ontologies": [owl], "inputs": [owl]}
    want = cache(lambda: {f"{a} {b}" for a, b in joint_closure_pairs(inp.edges, inp.equivalences)})

    def check(text: str) -> list[str]:
        lines = text.splitlines()
        problems = ["duplicate closure lines"] if len(set(lines)) != len(lines) else []
        if set(lines) != want():
            got = set(lines)
            problems.append(
                f"closure: {len(got - want())} unexpected, {len(want() - got)} missing edges"
            )
        return problems

    sizes = (
        f"{len(inp.ontology.classes)} classes, {len(inp.edges)} subclass edges, "
        f"{len(inp.equivalences)} equivalences"
    )
    return Prepared(job, check, sizes)


_PREPARE = {
    "mixed-infer": _mixed,
    "ontology-extract": _ontology,
    "dag-closure": _dag,
}
