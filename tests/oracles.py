"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain nested loops over whole fact
lists, no delta sets, no indexes, no code shared with the modules under test.
Slow and obviously correct beats fast and clever for an oracle.
"""

from __future__ import annotations

import hashlib
import json
import random

from owlrules import (
    AllValuesFrom,
    ClassLink,
    EquivalentClass,
    Fact,
    FeatureExpected,
    IntersectionOf,
    InverseOf,
    Iri,
    LinkFact,
    Membership,
    ModelBuilder,
    NegMembership,
    OntologyModel,
    Pattern,
    PropertyDecl,
    PropertyKind,
    Rule,
    SubClassOf,
    SubPropertyOf,
)
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
    SchemaEquivalent,
    SchemaSubClassOf,
    SolePart,
    Var,
)

VX = Var("?x")
VY = Var("?y")
VZ = Var("?z")


# ---------------------------------------------------------------------------
# transitive closure


def closure_pairs(edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """Warshall closure of (sub, sup) pairs, minus the input edges."""
    nodes = sorted({n for edge in edges for n in edge})
    reach: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        reach[a].add(b)
    for k in nodes:
        for i in nodes:
            if k in reach[i]:
                reach[i] |= reach[k]
    full = {(a, b) for a in nodes for b in reach[a] if a != b}
    return full - set(edges)


def equivalence_lift_pairs(
    edges: set[tuple[str, str]], equivs: list[tuple[str, str]]
) -> set[tuple[Iri, Iri]]:
    """Fixpoint of lifting superclasses across equivalences, minus the input."""
    known = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in equivs:
            for lifted, declared in ((a, b), (b, a)):
                for sub, sup in list(known):
                    if sub == declared and sup != lifted and (lifted, sup) not in known:
                        known.add((lifted, sup))
                        changed = True
    return known - set(edges)


def joint_closure_pairs(
    edges: set[tuple[str, str]], equivs: list[tuple[str, str]]
) -> set[tuple[Iri, Iri]]:
    """Closure under both transitivity and equivalence lifting, minus input."""
    known = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(known):
            for b2, c in list(known):
                if b == b2 and a != c and (a, c) not in known:
                    known.add((a, c))
                    changed = True
        for a, b in equivs:
            for lifted, declared in ((a, b), (b, a)):
                for sub, sup in list(known):
                    if sub == declared and sup != lifted and (lifted, sup) not in known:
                        known.add((lifted, sup))
                        changed = True
    return known - set(edges)


# ---------------------------------------------------------------------------
# naive saturation (reference for run_fixpoint)


def _bind_term(term, value: str, binds: dict[str, str]) -> dict[str, str] | None:
    if isinstance(term, Var):
        if term.name in binds:
            return binds if binds[term.name] == value else None
        out = dict(binds)
        out[term.name] = value
        return out
    if isinstance(term, (ClassRef, PropRef, IndividualRef)):
        return binds if term.iri == value else None
    return None


def _bindings_for(atom, facts: list[Fact], binds: dict[str, str]):
    for fact in facts:
        if isinstance(atom, IsA) and isinstance(fact, Membership):
            b = _bind_term(atom.subject, fact.individual, binds)
            if b is not None:
                b = _bind_term(atom.cls, fact.cls, b)
            if b is not None:
                yield b
        elif isinstance(atom, Link) and isinstance(fact, LinkFact):
            if fact.obj_is_class and isinstance(atom.obj, Var):
                continue
            b = _bind_term(atom.subject, fact.subject, binds)
            if b is not None:
                b = _bind_term(atom.prop, fact.prop, b)
            if b is not None:
                b = _bind_term(atom.obj, fact.obj, b)
            if b is not None:
                yield b
        elif isinstance(atom, HasFeature) and isinstance(fact, FeatureExpected):
            if atom.feature != fact.feature:
                continue
            b = _bind_term(atom.subject, fact.individual, binds)
            if b is not None:
                yield b


def _all_bindings(atoms: list, facts: list[Fact]):
    if not atoms:
        yield {}
        return
    for binds in _bindings_for(atoms[0], facts, {}):
        yield from _all_bindings_rest(atoms, 1, facts, binds)


def _all_bindings_rest(atoms: list, idx: int, facts: list[Fact], binds: dict[str, str]):
    if idx == len(atoms):
        yield binds
        return
    for nb in _bindings_for(atoms[idx], facts, binds):
        yield from _all_bindings_rest(atoms, idx + 1, facts, nb)


def _value_of(term, binds: dict[str, str]) -> str:
    if isinstance(term, Var):
        return binds[term.name]
    return term.iri


def _conclude(atom, binds: dict[str, str]) -> Fact | None:
    if isinstance(atom, IsA):
        return Membership(_value_of(atom.subject, binds), _value_of(atom.cls, binds))
    if isinstance(atom, Link):
        return LinkFact(
            _value_of(atom.subject, binds),
            _value_of(atom.prop, binds),
            _value_of(atom.obj, binds),
            obj_is_class=isinstance(atom.obj, ClassRef),
        )
    if isinstance(atom, HasFeature):
        return FeatureExpected(_value_of(atom.subject, binds), atom.feature)
    return None


_SCHEMA = (SchemaSubClassOf, SchemaEquivalent)


def _ground_schema(atom) -> bool:
    if isinstance(atom, SchemaSubClassOf):
        terms = (atom.sub, atom.sup)
    else:
        terms = (atom.a, atom.b)
    return not any(isinstance(t, Var) for t in terms)


def naive_saturate(
    rules: list[Rule], facts: list[Fact]
) -> tuple[set[Fact], set[tuple[Fact, str]]]:
    """Fire every rule against every binding until nothing new appears.

    Returns the saturated fact set and the closed-world violations, matching
    the contract of ``run_fixpoint`` (final facts, (fact, rule id) pairs).
    """
    positives: list[tuple[Rule, list]] = []
    checks: list[tuple[Rule, str, str]] = []
    for rule in rules:
        if any(isinstance(a, Not) for a in rule.consequent):
            head = rule.consequent[0].inner
            guard = rule.antecedent[0].inner
            checks.append((rule, head.prop.iri, guard.cls.iri))
            continue
        silenced = False
        instance_atoms = []
        for atom in rule.antecedent:
            if isinstance(atom, _SCHEMA):
                if not _ground_schema(atom):
                    silenced = True
            elif isinstance(atom, (IsA, Link, HasFeature)):
                instance_atoms.append(atom)
            else:
                silenced = True  # sole-part atoms never reach the engine
        if silenced:
            continue
        if not any(isinstance(a, (IsA, Link, HasFeature)) for a in rule.consequent):
            continue
        positives.append((rule, instance_atoms))

    known = list(facts)
    known_set = set(known)
    changed = True
    while changed:
        changed = False
        for rule, atoms in positives:
            for binds in _all_bindings(atoms, known):
                for atom in rule.consequent:
                    fact = _conclude(atom, binds)
                    if fact is not None and fact not in known_set:
                        known.append(fact)
                        known_set.add(fact)
                        changed = True

    violations: set[tuple[Fact, str]] = set()
    for rule, prop, filler in checks:
        for fact in known:
            if (
                isinstance(fact, LinkFact)
                and fact.prop == prop
                and not fact.obj_is_class
                and Membership(fact.obj, filler) not in known_set
            ):
                violations.add((fact, rule.id))
    return known_set, violations


# ---------------------------------------------------------------------------
# per-model expected rule counts (guards for the extraction scanners)


def expected_pattern_counts(model: OntologyModel) -> dict[Pattern, int]:
    """Count, straight from the model, how many rules each shape licenses."""
    decls = list(model.properties.values())
    edges = model.axioms_of(SubClassOf)
    counts = dict.fromkeys(Pattern, 0)

    domains = {d.domain for d in decls if d.kind is PropertyKind.DATATYPE and d.domain}
    counts[Pattern.CLASS_FEATURE] = len(domains)

    n = 0
    for ax in model.axioms_of(EquivalentClass):
        for lifted, declared in ((ax.a, ax.b), (ax.b, ax.a)):
            n += sum(1 for e in edges if e.sub == declared and e.sup != lifted)
    counts[Pattern.EQUIVALENCE_INHERITANCE] = n

    both = [d for d in decls if d.kind is PropertyKind.OBJECT and d.domain and d.range]
    counts[Pattern.DOMAIN_RANGE_IDENTIFICATION] = len(both)
    counts[Pattern.COOCCURRENCE] = len(both)

    counts[Pattern.SUBCLASS_TRANSITIVITY] = sum(
        1
        for first in edges
        for second in edges
        if first.sup == second.sub and first.sub != second.sup
    )

    counts[Pattern.RELATION_PROPAGATION] = sum(
        1 for d in both for e in edges if e.sub == d.range
    )

    counts[Pattern.SUBPROPERTY_LIFT] = len(model.axioms_of(SubPropertyOf))

    counts[Pattern.SYMMETRIC] = 2 * sum(
        1 for d in decls if d.kind is PropertyKind.SYMMETRIC and d.domain and d.range
    )

    links = [ax for ax in model.axioms_of(ClassLink) if ax.subject != ax.obj]
    n = 0
    for d in decls:
        if d.kind is not PropertyKind.TRANSITIVE:
            continue
        n += 1  # the variable form
        mine = [ax for ax in links if ax.prop == d.iri]
        n += sum(
            1
            for first in mine
            for second in mine
            if first.obj == second.subject and first.subject != second.obj
        )
    counts[Pattern.TRANSITIVE_PROPERTY] = n

    supers: dict[str, set[str]] = {}
    for e in edges:
        supers.setdefault(e.sup, set()).add(e.sub)
    counts[Pattern.SOLE_PARTOF] = sum(1 for subs in supers.values() if len(subs) == 1)

    counts[Pattern.ALLVALUESFROM] = len(model.axioms_of(AllValuesFrom))
    counts[Pattern.INTERSECTION] = len(model.axioms_of(IntersectionOf))

    n = 0
    for ax in model.axioms_of(InverseOf):
        decl = model.properties.get(ax.prop)
        if decl is not None and decl.domain and decl.range:
            n += 2
    counts[Pattern.INVERSE] = n
    return counts


def pair_chain_rule_ids(model: OntologyModel) -> dict[Pattern, list[str]]:
    """Ids of the subclass-transitivity and transitive-property rules, in output order.

    Every ordered pair of axioms is tried, reading ``model.axioms`` directly.
    Pairs are visited by the first axiom, then the second, each sorted by its
    fields; a transitive property's variable form comes before its chains.
    """
    edges = sorted(
        (ax for ax in model.axioms if isinstance(ax, SubClassOf)), key=lambda a: (a.sub, a.sup)
    )
    subclass = [
        Rule(
            Pattern.SUBCLASS_TRANSITIVITY,
            [
                SchemaSubClassOf(ClassRef(first.sub), ClassRef(first.sup)),
                SchemaSubClassOf(ClassRef(second.sub), ClassRef(second.sup)),
            ],
            [SchemaSubClassOf(ClassRef(first.sub), ClassRef(second.sup))],
        ).id
        for first in edges
        for second in edges
        if first.sup == second.sub and first.sub != second.sup
    ]
    links = sorted(
        (ax for ax in model.axioms if isinstance(ax, ClassLink) and ax.subject != ax.obj),
        key=lambda a: (a.prop, a.subject, a.obj),
    )
    transitive = []
    for name in sorted(model.properties):
        if model.properties[name].kind is not PropertyKind.TRANSITIVE:
            continue
        p = PropRef(name)
        transitive.append(
            Rule(Pattern.TRANSITIVE_PROPERTY, [Link(VX, p, VY), Link(VY, p, VZ)], [Link(VX, p, VZ)]).id
        )
        transitive.extend(
            Rule(
                Pattern.TRANSITIVE_PROPERTY,
                [
                    Link(ClassRef(first.subject), p, ClassRef(first.obj)),
                    Link(ClassRef(second.subject), p, ClassRef(second.obj)),
                ],
                [Link(ClassRef(first.subject), p, ClassRef(second.obj))],
            ).id
            for first in links
            for second in links
            if first.prop == second.prop == name
            and first.obj == second.subject
            and first.subject != second.obj
        )
    return {Pattern.SUBCLASS_TRANSITIVITY: subclass, Pattern.TRANSITIVE_PROPERTY: transitive}


# ---------------------------------------------------------------------------
# rule text and fact text by structural pattern matching (reference for
# rules.render_term/render_atom/render_text/Rule ids and engine.format_fact)


def render_term_by_match(term) -> str:
    match term:
        case Var(name):
            return name
        case ClassRef(i) | PropRef(i) | IndividualRef(i):
            return i
        case LiteralTok(text):
            return f'"{text}"'
    raise TypeError(f"unknown term: {term!r}")


def render_atom_by_match(atom) -> str:
    t = render_term_by_match
    match atom:
        case IsA(subject=s, cls=c):
            return f"{t(c)}({t(s)})"
        case Link(subject=s, prop=p, obj=o):
            return f"({t(s)} {t(p)} {t(o)})"
        case HasFeature(subject=s, feature=f):
            return f"hasFeature({t(s)},{f})"
        case Not(inner=i):
            return f"not {render_atom_by_match(i)}"
        case SchemaSubClassOf(sub=a, sup=b):
            return f"subClassOf({t(a)},{t(b)})"
        case SchemaEquivalent(a=a, b=b):
            return f"equivalent({t(a)},{t(b)})"
        case SolePart(part=p, whole=w):
            return f"solePart({t(p)},{t(w)})"
        case MorePartsExpected(whole=w):
            return f"morePartsExpected({t(w)})"
    raise TypeError(f"unknown atom: {atom!r}")


def _clause_by_match(atoms) -> str:
    return " and ".join(render_atom_by_match(a) for a in atoms)


def render_text_by_match(rule: Rule) -> str:
    return f"IF {_clause_by_match(rule.antecedent)} THEN {_clause_by_match(rule.consequent)}"


def rule_id_by_match(rule: Rule) -> str:
    """The content-hash id of ``rule``, recomputed from the reference text."""
    ant, cons = _clause_by_match(rule.antecedent), _clause_by_match(rule.consequent)
    digest = hashlib.sha256(f"{rule.pattern.value}|{ant}|{cons}".encode()).hexdigest()
    return f"{rule.pattern.value}-{digest[:10]}"


def format_fact_by_match(fact) -> str:
    match fact:
        case Membership(individual=i, cls=c):
            return f"isa({i}, {c})"
        case NegMembership(individual=i, cls=c):
            return f"not isa({i}, {c})"
        case LinkFact(subject=s, prop=p, obj=o):
            return f"link({s}, {p}, {o})"
        case FeatureExpected(individual=i, feature=f):
            return f"feature({i}, {f})"
    raise TypeError(f"unknown fact: {fact!r}")


# ---------------------------------------------------------------------------
# structured document through the stdlib encoder (reference for render_structured)


def _term_dict(term) -> dict:
    if isinstance(term, Var):
        return {"var": term.name}
    if isinstance(term, ClassRef):
        return {"class": term.iri}
    if isinstance(term, PropRef):
        return {"prop": term.iri}
    if isinstance(term, IndividualRef):
        return {"individual": term.iri}
    if isinstance(term, LiteralTok):
        return {"literal": term.text}
    raise TypeError(f"unknown term: {term!r}")


def _atom_dict(atom) -> dict:
    t = _term_dict
    if isinstance(atom, IsA):
        return {"kind": "isa", "subject": t(atom.subject), "class": t(atom.cls)}
    if isinstance(atom, Link):
        return {
            "kind": "link",
            "subject": t(atom.subject),
            "prop": t(atom.prop),
            "object": t(atom.obj),
        }
    if isinstance(atom, HasFeature):
        feature = {"prop": atom.feature}
        return {"kind": "feature", "subject": t(atom.subject), "feature": feature}
    if isinstance(atom, Not):
        return {"kind": "not", "inner": _atom_dict(atom.inner)}
    if isinstance(atom, SchemaSubClassOf):
        return {"kind": "subclass", "sub": t(atom.sub), "sup": t(atom.sup)}
    if isinstance(atom, SchemaEquivalent):
        return {"kind": "equivalent", "a": t(atom.a), "b": t(atom.b)}
    if isinstance(atom, SolePart):
        return {"kind": "sole-part", "part": t(atom.part), "whole": t(atom.whole)}
    if isinstance(atom, MorePartsExpected):
        return {"kind": "more-parts", "whole": t(atom.whole)}
    raise TypeError(f"unknown atom: {atom!r}")


def json_dumps_structured(rules: list[Rule], source: tuple[str, ...] = ()) -> str:
    """The structured document as a dict tree through ``json.dumps(indent=2)``.

    This is how ``render_structured`` was first written, and the stdlib's
    pure-Python indenting encoder is the reference for every byte of it.
    """
    doc = {
        "version": 1,
        "source": sorted(set(source)),
        "rules": [
            {
                "id": r.id,
                "pattern": r.pattern.value,
                "category": r.category.value,
                "executable": r.executable,
                "if": [_atom_dict(a) for a in r.antecedent],
                "then": [_atom_dict(a) for a in r.consequent],
                "provenance": {
                    "source": sorted(set(r.provenance.sources)),
                    "trigger_axioms": sorted(set(r.provenance.trigger_axioms)),
                    "display_form": r.provenance.display_form,
                },
            }
            for r in sorted(rules, key=lambda r: r.id)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# seeded generators


def random_dag_model(rng: random.Random, max_nodes: int = 50, p: float = 0.1):
    """A random subclass DAG as a model; edges only point to higher indexes."""
    n = rng.randint(2, max_nodes)
    names = [Iri(f"N{i:02d}") for i in range(n)]
    b = ModelBuilder()
    edges: set[tuple[str, str]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                b.add_axiom(SubClassOf(names[i], names[j]))
                edges.add((names[i], names[j]))
    return b.build(), edges


_MODEL_CLASSES = tuple(Iri(f"C{i}") for i in range(6))
_MODEL_PROPS = tuple(Iri(f"p{i}") for i in range(4))


def random_model(rng: random.Random, max_axioms: int = 20) -> OntologyModel:
    """A small random ontology exercising every axiom flavor."""
    b = ModelBuilder()
    for p in _MODEL_PROPS:
        if rng.random() < 0.8:
            kind = rng.choice(list(PropertyKind))
            domain = rng.choice(_MODEL_CLASSES) if rng.random() < 0.7 else None
            rng_cls = rng.choice(_MODEL_CLASSES) if rng.random() < 0.7 else None
            b.declare_property(PropertyDecl(p, kind, domain, rng_cls))
    for _ in range(rng.randint(0, max_axioms)):
        pick = rng.randrange(7)
        if pick == 0:
            b.add_axiom(SubClassOf(*rng.sample(_MODEL_CLASSES, 2)))
        elif pick == 1:
            b.add_axiom(EquivalentClass(*rng.sample(_MODEL_CLASSES, 2)))
        elif pick == 2:
            b.add_axiom(SubPropertyOf(*rng.sample(_MODEL_PROPS, 2)))
        elif pick == 3:
            b.add_axiom(InverseOf(*rng.sample(_MODEL_PROPS, 2)))
        elif pick == 4:
            b.add_axiom(AllValuesFrom(rng.choice(_MODEL_PROPS), rng.choice(_MODEL_CLASSES)))
        elif pick == 5:
            defined = rng.choice(_MODEL_CLASSES)
            parts = rng.sample([c for c in _MODEL_CLASSES if c != defined], 2)
            b.add_axiom(IntersectionOf(defined, tuple(parts)))
        else:
            b.add_axiom(
                ClassLink(
                    rng.choice(_MODEL_CLASSES),
                    rng.choice(_MODEL_PROPS),
                    rng.choice(_MODEL_CLASSES),
                )
            )
    return b.build()


_CLASSES = tuple(Iri(c) for c in ("A", "B", "C", "D"))
_PROPS = tuple(Iri(p) for p in ("p", "q", "r"))
_FEATURES = tuple(Iri(f) for f in ("F", "G"))


def _template_rule(rng: random.Random) -> Rule:
    c1, c2, c3 = (rng.choice(_CLASSES) for _ in range(3))
    p1, p2 = rng.choice(_PROPS), rng.choice(_PROPS)
    maker = rng.randrange(9)
    if maker == 0:
        return Rule(
            Pattern.CLASS_FEATURE,
            [IsA(VX, ClassRef(c1))],
            [HasFeature(VX, rng.choice(_FEATURES))],
        )
    if maker == 1:
        return Rule(
            Pattern.DOMAIN_RANGE_IDENTIFICATION,
            [Link(VX, PropRef(p1), VY), IsA(VY, ClassRef(c1))],
            [IsA(VX, ClassRef(c2))],
        )
    if maker == 2:
        return Rule(
            Pattern.RELATION_PROPAGATION,
            [
                Link(VX, PropRef(p1), VY),
                IsA(VY, ClassRef(c1)),
                SchemaSubClassOf(ClassRef(c1), ClassRef(c2)),
            ],
            [Link(VX, PropRef(p1), ClassRef(c2))],
        )
    if maker == 3:
        return Rule(
            Pattern.SUBPROPERTY_LIFT,
            [Link(VX, PropRef(p1), VY)],
            [Link(VX, PropRef(p2), VY)],
        )
    if maker == 4:
        return Rule(
            Pattern.SYMMETRIC,
            [IsA(VX, ClassRef(c1))],
            [Link(VX, PropRef(p1), ClassRef(c2))],
        )
    if maker == 5:
        return Rule(
            Pattern.TRANSITIVE_PROPERTY,
            [Link(VX, PropRef(p1), VY), Link(VY, PropRef(p1), VZ)],
            [Link(VX, PropRef(p1), VZ)],
        )
    if maker == 6:
        return Rule(
            Pattern.COOCCURRENCE,
            [IsA(VX, ClassRef(c1)), IsA(VY, ClassRef(c2))],
            [Link(VX, PropRef(p1), VY)],
        )
    if maker == 7:
        return Rule(
            Pattern.INTERSECTION,
            [IsA(VX, ClassRef(c1))],
            [IsA(VX, ClassRef(c2)), IsA(VX, ClassRef(c3))],
        )
    return Rule(
        Pattern.ALLVALUESFROM,
        [Not(IsA(VY, ClassRef(c1)))],
        [Not(Link(VX, PropRef(p1), VY))],
    )


def random_instance(
    rng: random.Random, max_individuals: int = 10, max_rules: int = 5
) -> tuple[list[Rule], list[Fact]]:
    """Rules drawn from the executable shape templates plus a seed fact base."""
    rules = [_template_rule(rng) for _ in range(rng.randint(1, max_rules))]
    inds = [Iri(f"i{k}") for k in range(rng.randint(1, max_individuals))]
    facts: list[Fact] = []
    seen: set[Fact] = set()
    for _ in range(rng.randint(1, 3 * len(inds))):
        fact: Fact
        if rng.random() < 0.5:
            fact = Membership(rng.choice(inds), rng.choice(_CLASSES))
        else:
            fact = LinkFact(rng.choice(inds), rng.choice(_PROPS), rng.choice(inds))
        if fact not in seen:
            seen.add(fact)
            facts.append(fact)
    return rules, facts


# Few names, so that hand-built rules often match the facts.
_INDS = tuple(Iri(f"i{k}") for k in range(3))
_CLS2 = _CLASSES[:2]
_PROP2 = _PROPS[:2]


def _random_term(rng: random.Random, ref, names: tuple[str, ...], var_odds: float = 0.7):
    """A variable with probability ``var_odds``, else a reference to one of
    ``names``, rarely a literal spelling one of them (which must match nothing)."""
    r = rng.random()
    if r < var_odds:
        return rng.choice((VX, VX, VY, VY, VZ))
    if r < 0.96:
        return ref(rng.choice(names))
    return LiteralTok(rng.choice(names))


def _random_body_atom(rng: random.Random):
    maker = rng.randrange(10)
    subject = _random_term(rng, IndividualRef, _INDS)
    if maker < 4:
        if rng.random() < 0.5:
            obj = _random_term(rng, IndividualRef, _INDS)
        else:
            obj = _random_term(rng, ClassRef, _CLS2)
        return Link(subject, _random_term(rng, PropRef, _PROP2, 0.2), obj)
    if maker < 7:
        return IsA(subject, _random_term(rng, ClassRef, _CLS2, 0.2))
    if maker < 9:
        return HasFeature(subject, rng.choice(_FEATURES))
    # a schema atom: held when ground, silencing the rule when not
    return SchemaSubClassOf(ClassRef(rng.choice(_CLS2)), _random_term(rng, ClassRef, _CLS2, 0.3))


def _random_head_atom(rng: random.Random, bound: list[Var]):
    def term(ref, names):
        if bound and rng.random() < 0.7:
            return rng.choice(bound)
        return ref(rng.choice(names))

    maker = rng.randrange(3)
    subject = term(IndividualRef, _INDS)
    if maker == 0:
        obj = term(IndividualRef, _INDS) if rng.random() < 0.7 else term(ClassRef, _CLS2)
        return Link(subject, term(PropRef, _PROP2), obj)
    if maker == 1:
        return IsA(subject, term(ClassRef, _CLS2))
    return HasFeature(subject, rng.choice(_FEATURES))


def _random_rule(rng: random.Random) -> Rule:
    if rng.random() < 0.1:
        return Rule(
            Pattern.ALLVALUESFROM,
            [Not(IsA(VY, ClassRef(rng.choice(_CLS2))))],
            [Not(Link(VX, PropRef(rng.choice(_PROP2)), VY))],
        )
    body = [_random_body_atom(rng) for _ in range(rng.randint(1, 3))]
    bound: list[Var] = []
    for atom in body:
        if not isinstance(atom, SchemaSubClassOf):
            for term in atom[1:]:
                if isinstance(term, Var) and term not in bound:
                    bound.append(term)
    head = [_random_head_atom(rng, bound) for _ in range(rng.randint(1, 2))]
    return Rule(Pattern.SUBPROPERTY_LIFT, body, head)


def random_rule_instance(rng: random.Random) -> tuple[list[Rule], list[Fact]]:
    """Hand-built rules of any instance-level shape plus a seed fact base.

    Antecedents mix variables (also in the predicate position, and repeated),
    names and literals; consequents use only variables the antecedent binds.
    Facts include class-flagged links and expected features.
    """
    rules = [_random_rule(rng) for _ in range(rng.randint(1, 4))]
    facts: list[Fact] = []
    for _ in range(rng.randint(3, 12)):
        r = rng.random()
        fact: Fact
        if r < 0.35:
            fact = Membership(rng.choice(_INDS), rng.choice(_CLS2))
        elif r < 0.6:
            fact = LinkFact(rng.choice(_INDS), rng.choice(_PROP2), rng.choice(_INDS))
        elif r < 0.8:
            subject = rng.choice(_INDS + _CLS2)
            fact = LinkFact(subject, rng.choice(_PROP2), rng.choice(_CLS2), obj_is_class=True)
        else:
            fact = FeatureExpected(rng.choice(_INDS), rng.choice(_FEATURES))
        if fact not in facts:
            facts.append(fact)
    return rules, facts


def herbrand_cap(rules: list[Rule], facts: list[Fact]) -> int:
    """|individuals|^2 * |properties| + |individuals| * |classes| + 1."""
    individuals: set[str] = set()
    classes: set[str] = set()
    props: set[str] = set()
    for fact in facts:
        if isinstance(fact, Membership):
            individuals.add(fact.individual)
            classes.add(fact.cls)
        elif isinstance(fact, LinkFact):
            individuals.add(fact.subject)
            props.add(fact.prop)
            (classes if fact.obj_is_class else individuals).add(fact.obj)
        elif isinstance(fact, FeatureExpected):
            individuals.add(fact.individual)

    def walk(atom) -> None:
        if isinstance(atom, Not):
            walk(atom.inner)
        elif isinstance(atom, IsA):
            if isinstance(atom.cls, ClassRef):
                classes.add(atom.cls.iri)
            if isinstance(atom.subject, IndividualRef):
                individuals.add(atom.subject.iri)
        elif isinstance(atom, Link):
            if isinstance(atom.prop, PropRef):
                props.add(atom.prop.iri)
            for t in (atom.subject, atom.obj):
                if isinstance(t, IndividualRef):
                    individuals.add(t.iri)
                elif isinstance(t, ClassRef):
                    classes.add(t.iri)

    for rule in rules:
        for atom in (*rule.antecedent, *rule.consequent):
            walk(atom)
    return len(individuals) ** 2 * len(props) + len(individuals) * len(classes) + 1
