"""Seeded input generators for the three benchmark workloads.

Each generator takes a ``random.Random`` built from the run's seed plus size
parameters and returns plain-name descriptions of the inputs, which render
both as the files the program reads and as the objects the oracles take.
The same seed and sizes always give the same inputs.

The randomness is shaped so that the amount of work hardly moves with the
seed: counts of every kind of declaration are fixed, subclass structure is a
random forest or a random layered DAG whose closure size is nearly constant,
and in ``mixed-infer`` the number of fixpoint rounds is set by a fixed-length
transitive chain.  Without this the median over seeds would follow the
structure drawn rather than the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from xml.sax.saxutils import quoteattr

from owlrules import (
    AllValuesFrom,
    ClassLink,
    EquivalentClass,
    Fact,
    IntersectionOf,
    InverseOf,
    Iri,
    LinkFact,
    Membership,
    ModelBuilder,
    OntologyModel,
    PropertyDecl,
    PropertyKind,
    SubClassOf,
    SubPropertyOf,
)

_ELEMENT = {
    PropertyKind.DATATYPE: "owl:DatatypeProperty",
    PropertyKind.OBJECT: "owl:ObjectProperty",
    PropertyKind.SYMMETRIC: "owl:SymmetricProperty",
    PropertyKind.TRANSITIVE: "owl:TransitiveProperty",
}


@dataclass
class Prop:
    name: str
    kind: PropertyKind
    domain: str | None = None
    range: str | None = None
    sub_of: list[str] = field(default_factory=list)
    inverse_of: list[str] = field(default_factory=list)


@dataclass
class Ontology:
    """Declarations and axioms, kept as plain names so they render two ways."""

    classes: list[str] = field(default_factory=list)
    props: list[Prop] = field(default_factory=list)
    subclass: list[tuple[str, str]] = field(default_factory=list)
    equivalent: list[tuple[str, str]] = field(default_factory=list)
    intersections: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    restrictions: list[tuple[str, str]] = field(default_factory=list)
    class_links: list[tuple[str, str, str]] = field(default_factory=list)

    def to_rdfxml(self) -> str:
        out = ["<rdf:RDF>"]
        out.extend(f"<owl:Class rdf:ID={quoteattr(c)}/>" for c in self.classes)
        for p in self.props:
            tag = _ELEMENT[p.kind]
            out.append(f"<{tag} rdf:ID={quoteattr(p.name)}>")
            if p.domain is not None:
                out.append(f"  <rdfs:domain rdf:resource={_ref(p.domain)}/>")
            if p.range is not None:
                token = quoteattr(p.range) if p.kind is PropertyKind.DATATYPE else _ref(p.range)
                out.append(f"  <rdfs:range rdf:resource={token}/>")
            out.extend(f"  <rdfs:subPropertyOf rdf:resource={_ref(s)}/>" for s in p.sub_of)
            out.extend(f"  <owl:inverseOf rdf:resource={_ref(i)}/>" for i in p.inverse_of)
            out.append(f"</{tag}>")
        for sub, sup in self.subclass:
            out.append(
                f"<owl:Class rdf:about={_ref(sub)}>"
                f"<rdfs:subClassOf rdf:resource={_ref(sup)}/></owl:Class>"
            )
        for a, b in self.equivalent:
            out.append(
                f"<owl:Class rdf:about={_ref(a)}>"
                f"<owl:equivalentClass rdf:resource={_ref(b)}/></owl:Class>"
            )
        for defined, parts in self.intersections:
            listed = "".join(f"<owl:Class rdf:about={_ref(p)}/>" for p in parts)
            out.append(
                f"<owl:Class rdf:about={_ref(defined)}>"
                f'<owl:intersectionOf rdf:parseType="Collection">{listed}'
                "</owl:intersectionOf></owl:Class>"
            )
        for prop, filler in self.restrictions:
            out.append(
                f"<owl:Restriction><owl:onProperty rdf:resource={_ref(prop)}/>"
                f"<owl:allValuesFrom rdf:resource={_ref(filler)}/></owl:Restriction>"
            )
        for subject, prop, obj in self.class_links:
            out.append(
                f"<owl:Class rdf:about={_ref(subject)}>"
                f"<{prop} rdf:resource={_ref(obj)}/></owl:Class>"
            )
        out.append("</rdf:RDF>")
        return "\n".join(out) + "\n"

    def to_model(self, source: str) -> OntologyModel:
        """The model the parser should build from :meth:`to_rdfxml`."""
        b = ModelBuilder(source)
        for c in self.classes:
            b.declare_class(Iri(c))
        deferred = []
        for p in self.props:
            b.declare_property(PropertyDecl(Iri(p.name), p.kind, _iri(p.domain), _iri(p.range)))
            deferred += [SubPropertyOf(Iri(p.name), Iri(s)) for s in p.sub_of]
            deferred += [InverseOf(Iri(p.name), Iri(i)) for i in p.inverse_of]
        for ax in deferred:
            b.add_axiom(ax)
        for sub, sup in self.subclass:
            b.add_axiom(SubClassOf(Iri(sub), Iri(sup)))
        for a, c in self.equivalent:
            b.add_axiom(EquivalentClass(Iri(a), Iri(c)))
        for defined, parts in self.intersections:
            b.add_axiom(IntersectionOf(Iri(defined), tuple(Iri(p) for p in parts)))
        for prop, filler in self.restrictions:
            b.add_axiom(AllValuesFrom(Iri(prop), Iri(filler)))
        for subject, prop, obj in self.class_links:
            b.add_axiom(ClassLink(Iri(subject), Iri(prop), Iri(obj)))
        return b.build()


def _ref(name: str) -> str:
    return quoteattr(f"#{name}")


def _iri(name: str | None) -> Iri | None:
    return None if name is None else Iri(name)


# Facts are ("isa", individual, class) or ("link", subject, prop, object).
FactRow = tuple[str, ...]


def facts_text(rows: list[FactRow]) -> str:
    return "".join(f"{row[0]}({', '.join(row[1:])})\n" for row in rows)


def facts_objects(rows: list[FactRow]) -> list[Fact]:
    return [
        Membership(Iri(r[1]), Iri(r[2])) if r[0] == "isa" else LinkFact(*map(Iri, r[1:]))
        for r in rows
    ]


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """``n`` distinct names with seed-dependent suffixes, in random order."""
    ids = rng.sample(range(10 * n + 10), n)
    return [f"{prefix}{i}" for i in ids]


def _forest(rng: random.Random, nodes: list[str], roots: int) -> list[tuple[str, str]]:
    """Subclass edges giving every node after the first ``roots`` one parent."""
    return [(nodes[i], nodes[rng.randrange(i)]) for i in range(roots, len(nodes))]


# ---------------------------------------------------------------------------
# mixed-infer


@dataclass
class MixedInput:
    ontology: Ontology
    facts: list[FactRow]


def mixed_infer(rng: random.Random, modules: int, chain_links: int) -> MixedInput:
    """Independent modules covering every instance-level rule shape, plus a chain.

    A module's classes sit in three tiers.  Individuals start in tier 0 and
    only rules move them up: a tier-1 property (domain in tier 1, range in
    tier 0) identifies tier-1 members from initial links, is lifted to a
    tier-2 super-property, and the tier-2 intersection splits its members
    into tier-2 parts.  Cooccurrence then links every domain member to every
    range member.  Derivations therefore stop after a fixed number of rounds,
    fewer than the transitive chain needs, so the chain sets the round count
    on every seed.  The symmetric and inverse rules conclude class-flagged
    links, which the fact syntax cannot mark as such.
    """
    onto = Ontology()
    facts: list[FactRow] = []
    for m in range(modules):
        t0, t1, t2 = (_names(rng, f"M{m}T{t}c", n) for t, n in ((0, 6), (1, 6), (2, 8)))
        onto.classes += t0 + t1 + t2
        onto.subclass += [(c, rng.choice(t1)) for c in t0] + [(c, rng.choice(t2)) for c in t1]
        p1 = [
            Prop(n, PropertyKind.OBJECT, d, rng.choice(t0))
            for n, d in zip(_names(rng, f"m{m}a", 6), t1)
        ]
        p2 = [
            Prop(n, PropertyKind.OBJECT, d, rng.choice(t0))
            for n, d in zip(_names(rng, f"m{m}b", 3), t2)
        ]
        for i, p in enumerate(p1[:3]):
            p.sub_of.append(p2[i].name)
        p1[3].inverse_of.append(p1[4].name)
        onto.props += p1 + p2
        onto.props += [
            Prop(n, PropertyKind.DATATYPE, c, "xsd:string")
            for n, c in zip(_names(rng, f"m{m}d", 2), rng.sample(t1 + t2, 2))
        ]
        onto.intersections.append((t2[0], tuple(rng.sample(t2[3:], 2))))
        onto.restrictions.append((p1[5].name, rng.choice(t0)))
        if m == 0:
            onto.props.append(Prop("sym0", PropertyKind.SYMMETRIC, *rng.sample(t0, 2)))
        inds = _names(rng, f"m{m}i", 24)
        facts += [("isa", x, t0[k % len(t0)]) for k, x in enumerate(inds)]
        members = {c: inds[k::len(t0)] for k, c in enumerate(t0)}
        for p in p1:
            subjects = rng.sample(inds, 3)
            facts += [("link", x, p.name, rng.choice(members[p.range])) for x in subjects]
    trans = "nextTo"
    onto.props.append(Prop(trans, PropertyKind.TRANSITIVE))
    chain = _names(rng, "t", chain_links + 1)
    facts += [("link", a, trans, b) for a, b in zip(chain, chain[1:])]
    rng.shuffle(facts)
    return MixedInput(onto, facts)


# ---------------------------------------------------------------------------
# ontology-extract


def ontology_extract(rng: random.Random, classes: int, props: int) -> Ontology:
    """A large ontology on which every one of the thirteen scanners fires.

    ``classes`` classes in a subclass forest (one parent each) and ``props``
    property declarations, most of them object properties with a domain and
    a range; a fixed share is spent on the other flavours.
    """
    onto = Ontology()
    names = _names(rng, "K", classes)
    onto.classes = names
    onto.subclass = _forest(rng, names, roots=max(1, classes // 50))
    share = max(1, props // 30)
    pnames = _names(rng, "q", props)
    n_obj = props - 4 * share
    objs = [Prop(n, PropertyKind.OBJECT, *rng.sample(names, 2)) for n in pnames[:n_obj]]
    for i in range(0, 2 * share, 2):
        objs[i].sub_of.append(objs[i + 1].name)
    for i in range(2 * share, 4 * share, 2):
        objs[i].inverse_of.append(objs[i + 1].name)
    rest = pnames[n_obj:]
    dtypes = [
        Prop(n, PropertyKind.DATATYPE, rng.choice(names), "xsd:string") for n in rest[:share]
    ]
    syms = [Prop(n, PropertyKind.SYMMETRIC, *rng.sample(names, 2)) for n in rest[share : 2 * share]]
    trans = [Prop(n, PropertyKind.TRANSITIVE) for n in rest[2 * share : 4 * share]]
    onto.props = objs + dtypes + syms + trans
    for t in trans:
        # a short grounded chain per transitive property
        path = rng.sample(names, 4)
        onto.class_links += [(a, t.name, b) for a, b in zip(path, path[1:])]
    pairs = set()
    while len(pairs) < share:
        pairs.add(tuple(sorted(rng.sample(names, 2))))
    onto.equivalent = sorted(pairs)
    for _ in range(share):
        defined, *parts = rng.sample(names, 3)
        onto.intersections.append((defined, tuple(parts)))
        onto.restrictions.append((rng.choice(objs).name, rng.choice(names)))
    return onto


# ---------------------------------------------------------------------------
# dag-closure


@dataclass
class DagInput:
    ontology: Ontology
    edges: set[tuple[str, str]]
    equivalences: list[tuple[str, str]]


def dag_closure(rng: random.Random, layers: int, width: int, parents: int) -> DagInput:
    """A random layered subclass DAG with equivalences between leaf classes.

    Every class below the top layer has ``parents`` superclasses drawn from
    the layer above, so a class reaches nearly every class two layers up and
    the closure size barely moves with the seed.  One equivalence per two
    layers joins two bottom-layer classes, which lifts one leaf to the
    other's ancestors.
    """
    tiers = [_names(rng, f"L{k}n", width) for k in range(layers)]
    onto = Ontology(classes=[c for tier in tiers for c in tier])
    for below, above in zip(tiers, tiers[1:]):
        onto.subclass += [(c, sup) for c in below for sup in rng.sample(above, parents)]
    rng.shuffle(onto.subclass)
    leaves = tiers[0]
    pairs = set()
    while len(pairs) < min(layers // 2, len(leaves) * (len(leaves) - 1) // 2):
        pairs.add(tuple(sorted(rng.sample(leaves, 2))))
    onto.equivalent = sorted(pairs)
    return DagInput(onto, set(onto.subclass), list(onto.equivalent))
