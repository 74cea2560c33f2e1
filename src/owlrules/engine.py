"""Forward chaining over instance facts, plus schema-level subclass closure.

``run_fixpoint`` saturates a fact base under executable rules by semi-naive
rounds.  Each call indexes the facts themselves by kind and predicate, and
within those by subject and by object (only the lookups its rules make), and
appends every round's new facts to the index.  Each rule is compiled once: an
antecedent atom reads only the index bucket that its ground terms and
already-bound variables select, and a consequent atom becomes a fact kind and
its fields, which a binding fills into a plain tuple that is looked up before
any fact is built.  In a round, each atom in turn is the pivot that must match
a fact derived in the previous round; atoms before the pivot match only older
facts and atoms after it match any fact, so each binding is produced once, at
its leftmost new fact.

Matching binds the variables ?x/?y/?z to fact components, with one restriction:
the object of a class-flagged link fact never binds a variable (it names a
class, not an individual).  Ground terms match by plain name equality.

Rules whose consequents are schema atoms (the equivalence-inheritance and
subclass-transitivity shapes) are accepted but derive nothing here — there is
no instance-level fact for a schema assertion; ``schema_closure`` is their
execution path.  Rules with negated consequents (the allvaluesfrom shape)
assert nothing either: they are closed-world integrity checks whose failures
are reported as violations after the fixpoint is reached.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

from .model import (
    EquivalentClass,
    Iri,
    OntologyModel,
    SubClassOf,
    Value,
    fields_repr,
)
from .rules import (
    Atom,
    ClassRef,
    HasFeature,
    IndividualRef,
    IsA,
    Link,
    MorePartsExpected,
    Not,
    Pattern,
    PropRef,
    Rule,
    SchemaEquivalent,
    SchemaSubClassOf,
    SolePart,
    Term,
    Var,
)


class ContradictionError(Exception):
    """A membership and its negation name the same (individual, class) pair."""

    # The parser.Location of the second statement when a fact file makes both,
    # and the diagnostics of the file's malformed lines; None and () for a
    # contradiction derived by rules.
    location = None
    diagnostics = ()


class NonExecutableRuleError(ValueError):
    """A rule flagged non-executable was handed to the fixpoint engine."""


# ---------------------------------------------------------------------------
# facts


class Fact:
    __slots__ = ()


class Membership(Fact, Value):
    __slots__ = ()
    __match_args__ = ("individual", "cls")

    # ``kind``, not ``cls``: the class field takes that name as a keyword.
    def __new__(kind, individual: Iri, cls: Iri) -> "Membership":
        return tuple.__new__(kind, (kind, individual, cls))


class NegMembership(Fact, Value):
    __slots__ = ()
    __match_args__ = ("individual", "cls")

    def __new__(kind, individual: Iri, cls: Iri) -> "NegMembership":
        return tuple.__new__(kind, (kind, individual, cls))


class LinkFact(Fact, Value):
    """``obj_is_class`` is true when the object names a class rather than an
    individual (the symmetric/inverse shapes conclude links that point at a
    class)."""

    __slots__ = ()
    __match_args__ = ("subject", "prop", "obj", "obj_is_class")

    def __new__(cls, subject: Iri, prop: Iri, obj: Iri, obj_is_class: bool = False) -> "LinkFact":
        return tuple.__new__(cls, (cls, subject, prop, obj, obj_is_class))


class FeatureExpected(Fact, Value):
    __slots__ = ()
    __match_args__ = ("individual", "feature")

    def __new__(cls, individual: Iri, feature: Iri) -> "FeatureExpected":
        return tuple.__new__(cls, (cls, individual, feature))


def format_fact(fact: Fact) -> str:
    kind = type(fact)
    if kind is LinkFact:
        return f"link({fact.subject}, {fact.prop}, {fact.obj})"
    if kind is Membership:
        return f"isa({fact.individual}, {fact.cls})"
    if kind is NegMembership:
        return f"not isa({fact.individual}, {fact.cls})"
    if kind is FeatureExpected:
        return f"feature({fact.individual}, {fact.feature})"
    raise TypeError(f"unknown fact: {fact!r}")


class FactBase:
    """Duplicate-free fact store that remembers which rule derived what.

    One insertion-ordered dict maps each fact to the id of the rule that
    derived it, or to None for a fact given initially.
    """

    def __init__(self, facts: tuple[Fact, ...] | list[Fact] = ()):
        self._sources: dict[Fact, str | None] = {}
        for f in facts:
            self.add(f)

    @property
    def facts(self) -> tuple[Fact, ...]:
        return tuple(self._sources)

    def add(self, fact: Fact, derived_by: str | None = None) -> bool:
        if fact in self._sources:
            return False
        self._check_contradiction(fact, derived_by)
        self._sources[fact] = derived_by
        return True

    def _check_contradiction(self, fact: Fact, derived_by: str | None) -> None:
        twin: Fact | None = None
        if isinstance(fact, Membership):
            twin = NegMembership(fact.individual, fact.cls)
        elif isinstance(fact, NegMembership):
            twin = Membership(fact.individual, fact.cls)
        if twin is not None and twin in self._sources:
            raise ContradictionError(
                f"contradiction on ({fact.individual}, {fact.cls}): asserted and negated "
                f"(sources: {self.source_of(twin)}, {derived_by or 'initial'})"
            )

    def source_of(self, fact: Fact) -> str:
        return self._sources.get(fact) or "initial"

    def copy(self) -> "FactBase":
        clone = FactBase()
        clone._sources = dict(self._sources)
        return clone

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._sources

    def __iter__(self):
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)


class InferenceResult:
    def __init__(
        self,
        final: FactBase,
        iterations: int,
        derived: list[tuple[Fact, str]],
        violations: list[tuple[Fact, str]],
        converged: bool,
    ) -> None:
        self.final = final
        self.iterations = iterations
        self.derived = derived
        self.violations = violations
        self.converged = converged

    def __repr__(self) -> str:
        fields = ("final", "iterations", "derived", "violations", "converged")
        return fields_repr("InferenceResult", self, fields)


# ---------------------------------------------------------------------------
# fact index


class _FactIndex:
    """A fact base's facts by position, bucketed by what an atom can look up.

    ``rows[pos]`` is the fact at position ``pos`` itself: the tuple ``(kind,
    subject, predicate[, object, object-is-class])``, where the predicate is
    the class, property or feature.  ``pos`` joins the buckets ``(kind, "")``,
    ``(kind, "p", predicate)``, ``(kind, "s", predicate, subject)`` and, for
    links, ``(kind, "o", predicate, object)`` -- those whose family, the first
    two key entries, is in ``families``: the rules read no other bucket.
    Buckets hold positions in insertion order, so the facts added by the last
    ``extend`` are a suffix of each.
    """

    def __init__(self, facts, families: set[tuple[type, str]]) -> None:
        self.rows: list[Fact] = []
        self.buckets: dict[tuple, list[int]] = defaultdict(list)
        self.families = families
        self.extend(facts)

    def extend(self, facts) -> None:
        rows, buckets, families = self.rows, self.buckets, self.families
        for fact in facts:
            pos = len(rows)
            rows.append(fact)
            kind, subject, pred = fact[:3]
            if (kind, "") in families:
                buckets[(kind, "")].append(pos)
            if (kind, "p") in families:
                buckets[(kind, "p", pred)].append(pos)
            if (kind, "s") in families:
                buckets[(kind, "s", pred, subject)].append(pos)
            if (kind, "o") in families:  # links only
                buckets[(kind, "o", pred, fact[3])].append(pos)


# ---------------------------------------------------------------------------
# rule compilation

# The fact kind an instance atom matches and concludes; its fields line up
# with the atom's.
_FACT_OF = {IsA: Membership, Link: LinkFact, HasFeature: FeatureExpected}

# A step matches one antecedent atom: the tuple (key, dynamic, ops).  Its
# ``key`` names the index bucket to read; Var entries in it are variables bound
# by earlier atoms, filled in from the bindings when ``dynamic`` is true.  Its
# ``ops`` test the fact columns the key leaves open: (column, name, _CONST)
# compares with a ground name, (column, var, _CHECK) with a bound variable, and
# (column, var, _BIND) binds a variable first met in this atom.
_CONST, _CHECK, _BIND = range(3)


def _part(term: Term | Iri) -> Var | Iri | None:
    if isinstance(term, (Var, Iri)):
        return term
    if isinstance(term, (ClassRef, PropRef, IndividualRef)):
        return term.iri
    return None  # literals never match a name


def _compile_atom(atom: Atom, bound: set[Var]) -> tuple[tuple, bool, tuple] | None:
    """Compile ``atom`` after the atoms that bound ``bound`` (which it extends).

    Returns None for an atom that no fact can match.
    """
    kind = _FACT_OF[type(atom)]
    parts = [_part(t) for t in atom[1:]]  # fact columns 1, 2 and, for links, 3
    if any(p is None for p in parts):
        return None
    known = [not isinstance(p, Var) or p in bound for p in parts]
    if not known[1]:
        key, keyed = (kind, ""), ()
    elif known[0]:
        key, keyed = (kind, "s", parts[1], parts[0]), (1, 2)
    elif kind is LinkFact and known[2]:
        key, keyed = (kind, "o", parts[1], parts[2]), (2, 3)
    else:
        key, keyed = (kind, "p", parts[1]), (2,)
    ops = []
    if kind is LinkFact and isinstance(parts[2], Var):
        ops.append((4, False, _CONST))  # a class-flagged object binds no variable
    for col, part in enumerate(parts, start=1):
        if col in keyed:
            continue
        if not isinstance(part, Var):
            ops.append((col, part, _CONST))
        elif part in bound:
            ops.append((col, part, _CHECK))
        else:
            ops.append((col, part, _BIND))
            bound.add(part)
    return key, any(isinstance(x, Var) for x in key), tuple(ops)


def _compile_head(rule: Rule, atom: Atom, bound: set[Var]) -> tuple[type, tuple]:
    """``(fact kind, fields)`` for a consequent atom: each field a name, a
    variable from ``bound``, or (last, for a link) the object-is-class flag."""
    fields: list = []
    for term in atom[1:]:
        part = _part(term)
        if part is None:
            raise ValueError(f"rule {rule.id}: cannot ground {term!r}")
        if isinstance(part, Var) and part not in bound:
            raise ValueError(f"rule {rule.id}: consequent variable {part.name} is unbound")
        fields.append(part)
    if type(atom) is Link:
        fields.append(isinstance(atom.obj, ClassRef))
    return _FACT_OF[type(atom)], tuple(fields)


_SCHEMA_ATOMS = (SchemaSubClassOf, SchemaEquivalent, SolePart, MorePartsExpected)


def _prepare(rule: Rule) -> tuple[str, list[tuple[tuple, bool, tuple]], list] | None:
    """Compile ``rule`` into ``(rule id, steps, heads)``: one step per instance
    atom of its antecedent, in order, and one head per instance atom of its
    consequent.

    Returns None for a rule that can derive nothing: some atom can never match
    (e.g. a variable-bearing schema atom), or no consequent atom is
    instance-level.  Raises ``ValueError`` naming the rule for an atom the
    engine cannot run, even if no fact would ever match the rule.
    """
    steps = []
    bound: set[Var] = set()
    fires = True
    for atom in rule.antecedent:
        if isinstance(atom, Not):
            raise ValueError(
                f"rule {rule.id}: negated antecedents are only supported on "
                "integrity-check rules"
            )
        if type(atom) in _FACT_OF:
            step = _compile_atom(atom, bound)
            if step is None:
                fires = False
            else:
                steps.append(step)
        elif isinstance(atom, _SCHEMA_ATOMS):
            # Ground schema atoms held at extraction time; variable-bearing
            # ones have nothing to match and silence the rule.
            if any(isinstance(t, Var) for t in atom[1:]):
                fires = False
        else:
            raise ValueError(f"rule {rule.id}: unsupported antecedent atom {atom!r}")
    if not fires:
        return None
    heads = [_compile_head(rule, a, bound) for a in rule.consequent if type(a) in _FACT_OF]
    return (rule.id, steps, heads) if heads else None


def _prepare_constraint(rule: Rule) -> tuple[Rule, Iri, Iri]:
    """The integrity check ``(rule, property, filler)`` of a negated-consequent rule."""
    ok = (
        len(rule.consequent) == 1
        and len(rule.antecedent) == 1
        and isinstance(rule.consequent[0], Not)
        and isinstance(rule.antecedent[0], Not)
    )
    if ok:
        head = rule.consequent[0].inner
        guard = rule.antecedent[0].inner
        ok = (
            isinstance(head, Link)
            and isinstance(head.prop, PropRef)
            and isinstance(head.obj, Var)
            and isinstance(guard, IsA)
            and isinstance(guard.cls, ClassRef)
            and guard.subject == head.obj
        )
    if not ok:
        raise ValueError(f"rule {rule.id}: unsupported integrity-check shape")
    return rule, head.prop.iri, guard.cls.iri


# ---------------------------------------------------------------------------
# rounds


def _round(
    prepared: list[tuple[str, list, list]], base: FactBase, index: _FactIndex, delta_start: int
) -> list[tuple[Fact, str]]:
    """Fire every rule on the bindings that use a fact at ``delta_start`` or later.

    New facts go straight into ``base`` (not into ``index``, so matching in
    this round sees only the facts it started with) and are returned in
    derivation order with the id of the rule that derived them first.
    """
    staged: list[tuple[Fact, str]] = []
    rows, buckets = index.rows, index.buckets

    def search(
        rule_id: str, steps: list, heads: list, i: int, pivot: int, binds: dict[Var, Iri]
    ) -> None:
        if i == len(steps):
            for kind, fields in heads:
                # Names and flags are never keys of ``binds``.  The plain tuple
                # hashes and compares as the fact it spells.
                row = (kind, *[binds.get(f, f) for f in fields])
                if row not in base:
                    fact = tuple.__new__(kind, row)
                    base.add(fact, derived_by=rule_id)
                    staged.append((fact, rule_id))
            return
        key, dynamic, ops = steps[i]
        if dynamic:
            key = tuple([binds.get(x, x) for x in key])
        bucket = buckets.get(key)
        if not bucket:
            return
        if i < pivot:
            bucket = bucket[: bisect_left(bucket, delta_start)]
        elif i == pivot:
            bucket = bucket[bisect_left(bucket, delta_start) :]
        for pos in bucket:
            row = rows[pos]
            for col, arg, op in ops:
                if op == _BIND:
                    binds[arg] = row[col]
                elif row[col] != (binds[arg] if op == _CHECK else arg):
                    break
            else:
                search(rule_id, steps, heads, i + 1, pivot, binds)

    for rule_id, steps, heads in prepared:
        # A rule without instance atoms has one (empty) binding: pivot -1.
        for pivot in range(len(steps)) if steps else (-1,):
            search(rule_id, steps, heads, 0, pivot, {})
    return staged


def run_fixpoint(rules: list[Rule], initial: FactBase, cap: int) -> InferenceResult:
    """Saturate ``initial`` under ``rules``; never mutates the input base."""
    if cap < 1:
        raise ValueError("iteration cap must be at least 1")
    bad = [r.id for r in rules if not r.executable]
    if bad:
        raise NonExecutableRuleError(f"non-executable rules passed to fixpoint: {', '.join(bad)}")

    positives = []
    constraints = []
    for rule in rules:
        if any(isinstance(a, Not) for a in rule.consequent):
            constraints.append(_prepare_constraint(rule))
        else:
            prepared = _prepare(rule)
            if prepared is not None:
                positives.append(prepared)

    base = initial.copy()  # FactBase.add has kept it free of contradictions
    families = {key[:2] for _, steps, _ in positives for key, _, _ in steps}
    if constraints:
        families.add((LinkFact, "p"))
    index = _FactIndex(base, families)
    derived: list[tuple[Fact, str]] = []
    delta_start = 0  # every initial fact is new in the first round
    iterations = 0
    converged = False
    while iterations < cap:
        iterations += 1
        staged = _round(positives, base, index, delta_start)
        if not staged:
            converged = True
            break
        derived.extend(staged)
        delta_start = len(index.rows)
        index.extend(fact for fact, _ in staged)

    violations: list[tuple[Fact, str]] = []
    for rule, prop, filler in constraints:
        for pos in index.buckets.get((LinkFact, "p", prop), ()):
            link = index.rows[pos]
            if not link.obj_is_class and Membership(link.obj, filler) not in base:
                violations.append((link, rule.id))

    return InferenceResult(
        final=base,
        iterations=iterations,
        derived=derived,
        violations=violations,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# schema-level closure


def schema_closure(model: OntologyModel, rules: list[Rule]) -> list[SubClassOf]:
    """Least fixpoint of derived subclass axioms under the two schema shapes.

    ``rules`` selects which shapes participate (transitive chaining and/or
    equivalence lifting); only those two patterns are accepted.  Returns new
    axioms only — input edges and self-edges are never reported — sorted by
    (sub, sup).
    """
    allowed = {Pattern.EQUIVALENCE_INHERITANCE, Pattern.SUBCLASS_TRANSITIVITY}
    stray = [r.id for r in rules if r.pattern not in allowed]
    if stray:
        raise ValueError(f"schema_closure only accepts schema rules, got: {', '.join(stray)}")
    trans_on = any(r.pattern is Pattern.SUBCLASS_TRANSITIVITY for r in rules)
    equiv_on = any(r.pattern is Pattern.EQUIVALENCE_INHERITANCE for r in rules)

    given = {(ax.sub, ax.sup) for ax in model.axioms_of(SubClassOf)}
    # lifts[d]: the classes declared equivalent to d, which inherit its superclasses
    lifts: dict[Iri, list[Iri]] = defaultdict(list)
    if equiv_on:
        for ax in model.axioms_of(EquivalentClass):
            lifts[ax.a].append(ax.b)
            lifts[ax.b].append(ax.a)
    sups: dict[Iri, set[Iri]] = defaultdict(set)  # known superclasses of each class
    subs: dict[Iri, set[Iri]] = defaultdict(set)  # known subclasses of each class
    pending: dict[Iri, set[Iri]] = {}  # superclasses not yet joined with the rest

    def add(cls: Iri, candidates: set[Iri]) -> None:
        fresh = candidates - sups[cls]
        if fresh:
            sups[cls] |= fresh
            for sup in fresh:
                subs[sup].add(cls)
            pending.setdefault(cls, set()).update(fresh)

    for sub, sup in given:
        add(sub, {sup})
    # Semi-naive: a new edge (cls, sup) waits in ``pending`` until it is joined,
    # as either premise, with every edge known by then; an edge found later is
    # joined with it when that edge's own turn comes.
    while pending:
        cls, delta = pending.popitem()
        if trans_on:
            for mid in delta:
                add(cls, sups[mid] - {cls})
            for sub in list(subs[cls]):
                add(sub, delta - {sub})
        for lifted in lifts[cls]:
            add(lifted, delta - {lifted})

    derived = ((sub, sup) for sub, known in sups.items() for sup in known)
    return [SubClassOf(s, p) for s, p in sorted(set(derived) - given)]
