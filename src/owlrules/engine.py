"""Forward chaining over instance facts, plus schema-level subclass closure.

``run_fixpoint`` saturates a fact base under executable rules by semi-naive
rounds.  Each call indexes the facts by kind and predicate, and within those
by subject and by object (only the lookups its rules make), and appends every
round's new facts to the index.  Each rule is compiled once: an antecedent
atom reads only the index bucket that its ground terms and already-bound
variables select.  In a round, each
atom in turn is the pivot that must match a fact derived in the previous
round; atoms before the pivot match only older facts and atoms after it match
any fact, so each binding is produced once, at its leftmost new fact.

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
from dataclasses import dataclass

from .model import (
    EquivalentClass,
    Iri,
    OntologyModel,
    SubClassOf,
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
    pass


@dataclass(frozen=True)
class Membership(Fact):
    individual: Iri
    cls: Iri


@dataclass(frozen=True)
class NegMembership(Fact):
    individual: Iri
    cls: Iri


@dataclass(frozen=True)
class LinkFact(Fact):
    subject: Iri
    prop: Iri
    obj: Iri
    # True when the object names a class rather than an individual (the
    # symmetric/inverse shapes conclude links that point at a class).
    obj_is_class: bool = False


@dataclass(frozen=True)
class FeatureExpected(Fact):
    individual: Iri
    feature: Iri


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
    """Duplicate-free fact store that remembers which rule derived what."""

    def __init__(self, facts: tuple[Fact, ...] | list[Fact] = ()):
        self._facts: list[Fact] = []
        self._index: set[Fact] = set()
        self.derived_marks: dict[Fact, str] = {}
        for f in facts:
            self.add(f)

    @property
    def facts(self) -> tuple[Fact, ...]:
        return tuple(self._facts)

    def add(self, fact: Fact, derived_by: str | None = None) -> bool:
        if fact in self._index:
            return False
        self._check_contradiction(fact, derived_by)
        self._facts.append(fact)
        self._index.add(fact)
        if derived_by is not None:
            self.derived_marks[fact] = derived_by
        return True

    def _check_contradiction(self, fact: Fact, derived_by: str | None) -> None:
        twin: Fact | None = None
        if isinstance(fact, Membership):
            twin = NegMembership(fact.individual, fact.cls)
        elif isinstance(fact, NegMembership):
            twin = Membership(fact.individual, fact.cls)
        if twin is not None and twin in self._index:
            pair = (
                fact.individual,
                fact.cls,
            )
            a = self.derived_marks.get(twin, "initial")
            b = derived_by or "initial"
            raise ContradictionError(
                f"contradiction on ({pair[0]}, {pair[1]}): asserted and negated "
                f"(sources: {a}, {b})"
            )

    def source_of(self, fact: Fact) -> str:
        return self.derived_marks.get(fact, "initial")

    def copy(self) -> "FactBase":
        clone = FactBase()
        clone._facts = list(self._facts)
        clone._index = set(self._index)
        clone.derived_marks = dict(self.derived_marks)
        return clone

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._index

    def __iter__(self):
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)


@dataclass
class InferenceResult:
    final: FactBase
    iterations: int
    derived: list[tuple[Fact, str]]
    violations: list[tuple[Fact, str]]
    converged: bool


# ---------------------------------------------------------------------------
# fact index


class _FactIndex:
    """A fact base's facts by position, bucketed by what an atom can look up.

    The fact at position ``pos`` becomes the row (subject, predicate, object,
    object-is-class), where the predicate is the class, property or feature
    (a link's row is its ``LinkFact`` fields).  ``pos`` joins the buckets
    ``(kind, "")``, ``(kind, "p", predicate)``, ``(kind, "s", predicate,
    subject)`` and, for links, ``(kind, "o", predicate, object)`` -- those
    whose family, the first two key entries, is in ``families``: the rules
    read no other bucket.  Buckets hold positions in insertion order, so the
    facts added by the last ``extend`` are a suffix of each.
    """

    def __init__(self, facts, families: set[tuple[str, str]]) -> None:
        self.rows: list[tuple | None] = []
        self.buckets: dict[tuple, list[int]] = defaultdict(list)
        self.families = families
        self.extend(facts)

    def extend(self, facts) -> None:
        buckets, families = self.buckets, self.families
        for fact in facts:
            pos = len(self.rows)
            if isinstance(fact, LinkFact):
                kind, row = "prop", (fact.subject, fact.prop, fact.obj, fact.obj_is_class)
            elif isinstance(fact, Membership):
                kind, row = "cls", (fact.individual, fact.cls, None, False)
            elif isinstance(fact, FeatureExpected):
                kind, row = "feature", (fact.individual, fact.feature, None, False)
            else:  # negated memberships match no antecedent atom
                self.rows.append(None)
                continue
            self.rows.append(row)
            subject, pred, obj, _ = row
            if (kind, "") in families:
                buckets[(kind, "")].append(pos)
            if (kind, "p") in families:
                buckets[(kind, "p", pred)].append(pos)
            if (kind, "s") in families:
                buckets[(kind, "s", pred, subject)].append(pos)
            if (kind, "o") in families:
                buckets[(kind, "o", pred, obj)].append(pos)


# ---------------------------------------------------------------------------
# rule compilation

# A step matches one antecedent atom.  Its ``key`` names the index bucket to
# read; Var entries in it are variables bound by earlier atoms, filled in from
# the bindings.  Its ``ops`` test the row columns the key leaves open:
# (column, name, _CONST) compares with a ground name, (column, var, _CHECK)
# with a bound variable, and (column, var, _BIND) binds a variable first met
# in this atom.
_CONST, _CHECK, _BIND = range(3)


@dataclass(frozen=True)
class _Step:
    key: tuple
    dynamic: bool  # the key holds variables
    ops: tuple[tuple[int, object, int], ...]


def _part(term: Term) -> Var | Iri | None:
    if isinstance(term, Var):
        return term
    if isinstance(term, (ClassRef, PropRef, IndividualRef)):
        return term.iri
    return None  # literals never match a name


def _compile_atom(atom: Atom, bound: set[str]) -> _Step | None:
    """Compile ``atom`` after the atoms that bound ``bound`` (which it extends).

    Returns None for an atom that no fact can match.
    """
    if isinstance(atom, IsA):
        kind, parts = "cls", [_part(atom.subject), _part(atom.cls)]
    elif isinstance(atom, Link):
        kind, parts = "prop", [_part(atom.subject), _part(atom.prop), _part(atom.obj)]
    else:
        kind, parts = "feature", [_part(atom.subject), atom.feature]
    if any(p is None for p in parts):
        return None
    known = [not isinstance(p, Var) or p.name in bound for p in parts]
    if not known[1]:
        key, keyed = (kind, ""), ()
    elif known[0]:
        key, keyed = (kind, "s", parts[1], parts[0]), (0, 1)
    elif kind == "prop" and known[2]:
        key, keyed = (kind, "o", parts[1], parts[2]), (1, 2)
    else:
        key, keyed = (kind, "p", parts[1]), (1,)
    ops = []
    if kind == "prop" and isinstance(parts[2], Var):
        ops.append((3, False, _CONST))  # a class-flagged object binds no variable
    for col, part in enumerate(parts):
        if col in keyed:
            continue
        if not isinstance(part, Var):
            ops.append((col, part, _CONST))
        elif part.name in bound:
            ops.append((col, part.name, _CHECK))
        else:
            ops.append((col, part.name, _BIND))
            bound.add(part.name)
    dynamic = any(isinstance(x, Var) for x in key)
    return _Step(key=key, dynamic=dynamic, ops=tuple(ops))


def _ground(term: Term, binds: dict[str, Iri]) -> Iri:
    if isinstance(term, Var):
        try:
            return binds[term.name]
        except KeyError:
            raise ValueError(f"consequent variable {term.name} is unbound") from None
    if isinstance(term, (ClassRef, PropRef, IndividualRef)):
        return term.iri
    raise ValueError(f"cannot ground {term!r}")


def _instantiate(atom: Atom, binds: dict[str, Iri]) -> Fact | None:
    if isinstance(atom, IsA):
        return Membership(_ground(atom.subject, binds), _ground(atom.cls, binds))
    if isinstance(atom, Link):
        return LinkFact(
            _ground(atom.subject, binds),
            _ground(atom.prop, binds),
            _ground(atom.obj, binds),
            obj_is_class=isinstance(atom.obj, ClassRef),
        )
    if isinstance(atom, HasFeature):
        return FeatureExpected(_ground(atom.subject, binds), atom.feature)
    return None  # schema atoms have no instance-level fact


_SCHEMA_ATOMS = (SchemaSubClassOf, SchemaEquivalent, SolePart, MorePartsExpected)
_INSTANCE_ATOMS = (IsA, Link, HasFeature)


def _is_ground_atom(atom: Atom) -> bool:
    terms: tuple[Term, ...]
    if isinstance(atom, (SchemaSubClassOf, SchemaEquivalent)):
        terms = (atom.sub, atom.sup) if isinstance(atom, SchemaSubClassOf) else (atom.a, atom.b)
    elif isinstance(atom, SolePart):
        terms = (atom.part, atom.whole)
    elif isinstance(atom, MorePartsExpected):
        terms = (atom.whole,)
    else:
        return False
    return not any(isinstance(t, Var) for t in terms)


@dataclass
class _Prepared:
    rule: Rule
    steps: list[_Step]  # one per instance atom of the antecedent, in order
    fires: bool  # False when some atom can never match, e.g. a variable-bearing schema atom
    emits: bool  # True when some consequent atom is instance-level


@dataclass
class _Constraint:
    rule: Rule
    prop: Iri
    filler: Iri


def _prepare(rule: Rule) -> _Prepared | _Constraint:
    if any(isinstance(a, Not) for a in rule.consequent):
        return _prepare_constraint(rule)
    steps: list[_Step] = []
    bound: set[str] = set()
    fires = True
    for atom in rule.antecedent:
        if isinstance(atom, Not):
            raise ValueError(
                f"rule {rule.id}: negated antecedents are only supported on "
                "integrity-check rules"
            )
        if isinstance(atom, _INSTANCE_ATOMS):
            step = _compile_atom(atom, bound)
            if step is None:
                fires = False
            else:
                steps.append(step)
        elif isinstance(atom, _SCHEMA_ATOMS):
            # Ground schema atoms held at extraction time; variable-bearing
            # ones have nothing to match and silence the rule.
            if not _is_ground_atom(atom):
                fires = False
        else:
            raise ValueError(f"rule {rule.id}: unsupported antecedent atom {atom!r}")
    emits = any(isinstance(a, _INSTANCE_ATOMS) for a in rule.consequent)
    return _Prepared(rule=rule, steps=steps, fires=fires, emits=emits)


def _prepare_constraint(rule: Rule) -> _Constraint:
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
    return _Constraint(rule=rule, prop=head.prop.iri, filler=guard.cls.iri)


# ---------------------------------------------------------------------------
# rounds


def _round(
    prepared: list[_Prepared], base: FactBase, index: _FactIndex, delta_start: int
) -> list[tuple[Fact, str]]:
    """Fire every rule on the bindings that use a fact at ``delta_start`` or later.

    New facts go straight into ``base`` (not into ``index``, so matching in
    this round sees only the facts it started with) and are returned in
    derivation order with the id of the rule that derived them first.
    """
    staged: list[tuple[Fact, str]] = []
    rows, buckets = index.rows, index.buckets

    def search(prep: _Prepared, i: int, pivot: int, binds: dict[str, Iri]) -> None:
        if i == len(prep.steps):
            for atom in prep.rule.consequent:
                fact = _instantiate(atom, binds)
                if fact is not None and base.add(fact, derived_by=prep.rule.id):
                    staged.append((fact, prep.rule.id))
            return
        step = prep.steps[i]
        key = step.key
        if step.dynamic:
            key = tuple(binds[x.name] if isinstance(x, Var) else x for x in key)
        bucket = buckets.get(key)
        if not bucket:
            return
        if i < pivot:
            bucket = bucket[: bisect_left(bucket, delta_start)]
        elif i == pivot:
            bucket = bucket[bisect_left(bucket, delta_start) :]
        for pos in bucket:
            row = rows[pos]
            for col, arg, op in step.ops:
                if op == _BIND:
                    binds[arg] = row[col]
                elif row[col] != (binds[arg] if op == _CHECK else arg):
                    break
            else:
                search(prep, i + 1, pivot, binds)

    for prep in prepared:
        # A rule without instance atoms has one (empty) binding: pivot -1.
        for pivot in range(len(prep.steps)) if prep.steps else (-1,):
            search(prep, 0, pivot, {})
    return staged


def run_fixpoint(rules: list[Rule], initial: FactBase, cap: int) -> InferenceResult:
    """Saturate ``initial`` under ``rules``; never mutates the input base."""
    if cap < 1:
        raise ValueError("iteration cap must be at least 1")
    bad = [r.id for r in rules if not r.executable]
    if bad:
        raise NonExecutableRuleError(f"non-executable rules passed to fixpoint: {', '.join(bad)}")

    positives: list[_Prepared] = []
    constraints: list[_Constraint] = []
    for rule in rules:
        prep = _prepare(rule)
        if isinstance(prep, _Constraint):
            constraints.append(prep)
        elif prep.fires and prep.emits:
            positives.append(prep)

    base = initial.copy()  # FactBase.add has kept it free of contradictions
    families = {step.key[:2] for prep in positives for step in prep.steps}
    if constraints:
        families.add(("prop", "p"))
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
    for con in constraints:
        for pos in index.buckets.get(("prop", "p", con.prop), ()):
            link = LinkFact(*index.rows[pos])
            if not link.obj_is_class and Membership(link.obj, con.filler) not in base:
                violations.append((link, con.rule.id))

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
