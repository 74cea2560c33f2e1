"""Forward chaining over instance facts, plus schema-level subclass closure.

``run_fixpoint`` saturates a fact base under executable rules by semi-naive
rounds, evaluated a set at a time; the facts and their store are defined in
``owlrules.facts``.  Rules that differ only in their names share a shape
(``Rule.shape``).  Once per process, each shape is built on its slot numbers
(0, 1, ... where a rule has its names) and compiled into one plan per
antecedent atom; a rule's plans read its names (``Rule.names``) by slot.  In
a round, a plan starts from its pivot atom over the facts the previous round
derived (in the first round, the initial facts) and joins the other atoms
against every known fact; only plans whose pivot relation -- fact kind and
predicate -- has new facts run.  A join step maps the whole set of bindings
through an index keyed by the columns already bound; a last step that adds one
needed variable unites the value sets of each group of bindings, and drops the
values already known, in one set operation.  Head rows are plain tuples,
tested against the fact dict before any fact is built.

The output, an ``InferenceResult`` record, is canonical.  Derived facts are
listed round by round and, within a round, sorted by their rendered text,
which the result keeps beside them; each carries the id of the first rule, in
the order of the rule list, that derives it in that round.  Violations are
sorted by text, then rule id.  A derived membership that contradicts a given
negation raises ``ContradictionError`` for the first such fact in that order.

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

from collections import defaultdict
from collections.abc import Iterator
from operator import itemgetter
from types import SimpleNamespace

from .facts import Fact, FactBase, FeatureExpected, LinkFact, Membership, NegMembership, format_fact
from .model import EquivalentClass, OntologyModel, SubClassOf, _paused
from .rules import (
    ClassRef,
    HasFeature,
    IsA,
    Link,
    LiteralTok,
    Not,
    Pattern,
    PropRef,
    Rule,
    Term,
    Var,
    _tuple_of,
)


class NonExecutableRuleError(ValueError):
    """A rule flagged non-executable was handed to the fixpoint engine."""


class InferenceResult(SimpleNamespace):
    """What ``run_fixpoint`` returns: ``final`` (the saturated fact base),
    ``iterations``, ``derived`` and ``violations`` (lists of ``(fact, rule
    id)``), ``converged``, and ``derived_text`` and ``violation_text`` (the
    ``format_fact`` text of each derived fact and violation, in order)."""


# ---------------------------------------------------------------------------
# rule shapes

# The fact kind an instance atom matches and concludes; its fields line up
# with the atom's, and so with the fact's columns: 1 subject, 2 predicate (the
# class, property or feature), 3 object and 4 object-is-class (links only).
_FACT_OF = {IsA: Membership, Link: LinkFact, HasFeature: FeatureExpected}


def _parts(terms: tuple) -> tuple:
    """``terms`` as shape parts: a variable as itself, a name (bare or in a
    reference) as what stands there, its slot in atoms built on slot numbers,
    and a literal, which never matches a name, as None."""
    return tuple(
        term if type(term) is Var
        else None if type(term) is LiteralTok
        else term[1] if isinstance(term, Term)
        else term
        for term in terms
    )


def _split(rule: Rule, antecedent: tuple, consequent: tuple) -> tuple | None:
    """The atoms of ``rule``'s shape as its engine shape ``(body, heads)``:
    ``body`` lists the instance atoms of the antecedent as ``(fact kind,
    parts)`` and ``heads`` those of the consequent as ``(fact kind, parts,
    object-is-class)``.

    Returns None for a rule that can derive nothing: some atom can never match
    (a literal, or a variable-bearing schema atom), or no consequent atom is
    instance-level.  Raises ``ValueError`` naming the rule, and its own term,
    for an atom the engine cannot run, even if no fact would ever match it.
    """
    body = []
    fires = True
    for atom in antecedent:
        kind = _FACT_OF.get(type(atom))
        if kind is not None:
            parts = _parts(atom[1:])
            if None in parts:
                fires = False
            else:
                body.append((kind, parts))
        elif isinstance(atom, Not):
            raise ValueError(
                f"rule {rule.id}: negated antecedents are only supported on "
                "integrity-check rules"
            )
        elif any(isinstance(t, Var) for t in atom[1:]):
            # A schema atom: ground ones held at extraction time; variable-bearing
            # ones have nothing to match and silence the rule.
            fires = False
    if not fires:
        return None
    bound = {p for _, parts in body for p in parts if isinstance(p, Var)}
    heads = []
    for i, atom in enumerate(consequent):
        kind = _FACT_OF.get(type(atom))
        if kind is None:
            continue
        parts = _parts(atom[1:])
        for k, part in enumerate(parts, 1):
            if part is None:
                raise ValueError(f"rule {rule.id}: cannot ground {rule.consequent[i][k]!r}")
            if isinstance(part, Var) and part not in bound:
                raise ValueError(f"rule {rule.id}: consequent variable {part.name} is unbound")
        heads.append((kind, parts, kind is LinkFact and type(atom.obj) is ClassRef))
    return (tuple(body), tuple(heads)) if heads else None


_PREPARED: dict[object, tuple] = {}  # rule shape -> _prepare's result, unless it raised


def _prepare(rule: Rule) -> tuple[tuple[int, int] | None, list[tuple]]:
    """How every rule of ``rule``'s shape runs, found once on the shape built
    on its slot numbers: ``(check, plan templates)``.  ``check`` holds the
    slots of the property and the filler of an integrity check, else None;
    a plan reads the names of each rule by slot."""
    antecedent, consequent = rule.shape.build(*range(len(rule.names)))
    if any(isinstance(a, Not) for a in consequent):
        match antecedent, consequent:
            case (Not(IsA(guard, ClassRef(filler))),), (
                Not(Link(_, PropRef(prop), Var() as obj)),
            ) if guard == obj:
                return (prop, filler), []
        raise ValueError(f"rule {rule.id}: unsupported integrity-check shape")
    shape = _split(rule, antecedent, consequent)
    return None, ([] if shape is None else _compile_shape(shape, len(rule.names)))


# ---------------------------------------------------------------------------
# plans
#
# A binding is a tuple of variable values.  A plan evaluates a shape with one
# antecedent atom, the pivot, matched against the facts derived in the
# previous round (in the first round, the initial facts) and the other atoms,
# in rule order, against every known fact; the plans of all pivots together
# find every binding that uses a new fact.  Each step after the pivot maps the
# set of bindings to a new set through an index of the facts its atom can
# match, keyed by the columns its bound variables fix:
#   _JOIN extends each binding by the values of the columns the atom binds
#     (none, when it binds no variable needed later: then it keeps the
#     bindings some fact matches);
#   _CLOSE, the last step when it binds exactly one needed variable, groups
#     the bindings by the other needed variables and unites the value sets of
#     each group in one set operation, less the values whose head fact is
#     already known (_CLOSE_ONE when one variable forms the group, which is
#     then a value rather than a tuple).
# After each step a binding keeps only the variables later steps or the heads
# use, so bindings that differ in nothing needed are one.
_JOIN, _CLOSE, _CLOSE_ONE = range(3)


def _key_of(positions: list[int] | tuple[int, ...]):
    """The lookup key at ``positions``: one value, a tuple of several, or ()."""
    return itemgetter(*positions) if positions else _tuple_of([])


def _vars(parts: tuple) -> set[Var]:
    return {p for p in parts if isinstance(p, Var)}


def _access(kind: type, parts: tuple, bound: list[Var]) -> tuple:
    """How an atom reads a fact once the variables ``bound`` have values.

    Returns ``(pred, select, keys, cols, new)``: the predicate's slot (None
    for a variable); the filter ``select = (flag, fixed, eqs)`` -- whether
    the fact must be a link whose object is not a class (a class-flagged
    object binds no variable), the other ``(column, slot)`` pairs, and the
    ``(column, column)`` pairs a repeated new variable makes equal; the
    ``(column, position in bound)`` pairs; and the columns that bind the new
    variables ``new``, in order.
    """
    pred = None
    fixed, keys, cols, eqs, new = [], [], [], [], []
    for col, part in enumerate(parts, start=1):
        if not isinstance(part, Var):
            if col == 2:
                pred = part
            else:
                fixed.append((col, part))
        elif part in bound:
            keys.append((col, bound.index(part)))
        elif part in new:
            eqs.append((cols[new.index(part)], col))
        else:
            new.append(part)
            cols.append(col)
    flag = kind is LinkFact and isinstance(parts[2], Var)
    return pred, (flag, tuple(fixed), tuple(eqs)), keys, cols, new


def _head_index(heads: tuple, group: list[Var]) -> tuple | None:
    """For a plan that closes on the variable its last step binds: the index
    of the known head facts keyed by the values of ``group``, whose values
    the step then drops before it builds any row.  None unless the shape has
    one head, not class-flagged, that names each variable once.  Only an
    index that a step reads anyway is used (a recursive rule such as the
    transitive one), so dropping known values never costs an index."""
    if len(heads) != 1:
        return None
    kind, parts, flag = heads[0]
    named = [p for p in parts if isinstance(p, Var)]
    if flag or len(named) != len(set(named)):
        return None
    pred, (_, fixed, eqs), keys, cols, _ = _access(kind, parts, group)
    keys.sort(key=itemgetter(1))  # the group's order
    # The head row's flag is False: a known class-flagged link is another fact.
    return kind, pred, (kind is LinkFact, fixed, eqs), tuple(c for c, _ in keys), tuple(cols)


def _compile_shape(shape: tuple, slots: int) -> list[tuple]:
    """One plan template per pivot of a shape whose rules have ``slots``
    names; a body without instance atoms gets one template without a pivot,
    whose single empty binding fires once."""
    body, heads = shape
    head_vars = set().union(*(_vars(parts) for _, parts, _ in heads))
    tail = tuple(x for kind, _, flag in heads for x in (kind, flag))
    templates = []
    for pivot in range(len(body)) if body else (None,):
        order = [] if pivot is None else [pivot, *(j for j in range(len(body)) if j != pivot)]
        layout: list[Var] = []
        scan = None
        steps = []
        for k, j in enumerate(order):
            kind, parts = body[j]
            pred, select, keys, cols, new = _access(kind, parts, layout)
            needed = head_vars.union(*(_vars(body[i][1]) for i in order[k + 1 :]))
            mode = seen = None  # None for the pivot
            if k and not needed.intersection(new):
                cols, new = [], []
            if k:
                mode = _CLOSE if k == len(order) - 1 and len(new) == 1 else _JOIN
            keep = [p for p, v in enumerate(layout + new) if v in needed]
            if mode == _CLOSE:
                group = [p for p in keep if p < len(layout)]
                mode = _CLOSE_ONE if len(group) == 1 else _CLOSE
                out = _key_of(group)
                seen = _head_index(heads, [layout[p] for p in group])
            else:
                out = _tuple_of(keep) if len(keep) < len(layout) + len(new) else None
            layout = [(layout + new)[p] for p in keep]
            if mode is None:
                scan = (kind, pred, select, tuple(map(itemgetter, cols)), out)
            else:
                index = (kind, pred, select, tuple(c for c, _ in keys), tuple(cols))
                steps.append((mode, index, _key_of([pos for _, pos in keys]), out, seen))
        # A head row picks from ``binding + names + (kind, flag) per head``.
        width = len(layout)
        getters = []
        for h, (kind, parts, _) in enumerate(heads):
            tag = width + slots + 2 * h
            picks = [tag] + [layout.index(p) if isinstance(p, Var) else width + p for p in parts]
            if kind is LinkFact:
                picks.append(tag + 1)
            getters.append(itemgetter(*picks))
        templates.append((scan, steps, tuple(getters), tail))
    return templates


class _Index:
    """The known facts one atom can match, keyed by the columns its bound
    variables fix: ``data[key]`` is the set of tuples of the columns it binds."""

    __slots__ = ("data", "select", "key", "cols")

    def __init__(self, select: tuple, key, cols: tuple) -> None:
        self.data: dict = defaultdict(set)
        self.select = select
        self.key = key
        self.cols = cols

    def add(self, facts: list[Fact]) -> None:
        facts = _select(facts, *self.select)
        data = self.data
        for key, values in zip(map(self.key, facts), _columns(facts, self.cols)):
            data[key].add(values)


def _select(facts: list[Fact], flag: bool, fixed: tuple, eqs: tuple) -> list[Fact]:
    """The facts of one relation that an atom can match."""
    if flag:
        facts = [f for f in facts if not f[4]]
    for col, name in fixed:
        facts = [f for f in facts if f[col] == name]
    for a, b in eqs:
        facts = [f for f in facts if f[a] == f[b]]
    return facts


def _columns(facts: list[Fact], cols: tuple):
    """Per fact, the tuple of its values in ``cols`` (itemgetters)."""
    return zip(*[map(col, facts) for col in cols]) if cols else [()] * len(facts)


def _named(select: tuple, names: tuple) -> tuple:
    """``select`` with the rule's names in place of its slots."""
    flag, fixed, eqs = select
    return (flag, tuple((col, names[s]) for col, s in fixed), eqs) if fixed else select


def _index(
    spec: tuple, names: tuple, indexes: dict, watch: dict, made: bool = False
) -> dict | None:
    """The data of the index ``spec`` describes for a rule's ``names``, shared
    by every step that reads the same facts by the same columns.  With
    ``made``, only an index some step already reads, else None."""
    kind, pred, select, keys, vals = spec
    relation = (kind, None if pred is None else names[pred])
    select = _named(select, names)
    ident = (relation, select, keys, vals)
    index = indexes.get(ident)
    if index is None:
        if made:
            return None
        index = indexes[ident] = _Index(select, _key_of(keys), tuple(map(itemgetter, vals)))
        watch[relation].append(index)
    return index.data


def _bind_plan(template: tuple, names: tuple, indexes: dict, watch: dict) -> tuple:
    """A rule's plan: ``(dispatch key, plan)``.  The dispatch key is the
    relation ``(kind, predicate or None)`` whose new facts the pivot reads,
    or None for a plan without a pivot."""
    scan, steps, heads, tail = template
    bound = []
    for mode, spec, key, out, seen in steps:
        data = _index(spec, names, indexes, watch)
        if seen is not None:
            seen = _index(seen, names, indexes, watch, made=True)
        bound.append((mode, data, key, out, seen))
    if scan is None:
        return None, (None, None, None, bound, heads, names + tail)
    kind, pred, select, cols, out = scan
    key = (kind, None if pred is None else names[pred])
    return key, (_named(select, names), cols, out, bound, heads, names + tail)


def _fire(plan: tuple, delta: list[Fact]) -> set[tuple] | tuple:
    """The head rows of one plan, its pivot matched against ``delta``."""
    select, cols, out, steps, heads, names = plan
    if select is None:
        binds = {()}
    else:
        facts = _select(delta, *select)
        if not facts:
            return ()
        binds = set(_columns(facts, cols))
        if out is not None:
            binds = set(map(out, binds))
    for mode, data, key, out, seen in steps:
        if mode == _JOIN:
            binds = {b + v for b in binds for v in data.get(key(b), ())}
        else:
            groups: dict = defaultdict(set)
            for g, values in zip(map(out, binds), map(data.get, map(key, binds))):
                if values:
                    groups[g] |= values
            if seen is not None:
                for g, values in groups.items():
                    values.difference_update(seen.get(g, ()))
            if mode == _CLOSE_ONE:
                binds = {(g,) + v for g, values in groups.items() for v in values}
            else:
                binds = {g + v for g, values in groups.items() for v in values}
            out = None
        if out is not None:
            binds = set(map(out, binds))
        if not binds:
            return ()
    return {head(b + names) for head in heads for b in binds}


# ---------------------------------------------------------------------------
# rounds


def _canonical(item: tuple[Fact, str]) -> tuple[str, bool, str]:
    """Order of derived facts within a round, and of violations: by text,
    then a class-flagged link after the unflagged one that renders the same,
    then by rule id."""
    fact = item[0]
    return format_fact(fact), len(fact) > 4 and fact[4], item[1]


def _ranked(items: list[tuple[Fact, str]]) -> tuple[list[tuple[Fact, str]], list[str]]:
    """``items`` in canonical order, and the text of each one's fact."""
    ranked = sorted(zip(map(_canonical, items), items), key=itemgetter(0))
    return [item for _, item in ranked], [key[0] for key, _ in ranked]


def _absorb(facts: list[Fact], relations: dict, watch: dict, wide: set) -> dict:
    """Add ``facts`` to the known facts by relation and to the indexes that
    watch their relations; returns them by relation: ``(kind, predicate)``,
    and ``(kind, None)`` for the kinds in ``wide``, which some atom reads
    under a variable predicate."""
    delta: dict[tuple, list[Fact]] = defaultdict(list)
    for fact in facts:
        delta[fact[0], fact[2]].append(fact)
    for kind in wide:
        delta[kind, None] = [f for (k, _), facts in list(delta.items()) if k is kind for f in facts]
    for key, bucket in delta.items():
        relations[key] += bucket
        for index in watch.get(key, ()):
            index.add(bucket)
    return delta


def _round(dispatch: dict, delta: dict, known: dict) -> dict[tuple, str]:
    """Fire the plans whose pivot relation has new facts in ``delta``.

    Returns the new head rows, each with the id of the first rule, in rule
    order, that derives it in this round.
    """
    active = [(*entry, bucket) for key, bucket in delta.items() for entry in dispatch.get(key, ())]
    active.sort(key=itemgetter(0))
    new: dict[tuple, str] = {}
    for _, rule_id, plan, bucket in active:
        rows = _fire(plan, bucket)
        if rows:
            # Plain tuples hash and compare as the facts they spell.
            rows = rows.difference(known)
            if new:
                rows = rows.difference(new)
            new.update(dict.fromkeys(rows, rule_id))
    return new


@_paused
def run_fixpoint(rules: list[Rule], initial: FactBase, cap: int) -> InferenceResult:
    """Saturate ``initial`` under ``rules``; never mutates the input base."""
    if cap < 1:
        raise ValueError("iteration cap must be at least 1")
    bad = [r.id for r in rules if not r.executable]
    if bad:
        raise NonExecutableRuleError(f"non-executable rules passed to fixpoint: {', '.join(bad)}")
    indexes: dict[tuple, _Index] = {}
    watch: dict[tuple, list[_Index]] = defaultdict(list)
    dispatch: dict[tuple | None, list[tuple]] = defaultdict(list)
    constraints = []
    for position, rule in enumerate(rules):
        prepared = _PREPARED.get(rule.shape)
        if prepared is None:
            prepared = _PREPARED[rule.shape] = _prepare(rule)
        check, templates = prepared
        names = rule.names
        if check is not None:
            prop, filler = check
            constraints.append((rule, names[prop], names[filler]))
        for template in templates:
            key, plan = _bind_plan(template, names, indexes, watch)
            dispatch[key].append((position, rule.id, plan))
    wide = {key[0] for key in [*dispatch, *watch] if key is not None and key[1] is None}

    base = initial.copy()  # FactBase.add has kept it free of contradictions
    known = base.sources
    # Rules derive no negations, so only an initial one can be contradicted.
    negated = any(type(fact) is NegMembership for fact in known)
    relations: dict[tuple, list[Fact]] = defaultdict(list)
    delta = _absorb(list(known), relations, watch, wide)  # every initial fact is new
    delta[None] = []  # plans without a pivot fire in the first round only
    derived: list[tuple[Fact, str]] = []
    texts: list[str] = []
    iterations = 0
    converged = False
    while iterations < cap:
        iterations += 1
        rows = _round(dispatch, delta, known)
        if not rows:
            converged = True
            break
        new = [(tuple.__new__(row[0], row), rule_id) for row, rule_id in rows.items()]
        staged, text = _ranked(new)
        texts += text
        if negated:
            for fact, rule_id in staged:
                base.check_contradiction(fact, rule_id)
        known.update(staged)
        derived += staged
        delta = _absorb([fact for fact, _ in staged], relations, watch, wide)

    violations = [
        (link, rule.id)
        for rule, prop, filler in constraints
        for link in relations.get((LinkFact, prop), ())
        if not link[4] and (Membership, link[3], filler) not in known
    ]
    violations, violation_text = _ranked(violations)

    return InferenceResult(
        final=base,
        iterations=iterations,
        derived=derived,
        violations=violations,
        converged=converged,
        derived_text=texts,
        violation_text=violation_text,
    )


# ---------------------------------------------------------------------------
# schema-level closure


def _bits(row: int) -> Iterator[int]:
    """The codes of the classes in a bit row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


@_paused
def schema_closure(model: OntologyModel, rules: list[Rule]) -> list[SubClassOf]:
    """Least fixpoint of derived subclass axioms under the two schema shapes.

    ``rules`` selects which shapes participate (transitive chaining and/or
    equivalence lifting); only those two patterns are accepted.  A shape
    runs on the whole model once ``rules`` holds any rule of its pattern, and
    not at all otherwise.  ``extract_all`` emits a transitivity rule only
    where two given subclass axioms chain, so with its schema rules chaining
    depends on the rest of the model: ``X⊑A, A≡B, B⊑C`` closes to ``A⊑C``
    alone, and ``X⊑C`` follows once an unrelated ``D⊑E⊑F`` is added.  No
    step derives a self-edge, so ``D⊑A, A≡D, B≡A`` derives nothing.
    Returns new axioms only, sorted by (sub, sup).
    """
    allowed = {Pattern.EQUIVALENCE_INHERITANCE, Pattern.SUBCLASS_TRANSITIVITY}
    stray = [r.id for r in rules if r.pattern not in allowed]
    if stray:
        raise ValueError(f"schema_closure only accepts schema rules, got: {', '.join(stray)}")
    trans_on = any(r.pattern is Pattern.SUBCLASS_TRANSITIVITY for r in rules)
    equiv_on = any(r.pattern is Pattern.EQUIVALENCE_INHERITANCE for r in rules)

    given = model.axioms_of(SubClassOf)
    equivs = model.axioms_of(EquivalentClass) if equiv_on else []
    names = sorted({name for ax in (*given, *equivs) for name in ax[1:]})
    code = {name: i for i, name in enumerate(names)}
    stated = [0] * len(names)  # each class's given superclasses, a bit per class code
    twins = [0] * len(names)  # the classes declared equivalent to each
    for ax in given:
        stated[code[ax.sub]] |= 1 << code[ax.sup]
    for ax in equivs:
        twins[code[ax.a]] |= 1 << code[ax.b]
        twins[code[ax.b]] |= 1 << code[ax.a]
    # Depth-first post-order over both kinds of edge: a row comes after the
    # rows it reads, except around a cycle, so one pass settles a DAG.
    order: list[int] = []
    seen = [False] * len(names)
    stack = list(range(len(names)))  # classes to enter, and ~class to leave
    while stack:
        c = stack.pop()
        if c < 0:
            order.append(~c)
        elif not seen[c]:
            seen[c] = True
            stack.append(~c)
            stack.extend(_bits(stated[c] | twins[c]))
    # A row is its base (its given superclasses and its equivalents' rows)
    # joined, when chaining, with the rows of its base: every row is closed
    # at the fixpoint, so joining what a join adds would add nothing more.
    sups = stated[:]  # each class's known superclasses, never itself
    changed = True
    while changed:
        changed = False
        for c in order:
            base = stated[c]
            for b in _bits(twins[c]):
                base |= sups[b]
            row = base
            if trans_on:
                for m in _bits(base):
                    row |= sups[m]
            row &= ~(1 << c)
            changed |= row != sups[c]
            sups[c] = row
    fresh = [row & ~given_row for row, given_row in zip(sups, stated)]
    edges = ((SubClassOf, names[c], names[m]) for c, row in enumerate(fresh) for m in _bits(row))
    return [tuple.__new__(SubClassOf, edge) for edge in edges]  # no self-edge to check
