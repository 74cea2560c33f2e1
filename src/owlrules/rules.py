"""IF-THEN rule language: terms, atoms, classification, text and JSON forms.

A rule is built one way, ``Rule(pattern, antecedent, consequent,
provenance)``, and its id is hashed from that content, so a rule written out
reads back with the same id.  It is kept as its shape plus its names, each an
exact ``str`` checked by :func:`owlrules.model.Iri`, as every name in a model
or fact is.  Each shape writes the text hashed into a rule's id, the rule text
and the atoms' JSON with functions of its names, each compiled once per
process, on first use, from the shape written on placeholder names: its fixed
text as literals and one parameter per name.

The structured (JSON) document is written directly as text, its strings
escaped by the C function ``json.dumps`` uses.  Its bytes are exactly those of
``json.dumps(doc, indent=2, ensure_ascii=True) + "\\n"`` over the same document
as a dict tree, which :func:`parse_structured` reads back.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from operator import itemgetter

from .model import Iri, Value, _Memo

VAR_NAMES = ("?x", "?y", "?z")


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()


class Var(Term, Value):
    __slots__ = ()
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> "Var":
        if name not in VAR_NAMES:
            raise ValueError(f"variable must be one of {VAR_NAMES}, got {name!r}")
        return tuple.__new__(cls, (cls, name))


class ClassRef(Term, Value):
    __slots__ = ()
    __match_args__ = ("iri",)


class PropRef(Term, Value):
    __slots__ = ()
    __match_args__ = ("iri",)


class IndividualRef(Term, Value):
    __slots__ = ()
    __match_args__ = ("iri",)


class LiteralTok(Term, Value):
    __slots__ = ()
    __match_args__ = ("text",)


# ---------------------------------------------------------------------------
# atoms


class Atom:
    __slots__ = ()


class IsA(Atom, Value):
    __slots__ = ()
    __match_args__ = ("subject", "cls")


class Link(Atom, Value):
    __slots__ = ()
    __match_args__ = ("subject", "prop", "obj")


class HasFeature(Atom, Value):
    __slots__ = ()
    __match_args__ = ("subject", "feature")


class Not(Atom, Value):
    __slots__ = ()
    __match_args__ = ("inner",)

    def __new__(cls, inner: Atom) -> "Not":
        if isinstance(inner, Not):
            raise ValueError("negation does not nest")
        return tuple.__new__(cls, (cls, inner))


class SchemaSubClassOf(Atom, Value):
    __slots__ = ()
    __match_args__ = ("sub", "sup")


class SchemaEquivalent(Atom, Value):
    __slots__ = ()
    __match_args__ = ("a", "b")


class SolePart(Atom, Value):
    __slots__ = ()
    __match_args__ = ("part", "whole")


class MorePartsExpected(Atom, Value):
    __slots__ = ()
    __match_args__ = ("whole",)


# ---------------------------------------------------------------------------
# patterns and categories


class RuleCategory(str, Enum):
    IDENTIFYING = "identifying"
    SPECIFYING = "specifying"
    UNOBVIOUS = "unobvious"
    MEANING_ENRICHING = "meaning-enriching"


CATEGORY_ORDER = tuple(RuleCategory)


class Pattern(str, Enum):
    """A rule pattern: its value is its identifier, ``category`` its category."""

    CLASS_FEATURE = "class-feature", RuleCategory.SPECIFYING
    EQUIVALENCE_INHERITANCE = "equivalence-inheritance", RuleCategory.UNOBVIOUS
    DOMAIN_RANGE_IDENTIFICATION = "domain-range-identification", RuleCategory.IDENTIFYING
    SUBCLASS_TRANSITIVITY = "subclass-transitivity", RuleCategory.UNOBVIOUS
    RELATION_PROPAGATION = "relation-propagation", RuleCategory.UNOBVIOUS
    SUBPROPERTY_LIFT = "subproperty-lift", RuleCategory.IDENTIFYING
    SYMMETRIC = "symmetric", RuleCategory.MEANING_ENRICHING
    TRANSITIVE_PROPERTY = "transitive-property", RuleCategory.UNOBVIOUS
    SOLE_PARTOF = "sole-partof", RuleCategory.UNOBVIOUS
    COOCCURRENCE = "cooccurrence", RuleCategory.SPECIFYING
    ALLVALUESFROM = "allvaluesfrom", RuleCategory.MEANING_ENRICHING
    INTERSECTION = "intersection", RuleCategory.SPECIFYING
    INVERSE = "inverse", RuleCategory.MEANING_ENRICHING

    def __new__(cls, value: str, category: RuleCategory) -> "Pattern":
        member = str.__new__(cls, value)
        member._value_ = value
        member.category = category
        return member

    @property
    def executable(self) -> bool:
        """Every pattern but the advisory sole-partof heuristic can be chained."""
        return self is not Pattern.SOLE_PARTOF


class UnknownPatternError(ValueError):
    pass


def coerce_pattern(pattern: Pattern | str) -> Pattern:
    if isinstance(pattern, Pattern):
        return pattern
    try:
        return Pattern(pattern)
    except ValueError:
        raise UnknownPatternError(f"unknown pattern: {pattern!r}") from None


def classify(pattern: Pattern | str) -> RuleCategory:
    """Map a pattern identifier to its rule category (total over the 13 patterns)."""
    return coerce_pattern(pattern).category


# ---------------------------------------------------------------------------
# rules


class Provenance(Value):
    """Where a rule comes from; both lists are kept sorted and distinct."""

    __slots__ = ()
    __match_args__ = ("sources", "trigger_axioms", "display_form")

    def __new__(
        cls,
        sources: Iterable[str] = (),
        trigger_axioms: Iterable[str] = (),
        display_form: str = "",
    ) -> "Provenance":
        return tuple.__new__(
            cls, (cls, tuple(sorted(set(sources))), tuple(sorted(set(trigger_axioms))), display_form)
        )


class Rule(Value):
    """An IF-THEN rule, the tuple ``(Rule, id, shape, names, pattern, provenance)``.

    Built from its pattern and atoms, a rule coerces the pattern, walks the
    atoms to the interned shape and names a scanner gives them, and hashes its
    id from that content.  Its atoms are built from those on demand.
    """

    __slots__ = ()
    __match_args__ = ("pattern", "antecedent", "consequent", "provenance")

    def __new__(
        cls,
        pattern: Pattern | str,
        antecedent: tuple[Atom, ...] | list[Atom],
        consequent: tuple[Atom, ...] | list[Atom],
        provenance: Provenance | None = None,
    ) -> "Rule":
        pattern = coerce_pattern(pattern)
        shape, names = _walk(tuple(antecedent), tuple(consequent))
        return _rule(pattern, shape.writers[pattern], shape, names, provenance or Provenance())

    id = property(itemgetter(1))
    shape = property(itemgetter(2))
    names = property(itemgetter(3))
    pattern = property(itemgetter(4))
    provenance = property(itemgetter(5))
    antecedent = property(lambda self: self[2].build(*self[3])[0])
    consequent = property(lambda self: self[2].build(*self[3])[1])

    @property
    def category(self) -> RuleCategory:
        return self.pattern.category

    @property
    def executable(self) -> bool:
        return self.pattern.executable

    def _with_provenance(self, provenance: Provenance) -> "Rule":
        return tuple.__new__(Rule, self[:5] + (provenance,))


def _rule(
    pattern: Pattern, key: Callable[..., str], shape: "_Shape", names: tuple, prov: Provenance
) -> Rule:
    """The rule of ``shape`` filled with ``names``, its id hashed from ``key(*names)``."""
    digest = hashlib.sha256(key(*names).encode()).hexdigest()[:10]
    return tuple.__new__(Rule, (Rule, f"{pattern._value_}-{digest}", shape, names, pattern, prov))


# ---------------------------------------------------------------------------
# shapes
#
# A rule's skeleton is its atoms with the name in each slot replaced by the
# slot's placeholder.  Slots run in walk order, antecedent first, over the
# terms and HasFeature's bare feature; a name that repeats fills each slot.


def _tuple_of(positions: list[int]) -> Callable[[tuple], tuple]:
    """The values at ``positions`` as a tuple."""
    if len(positions) == 1:
        (pos,) = positions
        return lambda values: (values[pos],)
    return itemgetter(*positions) if positions else lambda values: ()


def _mark(slot: int) -> str:
    """A slot's placeholder: no fixed part of a template holds a NUL character."""
    return Iri(f"\x00{slot}\x00")


def _rename(atoms: tuple, rename: Callable) -> tuple:
    """``atoms`` with each name replaced by ``rename(name)``, in walk order."""
    renamed = []
    for atom in atoms:
        kind = type(atom)
        if kind not in _ATOMS:
            raise TypeError(f"unknown atom: {atom!r}")
        if kind is Not:
            renamed.append(Not(*_rename(atom[1:], rename)))
        elif kind is HasFeature:
            renamed.append(HasFeature(_rename_term(atom[1], rename), rename(atom[2])))
        else:
            renamed.append(kind(*[_rename_term(term, rename) for term in atom[1:]]))
    return tuple(renamed)


def _rename_term(term: Term, rename: Callable) -> Term:
    kind = type(term)
    if kind not in _TERMS:
        raise TypeError(f"unknown term: {term!r}")
    return term if kind is Var else kind(rename(term[1]))


def _compile(skeleton: tuple, kind: Pattern | str) -> Callable[..., str]:
    """The writer ``kind`` of the shape of ``skeleton``, a function of one
    name per slot, in slot order.  Its source is one f-string of the text the
    shape's placeholders spell, the fixed parts as ``repr`` literals and each
    placeholder as its slot's parameter, so no rule's name is ever in it."""
    if kind == "json":
        ifs, thens = (json.dumps([*map(_atom_obj, side)], indent=2) for side in skeleton)
        text = f'{ifs},\n"then": {thens}'.replace("\n", "\n" + _KEY_INDENT)
        # each placeholder is a whole JSON string, written by ``_json_str(name)``
        text, field = text.replace('"\\u0000', "\0").replace('\\u0000"', "\0"), "_j(_{})"
    else:
        ant, cons = (" and ".join(map(render_atom, side)) for side in skeleton)
        text = f"IF {ant} THEN {cons}" if kind == "text" else f"{kind._value_}|{ant}|{cons}"
        field = "_{}"
    parts = text.split("\0")  # fixed text, then each slot's number and the fixed text after it
    body = " ".join(f"f'{{{field.format(p)}}}'" if i % 2 else repr(p) for i, p in enumerate(parts))
    params = ", ".join(f"_{slot}" for slot in range(len(parts) // 2))
    return eval(f"lambda {params}: {body}", {"_j": _json_str})


class _Shape:
    """A function ``build`` from names to ``(antecedent, consequent)`` atoms.

    A scanner makes one per branch.  Once per pattern and number of names,
    ``rule`` walks the atoms built on placeholders to their interned shape
    (one per skeleton, one name per slot, its ``writers`` shared), and keeps
    which name fills each slot and the pattern's id writer.
    """

    __slots__ = ("build", "forms", "writers")

    def __init__(self, build: Callable[..., tuple]) -> None:
        self.build = build
        # (pattern, number of names) -> (shape, slot order or None if the same, id writer)
        self.forms: dict[tuple, tuple] = {}

    def rule(self, pattern: Pattern, names: tuple, provenance: Provenance) -> Rule:
        form = self.forms.get((pattern, len(names)))
        if form is None:
            marks = tuple(map(_mark, range(len(names))))
            shape, slots = _walk(*map(tuple, self.build(*marks)))
            order = None if slots == marks else _tuple_of(list(map(marks.index, slots)))
            form = self.forms[pattern, len(names)] = shape, order, shape.writers[pattern]
        shape, order, key = form
        return _rule(pattern, key, shape, names if order is None else order(names), provenance)


_SHAPES: dict[tuple, _Shape] = {}


def _walk(antecedent: tuple, consequent: tuple) -> tuple[_Shape, tuple]:
    """The interned shape of a rule's atoms, and the names in its slots."""
    names: list = []
    take = lambda name: names.append(name) or _mark(len(names) - 1)
    skeleton = (_rename(antecedent, take), _rename(consequent, take))
    if not antecedent or not consequent:
        raise ValueError("rule sides must be non-empty")
    shape = _SHAPES.get(skeleton)
    if shape is None:
        shape = _Shape(lambda *names: _fill(skeleton, iter(names)))
        # each writer compiled on first use: ``[pattern]`` the text hashed into
        # the ids of the pattern's rules, ``["text"]`` the rule text and
        # ``["json"]`` the "if" and "then" arrays
        shape.writers = _Memo(lambda kind: _compile(skeleton, kind))
        shape = _SHAPES.setdefault(skeleton, shape)  # one shape per skeleton, even if raced
    return shape, tuple(names)


def _fill(skeleton: tuple, names: Iterator) -> tuple:
    return tuple(_rename(side, lambda _: next(names)) for side in skeleton)


# ---------------------------------------------------------------------------
# spelling: one table per family, read by the text writer and by the
# structured writer and reader.  A term kind maps to its JSON key and the
# reader of its value; an atom kind to its JSON "kind" name, the JSON keys of
# its fields in field order, and its text form.  ``Not`` nests an atom, and
# ``HasFeature``'s feature is a bare name, written in JSON as a "prop" term.

_TERMS = {
    Var: ("var", str),
    ClassRef: ("class", Iri),
    PropRef: ("prop", Iri),
    IndividualRef: ("individual", Iri),
    LiteralTok: ("literal", str),
}

_ATOMS = {
    IsA: ("isa", ("subject", "class"),
          lambda a: f"{render_term(a.cls)}({render_term(a.subject)})"),
    Link: ("link", ("subject", "prop", "object"),
           lambda a: f"({render_term(a.subject)} {render_term(a.prop)} {render_term(a.obj)})"),
    SchemaSubClassOf: ("subclass", ("sub", "sup"),
                       lambda a: f"subClassOf({render_term(a.sub)},{render_term(a.sup)})"),
    HasFeature: ("feature", ("subject", "feature"),
                 lambda a: f"hasFeature({render_term(a.subject)},{a.feature})"),
    Not: ("not", ("inner",), lambda a: f"not {render_atom(a.inner)}"),
    SchemaEquivalent: ("equivalent", ("a", "b"),
                       lambda a: f"equivalent({render_term(a.a)},{render_term(a.b)})"),
    SolePart: ("sole-part", ("part", "whole"),
               lambda a: f"solePart({render_term(a.part)},{render_term(a.whole)})"),
    MorePartsExpected: ("more-parts", ("whole",),
                        lambda a: f"morePartsExpected({render_term(a.whole)})"),
}


# ---------------------------------------------------------------------------
# text rendering


def render_term(term: Term) -> str:
    kind = type(term)
    if kind not in _TERMS:
        raise TypeError(f"unknown term: {term!r}")
    return f'"{term[1]}"' if kind is LiteralTok else term[1]


def render_atom(atom: Atom) -> str:
    if type(atom) not in _ATOMS:
        raise TypeError(f"unknown atom: {atom!r}")
    return _ATOMS[type(atom)][2](atom)


def render_text(rule: Rule) -> str:
    """Single-line canonical form: ``IF <atoms> THEN <atoms>``."""
    return rule[2].writers["text"](*rule[3])


# ---------------------------------------------------------------------------
# structured (JSON) rendering
#
# Any ``indent`` makes ``json.dumps`` leave its C encoder, so what is written
# per rule is written here at its known indentation.  Rule and provenance keys
# are spelled here only, and the readers below mirror them; atom and term keys
# are the tables'.

STRUCTURED_VERSION = 1

_json_str = json.encoder.encode_basestring_ascii


def _strings_json(values: tuple[str, ...] | list[str], ind: str) -> str:
    """An array of strings whose closing bracket sits at indentation ``ind``."""
    if not values:
        return "[]"
    inner = ind + "  "
    return f"[\n{inner}" + f",\n{inner}".join(map(_json_str, values)) + f"\n{ind}]"


# The keys of a rule object sit at this indentation, and its "pattern",
# "category" and "executable" lines are written once per pattern.
_KEY_INDENT = " " * 6
_PATTERN_JSON = {
    pattern: f'{_KEY_INDENT}"pattern": {_json_str(pattern.value)},\n'
    f'{_KEY_INDENT}"category": {_json_str(pattern.category.value)},\n'
    f'{_KEY_INDENT}"executable": {"true" if pattern.executable else "false"},\n'
    for pattern in Pattern
}


def _rule_json(rule: Rule, sources: dict[tuple, str], lead: str) -> str:
    """A rule object, an item of the document's "rules" array, after ``lead``;
    ``sources`` holds the JSON of each provenance sources list."""
    k = _KEY_INDENT
    p = k + "  "
    _, rule_id, shape, names, pattern, prov = rule
    return (
        f'{lead}{{\n{k}"id": {_json_str(rule_id)},\n{_PATTERN_JSON[pattern]}'
        f'{k}"if": {shape.writers["json"](*names)},\n'
        f'{k}"provenance": {{\n'
        f'{p}"source": {sources[prov.sources]},\n'
        f'{p}"trigger_axioms": {_strings_json(prov.trigger_axioms, p)},\n'
        f'{p}"display_form": {_json_str(prov.display_form)}\n'
        f"{k}}}\n    }}"
    )


def structured_parts(
    rules: list[Rule] | tuple[Rule, ...], source: tuple[str, ...] = ()
) -> Iterator[str]:
    """The document of :func:`render_structured` in pieces, each made when
    asked for: the header, each rule after its separator, the closing lines."""
    ordered = sorted(rules, key=itemgetter(1))
    # The rules of one extraction share its sources, so each distinct list is
    # written once.  (Trigger lists are mostly distinct: kept alive
    # together, they would only raise the memory peak.)
    distinct = {rule.provenance.sources for rule in ordered}
    sources = {values: _strings_json(values, _KEY_INDENT + "  ") for values in distinct}
    yield (
        f'{{\n  "version": {STRUCTURED_VERSION},\n'
        f'  "source": {_strings_json(sorted(set(source)), "  ")},\n  "rules": '
    )
    lead = "[\n    "
    for rule in ordered:
        yield _rule_json(rule, sources, lead)
        lead = ",\n    "
    yield "\n  ]\n}\n" if ordered else "[]\n}\n"


def render_structured(rules: list[Rule] | tuple[Rule, ...], source: tuple[str, ...] = ()) -> str:
    """Canonical JSON document: rules sorted by id, sources sorted, stable bytes.

    Byte-identical to ``json.dumps({"version": 1, "source": sorted(set(source)),
    "rules": [...]}, indent=2) + "\\n"``, each rule an object with the keys
    written by ``_rule_json``.
    """
    return "".join(structured_parts(rules, source))


_TERM_OF_KEY = {key: (kind, read) for kind, (key, read) in _TERMS.items()}
_ATOM_OF_NAME = {name: (kind, keys) for kind, (name, keys, _) in _ATOMS.items()}


def _atom_obj(atom: Atom) -> dict:
    """The JSON object of ``atom``, which :func:`_obj_to_atom` reads back."""
    kind = type(atom)
    name, keys, _ = _ATOMS[kind]
    values = (atom.subject, PropRef(atom.feature)) if kind is HasFeature else atom[1:]
    objs = [_atom_obj(v) if kind is Not else {_TERMS[type(v)][0]: v[1]} for v in values]
    return {"kind": name, **dict(zip(keys, objs))}


def _obj_to_term(obj: dict) -> Term:
    if len(obj) == 1:
        ((key, value),) = obj.items()
        spelling = _TERM_OF_KEY.get(key)
        if spelling is not None and isinstance(value, str):
            return spelling[0](spelling[1](value))
    raise ValueError(f"bad term object: {obj!r}")


def _obj_to_atom(obj: dict, negated: bool = False) -> Atom:
    name = obj.get("kind")
    spelling = _ATOM_OF_NAME.get(name) if isinstance(name, str) else None
    if spelling is None:
        raise ValueError(f"bad atom object: {obj!r}")
    kind, keys = spelling
    if kind is Not:
        if negated:  # checked before the inner atom is read, so nesting cannot recurse
            raise ValueError("negation does not nest")
        return Not(*[_obj_to_atom(obj[key], True) for key in keys])
    if kind is HasFeature:
        subject_key, feature_key = keys
        feature = _obj_to_term(obj[feature_key])
        if not isinstance(feature, PropRef):
            raise ValueError(f"feature must be a prop term: {obj!r}")
        return HasFeature(_obj_to_term(obj[subject_key]), feature.iri)
    return kind(*[_obj_to_term(obj[key]) for key in keys])


def parse_structured(text: str) -> tuple[list[Rule], list[str]]:
    """Inverse of :func:`render_structured`; checks each rule's id, category
    and executable flag against its content and pattern.

    Any malformed document raises ``ValueError``.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("rule document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"rule document must be a JSON object, not {type(doc).__name__}")
    version = doc.get("version")
    if type(version) is not int or version != STRUCTURED_VERSION:  # JSON true and 1.0 are not 1
        raise ValueError(f"unsupported document version: {version!r}")
    try:
        rules = [_obj_to_rule(obj) for obj in doc["rules"]]
        return rules, list(_strings(doc["source"]))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed rule document: {type(exc).__name__}: {exc}") from None


def _strings(value: list) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"expected a list of strings, got {value!r}")
    return tuple(value)


def _obj_to_rule(obj: dict) -> Rule:
    prov = obj["provenance"]
    if not isinstance(prov["display_form"], str):
        raise ValueError(f"display_form must be a string, got {prov['display_form']!r}")
    rule = Rule(
        obj["pattern"],
        [_obj_to_atom(a) for a in obj["if"]],
        [_obj_to_atom(a) for a in obj["then"]],
        Provenance(
            _strings(prov["source"]), _strings(prov["trigger_axioms"]), prov["display_form"]
        ),
    )
    if rule.id != obj["id"]:
        raise ValueError(f"rule id {obj['id']!r} does not match content ({rule.id})")
    if obj["category"] != rule.category.value or obj["executable"] is not rule.executable:
        raise ValueError(f"rule {rule.id}: category or executable is not its pattern's")
    return rule
