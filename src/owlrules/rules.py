"""IF-THEN rule language: terms, atoms, classification, text and JSON forms.

The structured (JSON) document is written directly as text, its strings
escaped by the C function ``json.dumps`` uses.  Its bytes are exactly those of
``json.dumps(doc, indent=2, ensure_ascii=True) + "\\n"`` over the same document
as a dict tree, which :func:`parse_structured` reads back.
"""

from __future__ import annotations

import hashlib
import json
from enum import Enum

from .model import Iri, Value

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
    __slots__ = ()
    __match_args__ = ("sources", "trigger_axioms", "display_form")

    def __new__(
        cls,
        sources: tuple[str, ...] = (),
        trigger_axioms: tuple[str, ...] = (),
        display_form: str = "",
    ) -> "Provenance":
        return tuple.__new__(cls, (cls, sources, trigger_axioms, display_form))


class Rule(Value):
    __slots__ = ()
    __match_args__ = ("id", "antecedent", "consequent", "pattern", "provenance")

    def __new__(
        cls,
        id: str,
        antecedent: tuple[Atom, ...],
        consequent: tuple[Atom, ...],
        pattern: Pattern,
        provenance: Provenance,
    ) -> "Rule":
        if not antecedent or not consequent:
            raise ValueError("rule sides must be non-empty")
        return tuple.__new__(cls, (cls, id, antecedent, consequent, pattern, provenance))

    @property
    def category(self) -> RuleCategory:
        return self.pattern.category

    @property
    def executable(self) -> bool:
        """Every pattern but the advisory sole-partof heuristic can be chained."""
        return self.pattern != Pattern.SOLE_PARTOF


def make_rule(
    pattern: Pattern | str,
    antecedent: tuple[Atom, ...] | list[Atom],
    consequent: tuple[Atom, ...] | list[Atom],
    provenance: Provenance | None = None,
) -> Rule:
    """Build a rule with its deterministic id."""
    pattern = coerce_pattern(pattern)
    ant = tuple(antecedent)
    cons = tuple(consequent)
    digest = hashlib.sha256(
        f"{pattern.value}|{_clause(ant)}|{_clause(cons)}".encode()
    ).hexdigest()[:10]
    return Rule(
        id=f"{pattern.value}-{digest}",
        antecedent=ant,
        consequent=cons,
        pattern=pattern,
        provenance=provenance or Provenance(),
    )


# ---------------------------------------------------------------------------
# spelling: one table per family, read by the text writer and by the
# structured writer and reader.  A term kind maps to its JSON key and the type
# of its value; an atom kind to its JSON "kind" name, the JSON keys of its
# fields in field order, and its text form.  ``Not`` nests an atom, and
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
    return f'"{term[1]}"' if kind is LiteralTok else str(term[1])


def render_atom(atom: Atom) -> str:
    if type(atom) not in _ATOMS:
        raise TypeError(f"unknown atom: {atom!r}")
    return _ATOMS[type(atom)][2](atom)


def _clause(atoms: tuple[Atom, ...]) -> str:
    # The text forms are called straight from the table; on an unknown atom,
    # render_atom raises the error.
    try:
        return " and ".join([_ATOMS[type(a)][2](a) for a in atoms])
    except KeyError:
        return " and ".join(map(render_atom, atoms))


def render_text(rule: Rule) -> str:
    """Single-line canonical form: ``IF <atoms> THEN <atoms>``."""
    return f"IF {_clause(rule.antecedent)} THEN {_clause(rule.consequent)}"


# ---------------------------------------------------------------------------
# structured (JSON) rendering
#
# Any ``indent`` makes ``json.dumps`` leave its C encoder, so each fragment is
# written at its known indentation.  Rule and provenance keys are spelled here
# only, and the readers below mirror them; atom and term keys are the tables'.

STRUCTURED_VERSION = 1

_json_str = json.encoder.encode_basestring_ascii


def _list_json(items: list[str], ind: str) -> str:
    """An array of items already written one level deeper than ``ind``."""
    if not items:
        return "[]"
    inner = ind + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{ind}]"


def _strings_json(values: tuple[str, ...], ind: str) -> str:
    return _list_json([_json_str(v) for v in sorted(set(values))], ind)


def _term_json(term: Term, ind: str) -> str:
    """A term object whose closing brace sits at indentation ``ind``."""
    spelling = _TERMS.get(type(term))
    if spelling is None:
        raise TypeError(f"unknown term: {term!r}")
    return f'{{\n{ind}  "{spelling[0]}": {_json_str(term[1])}\n{ind}}}'


def _atom_json(atom: Atom, ind: str) -> str:
    """An atom object whose closing brace sits at indentation ``ind``."""
    inner = ind + "  "
    kind = type(atom)
    spelling = _ATOMS.get(kind)
    if spelling is None:
        raise TypeError(f"unknown atom: {atom!r}")
    write = _atom_json if kind is Not else _term_json
    values = (atom.subject, PropRef(atom.feature)) if kind is HasFeature else atom[1:]
    body = "".join([f',\n{inner}"{key}": {write(v, inner)}' for key, v in zip(spelling[1], values)])
    return f'{{\n{inner}"kind": "{spelling[0]}"{body}\n{ind}}}'


def _atoms_json(atoms: tuple[Atom, ...], ind: str) -> str:
    inner = ind + "  "
    return _list_json([_atom_json(a, inner) for a in atoms], ind)


def _rule_json(rule: Rule, ind: str) -> str:
    """A rule object whose closing brace sits at indentation ``ind``."""
    k = ind + "  "
    p = k + "  "
    prov = rule.provenance
    return (
        f'{{\n{k}"id": {_json_str(rule.id)},\n'
        f'{k}"pattern": {_json_str(rule.pattern.value)},\n'
        f'{k}"category": {_json_str(rule.category.value)},\n'
        f'{k}"executable": {"true" if rule.executable else "false"},\n'
        f'{k}"if": {_atoms_json(rule.antecedent, k)},\n'
        f'{k}"then": {_atoms_json(rule.consequent, k)},\n'
        f'{k}"provenance": {{\n'
        f'{p}"source": {_strings_json(prov.sources, p)},\n'
        f'{p}"trigger_axioms": {_strings_json(prov.trigger_axioms, p)},\n'
        f'{p}"display_form": {_json_str(prov.display_form)}\n'
        f"{k}}}\n{ind}}}"
    )


def render_structured(rules: list[Rule] | tuple[Rule, ...], source: tuple[str, ...] = ()) -> str:
    """Canonical JSON document: rules sorted by id, sources sorted, stable bytes.

    Byte-identical to ``json.dumps({"version": 1, "source": sorted(set(source)),
    "rules": [...]}, indent=2) + "\\n"``, each rule an object with the keys
    written by ``_rule_json``.
    """
    ordered = sorted(rules, key=lambda r: r.id)
    return (
        f'{{\n  "version": {STRUCTURED_VERSION},\n'
        f'  "source": {_strings_json(source, "  ")},\n'
        f'  "rules": {_list_json([_rule_json(r, "    ") for r in ordered], "  ")}\n'
        "}\n"
    )


_TERM_OF_KEY = {key: (kind, value_type) for kind, (key, value_type) in _TERMS.items()}
_ATOM_OF_NAME = {name: (kind, keys) for kind, (name, keys, _) in _ATOMS.items()}


def _obj_to_term(obj: dict) -> Term:
    if len(obj) == 1:
        ((key, value),) = obj.items()
        spelling = _TERM_OF_KEY.get(key)
        if spelling is not None and isinstance(value, str):
            return spelling[0](spelling[1](value))
    raise ValueError(f"bad term object: {obj!r}")


def _obj_to_atom(obj: dict) -> Atom:
    name = obj.get("kind")
    spelling = _ATOM_OF_NAME.get(name) if isinstance(name, str) else None
    if spelling is None:
        raise ValueError(f"bad atom object: {obj!r}")
    kind, keys = spelling
    if kind is HasFeature:
        subject_key, feature_key = keys
        feature = _obj_to_term(obj[feature_key])
        if not isinstance(feature, PropRef):
            raise ValueError(f"feature must be a prop term: {obj!r}")
        return HasFeature(_obj_to_term(obj[subject_key]), feature.iri)
    read = _obj_to_atom if kind is Not else _obj_to_term
    return kind(*[read(obj[key]) for key in keys])


def parse_structured(text: str) -> tuple[list[Rule], list[str]]:
    """Inverse of :func:`render_structured`; validates ids against content.

    Any malformed document raises ``ValueError``.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"rule document must be a JSON object, not {type(doc).__name__}")
    if doc.get("version") != STRUCTURED_VERSION:
        raise ValueError(f"unsupported document version: {doc.get('version')!r}")
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
    rule = make_rule(
        obj["pattern"],
        [_obj_to_atom(a) for a in obj["if"]],
        [_obj_to_atom(a) for a in obj["then"]],
        Provenance(
            _strings(prov["source"]), _strings(prov["trigger_axioms"]), prov["display_form"]
        ),
    )
    if rule.id != obj["id"]:
        raise ValueError(f"rule id {obj['id']!r} does not match content ({rule.id})")
    return rule
