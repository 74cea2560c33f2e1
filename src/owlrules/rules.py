"""IF-THEN rule language: terms, atoms, classification, text and JSON forms.

The structured (JSON) document is written directly as text, its strings
escaped by the C function ``json.dumps`` uses.  Its bytes are exactly those of
``json.dumps(doc, indent=2, ensure_ascii=True) + "\\n"`` over the dict tree
that :func:`rule_to_obj` returns per rule.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from enum import Enum

from .model import Iri

VAR_NAMES = ("?x", "?y", "?z")


# ---------------------------------------------------------------------------
# terms


class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __post_init__(self) -> None:
        if self.name not in VAR_NAMES:
            raise ValueError(f"variable must be one of {VAR_NAMES}, got {self.name!r}")


@dataclass(frozen=True)
class ClassRef(Term):
    iri: Iri


@dataclass(frozen=True)
class PropRef(Term):
    iri: Iri


@dataclass(frozen=True)
class IndividualRef(Term):
    iri: Iri


@dataclass(frozen=True)
class LiteralTok(Term):
    text: str


# ---------------------------------------------------------------------------
# atoms


class Atom:
    pass


@dataclass(frozen=True)
class IsA(Atom):
    subject: Term
    cls: Term


@dataclass(frozen=True)
class Link(Atom):
    subject: Term
    prop: Term
    obj: Term


@dataclass(frozen=True)
class HasFeature(Atom):
    subject: Term
    feature: Iri


@dataclass(frozen=True)
class Not(Atom):
    inner: Atom

    def __post_init__(self) -> None:
        if isinstance(self.inner, Not):
            raise ValueError("negation does not nest")


@dataclass(frozen=True)
class SchemaSubClassOf(Atom):
    sub: Term
    sup: Term


@dataclass(frozen=True)
class SchemaEquivalent(Atom):
    a: Term
    b: Term


@dataclass(frozen=True)
class SolePart(Atom):
    part: Term
    whole: Term


@dataclass(frozen=True)
class MorePartsExpected(Atom):
    whole: Term


# ---------------------------------------------------------------------------
# patterns and categories


class Pattern(str, Enum):
    CLASS_FEATURE = "class-feature"
    EQUIVALENCE_INHERITANCE = "equivalence-inheritance"
    DOMAIN_RANGE_IDENTIFICATION = "domain-range-identification"
    SUBCLASS_TRANSITIVITY = "subclass-transitivity"
    RELATION_PROPAGATION = "relation-propagation"
    SUBPROPERTY_LIFT = "subproperty-lift"
    SYMMETRIC = "symmetric"
    TRANSITIVE_PROPERTY = "transitive-property"
    SOLE_PARTOF = "sole-partof"
    COOCCURRENCE = "cooccurrence"
    ALLVALUESFROM = "allvaluesfrom"
    INTERSECTION = "intersection"
    INVERSE = "inverse"


class RuleCategory(str, Enum):
    IDENTIFYING = "identifying"
    SPECIFYING = "specifying"
    UNOBVIOUS = "unobvious"
    MEANING_ENRICHING = "meaning-enriching"


CATEGORY_ORDER = (
    RuleCategory.IDENTIFYING,
    RuleCategory.SPECIFYING,
    RuleCategory.UNOBVIOUS,
    RuleCategory.MEANING_ENRICHING,
)


class UnknownPatternError(ValueError):
    pass


_CLASSIFICATION: dict[Pattern, RuleCategory] = {
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


def coerce_pattern(pattern: Pattern | str) -> Pattern:
    if isinstance(pattern, Pattern):
        return pattern
    try:
        return Pattern(pattern)
    except ValueError:
        raise UnknownPatternError(f"unknown pattern: {pattern!r}") from None


def classify(pattern: Pattern | str) -> RuleCategory:
    """Map a pattern identifier to its rule category (total over the 13 patterns)."""
    return _CLASSIFICATION[coerce_pattern(pattern)]


def is_executable_pattern(pattern: Pattern | str) -> bool:
    return coerce_pattern(pattern) is not Pattern.SOLE_PARTOF


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class Provenance:
    sources: tuple[str, ...] = ()
    trigger_axioms: tuple[str, ...] = ()
    display_form: str = ""


@dataclass(frozen=True)
class Rule:
    id: str
    antecedent: tuple[Atom, ...]
    consequent: tuple[Atom, ...]
    pattern: Pattern
    category: RuleCategory
    executable: bool
    provenance: Provenance

    def __post_init__(self) -> None:
        if not self.antecedent or not self.consequent:
            raise ValueError("rule sides must be non-empty")
        if self.category is not classify(self.pattern):
            raise ValueError(f"category {self.category} inconsistent with {self.pattern}")
        if self.executable is not is_executable_pattern(self.pattern):
            raise ValueError(f"executable flag inconsistent with {self.pattern}")


def make_rule(
    pattern: Pattern | str,
    antecedent: tuple[Atom, ...] | list[Atom],
    consequent: tuple[Atom, ...] | list[Atom],
    provenance: Provenance | None = None,
) -> Rule:
    """Build a rule with its deterministic id, category, and executable flag."""
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
        category=classify(pattern),
        executable=is_executable_pattern(pattern),
        provenance=provenance or Provenance(),
    )


def with_provenance(rule: Rule, provenance: Provenance) -> Rule:
    return replace(rule, provenance=provenance)


# ---------------------------------------------------------------------------
# text rendering


def render_term(term: Term) -> str:
    kind = type(term)
    if kind is Var:
        return term.name
    if kind is ClassRef or kind is PropRef or kind is IndividualRef:
        return str(term.iri)
    if kind is LiteralTok:
        return f'"{term.text}"'
    raise TypeError(f"unknown term: {term!r}")


def render_atom(atom: Atom) -> str:
    kind = type(atom)
    if kind is IsA:
        return f"{render_term(atom.cls)}({render_term(atom.subject)})"
    if kind is Link:
        return f"({render_term(atom.subject)} {render_term(atom.prop)} {render_term(atom.obj)})"
    if kind is SchemaSubClassOf:
        return f"subClassOf({render_term(atom.sub)},{render_term(atom.sup)})"
    if kind is HasFeature:
        return f"hasFeature({render_term(atom.subject)},{atom.feature})"
    if kind is Not:
        return f"not {render_atom(atom.inner)}"
    if kind is SchemaEquivalent:
        return f"equivalent({render_term(atom.a)},{render_term(atom.b)})"
    if kind is SolePart:
        return f"solePart({render_term(atom.part)},{render_term(atom.whole)})"
    if kind is MorePartsExpected:
        return f"morePartsExpected({render_term(atom.whole)})"
    raise TypeError(f"unknown atom: {atom!r}")


def _clause(atoms: tuple[Atom, ...]) -> str:
    return " and ".join(render_atom(a) for a in atoms)


def render_text(rule: Rule) -> str:
    """Single-line canonical form: ``IF <atoms> THEN <atoms>``."""
    return f"IF {_clause(rule.antecedent)} THEN {_clause(rule.consequent)}"


# ---------------------------------------------------------------------------
# structured (JSON) rendering
#
# Any ``indent`` makes ``json.dumps`` leave its C encoder, so each fragment is
# written at its known indentation.  Key names and their order are spelled
# here only; the readers below mirror them.

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
    kind = type(term)
    if kind is Var:
        key, value = "var", term.name
    elif kind is ClassRef:
        key, value = "class", term.iri
    elif kind is PropRef:
        key, value = "prop", term.iri
    elif kind is IndividualRef:
        key, value = "individual", term.iri
    elif kind is LiteralTok:
        key, value = "literal", term.text
    else:
        raise TypeError(f"unknown term: {term!r}")
    return f'{{\n{ind}  "{key}": {_json_str(value)}\n{ind}}}'


def _atom_json(atom: Atom, ind: str) -> str:
    """An atom object whose closing brace sits at indentation ``ind``."""
    inner = ind + "  "
    kind = type(atom)
    if kind is IsA:
        name, fields = "isa", (("subject", atom.subject), ("class", atom.cls))
    elif kind is Link:
        name = "link"
        fields = (("subject", atom.subject), ("prop", atom.prop), ("object", atom.obj))
    elif kind is SchemaSubClassOf:
        name, fields = "subclass", (("sub", atom.sub), ("sup", atom.sup))
    elif kind is HasFeature:
        name = "feature"
        fields = (("subject", atom.subject), ("feature", PropRef(atom.feature)))
    elif kind is Not:
        negated = _atom_json(atom.inner, inner)
        return f'{{\n{inner}"kind": "not",\n{inner}"inner": {negated}\n{ind}}}'
    elif kind is SchemaEquivalent:
        name, fields = "equivalent", (("a", atom.a), ("b", atom.b))
    elif kind is SolePart:
        name, fields = "sole-part", (("part", atom.part), ("whole", atom.whole))
    elif kind is MorePartsExpected:
        name, fields = "more-parts", (("whole", atom.whole),)
    else:
        raise TypeError(f"unknown atom: {atom!r}")
    body = "".join(f',\n{inner}"{key}": {_term_json(t, inner)}' for key, t in fields)
    return f'{{\n{inner}"kind": "{name}"{body}\n{ind}}}'


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


def rule_to_obj(rule: Rule) -> dict:
    """One rule as the structured document holds it."""
    return json.loads(_rule_json(rule, ""))


def render_structured(rules: list[Rule] | tuple[Rule, ...], source: tuple[str, ...] = ()) -> str:
    """Canonical JSON document: rules sorted by id, sources sorted, stable bytes.

    Byte-identical to ``json.dumps({"version": 1, "source": sorted(set(source)),
    "rules": [rule_to_obj(r), ...]}, indent=2) + "\\n"``.
    """
    ordered = sorted(rules, key=lambda r: r.id)
    return (
        f'{{\n  "version": {STRUCTURED_VERSION},\n'
        f'  "source": {_strings_json(source, "  ")},\n'
        f'  "rules": {_list_json([_rule_json(r, "    ") for r in ordered], "  ")}\n'
        "}\n"
    )


def _obj_to_term(obj: dict) -> Term:
    if len(obj) != 1:
        raise ValueError(f"bad term object: {obj!r}")
    key, value = next(iter(obj.items()))
    match key:
        case "var":
            return Var(value)
        case "class":
            return ClassRef(Iri(value))
        case "prop":
            return PropRef(Iri(value))
        case "individual":
            return IndividualRef(Iri(value))
        case "literal":
            return LiteralTok(value)
    raise ValueError(f"bad term object: {obj!r}")


def _obj_to_atom(obj: dict) -> Atom:
    kind = obj.get("kind")
    match kind:
        case "isa":
            return IsA(_obj_to_term(obj["subject"]), _obj_to_term(obj["class"]))
        case "link":
            return Link(
                _obj_to_term(obj["subject"]),
                _obj_to_term(obj["prop"]),
                _obj_to_term(obj["object"]),
            )
        case "feature":
            feature = _obj_to_term(obj["feature"])
            if not isinstance(feature, PropRef):
                raise ValueError(f"feature must be a prop term: {obj!r}")
            return HasFeature(_obj_to_term(obj["subject"]), feature.iri)
        case "not":
            return Not(_obj_to_atom(obj["inner"]))
        case "subclass":
            return SchemaSubClassOf(_obj_to_term(obj["sub"]), _obj_to_term(obj["sup"]))
        case "equivalent":
            return SchemaEquivalent(_obj_to_term(obj["a"]), _obj_to_term(obj["b"]))
        case "sole-part":
            return SolePart(_obj_to_term(obj["part"]), _obj_to_term(obj["whole"]))
        case "more-parts":
            return MorePartsExpected(_obj_to_term(obj["whole"]))
    raise ValueError(f"bad atom object: {obj!r}")


def parse_structured(text: str) -> tuple[list[Rule], list[str]]:
    """Inverse of :func:`render_structured`; validates ids against content."""
    doc = json.loads(text)
    if doc.get("version") != STRUCTURED_VERSION:
        raise ValueError(f"unsupported document version: {doc.get('version')!r}")
    rules: list[Rule] = []
    for obj in doc["rules"]:
        prov = Provenance(
            sources=tuple(obj["provenance"]["source"]),
            trigger_axioms=tuple(obj["provenance"]["trigger_axioms"]),
            display_form=obj["provenance"]["display_form"],
        )
        rule = make_rule(
            obj["pattern"],
            [_obj_to_atom(a) for a in obj["if"]],
            [_obj_to_atom(a) for a in obj["then"]],
            prov,
        )
        if rule.id != obj["id"]:
            raise ValueError(f"rule id {obj['id']!r} does not match content ({rule.id})")
        rules.append(rule)
    return rules, list(doc["source"])
