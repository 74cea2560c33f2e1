"""In-memory ontology model: identifiers, declarations, schema axioms, merging.

The model is a plain value object.  Parsing lives in :mod:`owlrules.parser`;
everything here is constructible programmatically through :class:`ModelBuilder`
or the pure helpers :func:`add_axiom` / :func:`merge`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# identifiers


class Iri(str):
    """Name of a class, property, individual, or opaque datatype token.

    An ``Iri`` is a ``str``, validated on construction: non-empty, without
    whitespace.  Hashing, equality and ordering are the text's, so an ``Iri``
    equals (and hashes like) the plain string with the same text.  It holds
    no attributes besides the text; ``.value`` and ``str()`` give that text
    as a plain ``str``.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not value:
            raise ValueError("IRI must be non-empty")
        # str.split() splits at exactly the characters str.isspace() accepts.
        if value.split() != [value]:
            raise ValueError(f"IRI contains whitespace: {value!r}")
        return super().__new__(cls, value)

    @property
    def value(self) -> str:
        return str(self)

    def __repr__(self) -> str:
        return f"Iri(value={str.__repr__(self)})"


def iri(text: str) -> Iri:
    """Normalize a raw reference into an :class:`Iri`.

    Surrounding whitespace and leading ``#`` marks (local-reference syntax)
    are dropped.  Normalization is idempotent.
    """
    t = text.strip()
    while t.startswith("#"):
        t = t[1:].lstrip()
    return Iri(t)


# ---------------------------------------------------------------------------
# declarations


class PropertyKind(Enum):
    DATATYPE = "datatype"
    OBJECT = "object"
    SYMMETRIC = "symmetric"
    TRANSITIVE = "transitive"

    @property
    def is_object_like(self) -> bool:
        """Symmetric and transitive properties behave as object properties."""
        return self is not PropertyKind.DATATYPE


@dataclass(frozen=True)
class OwlClassDecl:
    iri: Iri


@dataclass(frozen=True)
class PropertyDecl:
    iri: Iri
    kind: PropertyKind
    domain: Iri | None = None
    range: Iri | None = None
    # Bookkeeping only: set for declarations synthesized from a reference.
    # Excluded from equality so explicit/implicit variants compare equal.
    implicit: bool = field(default=False, compare=False)

    def describe(self) -> str:
        bits = []
        if self.domain is not None:
            bits.append(f"domain={self.domain}")
        if self.range is not None:
            bits.append(f"range={self.range}")
        suffix = "," + ",".join(bits) if bits else ""
        return f"{self.kind.value.capitalize()}Property({self.iri}{suffix})"


# ---------------------------------------------------------------------------
# axioms


class Axiom:
    """Base class for schema assertions; variants are frozen dataclasses."""

    def describe(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


def _require_distinct(a: Iri, b: Iri, what: str) -> None:
    if a == b:
        raise ValueError(f"{what} may not relate {a} to itself")


@dataclass(frozen=True)
class SubClassOf(Axiom):
    sub: Iri
    sup: Iri

    def __post_init__(self) -> None:
        _require_distinct(self.sub, self.sup, "SubClassOf")

    def describe(self) -> str:
        return f"SubClassOf({self.sub},{self.sup})"


@dataclass(frozen=True)
class EquivalentClass(Axiom):
    """Unordered equivalence, stored with the lexicographically smaller Iri first."""

    a: Iri
    b: Iri

    def __post_init__(self) -> None:
        _require_distinct(self.a, self.b, "EquivalentClass")
        if self.b < self.a:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    def describe(self) -> str:
        return f"EquivalentClass({self.a},{self.b})"


@dataclass(frozen=True)
class SubPropertyOf(Axiom):
    sub: Iri
    sup: Iri

    def __post_init__(self) -> None:
        _require_distinct(self.sub, self.sup, "SubPropertyOf")

    def describe(self) -> str:
        return f"SubPropertyOf({self.sub},{self.sup})"


@dataclass(frozen=True)
class InverseOf(Axiom):
    prop: Iri
    inverse: Iri

    def __post_init__(self) -> None:
        _require_distinct(self.prop, self.inverse, "InverseOf")

    def describe(self) -> str:
        return f"InverseOf({self.prop},{self.inverse})"


@dataclass(frozen=True)
class AllValuesFrom(Axiom):
    """Value restriction: every value of ``on_property`` falls in ``filler``."""

    on_property: Iri
    filler: Iri

    def describe(self) -> str:
        return f"AllValuesFrom({self.on_property},{self.filler})"


@dataclass(frozen=True)
class IntersectionOf(Axiom):
    """``defined`` is exactly the intersection of ``parts`` (listing order kept)."""

    defined: Iri
    parts: tuple[Iri, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 2:
            raise ValueError("IntersectionOf needs at least two parts")
        if self.defined in self.parts:
            raise ValueError(f"IntersectionOf part repeats the defined class {self.defined}")

    def describe(self) -> str:
        inner = ",".join(str(p) for p in self.parts)
        return f"IntersectionOf({self.defined},[{inner}])"


@dataclass(frozen=True)
class ClassLink(Axiom):
    """Custom property element asserted directly between two class elements.

    The only axiom allowed to relate a name to itself (self-links are stored
    but never matched by the extractor).
    """

    subject: Iri
    prop: Iri
    obj: Iri

    def describe(self) -> str:
        return f"ClassLink({self.subject},{self.prop},{self.obj})"


# ---------------------------------------------------------------------------
# the model


class MergeConflictError(Exception):
    """Raised when merged ontologies declare one property with different kinds."""

    def __init__(self, name: Iri, kinds: tuple[PropertyKind, PropertyKind]):
        pretty = " vs ".join(sorted(k.value for k in kinds))
        super().__init__(f"conflicting kinds for property {name}: {pretty}")
        self.iri = name
        self.kinds = kinds


@dataclass(frozen=True)
class _ModelIndex:
    classes: frozenset[Iri]
    by_kind: dict[type, list[Axiom]]  # axioms by concrete class, in model order
    sups: dict[Iri, list[Iri]]  # sorted direct superclasses of each subclass
    subs: dict[Iri, list[Iri]]  # sorted direct subclasses of each superclass


@dataclass(frozen=True, eq=False)
class OntologyModel:
    """Immutable snapshot of declarations plus a duplicate-free axiom list.

    Equality is structural: declared names, property shapes, and the axiom
    *set* — source names and axiom order are ignored.  The lookups below read
    an index of the axioms built once, on first use, and return fresh lists.
    """

    classes: tuple[OwlClassDecl, ...] = ()
    properties: dict[Iri, PropertyDecl] = field(default_factory=dict)
    axioms: tuple[Axiom, ...] = ()
    source_names: tuple[str, ...] = ()

    @cached_property
    def _index(self) -> _ModelIndex:
        # Built on first use; the fields it reads are never reassigned.
        by_kind: dict[type, list[Axiom]] = {}
        for ax in self.axioms:
            by_kind.setdefault(type(ax), []).append(ax)
        sups: dict[Iri, list[Iri]] = {}
        subs: dict[Iri, list[Iri]] = {}
        for ax in by_kind.get(SubClassOf, ()):
            sups.setdefault(ax.sub, []).append(ax.sup)
            subs.setdefault(ax.sup, []).append(ax.sub)
        for names in (*sups.values(), *subs.values()):
            names.sort()
        return _ModelIndex(frozenset(d.iri for d in self.classes), by_kind, sups, subs)

    def class_iris(self) -> frozenset[Iri]:
        return self._index.classes

    def has_class(self, name: Iri) -> bool:
        return name in self._index.classes

    def property(self, name: Iri) -> PropertyDecl | None:
        return self.properties.get(name)

    def axioms_of(self, kind: type) -> list:
        """The axioms of one concrete axiom class, in model order."""
        return list(self._index.by_kind.get(kind, ()))

    def superclasses_of(self, name: Iri) -> list[Iri]:
        return list(self._index.sups.get(name, ()))

    def subs_by_super(self) -> dict[Iri, list[Iri]]:
        return {sup: list(subs) for sup, subs in self._index.subs.items()}

    def structure(self) -> tuple:
        props = frozenset(
            (d.iri, d.kind, d.domain, d.range) for d in self.properties.values()
        )
        return (self.class_iris(), props, frozenset(self.axioms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OntologyModel):
            return NotImplemented
        return self.structure() == other.structure()

    __hash__ = None  # type: ignore[assignment]


class ModelBuilder:
    """Mutable accumulator used by the parser, merge, and tests."""

    def __init__(self, source_name: str | None = None):
        self._classes: dict[Iri, OwlClassDecl] = {}
        self._props: dict[Iri, PropertyDecl] = {}
        self._axioms: list[Axiom] = []
        self._axiom_set: set[Axiom] = set()
        self._sources: list[str] = [source_name] if source_name else []

    @classmethod
    def from_model(cls, model: OntologyModel) -> "ModelBuilder":
        b = cls()
        b._sources = list(model.source_names)
        for d in model.classes:
            b._classes[d.iri] = d
        b._props = dict(model.properties)
        b._axioms = list(model.axioms)
        b._axiom_set = set(model.axioms)
        return b

    def declare_class(self, name: Iri) -> None:
        # Re-declaration merges: a class decl carries nothing but its name.
        self._classes.setdefault(name, OwlClassDecl(name))

    def declare_property(
        self,
        decl: PropertyDecl,
        *,
        on_kind_conflict: str = "keep-first",
        on_field_conflict: str = "keep-first",
    ) -> list[str]:
        """Add or merge a property declaration; returns human-readable notes.

        ``on_kind_conflict``: "keep-first" (parser policy) or "error" (merge
        policy).  Explicit declarations always replace implicit ones; implicit
        ones never demote an existing declaration.
        """
        notes: list[str] = []
        self.declare_domain_range_classes(decl)
        old = self._props.get(decl.iri)
        if old is None:
            self._props[decl.iri] = decl
            return notes
        if decl.implicit:
            return notes
        if old.implicit:
            self._props[decl.iri] = decl
            return notes
        if old.kind is not decl.kind:
            if on_kind_conflict == "error":
                raise MergeConflictError(decl.iri, (old.kind, decl.kind))
            notes.append(
                f"property {decl.iri} re-declared as {decl.kind.value}; "
                f"keeping {old.kind.value}"
            )
            decl = PropertyDecl(decl.iri, old.kind, decl.domain, decl.range)
        domain, dn = _resolve_field(decl.iri, "domain", old.domain, decl.domain, on_field_conflict)
        rng, rn = _resolve_field(decl.iri, "range", old.range, decl.range, on_field_conflict)
        notes.extend(dn + rn)
        self._props[decl.iri] = PropertyDecl(decl.iri, old.kind, domain, rng)
        return notes

    def declare_domain_range_classes(self, decl: PropertyDecl) -> None:
        # Domain references are always classes; ranges only for object-like
        # kinds (datatype ranges stay opaque tokens).
        if decl.domain is not None:
            self.declare_class(decl.domain)
        if decl.range is not None and decl.kind.is_object_like:
            self.declare_class(decl.range)

    def add_axiom(self, ax: Axiom) -> bool:
        """Insert an axiom once; auto-declare every name it references."""
        if ax in self._axiom_set:
            return False
        self._axiom_set.add(ax)
        self._axioms.append(ax)
        for c in _class_refs(ax):
            self.declare_class(c)
        for p in _prop_refs(ax):
            if p not in self._props:
                self._props[p] = PropertyDecl(p, PropertyKind.OBJECT, implicit=True)
        return True

    def add_source(self, name: str) -> None:
        self._sources.append(name)

    def build(self) -> OntologyModel:
        return OntologyModel(
            classes=tuple(self._classes.values()),
            properties=dict(self._props),
            axioms=tuple(self._axioms),
            source_names=tuple(self._sources),
        )


def _resolve_field(
    name: Iri, label: str, old: Iri | None, new: Iri | None, policy: str
) -> tuple[Iri | None, list[str]]:
    if new is None or old == new:
        return old, []
    if old is None:
        return new, []
    if policy == "lexicographic-min":
        keep = min(old, new)
        return keep, [f"property {name} has multiple {label}s ({old}, {new}); keeping {keep}"]
    return old, [f"property {name} has multiple {label}s; keeping the first ({old})"]


def _class_refs(ax: Axiom) -> tuple[Iri, ...]:
    if isinstance(ax, SubClassOf):
        return (ax.sub, ax.sup)
    if isinstance(ax, EquivalentClass):
        return (ax.a, ax.b)
    if isinstance(ax, AllValuesFrom):
        return (ax.filler,)
    if isinstance(ax, IntersectionOf):
        return (ax.defined, *ax.parts)
    if isinstance(ax, ClassLink):
        return (ax.subject, ax.obj)
    return ()


def _prop_refs(ax: Axiom) -> tuple[Iri, ...]:
    if isinstance(ax, SubPropertyOf):
        return (ax.sub, ax.sup)
    if isinstance(ax, InverseOf):
        return (ax.prop, ax.inverse)
    if isinstance(ax, AllValuesFrom):
        return (ax.on_property,)
    if isinstance(ax, ClassLink):
        return (ax.prop,)
    return ()


def add_axiom(model: OntologyModel, ax: Axiom) -> OntologyModel:
    """Return a new model with ``ax`` inserted (idempotent)."""
    b = ModelBuilder.from_model(model)
    b.add_axiom(ax)
    return b.build()


def merge(models: list[OntologyModel]) -> OntologyModel:
    """Union of declarations and axioms across ``models``.

    Property kind conflicts raise :class:`MergeConflictError`.  Conflicting
    non-None domains/ranges resolve to the lexicographic minimum (and log a
    warning) so the result does not depend on input order.
    """
    if not models:
        raise ValueError("merge requires at least one model")
    b = ModelBuilder()
    for m in models:
        for s in m.source_names:
            b.add_source(s)
        for d in m.classes:
            b.declare_class(d.iri)
        for d in m.properties.values():
            notes = b.declare_property(
                d, on_kind_conflict="error", on_field_conflict="lexicographic-min"
            )
            for note in notes:
                log.warning("%s", note)
        for ax in m.axioms:
            b.add_axiom(ax)
    return b.build()
