"""In-memory ontology model: names, declarations, schema axioms, merging.

The model is a plain value object, and each name in it an exact ``str``
checked by :func:`Iri`.  Parsing lives in :mod:`owlrules.parser`; everything
here is constructible programmatically through :class:`ModelBuilder` or the
pure helper :func:`merge`.
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from enum import Enum
from functools import cached_property, wraps
from operator import methodcaller

try:  # the C descriptor that collections.namedtuple uses for its fields
    from _collections import _tuplegetter
except ImportError:  # pragma: no cover - not CPython
    from operator import itemgetter

    def _tuplegetter(index: int, doc: None) -> property:
        return property(itemgetter(index), doc=doc)


# ---------------------------------------------------------------------------
# value types


class Value(tuple):
    """Base of the immutable value types: terms, atoms, facts, axioms, rules.

    An instance is the tuple ``(kind, *fields)``, where ``kind`` is the class
    it was built as, so hashing and equality are the tuple's, in C, and values
    of different kinds never compare equal.  Values of one kind order as
    their fields do, in field order, which is how the extractor sorts axioms.
    Each subclass declares ``__slots__ = ()`` (no instance dict) and names its
    fields in order in ``__match_args__``.  Each field becomes a read-only
    attribute, unless the class defines that name itself.  A class that
    defines no ``__new__`` gets one that takes the fields, by position or by
    name, and packs them; a class writes its own only to check or default its
    fields.  ``repr`` and pickling read the fields by name.  ``rules.Rule`` is
    the one kind whose tuple is not its fields: it holds the rule's id, shape
    and names, and the class reads each field through a property of its own.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("__match_args__", ())
        for index, name in enumerate(fields, start=1):
            if name not in cls.__dict__:
                setattr(cls, name, _tuplegetter(index, None))
        if fields and "__new__" not in cls.__dict__:
            # eval, as collections.namedtuple does, so that the parameters are the fields.
            args = ", ".join(fields)
            new = eval(f"lambda _cls, {args}: _new(_cls, (_cls, {args}))", {"_new": tuple.__new__})
            new.__qualname__ = f"{cls.__qualname__}.__new__"
            cls.__new__ = staticmethod(new)

    def __repr__(self) -> str:
        return fields_repr(self[0].__name__, self, self.__match_args__)

    def __reduce__(self) -> tuple:
        return self[0], tuple(getattr(self, name) for name in self.__match_args__)


def fields_repr(name: str, obj: object, fields: tuple[str, ...]) -> str:
    """``name(field=value!r, ...)`` over the named attributes of ``obj``."""
    return f"{name}({', '.join(f'{f}={getattr(obj, f)!r}' for f in fields)})"


# ---------------------------------------------------------------------------
# identifiers


def Iri(value: str) -> str:
    """Check the name of a class, property, individual or opaque datatype
    token, and return it as an exact ``str``, also when given a subclass.

    A name is non-empty and holds no whitespace.  Every name in a model, rule,
    fact or closure edge is a plain ``str`` that passed this check, so that
    hashing, comparing and formatting names take CPython's exact-string fast
    paths.  There is no name type to test with ``isinstance``, and no ``.value``.
    """
    if not value:
        raise ValueError("IRI must be non-empty")
    # str.split() splits at exactly the characters str.isspace() accepts.
    if value.split() != [value]:
        raise ValueError(f"IRI contains whitespace: {value!r}")
    return str.__str__(value)


def iri(text: str) -> str:
    """Normalize a raw reference into a name checked by :func:`Iri`.

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


class PropertyDecl(Value):
    __slots__ = ()
    __match_args__ = ("iri", "kind", "domain", "range")

    def __new__(
        cls, iri: str, kind: PropertyKind, domain: str | None = None, range: str | None = None
    ) -> "PropertyDecl":
        return tuple.__new__(cls, (cls, iri, kind, domain, range))

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
    """Base class for schema assertions; each variant is a :class:`Value`."""

    __slots__ = ()

    def describe(self) -> str:
        """``Kind(field,...)``, the text rules cite as their trigger axioms."""
        return f"{self[0].__name__}({','.join(self[1:])})"


def _require_distinct(a: str, b: str, what: str) -> None:
    if a == b:
        raise ValueError(f"{what} may not relate {a} to itself")


class SubClassOf(Axiom, Value):
    __slots__ = ()
    __match_args__ = ("sub", "sup")

    def __new__(cls, sub: str, sup: str) -> "SubClassOf":
        _require_distinct(sub, sup, "SubClassOf")
        return tuple.__new__(cls, (cls, sub, sup))


class EquivalentClass(Axiom, Value):
    """Unordered equivalence, stored with the lexicographically smaller name first."""

    __slots__ = ()
    __match_args__ = ("a", "b")

    def __new__(cls, a: str, b: str) -> "EquivalentClass":
        _require_distinct(a, b, "EquivalentClass")
        return tuple.__new__(cls, (cls, b, a) if b < a else (cls, a, b))


class SubPropertyOf(Axiom, Value):
    __slots__ = ()
    __match_args__ = ("sub", "sup")

    def __new__(cls, sub: str, sup: str) -> "SubPropertyOf":
        _require_distinct(sub, sup, "SubPropertyOf")
        return tuple.__new__(cls, (cls, sub, sup))


class InverseOf(Axiom, Value):
    __slots__ = ()
    __match_args__ = ("prop", "inverse")

    def __new__(cls, prop: str, inverse: str) -> "InverseOf":
        _require_distinct(prop, inverse, "InverseOf")
        return tuple.__new__(cls, (cls, prop, inverse))


class AllValuesFrom(Axiom, Value):
    """Value restriction: every value of ``on_property`` falls in ``filler``."""

    __slots__ = ()
    __match_args__ = ("on_property", "filler")


class IntersectionOf(Axiom, Value):
    """``defined`` is exactly the intersection of ``parts`` (listing order kept)."""

    __slots__ = ()
    __match_args__ = ("defined", "parts")

    def __new__(cls, defined: str, parts: tuple[str, ...]) -> "IntersectionOf":
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("IntersectionOf needs at least two parts")
        if defined in parts:
            raise ValueError(f"IntersectionOf part repeats the defined class {defined}")
        return tuple.__new__(cls, (cls, defined, parts))

    def describe(self) -> str:
        return f"IntersectionOf({self.defined},[{','.join(self.parts)}])"


class ClassLink(Axiom, Value):
    """Custom property element asserted directly between two class elements.

    The only axiom allowed to relate a name to itself (self-links are stored
    but never matched by the extractor).
    """

    __slots__ = ()
    __match_args__ = ("subject", "prop", "obj")


# ---------------------------------------------------------------------------
# the model


class MergeConflictError(Exception):
    """Raised when merged ontologies declare one property with different kinds."""

    def __init__(self, name: str, kinds: tuple[PropertyKind, PropertyKind]):
        pretty = " vs ".join(sorted(k.value for k in kinds))
        super().__init__(f"conflicting kinds for property {name}: {pretty}")
        self.iri = name
        self.kinds = kinds


class _Memo(dict):
    """A dict that fills each key on first ask with ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _paused(stage: Callable) -> Callable:
    """``stage`` run with the cyclic collector off, then left as it was found,
    so nested stages keep it off until the outermost ends.  The stages free
    what they make by reference count; the collector would only rescan it.
    Not for generators: one suspended between items would keep it off."""

    @wraps(stage)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused


class _ModelIndex:
    __slots__ = ("by_kind", "sups", "subs", "props", "inverses", "sources", "texts")

    def __init__(self, model: OntologyModel) -> None:
        self.by_kind: dict[type, list[Axiom]] = {}  # axioms by concrete class, in model order
        for ax in model.axioms:
            self.by_kind.setdefault(type(ax), []).append(ax)
        # sorted (superclass, axiom) pairs of each subclass, (subclass, axiom) of each superclass
        self.sups: dict[str, list[tuple[str, SubClassOf]]] = {}
        self.subs: dict[str, list[tuple[str, SubClassOf]]] = {}
        for ax in self.by_kind.get(SubClassOf, ()):
            self.sups.setdefault(ax.sub, []).append((ax.sup, ax))
            self.subs.setdefault(ax.sup, []).append((ax.sub, ax))
        for pairs in (*self.sups.values(), *self.subs.values()):
            pairs.sort()
        self.props = sorted(model.properties.values(), key=lambda d: d.iri)
        self.inverses = sorted(self.by_kind.get(InverseOf, ()))
        self.sources = tuple(sorted(set(model.source_names)))  # as a Provenance keeps them
        self.texts = _Memo(methodcaller("describe"))  # each axiom's or declaration's text


class OntologyModel:
    """Immutable snapshot of declarations plus a duplicate-free axiom list.

    Equality is structural: declared names, property shapes, and the axiom
    *set* — source names, notes and axiom order are ignored.  The lookups
    below read an index of the axioms built once, on first use, and return
    fresh lists.  ``notes`` holds what ``merge`` resolved on the way
    (conflicting domains or ranges).
    """

    def __init__(
        self,
        classes: tuple[str, ...] = (),
        properties: dict[str, PropertyDecl] | None = None,
        axioms: tuple[Axiom, ...] = (),
        source_names: tuple[str, ...] = (),
        notes: tuple[str, ...] = (),
    ) -> None:
        # Stored past __setattr__, which refuses every assignment.
        vars(self).update(
            classes=classes,
            properties={} if properties is None else properties,
            axioms=axioms,
            source_names=source_names,
            notes=notes,
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        fields = ("classes", "properties", "axioms", "source_names", "notes")
        return fields_repr("OntologyModel", self, fields)

    @cached_property
    def _index(self) -> _ModelIndex:
        # Built on first use; the fields it reads are never reassigned.
        return _ModelIndex(self)

    def property(self, name: str) -> PropertyDecl | None:
        return self.properties.get(name)

    def axioms_of(self, kind: type) -> list:
        """The axioms of one concrete axiom class, in model order."""
        return list(self._index.by_kind.get(kind, ()))

    def structure(self) -> tuple:
        props = frozenset(self.properties.values())
        return (frozenset(self.classes), props, frozenset(self.axioms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OntologyModel):
            return NotImplemented
        return self.structure() == other.structure()

    __hash__ = None  # type: ignore[assignment]


class ModelBuilder:
    """Mutable accumulator used by the parser, merge, and tests."""

    def __init__(self, source_name: str | None = None):
        self._classes: dict[str, None] = {}  # declared names, in declaration order
        self._props: dict[str, PropertyDecl] = {}
        self._axioms: dict[Axiom, None] = {}  # each axiom once, in insertion order
        self._sources: list[str] = [source_name] if source_name else []

    def declare_class(self, name: str) -> None:
        # Re-declaration merges: a class carries nothing but its name.
        self._classes[name] = None

    def declare_property(self, decl: PropertyDecl, *, merging: bool = False) -> list[str]:
        """Add or merge a property declaration; returns human-readable notes.

        Between two declarations of one property, the parser's policy (the
        default) keeps the first kind, domain and range and notes each
        conflict.  With ``merging``, a kind conflict raises
        :class:`MergeConflictError` and conflicting domains and ranges resolve
        to the lexicographic minimum, so the result does not depend on the
        order of declarations.
        """
        notes: list[str] = []
        # Domains are always classes; ranges only for object-like kinds
        # (datatype ranges stay opaque tokens).
        if decl.domain is not None:
            self.declare_class(decl.domain)
        if decl.range is not None and decl.kind is not PropertyKind.DATATYPE:
            self.declare_class(decl.range)
        old = self._props.get(decl.iri)
        if old is None:
            self._props[decl.iri] = decl
            return notes
        if old.kind is not decl.kind:
            if merging:
                raise MergeConflictError(decl.iri, (old.kind, decl.kind))
            notes.append(
                f"property {decl.iri} re-declared as {decl.kind.value}; "
                f"keeping {old.kind.value}"
            )
        domain, dn = resolve_field(decl.iri, "domain", old.domain, decl.domain, merging)
        rng, rn = resolve_field(decl.iri, "range", old.range, decl.range, merging)
        notes.extend(dn + rn)
        self._props[decl.iri] = PropertyDecl(decl.iri, old.kind, domain, rng)
        return notes

    def add_axiom(self, ax: Axiom) -> bool:
        """Insert an axiom once; auto-declare every class it references."""
        if ax in self._axioms:
            return False
        self._axioms[ax] = None
        for c in _class_refs(ax):
            self.declare_class(c)
        return True

    def add_source(self, name: str) -> None:
        self._sources.append(name)

    def build(self) -> OntologyModel:
        return OntologyModel(
            classes=tuple(self._classes),
            properties=dict(self._props),
            axioms=tuple(self._axioms),
            source_names=tuple(self._sources),
        )


def resolve_field(
    name: str, label: str, old: str | None, new: str | None, merging: bool
) -> tuple[str | None, list[str]]:
    """The ``label`` (domain or range) that property ``name`` keeps when
    ``new`` is stated after ``old``, and the note on a conflict: the first
    value is kept, or with ``merging`` the lexicographic minimum."""
    if new is None or old == new:
        return old, []
    if old is None:
        return new, []
    if merging:
        keep = min(old, new)
        return keep, [f"property {name} has multiple {label}s ({old}, {new}); keeping {keep}"]
    return old, [f"property {name} has multiple {label}s; keeping the first ({old})"]


def _class_refs(ax: Axiom) -> tuple[str, ...]:
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


def merge(models: list[OntologyModel]) -> OntologyModel:
    """Union of declarations and axioms across ``models``.

    Property kind conflicts raise :class:`MergeConflictError`.  Conflicting
    non-None domains/ranges resolve to the lexicographic minimum, so the result
    does not depend on input order; each such resolution is described in the
    result's ``notes``.  A lone model is returned as it is.
    """
    if not models:
        raise ValueError("merge requires at least one model")
    if len(models) == 1:
        return models[0]
    b = ModelBuilder()
    notes: list[str] = []
    for m in models:
        for s in m.source_names:
            b.add_source(s)
        for name in m.classes:
            b.declare_class(name)
        for d in m.properties.values():
            notes.extend(b.declare_property(d, merging=True))
        for ax in m.axioms:
            b.add_axiom(ax)
    return OntologyModel(
        tuple(b._classes), b._props, tuple(b._axioms), tuple(b._sources), tuple(notes)
    )
