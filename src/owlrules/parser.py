"""One-pass parser for the RDF/XML ontology subset, plus the fact format.

expat's start and end handlers build an element tree as they read; the
interpreter then walks that tree once to fill a :class:`ModelBuilder`.
Element and attribute names are matched by their literal prefixed spelling
(``owl:Class``, ``rdf:ID``, ...); ``xmlns`` declarations are accepted and
ignored; element text is ignored.  A file whose root element is not
``rdf:RDF`` is read inside a synthetic root, put where expat finds the first
element: bare fragments parse as-is, after any prolog expat accepts, and an
element left open in one is reported at the end of the file, as under an
explicit root.  Elements nested deeper than ``MAX_DEPTH`` end the read with
an error.

Recognized constructs: class and property declarations (datatype, object,
symmetric, transitive), rdfs:subClassOf (attribute or nested class form),
rdfs:domain/rdfs:range, rdfs:subPropertyOf, owl:equivalentClass, owl:sameAs,
owl:inverseOf, owl:Restriction with owl:onProperty + owl:allValuesFrom,
owl:intersectionOf with rdf:parseType="Collection", and custom property
elements nested in a class element (stored as ClassLink axioms).  Unknown
owl/rdf/rdfs elements produce warnings and are skipped.
"""

from __future__ import annotations

import re
from enum import Enum
from xml.parsers import expat

from .facts import FACT_SYNTAX, ContradictionError, Fact, FactBase
from .model import (
    AllValuesFrom,
    Axiom,
    ClassLink,
    EquivalentClass,
    IntersectionOf,
    InverseOf,
    Iri,
    ModelBuilder,
    OntologyModel,
    PropertyDecl,
    PropertyKind,
    SubClassOf,
    SubPropertyOf,
    Value,
    _paused,
    iri,
    resolve_field,
)

ROOT_ELEMENT = "rdf:RDF"
_OPEN_ROOT = f"<{ROOT_ELEMENT}>"  # the synthetic root put around a fragment

# Deepest element nesting read, counting the root as 1.  The interpreter
# recurses through nested declarations, at most 1.5 frames per element level,
# so this keeps it far inside Python's default recursion limit of 1000.
MAX_DEPTH = 256

_PROPERTY_ELEMENTS = {
    "owl:DatatypeProperty": PropertyKind.DATATYPE,
    "owl:ObjectProperty": PropertyKind.OBJECT,
    "owl:SymmetricProperty": PropertyKind.SYMMETRIC,
    "owl:TransitiveProperty": PropertyKind.TRANSITIVE,
}

_KNOWN_PREFIXES = ("owl:", "rdf:", "rdfs:")

_BOM = "\ufeff"  # a UTF-8 byte-order mark, as decoded text


# ---------------------------------------------------------------------------
# diagnostics


class Severity(Enum):
    WARNING = "warning"
    ERROR = "error"


class Location(Value):
    __slots__ = ()
    __match_args__ = ("line", "col")


class ParseDiagnostic(Value):
    __slots__ = ()
    __match_args__ = ("severity", "message", "location")


def has_errors(diagnostics: list[ParseDiagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def format_diagnostic(diag: ParseDiagnostic, filename: str) -> str:
    return (
        f"{diag.severity.name} {filename}:{diag.location.line}:{diag.location.col} "
        f"{diag.message}"
    )


# ---------------------------------------------------------------------------
# element tree (internal)


class _Element:
    __slots__ = ("name", "attrs", "at", "children")

    def __init__(self, name: str, attrs: dict[str, str], at: tuple[int, int]) -> None:
        self.name = name
        self.attrs = attrs
        self.at = at  # (line, col); a Location is made only for a diagnostic
        self.children: list[_Element] = []


class _TooDeep(Exception):
    """Raised by the start handler; carries the error diagnostic."""


class _Unrooted(Exception):
    """Raised by the first start handler at an element other than the root;
    carries where that element starts: its UTF-8 offset, line and column."""


def _read_tree(text: str) -> tuple[list[_Element], ParseDiagnostic | None]:
    """Children of the document root, built while expat reads ``text``.

    expat reads ``text`` as given, and goes on if its first element is
    ``rdf:RDF``.  Any other first element stops the read, and ``text`` is read
    again inside a synthetic root put right where expat found that element,
    or at the end of a file that has none.  expat counts the root's columns on
    its line after it; they are taken off, so locations are the file's own.
    On malformed XML, or on nesting deeper than ``MAX_DEPTH``, reading stops:
    the elements read so far are kept and the error is returned with them.
    """
    doc = _Element("", {}, (0, 0))
    stack = [doc]
    root_line = root_col = 0  # where the synthetic root starts; no line is 0

    def on_start(name: str, attrs: dict[str, str]) -> None:
        line, col = parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
        if line == root_line and col > root_col:
            col -= len(_OPEN_ROOT)
        if len(stack) > MAX_DEPTH:
            raise _TooDeep(
                ParseDiagnostic(
                    Severity.ERROR,
                    f"elements nested deeper than {MAX_DEPTH} levels; reading stopped",
                    Location(line, col),
                )
            )
        el = _Element(name, attrs, (line, col))
        stack[-1].children.append(el)
        stack.append(el)

    def on_first(name: str, attrs: dict[str, str]) -> None:
        if name != ROOT_ELEMENT:
            raise _Unrooted(
                parser.CurrentByteIndex, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
            )
        parser.StartElementHandler = on_start
        on_start(name, attrs)

    error = None
    for start in (on_first, on_start):
        parser = expat.ParserCreate()
        parser.StartElementHandler = start
        parser.EndElementHandler = lambda name: stack.pop()
        try:
            parser.Parse(text, False)
            # Close the synthetic root only if the file's own elements are closed,
            # so expat reports one left open at the file's end; a file that closed
            # the root itself fails on the second end tag.
            parser.Parse(f"</{ROOT_ELEMENT}>" if root_line and len(stack) <= 2 else "", True)
            break
        except _Unrooted as found:
            at, root_line, root_col = found.args
            cut = len(text.encode()[:at].decode())
        except expat.ExpatError as err:
            line, col, why = err.lineno, err.offset + 1, expat.ErrorString(err.code)
            # An ExpatError leaves the handlers in place, so on_first means no element.
            no_element = parser.StartElementHandler is on_first
            if no_element and why == expat.errors.XML_ERROR_NO_ELEMENTS:
                cut, root_line, root_col = len(text), line, col
            else:
                if line == root_line and col > root_col:
                    col -= len(_OPEN_ROOT)
                error = ParseDiagnostic(Severity.ERROR, "malformed XML: " + why, Location(line, col))
                break
        except _TooDeep as deep:
            (error,) = deep.args
            break
        text = text[:cut] + _OPEN_ROOT + text[cut:]
    # The handlers refer to the parser, which refers back to them: left in
    # place, the cycle keeps the whole element tree alive until a collection.
    del parser
    top = doc.children
    if len(top) == 1 and top[0].name == ROOT_ELEMENT:
        return top[0].children, error
    return top, error


# ---------------------------------------------------------------------------
# interpretation

# The axiom that a reference element states between the class, or the
# property, it is in and the one it names.
_CLASS_REFERENCES = {
    "rdfs:subClassOf": SubClassOf,
    "owl:equivalentClass": EquivalentClass,
    "owl:sameAs": EquivalentClass,
}
_PROPERTY_REFERENCES = {"rdfs:subPropertyOf": SubPropertyOf, "owl:inverseOf": InverseOf}


class _Interp:
    def __init__(self, source_name: str):
        self.builder = ModelBuilder(source_name)
        self.diags: list[ParseDiagnostic] = []
        self.iris: dict[str, str] = {}  # the name of each good raw reference read so far

    def warn(self, el: _Element, message: str) -> None:
        self.diags.append(ParseDiagnostic(Severity.WARNING, message, Location(*el.at)))

    def error(self, el: _Element, message: str) -> None:
        self.diags.append(ParseDiagnostic(Severity.ERROR, message, Location(*el.at)))

    # -- names

    def iri_of(self, el: _Element, raw: str, what: str) -> str | None:
        """``raw`` as a name, or None after an error that says ``what``
        (``{}`` standing for the element's name) and why, at each bad use."""
        name = self.iris.get(raw)
        if name is None:
            try:
                name = self.iris[raw] = iri(raw)
            except ValueError as exc:
                self.error(el, f"{what.format(el.name)}: {exc}")
        return name

    def subject_iri(self, el: _Element) -> str | None:
        attrs = el.attrs
        raw = attrs.get("rdf:ID", attrs.get("rdf:about"))
        if raw is None:
            self.error(el, f"{el.name} has neither rdf:ID nor rdf:about")
            return None
        return self.iri_of(el, raw, "bad identifier on {}")

    def reference(self, el: _Element) -> str | None:
        """Target of a link-style element: rdf:resource or one nested declaration."""
        raw = el.attrs.get("rdf:resource")
        if raw is not None:
            return self.iri_of(el, raw, "bad reference on {}")
        for child in el.children:
            if child.name == "owl:Class":
                return self.parse_class(child)
            if child.name in _PROPERTY_ELEMENTS:
                return self.parse_property(child, _PROPERTY_ELEMENTS[child.name])
        self.warn(el, f"{el.name} has no rdf:resource and no nested declaration; skipped")
        return None

    def range_reference(self, el: _Element, kind: PropertyKind) -> str | None:
        if kind is not PropertyKind.DATATYPE:
            return self.reference(el)
        # Datatype ranges are opaque tokens; never treat them as classes.
        raw = el.attrs.get("rdf:resource")
        if raw is None:
            self.warn(el, "rdfs:range on a datatype property needs rdf:resource; skipped")
            return None
        return self.iri_of(el, raw, "bad range token")

    def add_axiom_checked(self, el: _Element, ax_type, *names: str) -> None:
        try:
            self.builder.add_axiom(ax_type(*names))
        except ValueError as exc:
            self.warn(el, f"axiom skipped: {exc}")

    # -- top level

    def run(self, forest: list[_Element]) -> None:
        for el in forest:
            if el.name == "owl:Class":
                self.parse_class(el)
            elif el.name in _PROPERTY_ELEMENTS:
                self.parse_property(el, _PROPERTY_ELEMENTS[el.name])
            elif el.name == "owl:Restriction":
                self.parse_restriction(el)
            else:
                self.warn(el, f"unknown top-level element {el.name}; skipped")

    # -- classes

    def parse_class(self, el: _Element) -> str | None:
        subject = self.subject_iri(el)
        if subject is None:
            return None
        self.builder.declare_class(subject)
        for child in el.children:
            name = child.name
            ax_type = _CLASS_REFERENCES.get(name)
            if ax_type is not None:
                if name == "rdfs:subClassOf":
                    restriction = next(
                        (c for c in child.children if c.name == "owl:Restriction"), None
                    )
                    if restriction is not None:
                        self.parse_restriction(restriction)
                        continue
                target = self.reference(child)
                if target is not None:
                    self.add_axiom_checked(child, ax_type, subject, target)
            elif name == "owl:intersectionOf":
                self.parse_intersection(subject, child)
            elif name == "rdf:type":
                pass  # redundant typing assertion
            elif name.startswith(_KNOWN_PREFIXES):
                self.warn(child, f"unknown element {name} in class context; skipped")
            else:
                # A custom property element links the class to its target.  An
                # XML name is non-empty, holds no whitespace and never starts
                # with "#", so ``iri`` accepts every element name expat passes on.
                target = self.reference(child)
                if target is not None:
                    self.add_axiom_checked(child, ClassLink, subject, iri(name), target)
        return subject

    def parse_intersection(self, subject: str, el: _Element) -> None:
        if el.attrs.get("rdf:parseType") != "Collection":
            self.warn(el, 'owl:intersectionOf without rdf:parseType="Collection"; skipped')
            return
        parts: list[str] = []
        for child in el.children:
            if child.name != "owl:Class":
                self.warn(child, f"unexpected {child.name} in intersection listing; skipped")
                continue
            part = self.parse_class(child)
            if part is not None:
                parts.append(part)
        if len(parts) < 2:
            self.warn(el, "intersection listing needs at least two classes; skipped")
            return
        self.add_axiom_checked(el, IntersectionOf, subject, tuple(parts))

    # -- properties

    def parse_property(self, el: _Element, kind: PropertyKind) -> str | None:
        subject = self.subject_iri(el)
        if subject is None:
            return None
        ends: dict[str, str] = {}  # "domain" and "range", once read
        deferred: list[tuple[_Element, type[Axiom], str]] = []
        for child in el.children:
            name = child.name
            if name == "rdfs:domain" or name == "rdfs:range":
                value = (
                    self.reference(child)
                    if name == "rdfs:domain"
                    else self.range_reference(child, kind)
                )
                if value is not None:
                    label = name.removeprefix("rdfs:")
                    ends[label], notes = resolve_field(
                        subject, label, ends.get(label), value, merging=False
                    )
                    for note in notes:
                        self.warn(child, note)
            elif name in _PROPERTY_REFERENCES:
                target = self.reference(child)
                if target is not None:
                    deferred.append((child, _PROPERTY_REFERENCES[name], target))
            elif name == "rdf:type":
                pass  # e.g. a transitive property re-typed as an object property
            elif name.startswith(_KNOWN_PREFIXES):
                self.warn(child, f"unknown element {name} in property context; skipped")
            else:
                self.warn(child, f"unexpected element {name} in property context; skipped")
        decl = PropertyDecl(subject, kind, ends.get("domain"), ends.get("range"))
        for note in self.builder.declare_property(decl):
            self.warn(el, note)
        for child, ax_type, target in deferred:
            self.add_axiom_checked(child, ax_type, subject, target)
        return subject

    # -- restrictions

    def parse_restriction(self, el: _Element) -> None:
        on_prop: str | None = None
        filler: str | None = None
        for child in el.children:
            if child.name == "owl:onProperty":
                on_prop = self.reference(child)
            elif child.name == "owl:allValuesFrom":
                filler = self.reference(child)
            else:
                self.warn(child, f"unknown element {child.name} in restriction; skipped")
        if on_prop is None or filler is None:
            self.warn(el, "restriction without owl:onProperty and owl:allValuesFrom; skipped")
            return
        self.add_axiom_checked(el, AllValuesFrom, on_prop, filler)


@_paused
def parse_ontology(text: str, name: str = "<input>") -> tuple[OntologyModel, list[ParseDiagnostic]]:
    """Parse one document (auto-wrapped when the root is not ``rdf:RDF``).

    Always returns a model; callers must treat any error-severity diagnostic
    as a rejection of the parse.  A leading byte-order mark is ignored.
    """
    forest, xml_error = _read_tree(text.removeprefix(_BOM))
    interp = _Interp(name)
    if xml_error is not None:
        interp.diags.append(xml_error)
    interp.run(forest)
    return interp.builder.build(), interp.diags


# ---------------------------------------------------------------------------
# fact files

_IDENT = r"[^\s,()]+"
# A fact's name, with any run of whitespace between its words, and its names.
_FACT_NAME = "|".join(r"\s+".join(name.split()) for name, _ in FACT_SYNTAX.values())
_FACT_LINE = re.compile(rf"({_FACT_NAME})\(\s*({_IDENT}(?:\s*,\s*{_IDENT})*)\s*\)")
_FACT_KINDS = {name: (kind, arity) for kind, (name, arity) in FACT_SYNTAX.items()}


def _read_fact(line: str) -> Fact | None:
    """The fact written on ``line``, or None if the line is not one."""
    m = _FACT_LINE.fullmatch(line)
    if m is None:
        return None
    kind, arity = _FACT_KINDS[" ".join(m[1].split())]
    names = m[2].split(",")
    return kind(*[Iri(n.strip()) for n in names]) if len(names) == arity else None


@_paused
def parse_fact_base(text: str) -> tuple[FactBase, list[ParseDiagnostic]]:
    """Line-oriented facts: ``isa(a, B)``, ``not isa(a, B)``, ``link(a, p, b)``,
    ``feature(a, F)``.

    ``#`` starts a comment line; blank lines and a leading byte-order mark
    are ignored.  Malformed lines produce error diagnostics with their line
    number.  A membership asserted both ways raises
    :class:`ContradictionError` once the whole file is read: its ``location``
    is the line and column of the first pair's second statement, and its
    ``diagnostics`` are those of the malformed lines.
    """
    base = FactBase()
    diags: list[ParseDiagnostic] = []
    contradiction: ContradictionError | None = None
    for lineno, raw in enumerate(text.removeprefix(_BOM).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fact = _read_fact(line)
        if fact is None:
            diags.append(
                ParseDiagnostic(
                    Severity.ERROR, f"malformed fact line: {line!r}", Location(lineno, 1)
                )
            )
            continue
        try:
            base.add(fact)
        except ContradictionError as exc:
            if contradiction is None:
                exc.location = Location(lineno, len(raw) - len(raw.lstrip()) + 1)
                contradiction = exc
    if contradiction is not None:
        contradiction.diagnostics = diags
        raise contradiction
    return base, diags
