"""One-pass parser for the RDF/XML ontology subset, plus the fact format.

expat's start and end handlers build an element tree as they read; the
interpreter then walks that tree once to fill a :class:`ModelBuilder`.
Element and attribute names are matched by their literal prefixed spelling
(``owl:Class``, ``rdf:ID``, ...); ``xmlns`` declarations are accepted and
ignored; element text is ignored.  A file whose root element is not
``rdf:RDF`` is read inside a synthetic root, so bare fragments parse as-is.
Elements nested deeper than ``MAX_DEPTH`` end the read with an error.

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
from dataclasses import dataclass, field
from enum import Enum
from xml.parsers import expat

from .engine import (
    ContradictionError,
    Fact,
    FactBase,
    FeatureExpected,
    LinkFact,
    Membership,
    NegMembership,
    format_fact,
)
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
    iri,
)

ROOT_ELEMENT = "rdf:RDF"

# Deepest element nesting read, counting the root as 1.  The interpreter
# recurses through nested declarations, about 1.5 frames per element level,
# so this keeps it far inside Python's default recursion limit of 1000.
MAX_DEPTH = 256

_PROPERTY_ELEMENTS = {
    "owl:DatatypeProperty": PropertyKind.DATATYPE,
    "owl:ObjectProperty": PropertyKind.OBJECT,
    "owl:SymmetricProperty": PropertyKind.SYMMETRIC,
    "owl:TransitiveProperty": PropertyKind.TRANSITIVE,
}

_KIND_ELEMENTS = {kind: name for name, kind in _PROPERTY_ELEMENTS.items()}

_KNOWN_PREFIXES = ("owl:", "rdf:", "rdfs:")


# ---------------------------------------------------------------------------
# diagnostics


class Severity(Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Location:
    line: int
    col: int


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: Severity
    message: str
    location: Location


def has_errors(diagnostics: list[ParseDiagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def format_diagnostic(diag: ParseDiagnostic, filename: str) -> str:
    return (
        f"{diag.severity.name} {filename}:{diag.location.line}:{diag.location.col} "
        f"{diag.message}"
    )


_FIRST_TAG = re.compile(r"<([A-Za-z_][^\s>/]*)")


def _sniff_root_name(text: str) -> str | None:
    """Name of the first element, skipping declarations and comments."""
    pos = 0
    while True:
        i = text.find("<", pos)
        if i < 0:
            return None
        if text.startswith("<?", i):
            j = text.find("?>", i)
            pos = j + 2 if j >= 0 else len(text)
            continue
        if text.startswith("<!--", i):
            j = text.find("-->", i)
            pos = j + 3 if j >= 0 else len(text)
            continue
        if text.startswith("<!", i):
            j = text.find(">", i)
            pos = j + 1 if j >= 0 else len(text)
            continue
        m = _FIRST_TAG.match(text, i)
        return m.group(1) if m else None


# ---------------------------------------------------------------------------
# element tree (internal)


@dataclass
class _Element:
    name: str
    attrs: dict[str, str]
    location: Location
    children: list["_Element"] = field(default_factory=list)

    def attr(self, *names: str) -> str | None:
        for n in names:
            if n in self.attrs:
                return self.attrs[n]
        return None


class _TooDeep(Exception):
    """Raised by the start handler; carries the error diagnostic."""


_XML_DECL = re.compile(r"\s*<\?xml[^?]*\?>")


def _read_tree(text: str) -> tuple[list[_Element], ParseDiagnostic | None]:
    """Children of the document root, built while expat reads ``text``.

    A file whose root is not ``rdf:RDF`` is read inside a synthetic root
    (after any XML declaration) without disturbing line numbers.  On
    malformed XML, or on nesting deeper than ``MAX_DEPTH``, reading stops:
    the elements read so far are kept and the error is returned with them.
    """
    doc = _Element("", {}, Location(0, 0))
    stack = [doc]
    parser = expat.ParserCreate()
    parser.ordered_attributes = True

    def on_start(name: str, attrs: list[str]) -> None:
        location = Location(parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
        if len(stack) > MAX_DEPTH:
            raise _TooDeep(
                ParseDiagnostic(
                    Severity.ERROR,
                    f"elements nested deeper than {MAX_DEPTH} levels; reading stopped",
                    location,
                )
            )
        el = _Element(name, dict(zip(attrs[0::2], attrs[1::2])), location)
        stack[-1].children.append(el)
        stack.append(el)

    parser.StartElementHandler = on_start
    parser.EndElementHandler = lambda name: stack.pop()

    chunks = [text]
    if _sniff_root_name(text) != ROOT_ELEMENT:
        m = _XML_DECL.match(text)
        cut = m.end() if m else 0
        chunks = [text[:cut], f"<{ROOT_ELEMENT}>", text[cut:], f"</{ROOT_ELEMENT}>"]
    error = None
    try:
        for i, chunk in enumerate(chunks):
            parser.Parse(chunk, i == len(chunks) - 1)
    except expat.ExpatError as err:
        error = ParseDiagnostic(
            Severity.ERROR,
            f"malformed XML: {expat.ErrorString(err.code)}",
            Location(err.lineno, err.offset + 1),
        )
    except _TooDeep as deep:
        (error,) = deep.args
    top = doc.children
    if len(top) == 1 and top[0].name == ROOT_ELEMENT:
        return top[0].children, error
    return top, error


# ---------------------------------------------------------------------------
# interpretation


class _Interp:
    def __init__(self, source_name: str):
        self.builder = ModelBuilder(source_name)
        self.diags: list[ParseDiagnostic] = []

    def warn(self, el: _Element, message: str) -> None:
        self.diags.append(ParseDiagnostic(Severity.WARNING, message, el.location))

    def error(self, el: _Element, message: str) -> None:
        self.diags.append(ParseDiagnostic(Severity.ERROR, message, el.location))

    # -- helpers

    def subject_iri(self, el: _Element) -> Iri | None:
        raw = el.attr("rdf:ID", "rdf:about")
        if raw is None:
            self.error(el, f"{el.name} has neither rdf:ID nor rdf:about")
            return None
        try:
            return iri(raw)
        except ValueError as exc:
            self.error(el, f"bad identifier on {el.name}: {exc}")
            return None

    def reference(self, el: _Element) -> Iri | None:
        """Target of a link-style element: rdf:resource or one nested class."""
        raw = el.attr("rdf:resource")
        if raw is not None:
            try:
                return iri(raw)
            except ValueError as exc:
                self.error(el, f"bad reference on {el.name}: {exc}")
                return None
        for child in el.children:
            if child.name == "owl:Class":
                return self.parse_class(child)
            if child.name == "owl:Restriction":
                continue  # handled by the callers that allow it
            if child.name in _PROPERTY_ELEMENTS:
                return self.parse_property(child, _PROPERTY_ELEMENTS[child.name])
        self.warn(el, f"{el.name} has no rdf:resource and no nested declaration; skipped")
        return None

    def add_axiom_checked(self, el: _Element, ax_type, *names: Iri) -> None:
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

    def parse_class(self, el: _Element) -> Iri | None:
        subject = self.subject_iri(el)
        if subject is None:
            return None
        self.builder.declare_class(subject)
        for child in el.children:
            self.parse_class_child(subject, child)
        return subject

    def parse_class_child(self, subject: Iri, child: _Element) -> None:
        name = child.name
        if name == "rdfs:subClassOf":
            restriction = next(
                (c for c in child.children if c.name == "owl:Restriction"), None
            )
            if restriction is not None:
                self.parse_restriction(restriction)
                return
            target = self.reference(child)
            if target is not None:
                self.add_axiom_checked(child, SubClassOf, subject, target)
        elif name in ("owl:equivalentClass", "owl:sameAs"):
            target = self.reference(child)
            if target is not None:
                self.add_axiom_checked(child, EquivalentClass, subject, target)
        elif name == "owl:intersectionOf":
            self.parse_intersection(subject, child)
        elif name == "rdf:type":
            pass  # redundant typing assertion
        elif name.startswith(_KNOWN_PREFIXES):
            self.warn(child, f"unknown element {name} in class context; skipped")
        else:
            self.parse_class_link(subject, child)

    def parse_intersection(self, subject: Iri, el: _Element) -> None:
        if el.attr("rdf:parseType") != "Collection":
            self.warn(el, 'owl:intersectionOf without rdf:parseType="Collection"; skipped')
            return
        parts: list[Iri] = []
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

    def parse_class_link(self, subject: Iri, el: _Element) -> None:
        try:
            prop = iri(el.name)
        except ValueError as exc:
            self.warn(el, f"bad property element name: {exc}")
            return
        target = self.reference(el)
        if target is not None:
            self.add_axiom_checked(el, ClassLink, subject, prop, target)

    # -- properties

    def parse_property(self, el: _Element, kind: PropertyKind) -> Iri | None:
        subject = self.subject_iri(el)
        if subject is None:
            return None
        domain: Iri | None = None
        rng: Iri | None = None
        deferred: list[tuple[_Element, type[Axiom], Iri]] = []
        for child in el.children:
            name = child.name
            if name == "rdfs:domain":
                value = self.reference(child)
                if value is None:
                    continue
                if domain is not None and domain != value:
                    self.warn(
                        child,
                        f"property {subject} has multiple domains; keeping the first ({domain})",
                    )
                    continue
                domain = value
            elif name == "rdfs:range":
                value = self.range_reference(child, kind)
                if value is None:
                    continue
                if rng is not None and rng != value:
                    self.warn(
                        child,
                        f"property {subject} has multiple ranges; keeping the first ({rng})",
                    )
                    continue
                rng = value
            elif name == "rdfs:subPropertyOf":
                target = self.reference(child)
                if target is not None:
                    deferred.append((child, SubPropertyOf, target))
            elif name == "owl:inverseOf":
                target = self.reference(child)
                if target is not None:
                    deferred.append((child, InverseOf, target))
            elif name == "rdf:type":
                pass  # e.g. a transitive property re-typed as an object property
            elif name.startswith(_KNOWN_PREFIXES):
                self.warn(child, f"unknown element {name} in property context; skipped")
            else:
                self.warn(child, f"unexpected element {name} in property context; skipped")
        notes = self.builder.declare_property(PropertyDecl(subject, kind, domain, rng))
        for note in notes:
            self.warn(el, note)
        for child, ax_type, target in deferred:
            self.add_axiom_checked(child, ax_type, subject, target)
        return subject

    def range_reference(self, el: _Element, kind: PropertyKind) -> Iri | None:
        # Datatype ranges are opaque tokens; never treat them as classes.
        if kind is PropertyKind.DATATYPE:
            raw = el.attr("rdf:resource")
            if raw is None:
                self.warn(el, "rdfs:range on a datatype property needs rdf:resource; skipped")
                return None
            try:
                return iri(raw)
            except ValueError as exc:
                self.error(el, f"bad range token: {exc}")
                return None
        return self.reference(el)

    # -- restrictions

    def parse_restriction(self, el: _Element) -> None:
        on_prop: Iri | None = None
        filler: Iri | None = None
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


def parse_ontology(text: str, name: str = "<input>") -> tuple[OntologyModel, list[ParseDiagnostic]]:
    """Parse one document (auto-wrapped when the root is not ``rdf:RDF``).

    Always returns a model; callers must treat any error-severity diagnostic
    as a rejection of the parse.
    """
    forest, xml_error = _read_tree(text)
    interp = _Interp(name)
    if xml_error is not None:
        interp.diags.append(xml_error)
    interp.run(forest)
    return interp.builder.build(), interp.diags


# ---------------------------------------------------------------------------
# fact files

_IDENT = r"[^\s,()]+"
_FACT_LINE = re.compile(
    rf"(?:(?P<neg>not\s+)?isa\(\s*(?P<i_ind>{_IDENT})\s*,\s*(?P<i_cls>{_IDENT})\s*\)"
    rf"|link\(\s*(?P<l_sub>{_IDENT})\s*,\s*(?P<l_prop>{_IDENT})\s*,\s*(?P<l_obj>{_IDENT})\s*\)"
    rf"|feature\(\s*(?P<f_ind>{_IDENT})\s*,\s*(?P<f_feat>{_IDENT})\s*\))"
)


def parse_fact_base(text: str) -> tuple[FactBase, list[ParseDiagnostic]]:
    """Line-oriented facts: ``isa(a, B)``, ``not isa(a, B)``, ``link(a, p, b)``,
    ``feature(a, F)``.

    ``#`` starts a comment line; blank lines are ignored.  Malformed lines
    produce error diagnostics with their line number.  A membership asserted
    both ways raises :class:`ContradictionError` once the whole file is read:
    its ``location`` is the line and column of the first pair's second
    statement, and its ``diagnostics`` are those of the malformed lines.
    """
    base = FactBase()
    diags: list[ParseDiagnostic] = []
    contradiction: ContradictionError | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _FACT_LINE.fullmatch(line)
        if m is None:
            diags.append(
                ParseDiagnostic(
                    Severity.ERROR, f"malformed fact line: {line!r}", Location(lineno, 1)
                )
            )
            continue
        fact: Fact
        if m.group("i_ind") is not None:
            member = NegMembership if m.group("neg") else Membership
            fact = member(Iri(m.group("i_ind")), Iri(m.group("i_cls")))
        elif m.group("l_sub") is not None:
            fact = LinkFact(Iri(m.group("l_sub")), Iri(m.group("l_prop")), Iri(m.group("l_obj")))
        else:
            fact = FeatureExpected(Iri(m.group("f_ind")), Iri(m.group("f_feat")))
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


def render_fact_base(facts: list[Fact] | tuple[Fact, ...]) -> str:
    return "".join(format_fact(f) + "\n" for f in facts)


# ---------------------------------------------------------------------------
# debug printer (inverse of parse_ontology up to structural equality)


def _quoteattr(value: str) -> str:
    # Imported on use: xml.sax.saxutils pulls in urllib.request, http.client,
    # email and ssl, which every other command would pay for at start-up.
    from xml.sax.saxutils import quoteattr

    return quoteattr(value)


def _ref(name: Iri) -> str:
    return _quoteattr(f"#{name.value}")


def render_rdfxml(model: OntologyModel) -> str:
    """Serialize a model back into the subset; reparsing yields an equal model."""
    out = [f"<{ROOT_ELEMENT}>"]
    for cls in sorted(model.class_iris()):
        out.append(f"  <owl:Class rdf:ID={_quoteattr(cls.value)}/>")
    for name in sorted(model.properties):
        decl = model.properties[name]
        tag = _KIND_ELEMENTS[decl.kind]
        body = []
        if decl.domain is not None:
            body.append(f"    <rdfs:domain rdf:resource={_ref(decl.domain)}/>")
        if decl.range is not None:
            token = (
                _quoteattr(decl.range.value)
                if decl.kind is PropertyKind.DATATYPE
                else _ref(decl.range)
            )
            body.append(f"    <rdfs:range rdf:resource={token}/>")
        if body:
            out.append(f"  <{tag} rdf:ID={_quoteattr(name.value)}>")
            out.extend(body)
            out.append(f"  </{tag}>")
        else:
            out.append(f"  <{tag} rdf:ID={_quoteattr(name.value)}/>")
    for ax in model.axioms:
        out.extend(_render_axiom(ax, model))
    out.append(f"</{ROOT_ELEMENT}>")
    return "\n".join(out) + "\n"


def _render_axiom(ax: Axiom, model: OntologyModel) -> list[str]:
    if isinstance(ax, SubClassOf):
        return [
            f"  <owl:Class rdf:about={_ref(ax.sub)}>",
            f"    <rdfs:subClassOf rdf:resource={_ref(ax.sup)}/>",
            "  </owl:Class>",
        ]
    if isinstance(ax, EquivalentClass):
        return [
            f"  <owl:Class rdf:about={_ref(ax.a)}>",
            f"    <owl:equivalentClass rdf:resource={_ref(ax.b)}/>",
            "  </owl:Class>",
        ]
    if isinstance(ax, (SubPropertyOf, InverseOf)):
        first = ax.sub if isinstance(ax, SubPropertyOf) else ax.prop
        second = ax.sup if isinstance(ax, SubPropertyOf) else ax.inverse
        child = "rdfs:subPropertyOf" if isinstance(ax, SubPropertyOf) else "owl:inverseOf"
        decl = model.property(first)
        tag = _KIND_ELEMENTS[decl.kind if decl else PropertyKind.OBJECT]
        return [
            f"  <{tag} rdf:about={_ref(first)}>",
            f"    <{child} rdf:resource={_ref(second)}/>",
            f"  </{tag}>",
        ]
    if isinstance(ax, AllValuesFrom):
        return [
            "  <owl:Restriction>",
            f"    <owl:onProperty rdf:resource={_ref(ax.on_property)}/>",
            f"    <owl:allValuesFrom rdf:resource={_ref(ax.filler)}/>",
            "  </owl:Restriction>",
        ]
    if isinstance(ax, IntersectionOf):
        lines = [
            f"  <owl:Class rdf:about={_ref(ax.defined)}>",
            '    <owl:intersectionOf rdf:parseType="Collection">',
        ]
        lines.extend(f"      <owl:Class rdf:about={_ref(p)}/>" for p in ax.parts)
        lines.extend(["    </owl:intersectionOf>", "  </owl:Class>"])
        return lines
    if isinstance(ax, ClassLink):
        return [
            f"  <owl:Class rdf:about={_ref(ax.subject)}>",
            f"    <{ax.prop} rdf:resource={_ref(ax.obj)}/>",
            "  </owl:Class>",
        ]
    raise TypeError(f"unknown axiom: {ax!r}")
