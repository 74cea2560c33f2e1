"""Instance facts: the kinds, their fact-file spelling, and the fact base.

Facts sit between the two halves of the pipeline: ``parser.parse_fact_base``
reads them from a fact file, and ``engine.run_fixpoint`` chains rules over
them.  A fact is a ``Value`` tuple ``(kind, *names)``, so it hashes and
compares in C; ``FACT_SYNTAX`` gives each kind its spelling in a fact file,
which ``format_fact`` writes and the parser reads.
"""

from __future__ import annotations

from .model import Value


class ContradictionError(Exception):
    """A membership and its negation name the same (individual, class) pair."""

    # The parser.Location of the second statement when a fact file makes both,
    # and the diagnostics of the file's malformed lines; None and () for a
    # contradiction derived by rules.
    location = None
    diagnostics = ()


class Fact:
    __slots__ = ()


class Membership(Fact, Value):
    __slots__ = ()
    __match_args__ = ("individual", "cls")


class NegMembership(Fact, Value):
    __slots__ = ()
    __match_args__ = ("individual", "cls")


class LinkFact(Fact, Value):
    """``obj_is_class`` is true when the object names a class rather than an
    individual (the symmetric/inverse shapes conclude links that point at a
    class)."""

    __slots__ = ()
    __match_args__ = ("subject", "prop", "obj", "obj_is_class")

    def __new__(cls, subject: str, prop: str, obj: str, obj_is_class: bool = False) -> "LinkFact":
        return tuple.__new__(cls, (cls, subject, prop, obj, obj_is_class))


class FeatureExpected(Fact, Value):
    __slots__ = ()
    __match_args__ = ("individual", "feature")


# The fact-file spelling of each fact kind, read by ``format_fact`` and by
# ``parser.parse_fact_base``: its name and the number of names it takes.  A
# class-flagged link is written as the unflagged one.
FACT_SYNTAX = {
    Membership: ("isa", 2),
    NegMembership: ("not isa", 2),
    LinkFact: ("link", 3),
    FeatureExpected: ("feature", 2),
}


def format_fact(fact: Fact) -> str:
    syntax = FACT_SYNTAX.get(type(fact))
    if syntax is None:
        raise TypeError(f"unknown fact: {fact!r}")
    name, arity = syntax
    return f"{name}({', '.join(fact[1 : arity + 1])})"


class FactBase:
    """Duplicate-free fact store that remembers which rule derived what.

    One insertion-ordered dict maps each fact to the id of the rule that
    derived it, or to None for a fact given initially.  Two fact bases are
    equal when they hold the same facts from the same sources.
    """

    def __init__(self, facts: tuple[Fact, ...] | list[Fact] = ()):
        self._sources: dict[Fact, str | None] = {}
        for f in facts:
            self.add(f)

    @property
    def sources(self) -> dict[Fact, str | None]:
        """The dict itself, for a caller that adds facts in bulk; it calls
        ``check_contradiction`` on each fact first, as ``add`` does."""
        return self._sources

    def add(self, fact: Fact, derived_by: str | None = None) -> bool:
        if fact in self._sources:
            return False
        self.check_contradiction(fact, derived_by)
        self._sources[fact] = derived_by
        return True

    def check_contradiction(self, fact: Fact, derived_by: str | None) -> None:
        """Raise ``ContradictionError`` if the base holds ``fact``'s negation."""
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

    def __eq__(self, other: object) -> bool:
        return self._sources == other._sources if isinstance(other, FactBase) else NotImplemented

    __hash__ = None  # a fact base grows, so it is not hashable

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._sources

    def __iter__(self):
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)
