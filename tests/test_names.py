"""Every name the library hands out is an exact ``str``, never a subclass.

CPython's fast paths for hashing, comparing and formatting strings apply
only to exact ``str``; a subclass that crept back into any stage would make
every later stage slower without changing an output byte.  So each stage's
output is checked on every ontology and fact file under ``tests/``.
"""

from pathlib import Path

import pytest

from owlrules import (
    Pattern,
    extract_all,
    has_errors,
    merge,
    parse_fact_base,
    parse_ontology,
    parse_structured,
    render_structured,
    run_fixpoint,
    schema_closure,
)

TESTS = Path(__file__).parent
DIRS = ("data", "corpus")
SCHEMA = (Pattern.SUBCLASS_TRANSITIVITY, Pattern.EQUIVALENCE_INHERITANCE)


def _ontologies(directory: str) -> list[Path]:
    return sorted((TESTS / directory).glob("*.owl"))


def _fact_files(directory: str) -> list[Path]:
    return sorted(
        p for p in (TESTS / directory).iterdir()
        if p.suffix == ".facts" or p.name.startswith("facts_")
    )


def _parse(path: Path):
    model, diags = parse_ontology(path.read_text(encoding="utf-8"), name=path.name)
    assert not has_errors(diags), path.name
    return model


def _inexact(names) -> list:
    """The names among ``names`` (None skipped) that are not exact ``str``."""
    return [(n, type(n)) for n in names if n is not None and type(n) is not str]


def _model_names(model) -> list:
    names = list(model.classes)
    for key, decl in model.properties.items():
        names += [key, decl.iri, decl.domain, decl.range]
    for ax in model.axioms:
        for field in ax[1:]:
            names += field if isinstance(field, tuple) else [field]
    return names


def _fact_names(facts) -> list:
    return [v for fact in facts for v in fact[1:] if not isinstance(v, bool)]


@pytest.mark.parametrize("directory", DIRS)
def test_models_and_their_merge_hold_exact_str_names(directory):
    models = [_parse(p) for p in _ontologies(directory)]
    for path, model in zip(_ontologies(directory), models):
        assert not _inexact(_model_names(model)), path.name
    merged = merge(models)
    assert merged.axioms and not _inexact(_model_names(merged))


@pytest.mark.parametrize("directory", DIRS)
def test_fact_files_hold_exact_str_names(directory):
    for path in _fact_files(directory):
        base, diags = parse_fact_base(path.read_text(encoding="utf-8"))
        assert not has_errors(diags), path.name
        assert len(base) and not _inexact(_fact_names(base)), path.name


@pytest.mark.parametrize("directory", DIRS)
def test_rule_names_are_exact_str_extracted_and_read_back(directory):
    for path in _ontologies(directory):
        rules = extract_all(_parse(path)).rules
        assert not _inexact(n for r in rules for n in r.names), path.name
        read, _ = parse_structured(render_structured(rules, (path.name,)))
        assert read == rules
        assert not _inexact(n for r in read for n in r.names), path.name
    golden_json = TESTS / "data" / "patterns.extract.json"
    golden, _ = parse_structured(golden_json.read_text(encoding="utf-8"))
    assert golden and not _inexact(n for r in golden for n in r.names)


@pytest.mark.parametrize("directory", DIRS)
def test_derived_facts_violations_and_closure_edges_are_exact_str(directory):
    derived = violations = edges = 0
    facts = [
        parse_fact_base(p.read_text(encoding="utf-8"))[0] for p in _fact_files(directory)
    ]
    for path in _ontologies(directory):
        model = _parse(path)
        rules = extract_all(model).rules
        executable = [r for r in rules if r.executable]
        for base in facts:
            result = run_fixpoint(executable, base, cap=1000)
            assert not _inexact(_fact_names(f for f, _ in result.derived)), path.name
            assert not _inexact(_fact_names(f for f, _ in result.violations)), path.name
            derived += len(result.derived)
            violations += len(result.violations)
        closure = schema_closure(model, [r for r in rules if r.pattern in SCHEMA])
        assert not _inexact(n for ax in closure for n in (ax.sub, ax.sup)), path.name
        edges += len(closure)
    assert derived and violations and edges  # every check above saw names

