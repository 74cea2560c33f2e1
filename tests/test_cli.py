"""End-to-end checks of the command line front end.

Every test drives ``owlrules.cli.main`` directly with an argv list and
captures stdout/stderr, which keeps the process boundary out of the loop
while still exercising the same code path as the console script.
"""

import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from conftest import CANONICAL_FILES, DATA_DIR, corpus_path, load_model, nested_subclass_chain
import owlrules
from owlrules import (
    CATEGORY_ORDER,
    ContradictionError,
    Pattern,
    RuleCategory,
    extract_all,
    merge,
    parse_fact_base,
    parse_ontology,
    run_fixpoint,
)
from owlrules.cli import (
    DEFAULT_CAP,
    EXIT_CAP_EXCEEDED,
    EXIT_CONTRADICTION,
    EXIT_MERGE_CONFLICT,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VIOLATIONS,
    build_arg_parser,
    main,
)

CAR_RULE_LINE = "IF Car(?x) THEN hasFeature(?x,Engine) and hasFeature(?x,Wheel)"

STRUCTURED_SCHEMA = {
    "type": "object",
    "required": ["version", "source", "rules"],
    "properties": {
        "version": {"const": 1},
        "source": {"type": "array", "items": {"type": "string"}},
        "rules": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "id",
                    "pattern",
                    "category",
                    "executable",
                    "if",
                    "then",
                    "provenance",
                ],
                "properties": {
                    "id": {"type": "string"},
                    "pattern": {"enum": [p.value for p in Pattern]},
                    "category": {"enum": [c.value for c in RuleCategory]},
                    "executable": {"type": "boolean"},
                    "if": {"type": "array", "minItems": 1},
                    "then": {"type": "array", "minItems": 1},
                    "provenance": {"type": "object"},
                },
            },
        },
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def owl(name):
    return str(corpus_path(name))


def facts(name):
    return str(corpus_path(name))


# ---------------------------------------------------------------------------
# extract


def test_extract_text_prints_single_golden_line(capsys):
    code, out, err = run_cli(capsys, "extract", owl("class_feature.owl"), "--format", "text")
    assert code == EXIT_OK
    assert out == CAR_RULE_LINE + "\n"
    assert err == ""


def test_extract_empty_ontology_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "extract", owl("empty.owl"))
    assert code == EXIT_OK
    assert out == ""
    assert err == ""


def test_an_ontology_without_rules_streams_an_empty_rules_array(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(corpus_path("empty.owl").parent)
    target = tmp_path / "rules.json"
    argv = ("extract", "empty.owl", "--format", "structured")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out == '{\n  "version": 1,\n  "source": [\n    "empty.owl"\n  ],\n  "rules": []\n}\n'
    assert run_cli(capsys, *argv, "--output", str(target)) == (EXIT_OK, "", "")
    assert target.read_text(encoding="utf-8") == out


def test_extract_text_merges_rule_sets_across_files(capsys):
    """Two independent fragments extract to the union of their rule lines."""
    code_a, out_a, _ = run_cli(capsys, "extract", owl("class_feature.owl"))
    code_b, out_b, _ = run_cli(capsys, "extract", owl("cooccurrence.owl"))
    code_ab, out_ab, _ = run_cli(
        capsys, "extract", owl("class_feature.owl"), owl("cooccurrence.owl")
    )
    assert code_a == code_b == code_ab == EXIT_OK
    assert set(out_ab.splitlines()) == set(out_a.splitlines()) | set(out_b.splitlines())
    # the co-occurrence fragment also satisfies the domain/range guard
    assert len(out_b.splitlines()) == 2


def test_extract_structured_emits_canonical_json(capsys):
    code, out, err = run_cli(
        capsys,
        "extract",
        owl("class_feature.owl"),
        owl("subproperty.owl"),
        "--format",
        "structured",
    )
    assert code == EXIT_OK
    assert err == ""
    doc = json.loads(out)
    jsonschema.validate(doc, STRUCTURED_SCHEMA)
    assert doc["source"] == sorted(doc["source"])
    assert [r["id"] for r in doc["rules"]] == sorted(r["id"] for r in doc["rules"])
    assert {r["pattern"] for r in doc["rules"]} == {"class-feature", "subproperty-lift"}


def test_extract_structured_byte_identical_across_file_orders(capsys):
    a, b = owl("class_feature.owl"), owl("subproperty.owl")
    _, first, _ = run_cli(capsys, "extract", a, b, "--format", "structured")
    _, second, _ = run_cli(capsys, "extract", b, a, "--format", "structured")
    assert first == second


def test_extract_missing_file_exits_parse_error(capsys, tmp_path):
    missing = str(tmp_path / "nope.owl")
    code, out, err = run_cli(capsys, "extract", missing)
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert "nope.owl" in err


def test_extract_malformed_xml_reports_located_error(capsys, tmp_path):
    bad = tmp_path / "bad.owl"
    bad.write_text("<owl:Class rdf:ID='#A'>\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "extract", str(bad))
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    line = err.splitlines()[0]
    assert line.startswith(f"ERROR {bad}:")
    # location is file:line:col
    assert line.split()[1].count(":") >= 2


def test_extract_text_before_the_root_is_a_located_error(capsys, tmp_path):
    bad = tmp_path / "junk.owl"
    bad.write_text('junk<rdf:RDF><owl:Class rdf:ID="A"/></rdf:RDF>', encoding="utf-8")
    code, out, err = run_cli(capsys, "extract", str(bad))
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err.splitlines() == [f"ERROR {bad}:1:5 malformed XML: not well-formed (invalid token)"]


def test_extract_an_element_left_open_is_a_located_error_at_the_end(capsys, tmp_path):
    bad = tmp_path / "open.owl"
    bad.write_text('<owl:Class rdf:ID="A">\n  <rdfs:subClassOf rdf:resource="#B"/>\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "extract", str(bad))
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err.splitlines() == [f"ERROR {bad}:3:1 malformed XML: no element found"]


def test_every_ontology_file_is_read_and_reported_before_the_run_fails(capsys, tmp_path):
    missing = tmp_path / "missing.owl"
    malformed = tmp_path / "open.owl"
    malformed.write_text('<owl:Class rdf:ID="A">', encoding="utf-8")
    argv = ["extract", str(missing), str(malformed), str(DATA_DIR / "patterns.owl")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    # One line per bad file, in argument order; the good file adds nothing.
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"ERROR {missing}: ")
    assert lines[1] == f"ERROR {malformed}:1:23 malformed XML: no element found"


def test_extract_merge_conflict_across_files_exits_2(capsys, tmp_path):
    first = tmp_path / "first.owl"
    second = tmp_path / "second.owl"
    first.write_text(
        '<owl:DatatypeProperty rdf:ID="p">\n'
        '<rdfs:domain rdf:resource="#A"/>\n'
        '<rdfs:range rdf:resource="xs:string"/>\n'
        "</owl:DatatypeProperty>\n",
        encoding="utf-8",
    )
    second.write_text('<owl:SymmetricProperty rdf:ID="p"/>\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "extract", str(first), str(second))
    assert code == EXIT_MERGE_CONFLICT
    assert out == ""
    assert "conflicting kinds" in err


# tests/data/patterns.owl fires all thirteen patterns and both guard warnings.
# The expected outputs were captured before the scanners were rewritten and
# pin rule text, ids, provenance and warning order byte for byte.
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("structured", "json")])
def test_extract_output_matches_golden_file(capsys, monkeypatch, fmt, suffix):
    monkeypatch.chdir(DATA_DIR)  # the structured document names its sources as given
    code, out, err = run_cli(capsys, "extract", "patterns.owl", "--format", fmt)
    assert code == EXIT_OK
    assert out == (DATA_DIR / f"patterns.extract.{suffix}").read_text(encoding="utf-8")
    assert err == (DATA_DIR / "patterns.extract.err").read_text(encoding="utf-8")


def test_extract_too_deep_nesting_is_a_located_error(capsys, tmp_path):
    deep = tmp_path / "deep.owl"
    deep.write_text(nested_subclass_chain(3000), encoding="utf-8")
    code, out, err = run_cli(capsys, "extract", str(deep))
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert "Traceback" not in err
    first = err.splitlines()[0]
    assert first.startswith(f"ERROR {deep}:")
    assert "nested deeper than" in first


def test_extract_can_drop_nonexecutable_rules(capsys):
    code, out, _ = run_cli(capsys, "extract", owl("sole_partof_resource.owl"))
    assert code == EXIT_OK
    assert out.splitlines() == ["IF solePart(House,City) THEN morePartsExpected(City)"]
    code, out, _ = run_cli(
        capsys, "extract", owl("sole_partof_resource.owl"), "--no-nonexecutable"
    )
    assert code == EXIT_OK
    assert out == ""


def _readme_block(pattern: str) -> str:
    """The body of the README's fenced block that ``pattern`` leads into."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    found = re.search(pattern + r"\n(.*?)^```", readme, re.M | re.S)
    assert found, f"README has no block for {pattern!r}"
    return found.group(1)


def test_the_readme_region_example_runs_as_printed(capsys, monkeypatch, tmp_path):
    # region.owl mentions subAreaOf in class links before it declares it.
    for name in ("region.owl", "region.facts"):
        body = _readme_block(rf"`{re.escape(name)}`:\n+```\w*")
        (tmp_path / name).write_text(body, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for command in ("extract region.owl", "infer region.owl --facts region.facts"):
        printed = _readme_block(rf"^```console\n\$ owlrules {re.escape(command)}")
        assert run_cli(capsys, *command.split()) == (EXIT_OK, printed, ""), command


# ---------------------------------------------------------------------------
# classify


def test_classify_symmetric_file_counts(capsys):
    code, out, err = run_cli(capsys, "classify", owl("symmetric.owl"))
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert lines[:5] == [
        "identifying: 0",
        "specifying: 0",
        "unobvious: 0",
        "meaning-enriching: 2",
        "",
    ]
    assert len(lines) == 7
    for detail in lines[5:]:
        assert detail.startswith("meaning-enriching symmetric IF ")


def test_classify_empty_file_all_zeroes(capsys):
    code, out, _ = run_cli(capsys, "classify", owl("empty.owl"))
    assert code == EXIT_OK
    assert out.splitlines() == [f"{c.value}: 0" for c in CATEGORY_ORDER]


def test_classify_unparsable_file_exits_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.owl"
    bad.write_text("<rdf:RDF>\n<owl:Class rdf:ID='A'>\n</rdf:RDF>\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith(f"ERROR {bad}:3:3 malformed XML: mismatched tag")


def test_classify_merged_corpus_matches_library_tally(capsys):
    """Counts over the merged corpus agree with a direct library recount.

    Merging every fragment into one ontology is not the same as pooling
    per-file extractions: shared property names collapse (with warnings)
    and guards can fire across fragment boundaries.  The CLI must stay
    consistent with ``extract_all`` on the merged model either way.
    """
    files = [owl(n) for n in CANONICAL_FILES if n.endswith(".owl")]
    code, out, err = run_cli(capsys, "classify", *files)
    assert code == EXIT_OK

    models = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            model, diags = parse_ontology(handle.read(), name=path)
        assert not any(d.severity.name == "ERROR" for d in diags)
        models.append(model)
    report = extract_all(merge(models))
    expected = {
        c: sum(1 for r in report.rules if r.category is c) for c in CATEGORY_ORDER
    }

    lines = out.splitlines()
    assert lines[: len(CATEGORY_ORDER)] == [
        f"{c.value}: {expected[c]}" for c in CATEGORY_ORDER
    ]
    detail = lines[len(CATEGORY_ORDER) + 1 :]
    assert len(detail) == len(report.rules)
    # detail lines are grouped in category order
    seen = [line.split()[0] for line in detail]
    assert seen == sorted(seen, key=[c.value for c in CATEGORY_ORDER].index)
    # the shared liveIn property collapses across fragments, with a warning
    assert err.splitlines() == [
        "WARNING property liveIn has multiple domains (Man, Fox); keeping Fox",
        "WARNING property liveIn has multiple ranges (House, Hole); keeping Hole",
    ]


def test_merge_warnings_reach_stderr_on_every_call_in_one_process(tmp_path):
    """Each call of ``main`` writes the merge notes to the current stderr."""
    zebra, apple = tmp_path / "a.owl", tmp_path / "c.owl"
    for path, domain in ((zebra, "Zebra"), (apple, "Apple")):
        path.write_text(
            f'<owl:ObjectProperty rdf:ID="p"><rdfs:domain rdf:resource="#{domain}"/>'
            "</owl:ObjectProperty>\n",
            encoding="utf-8",
        )
    warning = "WARNING property p has multiple domains (Zebra, Apple); keeping Apple\n"
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["extract", str(zebra), str(apple)]) == EXIT_OK
        assert err.getvalue() == warning


def test_classify_structured_equals_extract_structured(capsys):
    args = (owl("intersection.owl"), owl("inverse.owl"), "--format", "structured")
    _, via_extract, _ = run_cli(capsys, "extract", *args)
    _, via_classify, _ = run_cli(capsys, "classify", *args)
    assert via_classify == via_extract


# ---------------------------------------------------------------------------
# infer


def test_infer_transitive_chain_derives_link(capsys):
    code, out, err = run_cli(
        capsys,
        "infer",
        owl("transitive_resource.owl"),
        "--facts",
        facts("facts_subarea.txt"),
    )
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    derived = lines[lines.index("derived:") + 1 : lines.index("violations:")]
    assert derived == ["link(latgale, subAreaOf, eu)"]
    assert lines[-1] == "summary: iterations=2 derived=1 violations=0 converged=yes"


def test_infer_without_executable_rules_reports_zero(capsys, tmp_path):
    empty_facts = tmp_path / "none.txt"
    empty_facts.write_text("# nothing to start from\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "infer", owl("sole_partof_resource.owl"), "--facts", str(empty_facts)
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "derived:",
        "violations:",
        "summary: iterations=1 derived=0 violations=0 converged=yes",
    ]


def test_infer_reports_violation_without_strict(capsys):
    code, out, _ = run_cli(
        capsys, "infer", owl("allvaluesfrom.owl"), "--facts", facts("facts_pass.txt")
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    violations = lines[lines.index("violations:") + 1 : -1]
    assert len(violations) == 1
    assert violations[0].startswith("link(anna, hasPass, p1) [allvaluesfrom-")
    assert lines[-1].endswith("violations=1 converged=yes")


def test_infer_strict_turns_violations_into_exit_5(capsys):
    code, out, _ = run_cli(
        capsys,
        "infer",
        owl("allvaluesfrom.owl"),
        "--facts",
        facts("facts_pass.txt"),
        "--strict",
    )
    assert code == EXIT_VIOLATIONS
    assert "link(anna, hasPass, p1)" in out


def test_infer_cap_exceeded_exits_4(capsys):
    code, out, _ = run_cli(
        capsys,
        "infer",
        owl("transitive_resource.owl"),
        "--facts",
        facts("facts_subarea.txt"),
        "--cap",
        "1",
    )
    assert code == EXIT_CAP_EXCEEDED
    assert out.splitlines()[-1].endswith("converged=no")


def test_infer_missing_facts_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["infer", owl("transitive_resource.owl")])
    assert exc_info.value.code == 2
    assert "--facts" in capsys.readouterr().err


def test_cap_below_one_rejected(capsys):
    code, _, err = run_cli(
        capsys,
        "infer",
        owl("transitive_resource.owl"),
        "--facts",
        facts("facts_subarea.txt"),
        "--cap",
        "0",
    )
    assert code == EXIT_MERGE_CONFLICT
    assert "cap must be positive" in err


def test_infer_malformed_fact_line_exits_1(capsys, tmp_path):
    bad = tmp_path / "facts.txt"
    bad.write_text("link(a, subAreaOf, b)\nnot a fact\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "infer", owl("transitive_resource.owl"), "--facts", str(bad)
    )
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert ":2:" in err


def test_infer_contradictory_fact_file_exits_3(capsys, tmp_path):
    both = tmp_path / "facts.txt"
    both.write_text("isa(anna, Citizen)\nnot isa(anna, Citizen)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "infer", owl("allvaluesfrom.owl"), "--facts", str(both))
    assert code == EXIT_CONTRADICTION
    assert out == ""
    assert err.startswith(f"ERROR {both}:2:1 contradiction on (anna, Citizen): ")
    assert err.count("\n") == 1
    assert "anna" in err and "Traceback" not in err


def test_infer_reports_malformed_fact_lines_before_a_contradiction(capsys, tmp_path):
    mixed = tmp_path / "facts.txt"
    mixed.write_text(
        "isa(anna Citizen\nisa(anna, Citizen)\nnot isa(anna, Citizen)\nlink(a b)\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "infer", owl("allvaluesfrom.owl"), "--facts", str(mixed))
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    lines = err.splitlines()
    assert [line.split(" ", 2)[:2] for line in lines] == [
        ["ERROR", f"{mixed}:1:1"],
        ["ERROR", f"{mixed}:4:1"],
        ["ERROR", f"{mixed}:3:1"],
    ]
    assert "malformed fact line" in lines[0] and "malformed fact line" in lines[1]
    assert lines[2].startswith(f"ERROR {mixed}:3:1 contradiction on (anna, Citizen): ")


def test_infer_contradiction_exit_code(capsys, monkeypatch):
    def explode(rules, base, cap):
        raise ContradictionError("membership asserted both ways for john")

    monkeypatch.setattr("owlrules.cli.run_fixpoint", explode)
    code, out, err = run_cli(
        capsys,
        "infer",
        owl("transitive_resource.owl"),
        "--facts",
        facts("facts_subarea.txt"),
    )
    assert code == EXIT_CONTRADICTION
    assert out == ""
    assert "both ways" in err


# Inputs and expected `infer` output live in tests/data: a 40-link chain
# under one transitive property, and a fixture that combines the corpus's
# intersection, subproperty, symmetric, inverse and allValuesFrom shapes.
# The expected files pin the canonical order byte for byte: derived facts
# round by round, sorted by text within a round; violations sorted by text.
@pytest.mark.parametrize("name", ["chain40", "combined"])
def test_infer_output_matches_golden_file(capsys, name):
    code, out, err = run_cli(
        capsys, "infer", str(DATA_DIR / f"{name}.owl"), "--facts", str(DATA_DIR / f"{name}.facts")
    )
    assert code == EXIT_OK
    assert err == ""
    assert out == (DATA_DIR / f"{name}.infer.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["chain40", "combined"])
def test_infer_output_does_not_depend_on_the_hash_seed(name):
    src = str(Path(owlrules.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "owlrules.cli", "infer", str(DATA_DIR / f"{name}.owl")]
    argv += ["--facts", str(DATA_DIR / f"{name}.facts")]
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1] == (DATA_DIR / f"{name}.infer.txt").read_bytes()


@pytest.mark.parametrize("name", ["chain40", "combined"])
def test_infer_output_does_not_depend_on_the_fact_file_order(capsys, tmp_path, name):
    lines = (DATA_DIR / f"{name}.facts").read_text(encoding="utf-8").splitlines(keepends=True)
    expected = (DATA_DIR / f"{name}.infer.txt").read_text(encoding="utf-8")
    rng = random.Random(name)
    for turn in range(3):
        rng.shuffle(lines)
        shuffled = tmp_path / f"{turn}.facts"
        shuffled.write_text("".join(lines), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "infer", str(DATA_DIR / f"{name}.owl"), "--facts", str(shuffled)
        )
        assert (code, err) == (EXIT_OK, "")
        assert out == expected


def test_a_derived_contradiction_reads_the_same_whatever_the_fact_order():
    # Both individuals are men, so the intersection rule derives isa(_, Male)
    # and isa(_, Human) for each in the first round; two of those four facts
    # contradict a negation.  The first in canonical order is reported.
    model = load_model("intersection.owl")
    rules = [r for r in extract_all(model).rules if r.executable]
    lines = ["isa(john, Man)", "isa(tom, Man)", "not isa(tom, Human)", "not isa(john, Male)"]
    messages = set()
    for order in itertools.permutations(lines):
        base, diags = parse_fact_base("\n".join(order) + "\n")
        assert diags == []
        with pytest.raises(ContradictionError) as exc:
            run_fixpoint(rules, base, DEFAULT_CAP)
        messages.add(str(exc.value))
    assert messages == {
        f"contradiction on (john, Male): asserted and negated (sources: initial, {rules[0].id})"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["infer", "--facts", "f.txt", "--format", "structured"],
        ["infer", "--facts", "f.txt", "--no-nonexecutable"],
        ["extract", "--cap", "3"],
        ["extract", "--strict"],
        ["extract", "--facts", "f.txt"],
        ["classify", "--cap", "3"],
        ["classify", "--strict"],
        ["classify", "--facts", "f.txt"],
    ],
)
def test_flags_of_other_subcommands_are_usage_errors(capsys, argv):
    # argparse rejects the flag before any file is read
    with pytest.raises(SystemExit) as exc_info:
        main([argv[0], owl("intersection.owl"), *argv[1:]])
    assert exc_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# shared plumbing


def test_output_flag_writes_file_and_keeps_stdout_clean(capsys, tmp_path):
    target = tmp_path / "rules.txt"
    code, out, _ = run_cli(
        capsys, "extract", owl("class_feature.owl"), "--output", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text(encoding="utf-8") == CAR_RULE_LINE + "\n"


def test_warnings_go_to_stderr_stdout_stays_machine_readable(capsys, tmp_path):
    noisy = tmp_path / "noisy.owl"
    noisy.write_text(
        '<owl:Thing rdf:ID="#x"/>\n<owl:Class rdf:ID="#A"/>\n', encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "extract", str(noisy), "--format", "structured")
    assert code == EXIT_OK
    assert "WARNING" in err
    json.loads(out)  # stdout must stay pure JSON


def test_repeated_invocation_is_byte_identical(capsys):
    args = ("classify", owl("intersection.owl"), "--format", "structured")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_every_golden_input_reads_the_same_on_a_second_call_in_one_process(capsys, monkeypatch):
    # ``main`` keeps its parser, and the engine its compiled rule shapes, from
    # one call to the next; a usage error between the calls leaves them sound.
    monkeypatch.chdir(DATA_DIR)
    calls = [
        (["extract", "patterns.owl"], "patterns.extract.txt"),
        (["infer", "combined.owl", "--facts", "combined.facts"], "combined.infer.txt"),
        (["classify", "patterns.owl"], None),
        (["extract", "patterns.owl", "--format", "structured"], "patterns.extract.json"),
        (["infer", "chain40.owl", "--facts", "chain40.facts"], "chain40.infer.txt"),
        (["classify", "patterns.owl", "--format", "structured"], "patterns.extract.json"),
    ]
    answers = []
    for _ in range(2):
        for argv, golden in calls:
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_OK
            if golden is not None:
                assert out == Path(golden).read_text(encoding="utf-8")
            answers.append((code, out, err))
            with pytest.raises(SystemExit) as exc_info:
                main(["infer", "combined.owl", "--format", "text"])
            assert exc_info.value.code == 2
            assert "required: --facts" in capsys.readouterr().err
    assert answers[: len(calls)] == answers[len(calls) :]


GOLDEN_CALLS = [
    ["extract", "patterns.owl"],
    ["extract", "patterns.owl", "--format", "structured"],
    ["classify", "patterns.owl"],
    ["classify", "patterns.owl", "--format", "structured"],
    ["infer", "combined.owl", "--facts", "combined.facts"],
    ["infer", "chain40.owl", "--facts", "chain40.facts"],
]


@pytest.mark.parametrize(
    "argv",
    GOLDEN_CALLS,
    ids=["extract", "extract-structured", "classify", "classify-structured", "combined", "chain40"],
)
def test_output_file_holds_the_bytes_of_stdout_on_every_golden_input(
    capsys, monkeypatch, tmp_path, argv
):
    monkeypatch.chdir(DATA_DIR)  # the structured document names its sources as given
    target = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK and out
    assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", err)
    assert target.read_bytes() == out.encode("utf-8")


def write_star(path: Path, n: int) -> Path:
    """One hub class between ``n`` subclasses and ``n`` superclasses: n * n
    subclass-transitivity rules, about 1 kB of structured document each."""
    subs = "".join(
        f'<owl:Class rdf:ID="Sub{i}">\n<rdfs:subClassOf rdf:resource="#Hub"/>\n</owl:Class>\n'
        for i in range(n)
    )
    sups = "".join(f'<rdfs:subClassOf rdf:resource="#Sup{j}"/>\n' for j in range(n))
    path.write_text(f'{subs}<owl:Class rdf:ID="Hub">\n{sups}</owl:Class>\n', encoding="utf-8")
    return path


def test_a_streamed_document_peaks_below_its_own_size(capsys, tmp_path):
    # 1,600 rules, a 1.7 MB document, from 82 axioms.  Held whole (and
    # joined, and encoded), the document alone would reach the bound.
    star = write_star(tmp_path / "star.owl", 40)
    target = tmp_path / "rules.json"
    argv = ["extract", str(star), "--format", "structured", "--output", str(target)]
    assert main(argv) == EXIT_OK  # the parser and the rule shapes are built outside the trace
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and capsys.readouterr() == ("", "")
    size = target.stat().st_size
    assert size >= 1_000_000
    assert peak < size, (peak, size)


def test_build_arg_parser_returns_a_fresh_parser():
    assert build_arg_parser() is not build_arg_parser()


@pytest.mark.parametrize("command", ["extract", "infer"])
def test_an_ontology_file_that_is_not_utf8_exits_1(capsys, tmp_path, command):
    bad = tmp_path / "bad.owl"
    bad.write_bytes(b"<owl:Class rdf:ID='A'/>\n\xff\n")
    argv = [command, str(bad)]
    if command == "infer":
        argv += ["--facts", facts("facts_subarea.txt")]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith(f"ERROR {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_a_fact_file_that_is_not_utf8_exits_1(capsys, tmp_path):
    bad = tmp_path / "facts.txt"
    bad.write_bytes(b"link(latgale, subAreaOf, latvia)\n\xff\n")
    code, out, err = run_cli(capsys, "infer", owl("transitive_resource.owl"), "--facts", str(bad))
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith(f"ERROR {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_a_fragment_with_a_byte_order_mark_and_declaration_reads_as_without(capsys, tmp_path):
    text = '<?xml version="1.0" encoding="UTF-8"?>\n' + Path(owl("symmetric.owl")).read_text(
        encoding="utf-8"
    )
    plain, marked = tmp_path / "plain.owl", tmp_path / "marked.owl"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    expected = run_cli(capsys, "extract", str(plain))
    assert expected[0] == EXIT_OK and expected[1]
    assert run_cli(capsys, "extract", str(marked)) == expected


def test_a_fact_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    text = Path(facts("facts_subarea.txt")).read_text(encoding="utf-8")
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    ontology = owl("transitive_resource.owl")
    expected = run_cli(capsys, "infer", ontology, "--facts", str(plain))
    assert expected[0] == EXIT_OK and "derived:" in expected[1]
    assert run_cli(capsys, "infer", ontology, "--facts", str(marked)) == expected


@pytest.mark.parametrize(
    "command", ["extract", "infer", "extract-structured", "classify", "classify-structured"]
)
@pytest.mark.parametrize("target", ["missing/dir/out.txt", "."], ids=["missing-dir", "a-directory"])
def test_an_unwritable_output_exits_1_with_nothing_on_stdout(capsys, tmp_path, command, target):
    output = tmp_path / target
    name, _, fmt = command.partition("-")
    argv = [name, owl("transitive_resource.owl"), "--output", str(output)]
    if name == "infer":
        argv += ["--facts", facts("facts_subarea.txt")]
    if fmt:
        argv += ["--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith(f"ERROR {output}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_stdout_closed_by_its_reader_exits_1_without_a_traceback(tmp_path):
    # 400 rules: a document far larger than a pipe's buffer, so the writer
    # still has most of it to write when the reader goes.
    star = write_star(tmp_path / "star.owl", 20)
    src = str(Path(owlrules.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "owlrules.cli", "extract", str(star), "--format", "structured"]
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_PARSE_ERROR
    err = err.decode()
    assert err.startswith("ERROR <stdout>: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_default_cap_is_large_enough_to_stay_out_of_the_way():
    assert DEFAULT_CAP >= 10000


def test_importing_the_cli_leaves_the_network_stack_unloaded():
    # xml.sax.saxutils imports urllib.request, which pulls in http.client,
    # email and ssl: start-up time for every command.  Nothing logs, so
    # logging is start-up time spent for nothing too.  dataclasses (and the
    # inspect it imports) would build classes by generating their methods.
    src = str(Path(owlrules.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    unloaded = ("xml.sax.saxutils", "http.client", "logging", "dataclasses", "inspect")
    probe = (
        "import sys, owlrules.cli; owlrules.cli.build_arg_parser(); "
        f"print(*sorted(m for m in {unloaded!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
