"""Command line front end: ``owlrules <extract|classify|infer> ...``.

Exit codes: 0 success, 1 parse error, 2 merge conflict (or bad usage),
3 contradiction in the fact base (1 when the fact file also has a malformed
line), 4 iteration cap exceeded, 5 integrity violations under --strict.
Diagnostics go to stderr as ``LEVEL file:line:col message``; results go to
stdout or --output.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .engine import ContradictionError, format_fact, run_fixpoint
from .extract import extract_all
from .model import MergeConflictError, OntologyModel, merge
from .parser import (
    format_diagnostic,
    has_errors,
    parse_fact_base,
    parse_ontology,
)
from .rules import CATEGORY_ORDER, Rule, render_structured, render_text

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_MERGE_CONFLICT = 2
EXIT_CONTRADICTION = 3
EXIT_CAP_EXCEEDED = 4
EXIT_VIOLATIONS = 5

DEFAULT_CAP = 10000


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owlrules",
        description="Extract, classify, and run IF-THEN rules from OWL subset files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("extract", cmd_extract, "print the rules found in the ontology files"),
        ("classify", cmd_classify, "group extracted rules by category"),
        ("infer", cmd_infer, "forward-chain executable rules over a fact file"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(run=run)
        cmd.add_argument("files", nargs="+", help="ontology files (RDF/XML subset)")
        cmd.add_argument("--output", metavar="FILE", help="write results here instead of stdout")
        if name == "infer":
            cmd.add_argument("--facts", metavar="FILE", required=True, help="instance fact file")
            cmd.add_argument(
                "--cap",
                type=int,
                default=DEFAULT_CAP,
                metavar="N",
                help=f"iteration cap for inference (default: {DEFAULT_CAP})",
            )
            cmd.add_argument(
                "--strict",
                action="store_true",
                help="exit 5 when integrity violations are reported",
            )
        else:
            cmd.add_argument(
                "--format",
                choices=["text", "structured"],
                default="text",
                help="output format (default: text)",
            )
            cmd.add_argument(
                "--no-nonexecutable",
                action="store_true",
                help="drop non-executable rules from the output",
            )
    return parser


# ---------------------------------------------------------------------------
# pipeline pieces


def _load_models(paths: list[str]) -> tuple[list[OntologyModel], bool]:
    models = []
    failed = False
    for path in paths:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"ERROR {path}: {exc}", file=sys.stderr)
            failed = True
            continue
        model, diags = parse_ontology(text, name=path)
        for diag in diags:
            print(format_diagnostic(diag, path), file=sys.stderr)
        if has_errors(diags):
            failed = True
        else:
            models.append(model)
    return models, failed


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.output:
        Path(args.output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _extract_rules(
    paths: list[str], executable_only: bool
) -> tuple[list[Rule], OntologyModel] | int:
    models, failed = _load_models(paths)
    if failed:
        return EXIT_PARSE_ERROR
    try:
        model = merge(models)
    except MergeConflictError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return EXIT_MERGE_CONFLICT
    report = extract_all(model)
    for warning in report.warnings:
        print(f"WARNING {warning}", file=sys.stderr)
    rules = report.rules
    if executable_only:
        rules = [r for r in rules if r.executable]
    return rules, model


# ---------------------------------------------------------------------------
# subcommands


def cmd_extract(args: argparse.Namespace) -> int:
    got = _extract_rules(args.files, args.no_nonexecutable)
    if isinstance(got, int):
        return got
    rules, model = got
    if args.format == "structured":
        payload = render_structured(rules, source=model.source_names)
    else:
        payload = "".join(render_text(r) + "\n" for r in rules)
    _emit(args, payload)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    if args.format == "structured":
        return cmd_extract(args)  # the same document
    got = _extract_rules(args.files, args.no_nonexecutable)
    if isinstance(got, int):
        return got
    rules, _model = got
    by_id = sorted(rules, key=lambda r: r.id)
    lines = []
    for category in CATEGORY_ORDER:
        count = sum(1 for r in rules if r.category is category)
        lines.append(f"{category.value}: {count}")
    grouped = [r for category in CATEGORY_ORDER for r in by_id if r.category is category]
    if grouped:
        lines.append("")
        for rule in grouped:
            lines.append(f"{rule.category.value} {rule.pattern.value} {render_text(rule)}")
    _emit(args, "".join(line + "\n" for line in lines))
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    if args.cap < 1:
        print("ERROR cap must be positive", file=sys.stderr)
        return EXIT_MERGE_CONFLICT  # bad usage shares the conflict code
    got = _extract_rules(args.files, executable_only=True)
    if isinstance(got, int):
        return got
    executable, _model = got
    try:
        facts_text = Path(args.facts).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"ERROR {args.facts}: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        base, diags = parse_fact_base(facts_text)
    except ContradictionError as exc:
        for diag in exc.diagnostics:
            print(format_diagnostic(diag, args.facts), file=sys.stderr)
        where = exc.location
        print(f"ERROR {args.facts}:{where.line}:{where.col} {exc}", file=sys.stderr)
        # A malformed line outranks the contradiction.
        return EXIT_PARSE_ERROR if has_errors(exc.diagnostics) else EXIT_CONTRADICTION
    for diag in diags:
        print(format_diagnostic(diag, args.facts), file=sys.stderr)
    if has_errors(diags):
        return EXIT_PARSE_ERROR
    try:
        result = run_fixpoint(executable, base, args.cap)
    except ContradictionError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION

    lines = ["derived:"]
    lines.extend(format_fact(fact) for fact, _rule in result.derived)
    lines.append("violations:")
    lines.extend(f"{format_fact(fact)} [{rule_id}]" for fact, rule_id in result.violations)
    lines.append(
        "summary: iterations={} derived={} violations={} converged={}".format(
            result.iterations,
            len(result.derived),
            len(result.violations),
            "yes" if result.converged else "no",
        )
    )
    _emit(args, "".join(line + "\n" for line in lines))
    if not result.converged:
        return EXIT_CAP_EXCEEDED
    if args.strict and result.violations:
        return EXIT_VIOLATIONS
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    args = build_arg_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
