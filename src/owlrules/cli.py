"""Command line front end: ``owlrules <extract|classify|infer> ...``.

Exit codes: 0 success, 1 parse error or an unreadable, undecodable (not UTF-8)
or unwritable file or stdout, 2 merge conflict (or bad usage), 3 contradiction
in the fact base (1 when the fact file also has a malformed line), 4 iteration
cap exceeded, 5 integrity violations under --strict.  Diagnostics go to stderr
as ``LEVEL file:line:col message``, or ``ERROR file: reason`` for a file (or
``<stdout>``) that cannot be read or written; the notes of the merge and the
extraction warnings go there as ``WARNING message``.  Results go to stdout or
--output.  Input files are UTF-8; a leading byte-order mark is ignored.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from functools import cache
from itertools import chain
from pathlib import Path

from .engine import run_fixpoint
from .extract import extract_all
from .facts import ContradictionError
from .model import MergeConflictError, OntologyModel, _paused, merge
from .parser import (
    format_diagnostic,
    has_errors,
    parse_fact_base,
    parse_ontology,
)
from .rules import CATEGORY_ORDER, Rule, render_text, structured_parts

EXIT_OK = 0
EXIT_PARSE_ERROR = 1  # also for a file that cannot be read or written
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


class _Exit(Exception):
    """Ends the run with the exit code ``args[0]``, once its reason is printed."""


def _read(path: str) -> str | None:
    """The UTF-8 text of ``path``, or None once the reason it cannot be read
    is printed.  (The parsers ignore a leading byte-order mark.)"""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ERROR {path}: {exc}", file=sys.stderr)
        return None


def _report(diags: list, path: str) -> bool:
    """Print the diagnostics of ``path``; whether any is an error."""
    for diag in diags:
        print(format_diagnostic(diag, path), file=sys.stderr)
    return has_errors(diags)


def _emit(args: argparse.Namespace, parts: Iterable[str]) -> None:
    """Write ``parts`` to --output or stdout, each as it is made."""
    try:
        if args.output:
            with Path(args.output).open("w", encoding="utf-8") as out:
                out.writelines(parts)
        else:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
    except OSError as exc:
        if not args.output:
            # stdout failed, for one because its reader closed it: fd 1 goes to
            # devnull, so that the flush at exit of what is left does not fail.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"ERROR {args.output or '<stdout>'}: {exc}", file=sys.stderr)
        raise _Exit(EXIT_PARSE_ERROR)


def _extract_rules(paths: list[str], executable_only: bool) -> tuple[list[Rule], OntologyModel]:
    """The merged files' rules; each file is read and reported before a bad one ends the run."""
    models = []
    for path in paths:
        text = _read(path)
        if text is not None:
            model, diags = parse_ontology(text, name=path)
            if not _report(diags, path):
                models.append(model)
    if len(models) < len(paths):
        raise _Exit(EXIT_PARSE_ERROR)
    try:
        model = merge(models)
    except MergeConflictError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        raise _Exit(EXIT_MERGE_CONFLICT)
    for note in model.notes:
        print(f"WARNING {note}", file=sys.stderr)
    report = extract_all(model)
    for warning in report.warnings:
        print(f"WARNING {warning}", file=sys.stderr)
    rules = report.rules
    if executable_only:
        rules = [r for r in rules if r.executable]
    return rules, model


# ---------------------------------------------------------------------------
# subcommands


def cmd_extract(args: argparse.Namespace) -> None:
    rules, model = _extract_rules(args.files, args.no_nonexecutable)
    if args.format == "structured":
        return _emit(args, structured_parts(rules, source=model.source_names))
    _emit(args, (render_text(r) + "\n" for r in rules))


def cmd_classify(args: argparse.Namespace) -> None:
    if args.format == "structured":
        return cmd_extract(args)  # the same document
    rules, _model = _extract_rules(args.files, args.no_nonexecutable)
    lines = [f"{c.value}: {sum(1 for r in rules if r.category is c)}\n" for c in CATEGORY_ORDER]
    grouped = [r for category in CATEGORY_ORDER for r in rules if r.category is category]
    if grouped:
        lines.append("\n")
    listing = (f"{r.category.value} {r.pattern.value} {render_text(r)}\n" for r in grouped)
    _emit(args, chain(lines, listing))


def cmd_infer(args: argparse.Namespace) -> None:
    if args.cap < 1:
        print("ERROR cap must be positive", file=sys.stderr)
        raise _Exit(EXIT_MERGE_CONFLICT)  # bad usage shares the conflict code
    executable, _model = _extract_rules(args.files, executable_only=True)
    facts_text = _read(args.facts)
    if facts_text is None:
        raise _Exit(EXIT_PARSE_ERROR)
    try:
        base, diags = parse_fact_base(facts_text)
    except ContradictionError as exc:
        malformed = _report(exc.diagnostics, args.facts)
        where = exc.location
        print(f"ERROR {args.facts}:{where.line}:{where.col} {exc}", file=sys.stderr)
        # A malformed line outranks the contradiction.
        raise _Exit(EXIT_PARSE_ERROR if malformed else EXIT_CONTRADICTION)
    if _report(diags, args.facts):
        raise _Exit(EXIT_PARSE_ERROR)
    try:
        result = run_fixpoint(executable, base, args.cap)
    except ContradictionError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        raise _Exit(EXIT_CONTRADICTION)

    violations = map("{} [{}]".format, result.violation_text, (r for _, r in result.violations))
    summary = (
        f"summary: iterations={result.iterations} derived={len(result.derived)} "
        f"violations={len(result.violations)} converged={'yes' if result.converged else 'no'}"
    )
    lines = chain(["derived:"], result.derived_text, ["violations:"], violations, [summary])
    _emit(args, (line + "\n" for line in lines))
    if not result.converged:
        raise _Exit(EXIT_CAP_EXCEEDED)
    if args.strict and result.violations:
        raise _Exit(EXIT_VIOLATIONS)


_arg_parser = cache(build_arg_parser)  # one parser per process, built by the first main


@_paused
def main(argv: list[str] | None = None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        args.run(args)
    except _Exit as exc:
        return exc.args[0]
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
