"""Command line front end: ``owlrules <extract|classify|infer> ...``.

Exit codes: 0 success, 1 parse error, 2 merge conflict (or bad usage),
3 contradiction in the fact base, 4 iteration cap exceeded, 5 integrity
violations under --strict.  Diagnostics go to stderr as
``LEVEL file:line:col message``; results go to stdout or --output.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, field
from enum import Enum
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


class Command(Enum):
    EXTRACT = "extract"
    CLASSIFY = "classify"
    INFER = "infer"


class OutputFormat(Enum):
    TEXT = "text"
    STRUCTURED = "structured"


@dataclass
class RunConfig:
    command: Command
    inputs: list[str] = field(default_factory=list)
    facts: str | None = None
    format: OutputFormat = OutputFormat.TEXT
    include_nonexecutable: bool = True
    cap: int = DEFAULT_CAP
    strict: bool = False
    output: str | None = None

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("at least one input file is required")
        if self.cap < 1:
            raise ValueError("cap must be positive")
        if self.command is Command.INFER and self.facts is None:
            raise ValueError("infer requires a facts file")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owlrules",
        description="Extract, classify, and run IF-THEN rules from OWL subset files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("extract", "print the rules found in the ontology files"),
        ("classify", "group extracted rules by category"),
        ("infer", "forward-chain executable rules over a fact file"),
    ):
        cmd = sub.add_parser(name, help=help_text)
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
                choices=[f.value for f in OutputFormat],
                default=OutputFormat.TEXT.value,
                help="output format (default: text)",
            )
            cmd.add_argument(
                "--no-nonexecutable",
                action="store_true",
                help="drop non-executable rules from the output",
            )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # Each subcommand registers only its own flags; the rest keep their defaults.
    return RunConfig(
        command=Command(args.command),
        inputs=list(args.files),
        facts=getattr(args, "facts", None),
        format=OutputFormat(getattr(args, "format", OutputFormat.TEXT.value)),
        # infer runs executable rules only
        include_nonexecutable=not getattr(args, "no_nonexecutable", True),
        cap=getattr(args, "cap", DEFAULT_CAP),
        strict=getattr(args, "strict", False),
        output=args.output,
    )


# ---------------------------------------------------------------------------
# pipeline pieces


def _load_models(config: RunConfig) -> tuple[list[OntologyModel], bool]:
    models = []
    failed = False
    for path in config.inputs:
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


def _emit(config: RunConfig, payload: str) -> None:
    if config.output:
        Path(config.output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _extract_rules(config: RunConfig) -> tuple[list[Rule], OntologyModel] | int:
    models, failed = _load_models(config)
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
    if not config.include_nonexecutable:
        rules = [r for r in rules if r.executable]
    return rules, model


# ---------------------------------------------------------------------------
# subcommands


def cmd_extract(config: RunConfig) -> int:
    got = _extract_rules(config)
    if isinstance(got, int):
        return got
    rules, model = got
    if config.format is OutputFormat.STRUCTURED:
        payload = render_structured(rules, source=model.source_names)
    else:
        payload = "".join(render_text(r) + "\n" for r in rules)
    _emit(config, payload)
    return EXIT_OK


def cmd_classify(config: RunConfig) -> int:
    got = _extract_rules(config)
    if isinstance(got, int):
        return got
    rules, model = got
    if config.format is OutputFormat.STRUCTURED:
        _emit(config, render_structured(rules, source=model.source_names))
        return EXIT_OK
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
    _emit(config, "".join(line + "\n" for line in lines))
    return EXIT_OK


def cmd_infer(config: RunConfig) -> int:
    got = _extract_rules(config)
    if isinstance(got, int):
        return got
    rules, _model = got
    executable = [r for r in rules if r.executable]
    try:
        facts_text = Path(config.facts or "").read_text(encoding="utf-8")
    except OSError as exc:
        print(f"ERROR {config.facts}: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    base, diags = parse_fact_base(facts_text)
    for diag in diags:
        print(format_diagnostic(diag, config.facts or "<facts>"), file=sys.stderr)
    if has_errors(diags):
        return EXIT_PARSE_ERROR
    try:
        result = run_fixpoint(executable, base, config.cap)
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
    _emit(config, "".join(line + "\n" for line in lines))
    if not result.converged:
        return EXIT_CAP_EXCEEDED
    if config.strict and result.violations:
        return EXIT_VIOLATIONS
    return EXIT_OK


_DISPATCH = {
    Command.EXTRACT: cmd_extract,
    Command.CLASSIFY: cmd_classify,
    Command.INFER: cmd_infer,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    args = build_arg_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return EXIT_MERGE_CONFLICT  # bad usage shares the conflict code
    return _DISPATCH[config.command](config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
