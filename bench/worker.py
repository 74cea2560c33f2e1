"""Closed-loop worker: runs one workload's operation back to back.

Started by ``run.py`` as a fresh interpreter per workload run, with the
package under test on ``PYTHONPATH``, so that its peak resident memory is the
workload's own.  Usage: ``python3 worker.py JOB_JSON``.  It writes
``result.json`` next to the job file and nothing to stdout.

Each operation is timed from reading the input files to writing the output.
Outside the timed region the worker hashes the output, keeps one copy of
every distinct output for the parent to check, and removes it before the
next operation.  With ``trace`` set, untraced operations alternate with
operations whose layer functions are wrapped by a :class:`spans.Tracer`, so
that each traced operation has an untraced neighbour from the same moment;
then the thirteen single-pattern ``extract_*`` entry points are timed one by
one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import owlrules
import owlrules.cli
from spans import Tracer

SCHEMA_PATTERNS = {"subclass-transitivity", "equivalence-inheritance"}

# pattern -> public single-pattern entry point
ENTRY_POINTS = {
    "class-feature": "extract_class_feature",
    "equivalence-inheritance": "extract_equivalence_inheritance",
    "domain-range-identification": "extract_domain_range_identification",
    "subclass-transitivity": "extract_subclass_transitivity",
    "relation-propagation": "extract_relation_propagation",
    "subproperty-lift": "extract_subproperty_lift",
    "symmetric": "extract_symmetric",
    "transitive-property": "extract_transitive",
    "sole-partof": "extract_sole_partof",
    "cooccurrence": "extract_cooccurrence",
    "allvaluesfrom": "extract_allvaluesfrom",
    "intersection": "extract_intersection",
    "inverse": "extract_inverse",
}


def _fixpoint_counts(args: tuple, result) -> dict[str, float]:
    return {
        "engine.rounds": result.iterations,
        "engine.derived": len(result.derived),
        "engine.violations": len(result.violations),
        "engine.final_facts": len(result.final),
        "engine.executable_rules": len(args[0]),
    }


# (function name as the calling module sees it, span name, counter)
CLI_HOOKS = (
    ("parse_ontology", "parser.parse_ontology", lambda a, r: {"parser.axioms": len(r[0].axioms)}),
    ("merge", "model.merge", None),
    ("extract_all", "extract.extract_all", lambda a, r: {"extract.rules": len(r.rules)}),
    ("parse_fact_base", "parser.parse_fact_base", None),
    ("run_fixpoint", "engine.run_fixpoint", _fixpoint_counts),
    ("render_structured", "rules.render_structured", None),
    ("render_text", "rules.render_text", None),
    ("format_fact", "engine.format_fact", None),
)
PIPELINE_HOOKS = (
    CLI_HOOKS[0],
    CLI_HOOKS[2],
    ("schema_closure", "engine.schema_closure", lambda a, r: {"engine.closure_edges": len(r)}),
)


def closure_pipeline(api, owl_path: str, out_path: str) -> int:
    """Library use: parse, extract, close the subclass schema, write the edges."""
    text = Path(owl_path).read_text(encoding="utf-8")
    model, diags = api.parse_ontology(text, name=owl_path)
    if owlrules.has_errors(diags):
        return 1
    report = api.extract_all(model)
    schema = [r for r in report.rules if r.pattern.value in SCHEMA_PATTERNS]
    derived = api.schema_closure(model, schema)
    Path(out_path).write_text("".join(f"{ax.sub} {ax.sup}\n" for ax in derived), encoding="utf-8")
    return 0


def _digest(path: Path) -> tuple[str | None, int]:
    # Streamed, so that hashing adds nothing to the peak memory measured.
    if not path.exists():
        return None, 0
    h = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest(), path.stat().st_size


class Loop:
    def __init__(self, job: dict, workdir: Path):
        self.job = job
        self.workdir = workdir
        self.output = Path(job["output"])
        self.saved: set[str] = set()

    def op(self, api) -> int:
        if self.job["kind"] == "pipeline":
            return closure_pipeline(api, self.job["ontologies"][0], str(self.output))
        try:
            return api.main(self.job["argv"])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    def run(self, seconds: float, api, hooks: Hooks | None = None) -> list[dict]:
        """Run operations for ``seconds``; with ``hooks``, every second one is traced."""
        samples: list[dict] = []
        root = "pipeline" if self.job["kind"] == "pipeline" else "cli.main"
        deadline = time.perf_counter() + seconds
        while len(samples) < self.job["min_ops"] or time.perf_counter() < deadline:
            self.output.unlink(missing_ok=True)
            gc.collect()
            traced = hooks is not None and len(samples) % 2 == 1
            span = None
            if traced:
                hooks.enable(True)
                hooks.tracer.run = len(samples) // 2
                span = hooks.tracer.begin(root)
            start = time.perf_counter()
            try:
                code = self.op(api)
            except Exception:  # a crash is a failed operation, not a failed run
                traceback.print_exc()
                code = -1
            finally:
                wall = time.perf_counter() - start
                if span is not None:
                    hooks.tracer.end(span)
                    hooks.enable(False)
            sha, size = _digest(self.output)
            if sha is not None and sha not in self.saved:
                shutil.copyfile(self.output, self.workdir / f"out-{sha}")
                self.saved.add(sha)
            samples.append({"wall": wall, "code": code, "sha": sha, "bytes": size, "traced": traced})
        self.output.unlink(missing_ok=True)
        return samples


class Hooks:
    """Traced stand-ins for the hooked functions on ``module``, switched on and off.

    A hooked function that ``module`` lacks is listed in :attr:`absent` and
    left alone, so that its span reads as absent rather than crashing the run.
    """

    def __init__(self, tracer: Tracer, module, hooks) -> None:
        self.tracer = tracer
        self.module = module
        self.plain: dict = {}
        self.traced: dict = {}
        self.absent: list[str] = []
        for attr, name, counter in hooks:
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self.plain[attr] = fn
            self.traced[attr] = tracer.wrap(name, fn, counter)

    def enable(self, on: bool) -> None:
        for attr, fn in (self.traced if on else self.plain).items():
            setattr(self.module, attr, fn)


def pattern_pass(job: dict, seconds: float) -> tuple[dict, list[str]]:
    """Time each single-pattern entry point on the merged input model."""
    models = []
    for path in job["ontologies"]:
        model, _ = owlrules.parse_ontology(Path(path).read_text(encoding="utf-8"), name=path)
        models.append(model)
    model = owlrules.merge(models)
    fns = {p: getattr(owlrules, name, None) for p, name in ENTRY_POINTS.items()}
    absent = [f"extract.{p}" for p, fn in fns.items() if fn is None]
    out: dict[str, dict] = {p: {"times": [], "rules": 0} for p, fn in fns.items() if fn}
    deadline = time.perf_counter() + seconds
    while out:
        for pattern, rec in out.items():
            gc.collect()
            start = time.perf_counter()
            rules = fns[pattern](model)
            rec["times"].append(time.perf_counter() - start)
            rec["rules"] = len(rules)
        if time.perf_counter() >= deadline:
            break
    return out, absent


def main(job_path: str) -> int:
    job_file = Path(job_path)
    job = json.loads(job_file.read_text(encoding="utf-8"))
    loop = Loop(job, job_file.parent)
    seconds = job["seconds"]
    pipeline = job["kind"] == "pipeline"
    result: dict = {}
    if not job["trace"]:
        result["untraced"] = loop.run(seconds, owlrules if pipeline else owlrules.cli)
    else:
        # The traced run keeps to the same length: 80% alternating untraced
        # and traced operations, 20% single-pattern extraction.
        tracer = Tracer()
        if pipeline:
            api = SimpleNamespace(**{a: getattr(owlrules, a, None) for a, _, _ in PIPELINE_HOOKS})
            hooks = Hooks(tracer, api, PIPELINE_HOOKS)
        else:
            api = owlrules.cli
            hooks = Hooks(tracer, api, CLI_HOOKS)
        samples = loop.run(0.8 * seconds, api, hooks)
        result["untraced"] = [s for s in samples if not s["traced"]]
        result["traced"] = [s for s in samples if s["traced"]]
        result["spans"] = [asdict(s) for s in tracer.spans]
        result["counts"] = {run: dict(c) for run, c in tracer.counts.items()}
        result["patterns"], pattern_absent = pattern_pass(job, 0.2 * seconds)
        result["absent"] = hooks.absent + pattern_absent
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (job_file.parent / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
