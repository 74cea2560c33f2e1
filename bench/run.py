"""owlrules benchmark: three seeded closed-loop workloads, checked outputs,
end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke]

Run from a source checkout; the package is imported from ``src/`` and the
oracles from ``tests/oracles.py``.  One client, one process, one thread:
each operation starts when the previous one has finished, as a batch CLI or
library is used.  The operation runs in a fresh worker interpreter per run
(``worker.py``), so the worker's peak RSS is the workload's.

``--trace 0`` reports the end-to-end metrics and prints ``error_rate``
(failed over attempted operations; an operation fails on a nonzero exit code
or a failed output check):

  wall_s       fastest operation of the run among those that passed their
               check, timed from reading the input files to writing the
               output; the sample count, median and 90th percentile are
               printed beside it
  setup_s      median wall time of fresh interpreters that import
               ``owlrules.cli`` and build its argument parser, sampled
               before and after the loop
  peak_rss_mb  ``ru_maxrss`` of the worker that ran the loop

``wall_s`` is a minimum rather than the median because on a 2-vCPU shared
host consecutive operations ran up to 1.7x apart, in slow phases lasting
seconds to minutes.  Over ten sets of ten seeded 40 s runs of one workload,
the spread of the per-run figure (interquartile range over median) was
5-21% for the minimum and 10-33% for the median; over four of them, 8-26%
for the 10th percentile.  The
fastest operation is the one least slowed by other load.

``--trace 1`` spends 80% of the run alternating untraced operations with
operations that have spans around each layer call, and 20% timing the
thirteen single-pattern extractors.  It reports the per-layer metrics:
medians over the traced operations, and ``trace.overhead_s``, the median
over adjacent pairs of the traced operation's time minus the untraced one's.

Every output is checked outside the timed region; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and the exit code is nonzero when any operation failed.  ``--seconds``
defaults to ``run_seconds`` in ``BENCHMARK.json``.  ``--smoke`` runs every
workload at tiny sizes, two operations per mode, and gates nothing on time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# span name -> its per-layer self-time metric is f"{name}_s"
LAYER_SPANS = (
    "parser.parse_ontology",
    "parser.parse_fact_base",
    "model.merge",
    "extract.extract_all",
    "rules.render_structured",
    "rules.render_text",
    "engine.format_fact",
    "engine.run_fixpoint",
    "engine.schema_closure",
)
COUNTS = (
    "parser.axioms",
    "extract.rules",
    "engine.rounds",
    "engine.derived",
    "engine.violations",
    "engine.final_facts",
    "engine.executable_rules",
    "engine.closure_edges",
)
PATTERNS = (
    "class-feature",
    "equivalence-inheritance",
    "domain-range-identification",
    "subclass-transitivity",
    "relation-propagation",
    "subproperty-lift",
    "symmetric",
    "transitive-property",
    "sole-partof",
    "cooccurrence",
    "allvaluesfrom",
    "intersection",
    "inverse",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **{name: "count" for name in COUNTS},
    "parser.input_bytes": "bytes",
    "rules.output_bytes": "bytes",
    **{f"extract.{p}_s": "s" for p in PATTERNS},
    **{f"extract.{p}.rules": "count" for p in PATTERNS},
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Layers expected to take most of each workload's operation time.
DOMINANT = {
    "mixed-infer": ("engine.run_fixpoint",),
    "ontology-extract": ("extract.extract_all", "rules.render_structured", "rules.render_text"),
    "dag-closure": ("engine.schema_closure",),
}

SETUP_CODE = "import owlrules.cli as cli; cli.build_arg_parser()"
SETUP_REPS = 5


class BenchError(Exception):
    """The benchmark could not measure (as opposed to an incorrect output)."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(reps: int) -> list[float]:
    """Wall time of fresh interpreters importing the CLI and building its parser."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times: list[float] = []
    for i in range(reps + 1 if reps else 0):  # the first may write bytecode; not counted
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.decode()[-2000:]}")
        if i:
            times.append(elapsed)
    return times


def run_worker(job: dict, workdir: Path) -> dict:
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    log = workdir / "worker.log"
    with log.open("wb") as err:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path)],
            env=_env(),
            cwd=workdir,  # relative input paths keep the output bytes seed-determined
            stdout=subprocess.DEVNULL,
            stderr=err,
            timeout=2 * job["seconds"] + 120,
        )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {log.read_text()[-2000:]}")
    if log.stat().st_size:
        sys.stderr.write(log.read_text()[-2000:])
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def check_outputs(result: dict, prepared, workdir: Path) -> tuple[int, int, list[str]]:
    """Mark each sample ``ok`` and count attempted and failed operations.

    An operation fails on a nonzero exit code or a failed output check.
    """
    verdict: dict[str | None, list[str]] = {None: ["no output written"]}
    samples = result["untraced"] + result.get("traced", [])
    for sha in {s["sha"] for s in samples} - {None}:
        text = (workdir / f"out-{sha}").read_text(encoding="utf-8")
        verdict[sha] = prepared.check(text)
    failed, notes = 0, []
    for s in samples:
        problems = verdict[s["sha"]] + ([f"exit code {s['code']}"] if s["code"] != 0 else [])
        s["ok"] = not problems
        if problems:
            failed += 1
            notes.extend(p for p in problems if p not in notes)
    return len(samples), failed, notes


def passing_walls(result: dict) -> list[float]:
    """Sorted times of the untraced operations that passed their check."""
    return sorted(s["wall"] for s in result["untraced"] if s["ok"])


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    walls = passing_walls(result)
    return {
        "wall_s": walls[0],
        "setup_s": median(setup),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }


def per_layer(result: dict, job: dict) -> tuple[dict[str, float], dict[str, float], float]:
    """Per-layer metrics, per-span self times and the median traced op time."""
    from spans import self_times

    runs = range(len(result["traced"]))
    selfs = self_times(result["spans"])
    counts = result["counts"]
    roots = {s["run"]: s["end"] - s["start"] for s in result["spans"] if s["parent"] is None}
    names = sorted({s["name"] for s in result["spans"]})
    self_by_name = {n: median(selfs[r].get(n, 0.0) for r in runs) for n in names}
    m = {f"{n}_s": self_by_name.get(n, 0.0) for n in LAYER_SPANS}
    m.update({c: median(counts.get(str(r), {}).get(c, 0) for r in runs) for c in COUNTS})
    m["parser.input_bytes"] = job["input_bytes"]
    m["rules.output_bytes"] = median(s["bytes"] for s in result["traced"])
    for p in PATTERNS:
        rec = result["patterns"].get(p)
        m[f"extract.{p}_s"] = median(rec["times"]) if rec else 0.0
        m[f"extract.{p}.rules"] = rec["rules"] if rec else 0
    op_time = median(roots.values())
    m["cli.main_s"] = op_time if job["kind"] == "cli" else 0.0
    m["cli.self_s"] = self_by_name.get("cli.main", 0.0)
    # Operation 2r is untraced and 2r+1 traced (run id r), so each pair
    # shares a moment of the host's load.
    untraced = result["untraced"][: len(result["traced"])]
    m["trace.overhead_s"] = median(roots[r] - u["wall"] for r, u in enumerate(untraced))
    return m, self_by_name, op_time


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; return report lines and the result object."""
    import workloads

    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = workloads.prepare(name, seed, work, smoke=smoke)
        job = {**prepared.job, "seconds": seconds, "trace": trace, "min_ops": 2 if smoke else 4}
        job["input_bytes"] = sum(os.path.getsize(work / p) for p in job["inputs"])
        # Set-up is sampled on both sides of the loop, so that the median
        # spans the host's slow and fast phases rather than one of them.
        reps = 0 if trace else 1 if smoke else SETUP_REPS
        setup = measure_setup(reps)
        result = run_worker(job, work)
        setup += measure_setup(reps)
        attempted, failed, notes = check_outputs(result, prepared, work)
        if not any(s["ok"] for s in result["untraced"]):
            raise BenchError(f"{name}: no untraced operation passed: {'; '.join(notes)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [f"== {name} seed={seed} trace={int(trace)}: {prepared.sizes}"]
    shas = sorted({s["sha"] or "-" for s in result["untraced"] + result.get("traced", [])})
    lines.append(f"output sha256: {', '.join(shas)}")
    lines += [f"CHECK FAILED: {n}" for n in notes]
    walls = passing_walls(result)
    lines.append(
        f"wall_s samples (passing untraced ops): n={len(walls)} min={walls[0]:.4f} "
        f"p10={walls[len(walls) // 10]:.4f} median={median(walls):.4f} "
        f"p90={walls[len(walls) * 9 // 10]:.4f} max={walls[-1]:.4f}"
    )
    lines.append(
        f"error_rate: {failed / attempted:.4f} ratio ({failed} failed / {attempted} attempted)"
    )
    if trace:
        metrics, self_by_name, op_time = per_layer(result, job)
        lines.append(f"per-layer self time (median of {len(result['traced'])} traced ops):")
        for span_name, t in sorted(self_by_name.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {span_name:28s} {t:10.5f} s  {100 * t / op_time:5.1f}%")
        share = sum(self_by_name.get(n, 0.0) for n in DOMINANT[name]) / op_time
        verdict = "holds" if share > 0.5 else "DOES NOT HOLD"
        lines.append(f"dominant layers {'+'.join(DOMINANT[name])}: {100 * share:.1f}% ({verdict})")
        if result["absent"]:
            lines.append(f"absent hooks (reported as 0): {', '.join(result['absent'])}")
        units = PER_LAYER
    else:
        metrics = end_to_end(result, setup)
        units = END_TO_END
        lines.append(f"setup_s: median of {len(setup)} fresh interpreters")
    for key, unit in units.items():
        lines.append(f"{key}: {metrics[key]} {unit}")
    obj = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return lines, obj


def run_seconds() -> float:
    """How long one run measures, as ``BENCHMARK.json`` states it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(spec["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, correctness only")
    args = parser.parse_args(argv)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.smoke else (bool(args.trace),)
    seconds = 0.0 if args.smoke else args.seconds
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    last = combined
    for name in names:
        for trace in modes:
            lines, last = run_workload(name, args.seed, seconds, trace, smoke=args.smoke)
            print("\n".join(lines), flush=True)
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for key, val in last["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(last if len(names) * len(modes) == 1 else combined))
    return 0 if combined["correct"] else 1


def _bootstrap() -> None:
    needed = (SRC / "owlrules" / "__init__.py", TESTS / "oracles.py")
    missing = [p for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a source checkout, missing: {', '.join(map(str, missing))}")
    sys.path[:0] = [str(SRC), str(TESTS), str(BENCH)]
    import owlrules

    if Path(owlrules.__file__).resolve().parent != SRC / "owlrules":
        raise BenchError(f"imported owlrules from {owlrules.__file__}, not from {SRC}")


if __name__ == "__main__":
    try:
        _bootstrap()
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
