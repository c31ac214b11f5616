"""Benchmark of the pseudoherm command line, one workload per run.

    python3 bench/run.py --workload {matrix,ensemble,kg} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree: the package is imported from ./src and
nothing else.  The run generates its inputs from --seed (workloads.py), sets
up SETUP_REPS times (package import in a fresh interpreter, then input
generation and writing) and calls pseudoherm.cli.main(argv) in-process, its
report going to a file, in passes of one call per timed cell, for at least
S seconds and MIN_PASSES passes.  Every report is parsed and checked against
the planted ground truth (checks.py).

Times are reference-normalized.  On a shared host the speed of the whole
machine swings by a third or more over seconds to minutes, which no number
of repetitions in one run averages out.  So a fixed reference computation
(make_reference) is timed between calls, every call time is divided by the
mean of the reference times around it, and the ratio is scaled back to
seconds by REF_SECONDS, the reference's time on an idle host.  Raw wall
times are in the report line.

--trace 0 reports the end-to-end metrics:
  pass_s    sum over the workload's cells of the median normalized call
            time: one pass over the workload's commands
  setup_s   median normalized set-up time
--trace 1 spends half the time untraced and half with the package's public
functions wrapped (tracer.py), and reports per CLI call the self time and
exact call count of each, the largest tracemalloc peak of one call per cell
(cli.peak_alloc_mb), the sweep's misclassification share and the tracing
overhead.  The spans are written to .bench_work/spans-<workload>-seed<N>.json.

The line before the last is a JSON report: environment, median wall time
and sample count of each CLI command (classify_ms, verify_s, ...), peak RSS,
check failures, the kappa sweep and fail_frac, which counts the sweep's
misclassifications.  The sweep probes a known classifier defect, so its
misclassifications stay out of the result's "failed"; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("matrix", "ensemble", "kg")
SETUP_REPS = 3
MIN_PASSES = 3
# Time of the reference computation (make_reference) on an idle 2-core
# x86_64 host; scales reference-relative times back to seconds.
REF_SECONDS = 0.065

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s"}

# Wall-time unit of each command's median in the report line.
COMMAND_UNITS = {"classify": "ms", "metric": "ms", "symmetry": "ms",
                 "hermitize": "ms", "verify": "s", "kg_dense": "s",
                 "kg_sample": "s"}

# Traced functions: (module, function names, span name, per_call, counted).
# per_call spans report self microseconds per call; the others report self
# milliseconds per CLI call.  counted spans also report calls per CLI call.
# cli.main's self time is argparse plus the JSON emit ("cli.report"); the
# cmd_* handlers share the span "cli.handler" (report assembly).
TRACED = (
    ("cli", ("main",), "cli.report", False, False),
    ("cli", ("cmd_classify", "cmd_metric", "cmd_hermitize", "cmd_symmetry",
             "cmd_kg", "cmd_verify"), "cli.handler", False, False),
    ("cli", ("load_matrix",), "cli.load_matrix", False, True),
    ("linalg", ("eig_full",), "linalg.eig_full", False, True),
    ("linalg", ("biorthonormalize",), "linalg.biorthonormalize", False, True),
    ("linalg", ("herm_sqrt",), "linalg.herm_sqrt", False, True),
    ("linalg", ("spectral_norm",), "linalg.spectral_norm", False, True),
    ("metrics", ("classify",), "metrics.classify", False, True),
    ("metrics", ("pair_spectrum",), "metrics.pair_spectrum", False, True),
    ("metrics", ("build_positive_metric",), "metrics.build_positive_metric", False, True),
    ("metrics", ("build_general_metric",), "metrics.build_general_metric", False, True),
    ("metrics", ("hermitize",), "metrics.hermitize", False, True),
    ("metrics", ("antilinear_symmetry",), "metrics.antilinear_symmetry", False, True),
    ("metrics", ("verify_intertwining",), "metrics.verify_intertwining", False, True),
    ("metrics", ("antilinear_residual",), "metrics.antilinear_residual", False, True),
    ("physical", ("restrict_to_physical",), "physical.restrict_to_physical", False, True),
    ("physical", ("indefinite_physical_set",), "physical.indefinite_physical_set", False, True),
    ("kleingordon", ("pd_inner",), "kleingordon.pd_inner", True, True),
    ("kleingordon", ("kg_inner",), "kleingordon.kg_inner", True, True),
    ("suites", ("check_conjugation_equivalence",), "suites.check_conjugation_equivalence", False, True),
    ("suites", ("check_positive_metric_equivalence",), "suites.check_positive_metric_equivalence", False, True),
    ("models", ("generate",), "models.generate", False, True),
)


def per_layer_units() -> dict:
    """Name -> unit of every metric a traced run reports."""
    units = {}
    for _, _, span, per_call, counted in TRACED:
        units[span + ("_us" if per_call else "_ms")] = "us/call" if per_call else "ms/cmd"
        if counted:
            units[span + ".calls"] = "calls/cmd"
    units["cli.peak_alloc_mb"] = "MB"
    units["metrics.classify.misclass_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass
class CliResult:
    code: object
    seconds: float
    report: object   # parsed stdout, or None
    stderr: str
    peak_bytes: int = 0   # tracemalloc peak of the call, when traced


@dataclass
class Tally:
    """Checked operations: attempts, failures and the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, check, result: CliResult, label: str):
        self.attempted += 1
        problems = check(result.code, result.report)
        if problems and result.stderr.strip():
            problems.append(result.stderr.strip().splitlines()[-1])
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"cell": label, "problems": problems})


def run_cli(cli, argv, workdir: Path, trace_memory=False) -> CliResult:
    """Time one in-process cli.main(argv) call, its report written to a file
    as the console script would, then parse the report.  With trace_memory
    the call also runs under tracemalloc, which slows it."""
    err = io.StringIO()
    peak = 0
    with open(workdir / "stdout.json", "w+", encoding="utf-8") as out:
        with redirect_stdout(out), redirect_stderr(err):
            if trace_memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                code = cli.main(argv)
                out.flush()
            except SystemExit as exc:       # argparse rejected argv
                code = exc.code
            except Exception:               # a crash is a failed operation, not a stop
                code = None
                err.write(traceback.format_exc())
            seconds = perf_counter() - start
            if trace_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        out.seek(0)
        text = out.read()
    try:
        report = json.loads(text) if text.strip() else None
    except json.JSONDecodeError:
        report = None
    return CliResult(code, seconds, report, err.getvalue(), peak)


def make_reference(numpy):
    """A fixed computation in the benchmark's mix, timed between calls to
    read the host's current speed: a dense complex eig (BLAS), a JSON round
    trip, small-matrix numpy calls and a pure-Python loop (interpreter
    overhead).  It takes about REF_SECONDS on an idle host."""
    rng = numpy.random.default_rng(0)
    dense = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    rows = rng.standard_normal((80, 80)).tolist()
    small = rng.standard_normal((200, 5, 5))

    def reference() -> float:
        gc.collect()
        start = perf_counter()
        numpy.linalg.eig(dense)
        json.loads(json.dumps(rows, indent=2))
        for m in small:
            numpy.linalg.eig(m)
            numpy.linalg.svd(m, compute_uv=False)
        total = 0
        for i in range(100_000):
            total += i * i
        return perf_counter() - start

    return reference


@dataclass
class Samples:
    """Per-cell wall times of the timed calls and the same times divided by
    the mean of the reference timings taken just before and after them."""

    wall: dict
    relative: dict
    reference: list

    def pass_seconds(self) -> float:
        """Reference-normalized time of one pass: REF_SECONDS times the sum
        over cells of the median relative call time."""
        return REF_SECONDS * sum(statistics.median(r) for r in self.relative.values())


def measure(cli, plan, seconds: float, tally: Tally, reference, workdir) -> Samples:
    """Whole passes, one call per cell, until `seconds` have passed and at
    least MIN_PASSES passes ran."""
    samples = Samples({c.label: [] for c in plan.cells},
                      {c.label: [] for c in plan.cells}, [reference()])
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        for cell in plan.cells:
            call = cell.calls[passes % len(cell.calls)]
            gc.collect()   # so no garbage of the benchmark is collected in the call
            result = run_cli(cli, call.argv, workdir)
            samples.reference.append(reference())
            around = (samples.reference[-2] + samples.reference[-1]) / 2
            samples.wall[cell.label].append(result.seconds)
            samples.relative[cell.label].append(result.seconds / around)
            tally.record(call.check, result, cell.label)
        passes += 1
    return samples


def command_stats(plan, samples: Samples) -> dict:
    """Median wall time and sample count per CLI command, pooled over cells."""
    pooled = {}
    for cell in plan.cells:
        pooled.setdefault(cell.command, []).extend(samples.wall[cell.label])
    out = {}
    for command, times in pooled.items():
        unit = COMMAND_UNITS[command]
        scale = 1e3 if unit == "ms" else 1.0
        out[f"{command}_{unit}"] = {"value": statistics.median(times) * scale,
                                    "unit": unit, "samples": len(times),
                                    "min": min(times) * scale, "max": max(times) * scale}
    return out


def run_sweep(cli, plan, workdir):
    """Classify every sweep input; returns (wrong, total, per-cell table)."""
    import checks
    table = {}
    swept = 0
    for argv, planted in plan.sweep:
        swept += 1
        result = run_cli(cli, argv, workdir)
        outcome = checks.sweep_outcome(result.code, result.report, planted)
        key = (planted.dim, f"{planted.kappa:.0e}", planted.kind)
        table.setdefault(key, {"right": 0, "refused": 0, "wrong": 0})[outcome] += 1
    wrong = sum(row["wrong"] for row in table.values())
    rows = [{"n": n, "kappa": kappa, "kind": kind, **row}
            for (n, kappa, kind), row in table.items()]
    return wrong, swept, rows


def import_seconds() -> float:
    """Time `import pseudoherm.cli` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import pseudoherm.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def setup(prepare, seed: int, workdir: Path, reference):
    """SETUP_REPS set-ups; returns (reference-normalized median seconds,
    median wall seconds, plan)."""
    wall, relative = [], []
    before = reference()
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        start = perf_counter()
        plan = prepare(seed, workdir)
        wall.append(imported + perf_counter() - start)
        after = reference()
        relative.append(wall[-1] / ((before + after) / 2))
        before = after
    return REF_SECONDS * statistics.median(relative), statistics.median(wall), plan


def layer_metrics(tracer, untraced_s: float, traced_s: float, misclass: float) -> dict:
    totals, counts = tracer.self_times()
    requests = max(tracer.requests(), 1)
    values = {}
    for _, _, span, per_call, counted in TRACED:
        seconds = totals.get(span, 0.0)
        if per_call:
            values[span + "_us"] = seconds / counts[span] * 1e6 if counts[span] else 0.0
        else:
            values[span + "_ms"] = seconds / requests * 1e3
        if counted:
            values[span + ".calls"] = counts[span] / requests
    values["metrics.classify.misclass_frac"] = misclass
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return values


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pseudoherm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(numpy, nproc: int, seed: int) -> dict:
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": nproc, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": numpy.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "commit": commit(),
            "src_sha256": src_digest(), "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pseudoherm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'pseudoherm'}", file=sys.stderr)
        return 2
    # One process with at most nproc BLAS threads; set before numpy loads.
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy
    import pseudoherm.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "pseudoherm":
        print(f"error: imported pseudoherm from {cli.__file__}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import PREPARE

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    reference = make_reference(numpy)
    try:
        setup_s, setup_wall_s, plan = setup(PREPARE[args.workload], args.seed,
                                            workdir, reference)
        tally = Tally()
        seconds = args.seconds / 2 if args.trace else args.seconds
        samples = measure(cli, plan, seconds, tally, reference, workdir)
        if args.trace:
            tracer = Tracer()
            modules = [m for name, m in sorted(sys.modules.items())
                       if name == "pseudoherm" or name.startswith("pseudoherm.")]
            targets = [(sys.modules[f"pseudoherm.{mod}"], func, span)
                       for mod, funcs, span, _, _ in TRACED for func in funcs]
            with tracer:
                tracer.install(modules, targets)
                traced = measure(cli, plan, seconds, tally, reference, workdir)
            peak_alloc = 0
            for cell in plan.cells:
                result = run_cli(cli, cell.calls[0].argv, workdir, trace_memory=True)
                tally.record(cell.calls[0].check, result, cell.label)
                peak_alloc = max(peak_alloc, result.peak_bytes)
        for call in plan.probes:
            tally.record(call.check, run_cli(cli, call.argv, workdir), "probe")
        wrong, swept, sweep_rows = run_sweep(cli, plan, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    misclass = wrong / swept if swept else 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
        values = layer_metrics(tracer, samples.pass_seconds(), traced.pass_seconds(),
                               misclass)
        values["cli.peak_alloc_mb"] = peak_alloc / 2**20
        units = per_layer_units()
    else:
        values = {"pass_s": samples.pass_seconds(), "setup_s": setup_s}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    report = {
        "workload": args.workload, "trace": args.trace,
        "environment": environment(numpy, nproc, args.seed),
        "commands": command_stats(plan, samples),
        "cells": {label: {"wall_ms": [round(t * 1e3, 3) for t in samples.wall[label]],
                          "relative": [round(r, 4) for r in samples.relative[label]]}
                  for label in samples.wall},
        "pass_wall_s": sum(statistics.median(t) for t in samples.wall.values()),
        "setup_wall_s": setup_wall_s,
        "reference_ms": statistics.median(samples.reference) * 1e3,
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "checked": tally.attempted, "check_failures": tally.failed,
        "problems": tally.problems,
        "sweep": {"misclass_frac": misclass, "wrong": wrong, "instances": swept,
                  "cells": sweep_rows},
        "fail_frac": (tally.failed + wrong) / (tally.attempted + swept),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
