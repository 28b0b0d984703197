#!/usr/bin/env python3
"""Benchmark of superbol: a known-truth dimension ladder, the operator lemmas
and the README CLI flows.

Usage (from the repository root):

    python3 bench/run.py --workload ladder --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --record-golden [--workload cli-flow]

Workloads:
  ladder           suites with known verdicts over generated families
                   (Lambda(3), M(1|1), M(2|1), M(2|1) twisted by a seeded
                   diagonal automorphism), in-process library calls.
  operator-lemmas  verify_operator_lemmas on three plus algebras.
  cli-flow         the README command-line flows, one child process at a
                   time running superbol.cli as __main__.

A run sets up several times (import, family generation, fixture emission)
and reports the median as ``setup_s``, then repeats full passes of the
workload until ``--seconds`` have elapsed (``cli-flow`` also runs at least
100 commands so its 90th percentile has ten samples beyond it).  Every
job's output is compared byte for byte with ``bench/golden.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass, prints the per-layer metrics and writes the
spans to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("ladder", "operator-lemmas", "cli-flow")
END_TO_END = (
    ("wall_s", "s"),
    ("tuples_per_s", "1/s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Per-layer metrics beyond the span-derived ones of trace.layer_metrics.
RUN_LAYER_METRICS = (
    ("cli.import_ms", "ms"),
    ("process.cpu_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
THREADS_ENV = "SUPERBOL_THREADS"
SETUP_REPEATS = 11
IMPORT_SAMPLES = 3
MIN_CLI_COMMANDS = 100
MEASURE_CAP_S = 120.0

sys.path[:0] = [str(BENCH), str(SRC)]


class SetupError(Exception):
    """The program under test could not be imported or prepared."""


@dataclass
class Result:
    job: object
    output: object
    error: str
    seconds: float
    files: dict


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def per_layer_names() -> list[tuple[str, str]]:
    import spans

    derived = [(name, layer_unit(name)) for name in spans.layer_metrics([], Counter())]
    return derived + list(RUN_LAYER_METRICS)


# -- set-up ------------------------------------------------------------------


def fresh_import():
    """Import superbol and the job definitions from scratch."""
    for name in list(sys.modules):
        if name == "superbol" or name.startswith("superbol.") or name in ("families", "workloads"):
            del sys.modules[name]
    try:
        workloads = importlib.import_module("workloads")
        return workloads, workloads.import_superbol()
    except ImportError as exc:
        raise SetupError(f"cannot import superbol from {SRC}: {exc}") from exc


@dataclass
class Context:
    W: object
    sb: object
    jobs: object
    generated: dict
    workdir: str


def setup(workload: str, seed: int, workdir: str) -> Context:
    W, sb = fresh_import()
    if workload == "ladder":
        jobs, generated = W.ladder(sb, seed)
    elif workload == "operator-lemmas":
        jobs, generated = W.operator_lemmas(sb, seed)
    else:
        generated = W.emit_cli_fixtures(sb, workdir, seed)
        jobs = None  # built per runner, see jobs_for
    return Context(W, sb, jobs, generated, workdir)


def jobs_for(ctx: Context, peaks_kb=None):
    """The workload's jobs; CLI commands run in process unless ``peaks_kb`` collects child RSS."""
    if ctx.jobs is not None:
        return ctx.jobs
    if peaks_kb is None:
        runner = ctx.W.in_process_runner(ctx.sb, ctx.workdir)
    else:
        runner = ctx.W.subprocess_runner(ctx.workdir, str(SRC), peaks_kb)
    return ctx.W.cli_flow(ctx.sb, ctx.workdir, runner, ctx.generated)


# -- passes ------------------------------------------------------------------


def run_pass(jobs, workdir: str) -> tuple[float, list[Result]]:
    results = []
    start = time.perf_counter()
    for job in jobs:
        began = time.perf_counter()
        try:
            output, error = job.run(), ""
        except Exception as exc:  # a job that raises is a failed job, not a crashed run
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - began
        files = {}
        for name in job.files:
            path = os.path.join(workdir, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    files[name] = handle.read()
        results.append(Result(job, output, error, seconds, files))
    return time.perf_counter() - start, results


def measure(jobs, workdir: str, seconds: float, min_jobs: int):
    walls, results = [], []
    start = time.perf_counter()
    while True:
        wall, batch = run_pass(jobs, workdir)
        walls.append(wall)
        results.extend(batch)
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (elapsed >= seconds and len(results) >= min_jobs):
            return walls, results


# -- correctness -------------------------------------------------------------


def render(W, result: Result, expected_files: dict):
    """The job's output in the form golden.json stores it."""
    if not result.job.is_cli:
        return W.report_json(result.output)
    code, stdout = result.output
    files = {}
    for name in result.job.files:
        data = result.files.get(name)
        if data is None:
            files[name] = "missing"
        elif name in result.job.seeded_files:
            if name not in expected_files:
                expected_files[name] = result.job.seeded_files[name]()
            files[name] = "seeded" if data == expected_files[name] else "differs:" + W.file_digest(data)
        else:
            files[name] = W.file_digest(data)
    return {"exit": code, "stdout": stdout, "files": files}


def verdict_ok(result: Result) -> bool:
    """The verdict or exit code that is known to be true, independent of golden.json."""
    expect = result.job.expect
    if expect == "pass":
        return result.output.passed
    if expect == "fail":
        return not result.output.passed
    if expect == "observed":
        return True
    return result.output[0] == expect


def failures(W, workload: str, results: list[Result], golden: dict) -> list[str]:
    """One line per failed job: raised, wrong verdict or exit code, or output differing from golden."""
    expected_files: dict = {}
    out = []
    for result in results:
        key = f"{workload}/{result.job.id}"
        if result.error:
            out.append(f"{key}: raised {result.error}")
            continue
        if not verdict_ok(result):
            out.append(f"{key}: verdict or exit code differs from the known truth")
            continue
        if key not in golden:
            out.append(f"{key}: no golden output recorded")
        elif render(W, result, expected_files) != golden[key]:
            out.append(f"{key}: output differs from golden")
    return out


def tuples_in(result: Result) -> int:
    """Basis tuples the job's report says it checked."""
    if not result.job.is_cli:
        return sum(report.tuples_checked for report in result.output.reports)
    stdout = result.output[1]
    if stdout.lstrip().startswith("{"):
        return sum(entry["tuples_checked"] for entry in json.loads(stdout)["results"])
    return sum(int(n) for n in re.findall(r"tuples=(\d+)", stdout))


def oracle(ctx: Context, seed: int) -> list[tuple[str, bool]]:
    """(check, agrees) pairs of the generator check on seeded random elements."""
    return ctx.W.oracle_checks(ctx.sb, ctx.generated, seed)


def load_golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


# -- runs --------------------------------------------------------------------


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "superbol_threads_unset": THREADS_ENV not in os.environ,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(values, tenth: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[tenth - 1]


def timed_run(args, ctx: Context, setup_s: float):
    peaks_kb: list[int] = []
    jobs = jobs_for(ctx, peaks_kb)
    min_jobs = MIN_CLI_COMMANDS if args.workload == "cli-flow" else 1
    walls, results = measure(jobs, ctx.workdir, args.seconds, min_jobs)
    # A CLI command is one child process.  The in-process workloads are one
    # command per pass: their jobs are library calls from milliseconds to
    # many seconds long, too unlike each other for per-job percentiles to be
    # steady between runs.
    latencies = [r.seconds for r in results] if args.workload == "cli-flow" else walls
    wall = statistics.median(walls)
    tuples = sum(tuples_in(r) for r in results[: len(jobs)] if not r.error)
    notes = [f"passes: {len(walls)}, jobs per pass: {len(jobs)}, latency samples: {len(latencies)}",
             f"tuples per pass: {tuples}"]
    if args.workload == "cli-flow":
        peak_kb = max(peaks_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": wall,
        "tuples_per_s": tuples / wall,
        "cmd_p50_ms": statistics.median(latencies) * 1000,
        "cmd_p90_ms": percentile(latencies, 9) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    return metrics, results, notes, oracle(ctx, args.seed)


def import_ms() -> float:
    code = "import time; t = time.perf_counter(); import superbol.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout) * 1000)
    return statistics.median(samples)


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def traced_run(args, ctx: Context, env: dict):
    import spans

    jobs = jobs_for(ctx)
    untraced_wall, untraced = run_pass(jobs, ctx.workdir)
    recorder = spans.Recorder()
    recorder.install()
    try:
        cpu = cpu_seconds()
        traced_wall, traced = run_pass(jobs, ctx.workdir)
        cpu = cpu_seconds() - cpu
        pass_counters = Counter(recorder.counters)
        recorder.phase = "oracle"
        checks = oracle(ctx, args.seed)
    finally:
        recorder.uninstall()
    metrics = spans.layer_metrics([s for s in recorder.spans if s["phase"] == "pass"], pass_counters)
    checked = spans.layer_metrics([s for s in recorder.spans if s["phase"] == "oracle"], Counter())
    for key in ("engine.evaluate_on_elements.calls", "engine.evaluate_on_elements.busy_s"):
        metrics[key] = checked[key]
    metrics["cli.import_ms"] = import_ms()
    metrics["process.cpu_s"] = cpu
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    recorder.write_jsonl(path, env)
    notes = [f"spans written to {path.relative_to(ROOT)}",
             f"untraced pass {untraced_wall:.3f} s, traced pass {traced_wall:.3f} s"]
    return metrics, untraced + traced, notes, checks


def bench(args) -> int:
    env = environment(args)
    os.environ.pop(THREADS_ENV, None)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        golden = load_golden()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            ctx = setup(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - began)
        if args.trace:
            metrics, results, notes, checks = traced_run(args, ctx, env)
            names = per_layer_names()
        else:
            metrics, results, notes, checks = timed_run(args, ctx, statistics.median(setup_times))
            names = list(END_TO_END)
        problems = failures(ctx.W, args.workload, results, golden)
        problems += [f"oracle {name}: disagrees with the known truth" for name, ok in checks if not ok]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results) + len(checks)
    failed = len(problems)
    print("env: " + json.dumps(env))
    for note in notes:
        print(note)
    for line in problems:
        print("FAILED " + line)
    print(f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted} jobs)")
    for name, unit in names:
        print(f"{name}: {metrics[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


# -- golden ------------------------------------------------------------------


def record_golden(workloads) -> int:
    """Run one pass of each workload at two seeds and store the outputs.

    Outputs must not depend on the seed, and every job with a known verdict
    must show it; otherwise nothing is written.  Entries of other workloads
    are kept.
    """
    os.environ.pop(THREADS_ENV, None)
    OUT.mkdir(exist_ok=True)
    golden = {key: value for key, value in load_golden().items()
              if key.split("/", 1)[0] not in workloads} if GOLDEN.exists() else {}
    for workload in workloads:
        rendered = []
        for seed in (0, 1):
            workdir = tempfile.mkdtemp(prefix=f"golden-{workload}-", dir=OUT)
            try:
                ctx = setup(workload, seed, workdir)
                _, results = run_pass(jobs_for(ctx, []), workdir)
                expected_files: dict = {}
                outputs = {}
                for result in results:
                    key = f"{workload}/{result.job.id}"
                    if result.error or not verdict_ok(result):
                        print(f"{key}: {result.error or 'known verdict not met'}", file=sys.stderr)
                        return 1
                    outputs[key] = render(ctx.W, result, expected_files)
                rendered.append(outputs)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        if rendered[0] != rendered[1]:
            print(f"{workload}: outputs depend on the seed", file=sys.stderr)
            return 1
        golden.update(rendered[0])
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} golden outputs to {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="record bench/golden.json from the current program "
                             "(all workloads, or the one given)")
    args = parser.parse_args(argv)
    try:
        if args.record_golden:
            return record_golden([args.workload] if args.workload else WORKLOADS)
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except (SetupError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
