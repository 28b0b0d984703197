"""The benchmark's golden outputs as a test: one pass of each workload of
bench/run.py at seed 1 reproduces bench/golden.json byte for byte, and every
verdict known to be true holds.

The jobs are built with bench/workloads.py on the superbol modules this
session already imported.  ``run.setup`` is not used: it re-imports superbol
from scratch, which would give later tests a second copy of every class.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_RUN_PATH = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    saved_path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", _RUN_PATH)
        run = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = run  # its dataclasses look their module up while being built
        spec.loader.exec_module(run)  # puts bench/ on sys.path for the import below
        workloads = importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
    return run, workloads, workloads.import_superbol()


def _jobs(workloads, sb, workload, workdir):
    if workload == "ladder":
        return workloads.ladder(sb, 1)[0]
    if workload == "operator-lemmas":
        return workloads.operator_lemmas(sb, 1)[0]
    generated = workloads.emit_cli_fixtures(sb, workdir, 1)
    return workloads.cli_flow(sb, workdir, workloads.in_process_runner(sb, workdir), generated)


@pytest.mark.parametrize("workload", ["ladder", "operator-lemmas", "cli-flow"])
def test_one_pass_matches_golden(bench, tmp_path, workload):
    run, workloads, sb = bench
    jobs = _jobs(workloads, sb, workload, str(tmp_path))
    _, results = run.run_pass(jobs, str(tmp_path))
    assert len(results) == len(jobs) > 0
    assert run.failures(workloads, workload, results, run.load_golden()) == []
