"""The benchmark's three workloads as lists of jobs.

A job is one unit a user waits for: a suite run on a built structure, one
operator-lemma verification, or one CLI command.  ``run()`` returns the
job's output as text; the benchmark compares it byte for byte with the
golden copy recorded from the seed commit, and additionally checks the
verdict or exit code that is known to be true.

Superbol functions are looked up on their modules when a job runs, so the
tracing wrappers of a traced pass see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import families

PASS, FAIL, OBSERVED = "pass", "fail", "observed"

# Diagonal of the fixed conjugation used by the observed-behaviour job; its
# report is recorded as seen, not as mathematical truth.
OBSERVED_BETA_ENTRIES = (1, 2)

ORACLE_SAMPLES = 2
MALFORMED = '{"name": "truncated", "kind": "hom_superalgebra", "basis": [\n'


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    expect: object  # PASS / FAIL / OBSERVED for suite jobs, an exit code for CLI jobs
    files: tuple[str, ...] = ()  # CLI outputs whose bytes are part of the result
    seeded_files: dict = field(default_factory=dict)  # name -> callable giving expected bytes

    @property
    def is_cli(self) -> bool:
        """CLI jobs return (exit code, stdout); the others return a SuiteReport."""
        return not isinstance(self.expect, str)


def report_json(report) -> str:
    """A suite report in the shape of ``superbol check --json``."""
    results = []
    for check in report.reports:
        entry = {
            "identity": check.name,
            "verdict": "pass" if check.passed else "fail",
            "tuples_checked": check.tuples_checked,
        }
        if check.detail:
            entry["detail"] = check.detail
        if not check.passed and check.counterexample is not None:
            residue = {}
            if check.residue is not None:
                names = check.residue.space.names
                residue = {names[i]: str(c) for i, c in check.residue.coords.items()}
            entry["counterexample"] = {"vars": list(check.counterexample), "residue": residue}
        results.append(entry)
    return json.dumps({"suite": report.suite, "results": results}, indent=2)


def import_superbol() -> SimpleNamespace:
    import superbol.catalog
    import superbol.cli
    import superbol.constructions
    import superbol.core
    import superbol.dsl
    import superbol.engine
    import superbol.operators
    import superbol.storage
    import superbol.structures
    import superbol.suites

    return SimpleNamespace(
        catalog=superbol.catalog, cli=superbol.cli, constructions=superbol.constructions,
        core=superbol.core, dsl=superbol.dsl, engine=superbol.engine, operators=superbol.operators,
        storage=superbol.storage, structures=superbol.structures, suites=superbol.suites,
    )


# -- ladder --------------------------------------------------------------------


def ladder(sb, seed: int) -> tuple[list[Job], dict]:
    """Known-truth suites over Lambda(3), M(1|1), M(2|1) and a seeded twist of M(2|1)."""
    C, S = sb.constructions, sb.suites
    rng = random.Random(seed)
    lambda3 = families.grassmann(3)
    m11 = families.matrix_superalgebra(1, 1)
    m21 = families.matrix_superalgebra(2, 1)
    beta = families.diagonal_automorphism(2, 1, families.diagonal_entries(2, 1, rng))
    beta0 = families.diagonal_automorphism(1, 1, OBSERVED_BETA_ENTRIES)

    jobs = [
        Job("lambda3/RIGHT_ALT", lambda: S.run_suite(lambda3, "RIGHT_ALT"), PASS),
        Job("lambda3/SUPERCOMMUTATIVE", lambda: S.run_suite(lambda3, "SUPERCOMMUTATIVE"), PASS),
        Job("lambda3/plus/JORDAN", lambda: S.run_suite(C.plus_algebra(lambda3), "JORDAN"), PASS),
        Job("lambda3/bol/BOL", lambda: S.run_suite(C.bol_from_right_alternative(lambda3), "BOL"), PASS),
    ]
    for label, m in (("m11", m11), ("m21", m21)):
        jobs += [
            Job(f"{label}/RIGHT_ALT", lambda m=m: S.run_suite(m, "RIGHT_ALT"), PASS),
            Job(f"{label}/SUPERCOMMUTATIVE", lambda m=m: S.run_suite(m, "SUPERCOMMUTATIVE"), FAIL),
            Job(f"{label}/plus/JORDAN", lambda m=m: S.run_suite(C.plus_algebra(m), "JORDAN"), PASS),
            Job(f"{label}/LEMMA_2_4", lambda m=m: S.run_suite(m, "LEMMA_2_4"), PASS),
            Job(f"{label}/EQ_3_2", lambda m=m: S.run_suite(m, "EQ_3_2"), PASS),
            Job(f"{label}/bol/BOL", lambda m=m: S.run_suite(C.bol_from_right_alternative(m), "BOL"), PASS),
        ]
    jobs += [
        Job("m21beta/RIGHT_HOM_ALT",
            lambda: S.run_suite(C.yau_twist_algebra(m21, beta), "RIGHT_HOM_ALT"), PASS),
        Job("m21beta/HOM_ALT", lambda: S.run_suite(C.yau_twist_algebra(m21, beta), "HOM_ALT"), PASS),
        Job("m21beta/yau_twist_bol/HOM_BOL",
            lambda: S.run_suite(C.yau_twist_bol(C.bol_from_right_alternative(m21), beta), "HOM_BOL"),
            PASS),
        Job("m11beta0/hom_bol_pipeline/HOM_BOL",
            lambda: S.run_suite(
                C.hom_bol_from_right_hom_alternative(C.yau_twist_algebra(m11, beta0)), "HOM_BOL"),
            OBSERVED),
    ]
    generated = {"lambda3": lambda3, "m11": m11, "m21": m21, "m21/beta": (m21, beta),
                 "m11/beta0": (m11, beta0)}
    return jobs, generated


# -- operator lemmas -----------------------------------------------------------


def operator_lemmas(sb, seed: int) -> tuple[list[Job], dict]:
    """verify_operator_lemmas on the plus algebras of example_5_1, its twist, and Lambda(1)."""
    del seed  # the inputs are fixed fixtures
    C, O = sb.constructions, sb.operators
    ex51 = sb.catalog.example_5_1()
    beta_star = sb.catalog.example_5_1_beta(2, 0)
    lambda1 = families.grassmann(1)
    jobs = [
        Job("plus(example_5_1)", lambda: O.verify_operator_lemmas(C.plus_algebra(ex51)), PASS),
        Job("twist(plus(example_5_1),beta_star)",
            lambda: O.verify_operator_lemmas(C.yau_twist_algebra(C.plus_algebra(ex51), beta_star)),
            PASS),
        Job("plus(lambda1)", lambda: O.verify_operator_lemmas(C.plus_algebra(lambda1)), PASS),
    ]
    return jobs, {"lambda1": lambda1}


# -- CLI flow ------------------------------------------------------------------

# (job id, argv, expected exit code, files the command writes).  There are
# 25 commands, so that the 90th percentile over whole passes falls among the
# samples of the third slowest command rather than at the edge between two.
CLI_FLOW = (
    ("examples-list", ["examples", "--list"], 0, ()),
    ("emit-ex51", ["examples", "--emit", "example_5_1", "-o", "ex51.json"], 0, ("ex51.json",)),
    ("check-right-alt", ["check", "ex51.json", "--suite", "RIGHT_ALT"], 0, ()),
    ("check-right-alt-json", ["check", "ex51.json", "--suite", "RIGHT_ALT", "--json"], 0, ()),
    ("info-ex51", ["info", "ex51.json"], 0, ()),
    ("construct-minus", ["construct", "minus", "ex51.json", "-o", "minus.json"], 0, ("minus.json",)),
    ("construct-bol", ["construct", "bol", "ex51.json", "-o", "bol.json"], 0, ("bol.json",)),
    ("check-bol", ["check", "bol.json", "--suite", "BOL"], 0, ()),
    ("construct-plus", ["construct", "plus", "ex51.json", "-o", "plus.json"], 0, ("plus.json",)),
    ("check-plus-jordan", ["check", "plus.json", "--suite", "JORDAN"], 0, ()),
    ("twist-beta-star", ["twist", "ex51.json", "--map", "beta_star", "-n", "1", "-o", "twisted.json"],
     0, ("twisted.json",)),
    ("check-twisted-right-hom-alt", ["check", "twisted.json", "--suite", "RIGHT_HOM_ALT"], 0, ()),
    ("construct-hom-bol", ["construct", "hom_bol", "twisted.json", "-o", "hb.json"], 0, ("hb.json",)),
    ("check-hom-bol", ["check", "hb.json", "--suite", "HOM_BOL"], 0, ()),
    ("derive-2", ["derive", "hb.json", "-n", "2", "-o", "derived.json"], 0, ("derived.json",)),
    ("info-derived", ["info", "derived.json"], 0, ()),
    ("emit-hombol-2-3", ["examples", "--emit", "example_5_1_hombol(2,3)", "-o", "hombol23.json"],
     0, ("hombol23.json",)),
    ("criterion-5-hom-bol-json", ["check", "hombol23.json", "--suite", "HOM_BOL", "--json"], 1, ()),
    ("derive-hombol-2-3", ["derive", "hombol23.json", "-n", "1", "-o", "hombol23_d1.json"],
     0, ("hombol23_d1.json",)),
    ("criterion-12-derived-hom-bol", ["check", "hombol23_d1.json", "--suite", "HOM_BOL"], 1, ()),
    ("malformed-check", ["check", "malformed.json", "--suite", "BOL"], 2, ()),
    ("info-m21", ["info", "m21.json"], 0, ()),
    ("check-m21-right-alt", ["check", "m21.json", "--suite", "RIGHT_ALT"], 0, ()),
    ("construct-bol-m21", ["construct", "bol", "m21.json", "-o", "m21_bol.json"], 0, ("m21_bol.json",)),
    ("info-m21-bol", ["info", "m21_bol.json"], 0, ()),
)

M21_NAME = "matrix_2_1"


# What ``python -m superbol.cli`` does, plus a report of the child's own peak
# RSS on stderr.  The parent cannot measure it: a child's ru_maxrss starts
# from the parent's RSS at fork, and the benchmark process is larger.
PEAK_MARKER = "bench-peak-rss-kb"
CLI_CHILD = f"""
import runpy, sys
try:
    runpy.run_module("superbol.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        peak = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    sys.stderr.write("\\n{PEAK_MARKER} " + peak[0] + "\\n")
"""


def subprocess_runner(workdir: str, src: str, peaks_kb: list):
    """Run the CLI as a child, one at a time, waiting for it; collect its peak RSS."""
    env = dict(os.environ, PYTHONPATH=src)

    def run(argv):
        done = subprocess.run(
            [sys.executable, "-c", CLI_CHILD, *argv],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
        )
        _, found, peak = done.stderr.rpartition(PEAK_MARKER + " ")
        if found:
            peaks_kb.append(int(peak))
        return done.returncode, done.stdout

    return run


def in_process_runner(sb, workdir: str):
    """Call ``superbol.cli.main(argv)`` in this process with captured output."""

    def run(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = sb.cli.main(list(argv))
        finally:
            os.chdir(previous)
        return code, stdout.getvalue()

    return run


def emit_cli_fixtures(sb, workdir: str, seed: int) -> dict:
    """Write the generated dim-9 file (seeded map) and the malformed file."""
    rng = random.Random(seed)
    m21 = families.matrix_superalgebra(2, 1)
    beta = families.diagonal_automorphism(2, 1, families.diagonal_entries(2, 1, rng))
    document = sb.storage.AlgebraDocument(name=M21_NAME, structure=m21, maps={"beta": beta})
    sb.storage.save(document, os.path.join(workdir, "m21.json"))
    with open(os.path.join(workdir, "malformed.json"), "w") as out:
        out.write(MALFORMED)
    return {"m21": m21, "m21/beta": (m21, beta)}


def _expected_m21_bol(sb, generated: dict, workdir: str) -> Callable[[], bytes]:
    """Bytes the library writes for ``construct bol`` on the seeded dim-9 file."""

    def expected() -> bytes:
        m21, beta = generated["m21/beta"]
        document = sb.storage.AlgebraDocument(
            name=f"bol({M21_NAME})",
            structure=sb.constructions.bol_from_right_alternative(m21),
            maps={"beta": beta},
        )
        path = os.path.join(workdir, "expected_m21_bol.json")
        sb.storage.save(document, path)
        with open(path, "rb") as handle:
            return handle.read()

    return expected


def cli_flow(sb, workdir: str, runner, generated: dict) -> list[Job]:
    jobs = []
    for job_id, argv, code, files in CLI_FLOW:
        seeded = {}
        if "m21_bol.json" in files:
            seeded["m21_bol.json"] = _expected_m21_bol(sb, generated, workdir)
        jobs.append(Job(job_id, lambda argv=argv: runner(argv), code, files, seeded))
    return jobs


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- generator oracle ----------------------------------------------------------

ORACLE_IDENTITIES = {
    "associativity": "((x*y)*z) - (x*(y*z)) = 0",
    "supercommutativity": "(x*y) - (-1)^{x.y} (y*x) = 0",
    "automorphism": "A((x*y)) - (A(x)*A(y)) = 0",
}


def _random_element(core, space, rng: random.Random):
    return core.Element(space, {
        i: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for i in range(space.dim)
    })


def oracle_checks(sb, generated: dict, seed: int) -> list[tuple[str, bool]]:
    """Check the generated families with ``evaluate_on_elements`` on seeded random elements.

    Every generated algebra is associative; Lambda(n) is supercommutative and
    M(m|n) is not (so the oracle is also seen to fail); each diagonal
    conjugation is an automorphism.  Returns (check name, agrees) pairs.
    """
    core, E, D = sb.core, sb.engine, sb.dsl
    rng = random.Random(seed)
    identities = {name: D.parse_identity(text, name=name) for name, text in ORACLE_IDENTITIES.items()}
    results = []

    def vanishes(identity, algebra, twist) -> bool:
        binding = E.StructureBinding(space=algebra.space, ops={"*": algebra.binary}, twist=twist)
        values = [
            E.evaluate_on_elements(identity, binding, {
                var: _random_element(core, algebra.space, rng) for var in identity.variables
            })
            for _ in range(ORACLE_SAMPLES)
        ]
        return all(value.is_zero() for value in values)

    for label, item in sorted(generated.items()):
        if isinstance(item, tuple):
            algebra, beta = item
            results.append((f"{label}:automorphism", vanishes(identities["automorphism"], algebra, beta)))
            continue
        identity_map = core.EvenMap.identity(item.space)
        results.append((f"{label}:associativity", vanishes(identities["associativity"], item, identity_map)))
        commutative = vanishes(identities["supercommutativity"], item, identity_map)
        results.append((f"{label}:supercommutativity", commutative == label.startswith("lambda")))
    return results
