"""In-memory span recorder around superbol's public functions.

The benchmark installs these wrappers only for the traced pass of a
``--trace 1`` run; timed runs never see them.  Coarse functions get a span
(name, start, end, parent, attributes); hot inner functions only bump a
counter, so tracing costs little where calls number in the millions.
Spans are written as JSONL when the run ends, and per-layer metrics (busy
time, self time, counts) are derived from them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

CONSTRUCTION_STAGES = (
    "plus_algebra",
    "minus_algebra",
    "bol_from_right_alternative",
    "hom_jordan_triple",
    "lie_triple_from_jordan_triple",
    "hom_bol_from_right_hom_alternative",
    "yau_twist_algebra",
    "yau_twist_bol",
    "nth_derived",
)

SPANNED = (
    ("superbol.cli", "main"),
    ("superbol.storage", "load"),
    ("superbol.storage", "save"),
    ("superbol.suites", "binding_for"),
    ("superbol.suites", "run_suite"),
    ("superbol.engine", "check"),
    ("superbol.engine", "evaluate_on_elements"),
    ("superbol.structures", "is_multiplicative"),
    ("superbol.operators", "verify_operator_lemmas"),
) + tuple(("superbol.constructions", stage) for stage in CONSTRUCTION_STAGES)

COUNTED = (
    ("superbol.structures", "bin_mul"),
    ("superbol.structures", "tern_mul"),
    ("superbol.operators", "L1"),
)

ELEMENT_CREATED = "core.Element.created"


def _short(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _span_attributes(name: str, args, result) -> dict:
    """What a span records beyond its timing, read from arguments and result."""
    if name == "engine.check":
        identity = args[1]
        return {"identity": identity.name, "arity": identity.arity,
                "tuples": result.tuples_checked, "passed": result.passed}
    if name == "storage.load":
        return {"bytes": _size(args[0])}
    if name == "storage.save":
        return {"bytes": _size(args[1])}
    if name == "suites.run_suite":
        return {"suite": args[1], "passed": result.passed}
    if name == "operators.verify_operator_lemmas":
        return {"tuples": sum(r.tuples_checked for r in result.reports)}
    return {}


class Recorder:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.phase = "pass"

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace the traced functions wherever a superbol module binds them."""
        holders = [m for n, m in sys.modules.items() if n == "superbol" or n.startswith("superbol.")]
        for module_name, attr in SPANNED:
            original = getattr(sys.modules[module_name], attr)
            self._replace(holders, original, self._spanned(_short(module_name, attr), original))
        for module_name, attr in COUNTED:
            original = getattr(sys.modules[module_name], attr)
            self._replace(holders, original, self._counted(_short(module_name, attr) + ".calls", original))
        element = sys.modules["superbol.core"].Element
        self._patches.append((element, "__init__", element.__init__))
        element.__init__ = self._counted(ELEMENT_CREATED, element.__init__)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _replace(self, holders, original, wrapper) -> None:
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def _counted(self, key: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name: str, fn):
        def spanned(*args, **kwargs):
            index = len(self.spans)
            span = {"id": index, "parent": self._stack[-1] if self._stack else None,
                    "name": name, "phase": self.phase, "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span.update(_span_attributes(name, args, result))
                return result
            except BaseException as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return spanned

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], counters: Counter) -> dict[str, float]:
    """Per-layer figures of one phase: calls, busy time, self time, work counts."""
    by_id = {span["id"]: span for span in spans}
    child_time: Counter = Counter()
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)

    def outermost(span) -> bool:
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == span["name"]:
                return False
            parent = by_id[parent]["parent"]
        return True

    calls: Counter = Counter()
    busy: Counter = Counter()
    self_time: Counter = Counter()
    for span in spans:
        name = span["name"]
        calls[name] += 1
        self_time[name] += _duration(span) - child_time[span["id"]]
        if outermost(span):
            busy[name] += _duration(span)

    checks = [s for s in spans if s["name"] == "engine.check" and "tuples" in s]
    out: dict[str, float] = {}
    for name in ("cli.main", "storage.load", "storage.save", "suites.binding_for",
                 "suites.run_suite", "engine.check", "engine.evaluate_on_elements",
                 "structures.is_multiplicative"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
    for name in ("storage.load", "storage.save"):
        out[f"{name}.bytes"] = sum(s.get("bytes", 0) for s in spans if s["name"] == name)
    tuples = sum(s["tuples"] for s in checks)
    out["engine.check.tuples"] = tuples
    out["engine.check.failed_verdicts"] = sum(1 for s in checks if not s["passed"])
    out["engine.check.tuples_per_s"] = tuples / busy["engine.check"] if busy["engine.check"] else 0.0
    for arity in (2, 3, 4, 5):
        group = [s for s in checks if s["arity"] == arity]
        seconds = sum(_duration(s) for s in group)
        out[f"engine.check.arity{arity}.tuples_per_s"] = (
            sum(s["tuples"] for s in group) / seconds if seconds else 0.0
        )
    for key in ("structures.bin_mul.calls", "structures.tern_mul.calls", ELEMENT_CREATED,
                "operators.L1.calls"):
        out[key] = counters[key]
    for stage in CONSTRUCTION_STAGES:
        out[f"constructions.{stage}.self_s"] = self_time[f"constructions.{stage}"]
    out["operators.verify_operator_lemmas.calls"] = calls["operators.verify_operator_lemmas"]
    out["operators.verify_operator_lemmas.self_s"] = self_time["operators.verify_operator_lemmas"]
    out["operators.tuples"] = sum(
        s.get("tuples", 0) for s in spans if s["name"] == "operators.verify_operator_lemmas"
    )
    return out
