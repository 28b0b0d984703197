"""Verdict containers shared by the identity checker and the structure checks."""

from __future__ import annotations

from typing import Optional

from .core import Element, Value


class CheckReport(Value):
    """Outcome of one exhaustively checked condition.

    ``counterexample`` is the lexicographically first failing tuple of basis
    names (in the order the condition's variables are quantified); ``residue``
    is the nonzero element witnessing the failure.  Both are ``None`` when the
    check passed.
    """

    __slots__ = _fields = ("name", "passed", "tuples_checked", "counterexample", "residue", "detail")

    def __init__(self, name: str, passed: bool, tuples_checked: int,
                 counterexample: Optional[tuple[str, ...]] = None, residue: Optional[Element] = None,
                 detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "tuples_checked", tuples_checked)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "detail", detail)

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        text = f"{verdict} {self.name} tuples={self.tuples_checked}"
        if self.detail:
            text += f" [{self.detail}]"
        if not self.passed and self.counterexample is not None:
            text += f" counterexample=({', '.join(self.counterexample)})"
            if self.residue is not None:
                text += f" residue={self.residue}"
        return text


class SuiteReport(Value):
    """Aggregate of the reports of every condition in a named suite."""

    __slots__ = _fields = ("suite", "reports")

    def __init__(self, suite: str, reports: tuple[CheckReport, ...] = ()):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "reports", reports)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def first_failure(self) -> Optional[CheckReport]:
        for report in self.reports:
            if not report.passed:
                return report
        return None

    def __getitem__(self, name: str) -> CheckReport:
        for report in self.reports:
            if report.name == name:
                return report
        raise KeyError(name)

    def describe(self) -> str:
        lines = [r.describe() for r in self.reports]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict} suite {self.suite}: {sum(r.passed for r in self.reports)}/{len(self.reports)} checks passed")
        return "\n".join(lines)
