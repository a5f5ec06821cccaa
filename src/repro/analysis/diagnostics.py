"""Structured diagnostics emitted by the ensemble-safety checkers.

A :class:`Diagnostic` pins a finding to (function, block, instruction
index) — and, when the frontend recorded source locations, to the user's
DSL source line — with a severity, a human message, and an optional fix-it
hint.  Checkers return lists of these; the lint CLI renders them as text
or JSON, the pipeline's analyze stage and the ensemble loader's launch
gate act on their severities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir.instructions import Instr


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering is meaningful (ERROR > WARNING > NOTE)."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static checker.

    ``checker`` is the registry name of the pass that produced it;
    ``sym`` optionally names the symbol at fault (a global, a service);
    ``loc`` is the ``(line, col)`` the frontend recorded, when available.
    """

    severity: Severity
    checker: str
    function: str
    block: str | None
    index: int | None
    message: str
    hint: str | None = None
    sym: str | None = None
    loc: tuple[int, int] | None = field(default=None)

    def format(self) -> str:
        """Render as one (or two, with a hint) human-readable lines."""
        where = self.function
        if self.block is not None:
            where += f":{self.block}"
        if self.index is not None:
            where += f":{self.index}"
        if self.loc is not None:
            where += f" (line {self.loc[0]})"
        text = f"{self.severity.label}[{self.checker}] {where}: {self.message}"
        if self.hint:
            text += f"\n  hint: {self.hint}"
        return text

    def to_dict(self) -> dict:
        """JSON-ready representation (used by ``repro.tools.lint --format json``)."""
        return {
            "severity": self.severity.label,
            "checker": self.checker,
            "function": self.function,
            "block": self.block,
            "index": self.index,
            "line": None if self.loc is None else self.loc[0],
            "col": None if self.loc is None else self.loc[1],
            "sym": self.sym,
            "message": self.message,
            "hint": self.hint,
        }


def instr_loc(instr: Instr) -> tuple[int, int] | None:
    """The frontend-recorded ``(line, col)`` of an instruction, if any."""
    loc = instr.meta.get("loc")
    if (
        isinstance(loc, tuple)
        and len(loc) == 2
        and all(isinstance(v, int) for v in loc)
    ):
        return loc
    return None


def count_by_severity(diagnostics: list[Diagnostic]) -> dict[str, int]:
    """``{"error": n, "warning": n, "note": n}`` summary of a finding list."""
    counts = {sev.label: 0 for sev in Severity}
    for d in diagnostics:
        counts[d.severity.label] += 1
    return counts


def errors(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Only the ERROR-severity findings."""
    return [d for d in diagnostics if d.severity is Severity.ERROR]
