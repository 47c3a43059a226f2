"""Verification report records shared by the sweep suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class VerificationReport:
    """Outcome of one verification sweep."""

    suite: str
    parameters: dict[str, Any]
    points_checked: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    elapsed_ms: int = 0
    notes: list[str] = field(default_factory=list)
    incomplete: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures and not self.incomplete

    def to_json_dict(self) -> dict[str, Any]:
        out = {
            "suite": self.suite,
            "parameters": self.parameters,
            "points_checked": self.points_checked,
            "failures": self.failures,
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.notes:
            out["notes"] = self.notes
        if self.incomplete:
            out["incomplete"] = True
        return out
