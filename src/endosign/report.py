"""Verification report records shared by the sweep suites and the CLI."""

from __future__ import annotations


class VerificationReport:
    """Outcome of one verification sweep.

    The sweep fills in points_checked, failures, elapsed_ms and notes; a
    report flagged incomplete records a sweep that was refused or cut short.
    """

    def __init__(self, suite: str, parameters: dict, incomplete: bool = False):
        self.suite = suite
        self.parameters = parameters
        self.points_checked = 0
        self.failures: list[dict] = []
        self.elapsed_ms = 0
        self.notes: list[str] = []
        self.incomplete = incomplete

    @property
    def passed(self) -> bool:
        return not self.failures and not self.incomplete

    def to_json_dict(self) -> dict:
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
