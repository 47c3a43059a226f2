"""The benchmark's workloads: which sweeps each runs, in which order, and their checks.

A workload is a list of independent sub-sweeps.  Each sub-sweep is either a
``endosign.cli.main`` argument list or, for the two suites the CLI does not
expose, a ``endosign.suites`` function with keyword arguments.  The sweeps
are exhaustive and deterministic, so the seed only permutes the order of
the sub-sweeps; the points and the per-sub-sweep reports stay fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class SubSweep:
    """One independent sweep with a committed reference report."""

    id: str
    suite: str
    argv: tuple[str, ...] = ()
    func: str = ""
    kwargs: dict = field(default_factory=dict)

    @property
    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.id}.json"


def _cli(suite: str, *flags: str, tag: str = "") -> SubSweep:
    return SubSweep(f"{suite}-{tag}" if tag else suite, suite, ("verify", suite) + flags)


WORKLOADS: dict[str, tuple[SubSweep, ...]] = {
    "transfer": tuple(_cli("transfer", "--q", q, "--rrmax", "4", tag=f"q{q}")
                      for q in ("5", "7")),
    "counting": tuple(_cli("counting", "--q", q, "--t2max", "2", tag=f"q{q}")
                      for q in ("5", "7", "13")),
    "breadth": (
        _cli("aux", "--rmax", "30"),
        _cli("split", "--rmax", "30", "--nmax", "10"),
        _cli("kappasum", "--max-rr", "6"),
        _cli("constprod", "--q", "5,7,13", "--rmax", "6"),
        _cli("signchain", "--rmax", "8"),
        _cli("weyl", "--nmax", "4"),
        SubSweep("descent", "descent", func="verify_descent", kwargs={"beta_max": 8}),
        SubSweep("params", "params", func="verify_params", kwargs={"nmax": 3}),
    ),
}

# Points each workload must check, exactly.
EXPECTED_POINTS = {"transfer": 1_389_258, "counting": 587, "breadth": 254_705}


def ordered(workload: str, seed: int) -> list[SubSweep]:
    """The workload's sub-sweeps in the order the seed picks."""
    subs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(subs)
    return subs


def canonical(report: dict) -> str:
    """The report as the CLI prints it, without its timing field."""
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def reference(sub: SubSweep) -> str:
    return sub.reference_path.read_text(encoding="utf-8")


def reference_points(sub: SubSweep) -> int:
    return json.loads(reference(sub))["points_checked"]
