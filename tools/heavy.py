"""Time the heavy bounds, each in a fresh process, and write the record as HEAVY.json.

    python3 tools/heavy.py

runs the bounds on the checkout that holds this script and writes
HEAVY.json at its root.  Each bound of BOUNDS runs as
`python -m endosign.cli verify ...` in its own process, with the
checkout's src/ first on PYTHONPATH and PYTHONHASHSEED=0, one bound after
the other.  Per bound the record holds its argv, the points its report
checked, the report's digest, and the process's wall time, CPU time (user
plus system) and peak resident set size, the last two from os.wait4.  The wall and CPU times include the interpreter's start-up and
the package import, about 0.1 s.  The digest is SHA-256 of the report's
bytes with its elapsed_ms lines dropped: the recipe of report_digest in
tests/test_cli.py, which pins the digests of the first five bounds, so a
record whose digests differ from those pins was taken on code whose
reports changed.  A bound whose process exits other than 0 stops the run.

Standard library only; it builds nothing and writes only the record.  To
compare two checkouts, run each one's copy of the script.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BOUNDS = [
    # pinned by digest in tests/test_cli.py
    ["verify", "transfer", "--q", "5", "--rrmax", "6"],
    ["verify", "counting", "--q", "5", "--t2max", "3"],
    ["verify", "constprod", "--q", "5,7,11,13", "--rmax", "10"],
    ["verify", "split", "--rmax", "60", "--nmax", "20"],
    ["verify", "descent", "--beta-max", "10"],
    # pinned nowhere: the bounds where the time goes
    ["verify", "transfer", "--q", "5,7", "--rrmax", "6"],
    ["verify", "counting", "--q", "7", "--t2max", "3"],
    # the m = +1 field of transfer's default q list that meets every Legendre profile
    ["verify", "transfer", "--q", "13", "--rrmax", "4"],
    # counting's selection tables and tally at the largest field that runs in seconds
    ["verify", "counting", "--q", "11", "--t2max", "2"],
]


def report_digest(out: str) -> str:
    """SHA-256 of a CLI report's JSON bytes with its elapsed_ms lines dropped."""
    kept = [line for line in out.splitlines(keepends=True)
            if not line.lstrip().startswith('"elapsed_ms": ')]
    return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()


def run_bound(argv: list[str]) -> dict:
    """Run one bound in a fresh process and return its record."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    args = [sys.executable, "-m", "endosign.cli", *argv]
    with tempfile.TemporaryFile() as stdout:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, args, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, stdout.fileno(), 1)])
        _, status, usage = os.wait4(pid, 0)
        wall_s = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise SystemExit(f"heavy: {' '.join(argv)} exited with {code}")
        stdout.seek(0)
        out = stdout.read().decode("utf-8")
    return {"argv": argv, "points": json.loads(out)["points_checked"],
            "digest": report_digest(out), "wall_s": round(wall_s, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def main() -> int:
    record = {"python": platform.python_version(), "platform": platform.platform(),
              "cpus": os.cpu_count(), "bounds": []}
    for bound in BOUNDS:
        record["bounds"].append(run_bound(bound))
        print(json.dumps(record["bounds"][-1]), file=sys.stderr)
    (ROOT / "HEAVY.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
