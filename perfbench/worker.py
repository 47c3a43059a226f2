"""One fresh, single-threaded process that runs one workload of the benchmark.

    python3 perfbench/worker.py WORKLOAD SEED [--trace]
    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --write-references

``endosign`` must be importable (``run.py`` puts the checkout's ``src`` on
``PYTHONPATH``).  The first thing the process does is what a user of the CLI
pays before any sweep: import ``endosign.cli`` and build its parser.  The
``time.monotonic()`` reading taken right after that is reported as
``ready``; the parent subtracts its own reading taken just before the spawn
to get the set-up time.  With ``--setup-only`` the process stops there.

Otherwise it runs the workload's sub-sweeps in the seed's order through the
public entry points, checks every report against its committed reference,
and prints one JSON object on stdout.  With ``--trace`` the sweeps run under
the counting tracer and the object carries the counters and spans.
"""

import time

import endosign.cli

endosign.cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up mark on purpose)
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import endosign.suites  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, canonical, ordered, reference  # noqa: E402


def _gamma_candidates(args, kwargs, result):
    """enumerate_gamma admits a subset of (q-1)^(R-r) * 2^r candidate vectors."""
    shape = args[0] if args else kwargs["shape"]
    field = args[1] if len(args) > 1 else kwargs["rp_field"]
    return {"admitted": len(result),
            "candidates": (field.q - 1) ** (shape.R - shape.r) * 2 ** shape.r}


OBSERVERS = {"families.enumerate_gamma": _gamma_candidates}


def run_one(sub) -> tuple[int, str]:
    """Run one sub-sweep through its public entry point: (exit code, report text)."""
    if sub.argv:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = endosign.cli.main(list(sub.argv))
        return code, out.getvalue()
    report = getattr(endosign.suites, sub.func)(**sub.kwargs).to_json_dict()
    return (0 if report["pass"] else 1), json.dumps(report, sort_keys=True, indent=2) + "\n"


def check(sub, code: int, text: str) -> dict:
    """Exit code 0, ``pass: true`` and a report equal to the reference."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        report = {}
    ok = (code == 0 and report.get("pass") is True
          and canonical(report) == reference(sub))
    return {"id": sub.id, "exit": code, "points": report.get("points_checked", 0), "ok": ok}


def _peak_rss_mb() -> float:
    """This process's own peak resident set size (VmHWM).

    ``ru_maxrss`` is not used: Linux carries it across exec, so it would
    report the parent's memory when that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_workload(workload: str, seed: int, trace: bool) -> dict:
    subs = ordered(workload, seed)
    log = Tracer(observers=OBSERVERS)
    outputs = []
    cpu0 = _cpu_s()
    with log.installed() if trace else contextlib.nullcontext():
        with log.span(workload) as top:
            for suite, group in itertools.groupby(subs, key=lambda s: s.suite):
                with log.span(suite, top) as parent:
                    for sub in group:
                        with log.span(sub.id, parent):
                            outputs.append((sub,) + run_one(sub))
    cpu_s = _cpu_s() - cpu0
    checks = [check(*item) for item in outputs]
    spans = [dict(s, wall_s=(s["end_ns"] - s["start_ns"]) / 1e9) for s in log.spans]
    result = {
        "workload": workload,
        "seed": seed,
        "order": [s.id for s in subs],
        "ready": READY,
        "wall_s": spans[0]["wall_s"],
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "points": sum(c["points"] for c in checks),
        "checks": checks,
        "spans": spans,
    }
    if trace:
        result["trace"] = log.to_json()
    return result


def write_references() -> None:
    """Record the current reports as the references (only after a reviewed change)."""
    for subs in WORKLOADS.values():
        for sub in subs:
            code, text = run_one(sub)
            if code != 0:
                raise SystemExit(f"{sub.id}: exit code {code}, reference not written")
            sub.reference_path.parent.mkdir(exist_ok=True)
            sub.reference_path.write_text(canonical(json.loads(text)), encoding="utf-8")


def main(argv: list[str]) -> int:
    if "--write-references" in argv:
        write_references()
        return 0
    if "--setup-only" in argv:
        result = {"ready": READY}
    else:
        workload, seed = argv[0], int(argv[1])
        result = run_workload(workload, seed, "--trace" in argv)
    result.update(endosign_file=endosign.__file__, endosign_version=endosign.__version__)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
