"""Benchmark entry point for endosign.

    python3 perfbench/run.py --workload transfer|counting|breadth --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/`` and
``BENCHMARK.json``); nothing needs to be built or installed.  Every sample
is a fresh ``worker.py`` process with the checkout's ``src`` first on
``PYTHONPATH``, pinned to the usable CPUs in turn.

``--trace 0`` first spawns set-up-only workers, then runs whole workload
repetitions, each in its own process, as long as the next one is expected
to end within ``--seconds`` (at least one).  It reports the medians of the
end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1`` runs the
workload once untraced and once under the tracer and reports the
per-layer metrics.  Every report of every sub-sweep is checked against its
committed reference.  The last line of stdout is the JSON result; the full
record (environment, every sample, the traced counters) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import EXPECTED_POINTS, WORKLOADS, reference_points

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing source, crashed worker)."""


def spawn(*args: str, cpu: int) -> dict:
    """Run one worker process, pinned to ``cpu``, to completion and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # the same str hashing, hence dict layouts, in every sample
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    finished = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["endosign_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"endosign was imported from {result['endosign_file']}, "
                         f"not from {SRC}")
    result["setup_s"] = result["ready"] - started
    result["process_s"] = finished - started
    return result


def score(workload: str, result: dict) -> tuple[int, int]:
    """(attempted, failed) points of one repetition; a wrong report fails all its points."""
    points = {sub.id: reference_points(sub) for sub in WORKLOADS[workload]}
    failed = sum(points[c["id"]] for c in result["checks"] if not c["ok"])
    return sum(points.values()), failed


def quartiles(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "endosign").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def end_to_end(setups: list[float], reps: list[dict]) -> dict:
    """Medians over repetitions (set-up: over every spawned worker)."""
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in reps],
        "points_per_s": [r["points"] / r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "points": [r["points"] for r in reps],
    }
    return {name: quartiles(values) for name, values in samples.items()}


def suite_walls(result: dict) -> dict[str, float]:
    """Wall time of each suite span (children of the workload span)."""
    return {s["name"]: s["wall_s"] for s in result["spans"] if s["parent"] == 0}


def per_layer(name: str, traced: dict, plain: dict) -> float:
    """One per-layer metric, from its name.

    ``<layer>.self_s`` sums a module's self time; ``<function>.calls`` and
    ``<function>.self_s`` read one wrapped function (methods as
    ``Class.init``); ``suites.<suite>.wall_s`` is the untraced suite span.
    """
    functions, wrapped = traced["trace"]["functions"], traced["trace"]["wrapped"]
    head, _, metric = name.rpartition(".")
    if name == "trace.overhead_ratio":
        return traced["wall_s"] / plain["wall_s"]
    if metric == "wall_s":
        suite = head.split(".", 1)[1]
        if suite not in {s.suite for subs in WORKLOADS.values() for s in subs}:
            raise KeyError(f"{name}: no suite {suite!r}")
        return suite_walls(plain).get(suite, 0.0)
    if metric == "self_s" and "." not in head:
        if not any(k.startswith(head + ".") for k in wrapped):
            raise KeyError(f"{name}: no layer {head!r}")
        return sum(v["self_s"] for k, v in functions.items() if k.startswith(head + "."))
    if head not in wrapped:
        raise KeyError(f"{name}: {head!r} is not a traced function")
    if metric == "yield":
        seen = traced["trace"]["observed"].get(head, {})
        return seen["admitted"] / seen["candidates"] if seen else 0.0
    if metric == "per_point":
        return functions.get(head, {}).get("calls", 0) / traced["points"]
    return functions.get(head, {}).get(metric, 0)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    # Successive workers take the usable CPUs in turn. On a shared host each
    # CPU's speed drifts on its own, so a run that samples every CPU has a
    # steadier median than one the scheduler leaves on a single CPU.
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    deadline = time.monotonic() + seconds
    spawn("--setup-only", cpu=next(cpus))  # fills the bytecode cache; not a sample
    setups = [spawn("--setup-only", cpu=next(cpus))["setup_s"] for _ in range(SETUP_SAMPLES)]
    if trace:
        reps = [spawn(workload, str(seed), cpu=next(cpus))]
        traced = spawn(workload, str(seed), "--trace", cpu=next(cpus))
        return {"setups": setups, "reps": reps, "traced": traced}
    reps = []
    while not reps or time.monotonic() + statistics.median(
            r["process_s"] for r in reps) <= deadline:
        reps.append(spawn(workload, str(seed), cpu=next(cpus)))
    return {"setups": setups + [r["setup_s"] for r in reps], "reps": reps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "endosign" / "__init__.py").is_file():
        print(f"no endosign source under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = os.getloadavg()
    env["endosign_version"] = run["reps"][0]["endosign_version"]

    workers = run["reps"] + ([run["traced"]] if args.trace else [])
    attempted = failed = 0
    for result in workers:
        a, f = score(args.workload, result)
        attempted, failed = attempted + a, failed + f
    correct = failed == 0 and all(r["points"] == EXPECTED_POINTS[args.workload]
                                  for r in workers)

    stats = end_to_end(run["setups"], run["reps"])
    if args.trace:
        chosen = spec["per_layer"]
        values = {m["name"]: per_layer(m["name"], run["traced"], run["reps"][0])
                  for m in chosen}
    else:
        chosen = spec["end_to_end"]
        values = {m["name"]: stats[m["name"]]["median"] for m in chosen}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "stats": stats, "metrics": metrics,
              "setups": run["setups"], "reps": run["reps"]}
    if args.trace:
        record["traced"] = run["traced"]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, s in stats.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} over {s['n']} samples")
    print(f"{args.workload} fail_ratio: {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
