"""Fidelity of the benchmark's tracer on a small transfer sweep.

Run with ``python -m pytest perfbench/tests``.  The tracer must count
exactly what ``cProfile`` counts, must not change the report, and must
leave every namespace it patched as it found it.
"""

import contextlib
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import endosign.cli  # noqa: E402
import pytest  # noqa: E402
from tracer import Tracer, same_snapshot, snapshot  # noqa: E402
from workloads import canonical  # noqa: E402

ARGV = ["verify", "transfer", "--q", "5", "--rrmax", "2"]


def run_cli() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert endosign.cli.main(list(ARGV)) == 0
    return canonical(json.loads(out.getvalue()))


@pytest.fixture(scope="module")
def runs():
    profile = cProfile.Profile()
    profile.enable()
    profiled = run_cli()
    profile.disable()
    before = snapshot()
    tracer = Tracer()
    with tracer.installed():
        during = snapshot()
        traced = run_cli()
    after = snapshot()
    return {"plain": run_cli(), "profiled": profiled, "traced": traced,
            "stats": pstats.Stats(profile).stats, "tracer": tracer,
            "before": before, "during": during, "after": after}


def test_call_counts_equal_cprofile(runs):
    tracer, stats = runs["tracer"], runs["stats"]
    compared = 0
    for key, code in tracer.codes.items():
        if code.co_filename.startswith("<"):  # generated dataclass methods share names
            continue
        expected = stats.get((code.co_filename, code.co_firstlineno, code.co_name),
                             (0, 0))[1]
        cell = tracer.cells[key]
        # cProfile counts every resume of a generator as a call.
        got = cell[2] if key in tracer.generators else cell[0]
        assert got == expected, key
        compared += 1
    assert compared > 100
    for key in ("localfield.legendre", "weyl.sgn_cd", "constants.factorwise_transfer_check",
                "families.gamma_L_split", "families.GammaVector.init", "cli.main"):
        assert tracer.calls(key) > 0, key


def test_traced_report_equals_untraced(runs):
    assert runs["traced"] == runs["plain"] == runs["profiled"]
    assert json.loads(runs["plain"])["pass"] is True


def test_namespaces_restored(runs):
    assert not same_snapshot(runs["before"], runs["during"])
    assert same_snapshot(runs["before"], runs["after"])


def test_namespaces_restored_after_error():
    before = snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            endosign.localfield.legendre(1, endosign.localfield.ResidueParam(5)) / 0
    assert same_snapshot(before, snapshot())


def test_self_time_covers_the_run():
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("sweep"):
            run_cli()
    span = tracer.spans[0]
    wall = (span["end_ns"] - span["start_ns"]) / 1e9
    charged = sum(cell[1] for cell in tracer.cells.values()) / 1e9
    assert wall <= charged <= wall * 1.5
