"""HEAVY.json, the record of tools/heavy.py, agrees with the digests that tier-1 pins."""

import importlib.util
import json
from pathlib import Path

from test_cli import DIGEST_PINS, report_digest, run_cli

ROOT = Path(__file__).resolve().parent.parent


def _heavy():
    spec = importlib.util.spec_from_file_location("heavy", ROOT / "tools" / "heavy.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_record_holds_the_pinned_digests():
    record = json.loads((ROOT / "HEAVY.json").read_text(encoding="utf-8"))
    assert [bound["argv"] for bound in record["bounds"]] == _heavy().BOUNDS
    recorded = {tuple(bound["argv"]): bound["digest"] for bound in record["bounds"]}
    pins = {("verify", *argv): digest for argv, digest in DIGEST_PINS}
    # the heavy transfer and counting bounds and the three cap bounds
    pinned = recorded.keys() & pins.keys()
    assert len(pinned) == 5
    assert {argv: recorded[argv] for argv in pinned} == {argv: pins[argv] for argv in pinned}


def test_the_record_digests_reports_as_the_pins_do(capsys):
    code, out = run_cli(capsys, "verify", "all", "--rmax", "1")
    assert code == 0
    assert _heavy().report_digest(out) == report_digest(out)


def test_a_bound_runs_in_a_fresh_process_and_reports_as_in_process(capsys):
    argv = ["verify", "aux", "--rmax", "2"]
    bound = _heavy().run_bound(argv)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert (bound["argv"], bound["digest"], bound["points"]) == \
        (argv, report_digest(out), json.loads(out)["points_checked"])
    assert bound["wall_s"] > 0 and bound["cpu_s"] > 0 and bound["peak_rss_mb"] > 0
