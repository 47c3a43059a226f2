import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import endosign
from endosign import constants, suites
from endosign.cli import main
from endosign.localfield import ResidueParam

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def drop_elapsed(payload):
    if isinstance(payload, list):
        return [drop_elapsed(p) for p in payload]
    return {k: v for k, v in payload.items() if k != "elapsed_ms"}


def test_verify_pass_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "aux", "--rmax", "5")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["points_checked"] == 66  # 6 * 11 sweep points
    assert report["failures"] == []


def test_the_readme_suite_table_lists_the_registry_defaults():
    # rows "| `suite` | what it sweeps | `--key default ...` |"; the q list comma-joined
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 3 and cells[0].strip("`") in suites.SUITES:
            rows[cells[0].strip("`")] = cells[-1].strip("`")
    assert rows == {
        name: " ".join(f"--{key.replace('_', '-')} "
                       + (",".join(map(str, default)) if key == "q" else str(default))
                       for key, default, *_ in specs)
        for name, (_, specs) in suites.SUITES.items()}


def test_verify_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "verify", "kappasum", "--max-rr", "4")
    _, second = run_cli(capsys, "verify", "kappasum", "--max-rr", "4")
    assert drop_elapsed(json.loads(first)) == drop_elapsed(json.loads(second))


def test_resource_cap_exit_three(capsys):
    code, out = run_cli(capsys, "verify", "aux", "--rmax", "1000")
    assert code == 3
    report = json.loads(out)
    assert report["incomplete"] is True and report["pass"] is False


@pytest.mark.parametrize("flag", ["5,1000000007", "1000000008"])
def test_q_cap_exit_three_before_any_field_is_built(flag, monkeypatch, capsys):
    def no_field(self, q):
        raise AssertionError(f"ResidueParam({q}) was built above the q cap")

    monkeypatch.setattr(ResidueParam, "__init__", no_field)
    start = time.monotonic()
    code, out = run_cli(capsys, "verify", "counting", "--q", flag)
    assert time.monotonic() - start < 1
    assert code == 3
    report = json.loads(out)
    assert report["incomplete"] is True and report["points_checked"] == 0
    assert report["parameters"] == {"error": "q capped at 101"}


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonexistent"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_csv_output(capsys):
    code, out = run_cli(capsys, "verify", "kappasum", "--max-rr", "2",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["suite"] == "kappasum"
    assert rows[0]["pass"] == "True"
    assert json.loads(rows[0]["failures"]) == []


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "aux", "--rmax", "3", "--out", str(target))
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["suite"] == "aux" and report["pass"] is True


def test_enumerate_params(capsys):
    code, out = run_cli(capsys, "enumerate", "params", "--n", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["parameter_count"] == 1
    assert payload["parameters"] == [
        {"lam_plus": [], "lam_minus": [], "characters": 1}]

    code, out = run_cli(capsys, "enumerate", "params", "--n", "3")
    payload = json.loads(out)
    assert payload["pairs"] == [[0, 3], [1, 2], [2, 1], [3, 0]]
    assert [p["partition"] for p in payload["symplectic_partitions"]][0] == [6]


def test_enumerate_descent(capsys):
    code, out = run_cli(capsys, "enumerate", "descent", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == len(payload["data"]) > 0
    for row in payload["data"]:
        # every row satisfies the dimension identity
        blocks = sum(d * f for d, f in row["blocks"])
        assert row["n_plus"] + row["n_minus"] + blocks == 3
        # ellipticity never produces (1, trivial) in the minus slot
        assert not (row["n_minus"] == 1 and row["eta_minus"] == "1")


def test_enumerate_cap(capsys):
    code, out = run_cli(capsys, "enumerate", "params", "--n", "99")
    assert code == 3
    assert json.loads(out)["incomplete"] is True


def test_verify_all_aggregates(capsys):
    code, out = run_cli(capsys, "verify", "all", "--rmax", "3", "--nmax", "2",
                        "--max-rr", "2", "--t2max", "0", "--rrmax", "0", "--q", "5")
    assert code == 0
    reports = json.loads(out)
    assert {r["suite"] for r in reports} == {
        "aux", "split", "kappasum", "counting", "constprod", "signchain",
        "transfer", "weyl", "descent", "params"}
    assert all(r["pass"] for r in reports)


def test_verify_all_reports_each_refusal_and_exits_three(capsys):
    code, out = run_cli(capsys, "verify", "all", "--rmax", "1000", "--q", "5", "--t2max", "0",
                        "--rrmax", "0", "--nmax", "0", "--max-rr", "0", "--beta-max", "0")
    assert code == 3
    reports = {r["suite"]: r for r in json.loads(out)}
    refused = {name: r["parameters"]["error"] for name, r in reports.items()
               if r.get("incomplete")}
    assert refused == {"aux": "rmax capped at 60", "split": "rmax capped at 60",
                       "constprod": "rmax capped at 10", "signchain": "rmax capped at 20"}
    assert all(reports[name]["points_checked"] == 0 for name in refused)
    passed = {name for name, r in reports.items() if r["pass"]}
    assert passed == set(suites.SUITES) - refused.keys() and len(passed) == 6


@pytest.mark.parametrize("argv", [
    ["verify", "counting", "--q", "4"],
    ["verify", "transfer", "--q", "9", "--rrmax", "0"],
    ["verify", "aux", "--rmax", "-1"],
    ["verify", "split", "--nmax", "-3"],
    ["verify", "kappasum", "--max-rr", "7"],
    ["verify", "transfer", "--rrmax", "1"],
    ["verify", "counting", "--q", "5,5"],
    ["verify", "all", "--max-rr", "7"],
    ["enumerate", "params", "--n", "-1"],
    ["enumerate", "descent", "--n", "-1"],
    ["verify", "counting", "--q", "5,x"],
    ["verify", "aux", "--q", "5"],
    ["verify", "transfer", "--nmax", "2"],
])
def test_invalid_value_exit_two(argv, monkeypatch, capsys):
    def no_sweep(*args, **params):
        raise AssertionError(f"{argv[:2]} ran despite an invalid value")

    for entry in ("run", "enumerate_params_report", "enumerate_descent_report"):
        monkeypatch.setattr(suites, entry, no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_flag_the_suite_does_not_read_is_named(monkeypatch, capsys):
    monkeypatch.setattr(suites, "run", lambda *args, **params: pytest.fail("sweep ran"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "aux", "--q", "5", "--nmax", "99", "--rmax", "1"])
    assert exc.value.code == 2
    assert "verify aux: --nmax, --q not read by this suite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "aux", "--rmax", "0"],
    ["enumerate", "params", "--n", "0"],
])
@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_exit_two(argv, target, tmp_path, monkeypatch, capsys):
    def no_sweep(*args, **params):
        raise AssertionError(f"{argv[:2]} ran despite an unwritable --out")

    for entry in ("run", "enumerate_params_report", "enumerate_descent_report"):
        monkeypatch.setattr(suites, entry, no_sweep)
    out = tmp_path / target
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--out {out}" in captured.err
    assert list(tmp_path.iterdir()) == []


NOT_WRITTEN = "endosign: output not written: No space left on device\n"
needs_dev_full = pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")


class FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    ["verify", "aux", "--rmax", "1"],
    # refused: written, its report would exit 3
    ["verify", "aux", "--rmax", "1000"],
    ["enumerate", "params", "--n", "1", "--format", "csv"],
])
def test_a_stdout_that_cannot_be_written_exits_two(argv, capsys):
    with contextlib.redirect_stdout(FullStdout()):
        code = main(argv)
    assert code == 2
    assert capsys.readouterr() == ("", NOT_WRITTEN)


@needs_dev_full
def test_an_out_file_that_cannot_be_written_exits_two(capsys):
    assert main(["verify", "aux", "--rmax", "1", "--out", "/dev/full"]) == 2
    assert capsys.readouterr() == ("", NOT_WRITTEN)


@needs_dev_full
def test_a_full_stdout_exits_two_from_the_process(tmp_path):
    # block-buffered, so that the bytes left unwritten would be flushed again at exit
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(endosign.__file__).resolve().parent.parent)
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "endosign.cli", "verify", "aux", "--rmax", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path)
    assert (done.returncode, done.stderr) == (2, NOT_WRITTEN)


def test_value_error_inside_sweep_is_not_a_usage_error(monkeypatch):
    def broken(rp, rpp):
        raise ValueError("planted")

    monkeypatch.setattr(constants, "split_pair_values", broken)
    with pytest.raises(ValueError, match="planted"):
        main(["verify", "aux", "--rmax", "1"])


def without_timing(out):
    """A CLI report without its elapsed_ms lines, one per suite: the bytes that a golden stores."""
    lines = out.splitlines(keepends=True)
    kept = [line for line in lines if not line.lstrip().startswith('"elapsed_ms": ')]
    assert len(lines) - len(kept) == sum(line.lstrip().startswith('"suite": ') for line in lines)
    return "".join(kept)


def report_digest(out):
    """SHA-256 of a CLI report's JSON bytes with its elapsed_ms lines dropped.

    The one digest by which reports are compared across runs and checkouts,
    for example at bounds too heavy for a golden.  A golden, which has no
    elapsed_ms line, hashes to the digest of the report that it records.
    """
    return hashlib.sha256(without_timing(out).encode("utf-8")).hexdigest()


def assert_matches_reference(out, name):
    reference = REFERENCE_DIR / f"{name}.json"
    assert without_timing(out) == reference.read_text(encoding="utf-8")
    assert report_digest(out) == hashlib.sha256(reference.read_bytes()).hexdigest()


DEFAULT_GOLDENS = ["aux", "split", "kappasum", "constprod", "signchain", "weyl", "descent",
                   "params"]
TRANSFER_GOLDEN_QS = ["5", "7"]
COUNTING_GOLDEN_QS = ["5", "7", "13"]


@pytest.mark.parametrize("suite", DEFAULT_GOLDENS)
def test_default_reports_match_references(suite, capsys):
    code, out = run_cli(capsys, "verify", suite)
    assert code == 0
    assert_matches_reference(out, suite)


@pytest.mark.parametrize("q", TRANSFER_GOLDEN_QS)
def test_transfer_reports_match_references(q, capsys):
    code, out = run_cli(capsys, "verify", "transfer", "--q", q, "--rrmax", "4")
    assert code == 0
    assert_matches_reference(out, f"transfer-q{q}")


# (verify's arguments, the report's digest) of the reports too large for a
# golden; tests/test_heavy.py checks HEAVY.json against these pins
DIGEST_PINS = [
    # every suite at its defaults, one elapsed_ms line each
    (["all"], "849ff2a52da4da8e3c1313186bcfa308495893954e59bb78a657c97db8f722cb"),
    # too large for a golden: 72,445,725 points at q = 5
    (["transfer", "--q", "5", "--rrmax", "6"],
     "902b28d6b6bb9d1279f16680b89bb02a981c7a130ff34ec188caa6694619d090"),
    # the heavy counting bound: 710 points, about 1 s
    (["counting", "--q", "5", "--t2max", "3"],
     "24f480bbfd6644eb90969593f7189f46c8e9d38a13e1171f0103c407dcc204c6"),
    # three breadth suites at their caps, about 1.2 s together
    (["constprod", "--q", "5,7,11,13", "--rmax", "10"],
     "45466a7302e8386d1d8f73e3619b08e69484231117ccb322107021f80a40f766"),
    (["split", "--rmax", "60", "--nmax", "20"],
     "7d41e2406031f9c81427ba649d3a1db9e3d17f84d49ce5daf1887ac98cc62729"),
    (["descent", "--beta-max", "10"],
     "8431b983e4bc151c308fdf96c74f75d1a0ed801e45c7dc1c1753b7504e593b1b"),
    # q = 11, which no golden reaches: 4,931,469 and 82 points
    (["transfer", "--q", "11", "--rrmax", "4"],
     "f6674317332fdf4ff992b65f50dc0b78ad7a53f3d9ec11b330670153754e0e96"),
    (["counting", "--q", "11", "--t2max", "1"],
     "92295f670b2cce3d69a2eeb689de5eb3e5852e791d4d98b676579ec2d8d3a033"),
]


@pytest.mark.parametrize("argv, digest", DIGEST_PINS, ids=[
    "all", "transfer-q5-rrmax6", "counting-q5-t2max3", "constprod-cap", "split-cap", "descent-cap",
    "transfer-q11-rrmax4", "counting-q11-t2max1"])
def test_reports_without_a_golden_keep_their_digests(argv, digest, capsys):
    code, out = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert report_digest(out) == digest


@pytest.mark.parametrize("q", COUNTING_GOLDEN_QS)
def test_counting_reports_match_references(q, capsys):
    code, out = run_cli(capsys, "verify", "counting", "--q", q, "--t2max", "2")
    assert code == 0
    assert_matches_reference(out, f"counting-q{q}")


def test_the_reference_tests_cover_every_golden():
    # the three tests above compare every golden, each also by report_digest
    compared = DEFAULT_GOLDENS + [f"transfer-q{q}" for q in TRANSFER_GOLDEN_QS] \
        + [f"counting-q{q}" for q in COUNTING_GOLDEN_QS]
    assert sorted(compared) == sorted(path.stem for path in REFERENCE_DIR.glob("*.json"))
