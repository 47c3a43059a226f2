"""Command-line batch verification and enumeration front end.

Usage:
    endosign verify SUITE [flags]     run one verification sweep
    endosign enumerate KIND --n N     emit an enumeration report

The verify suites and their flags come from the registry suites.SUITES.
Output is JSON by default (CSV with --format csv), written to stdout or to
--out FILE.  Exit codes: 0 all checks passed, 1 failures found, 2 usage
error (an unknown flag, a flag the verified suite does not read, an invalid
flag value or an --out FILE that cannot be opened for writing, reported
before any sweep or enumeration runs; verify all passes each flag to the
suites that read it) or an output that could not be written (one line on
stderr; this 2 wins over 1 and 3), 3 a resource cap was hit (the suites
module refused the request with a report or payload flagged incomplete).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from . import suites


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endosign",
        description="Exact verification of endoscopic-transfer sign and "
                    "constant identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a verification sweep")
    ver.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    readers: dict[str, list[str]] = {}
    for name, (_, specs) in suites.SUITES.items():
        for spec in specs:
            readers.setdefault(spec[0], []).append(name)
    for key, names in readers.items():
        kind, metavar = (_parse_q_list, "Q1,Q2,...") if key == "qs" else (int, "N")
        ver.add_argument(_flag(key), dest=key, type=kind, metavar=metavar, default=None,
                         help=f"read by {', '.join(names)}")
    _output_flags(ver)

    enum = sub.add_parser("enumerate", help="emit an enumeration report")
    enum.add_argument("kind", choices=["params", "descent"])
    enum.add_argument("--n", type=int, required=True)
    _output_flags(enum)
    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="write output to FILE instead of stdout")


def _parse_q_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad q list {text!r}") from None


def _flag(key: str) -> str:
    """The verify flag that sets the suite parameter key."""
    return "--q" if key == "qs" else "--" + key.replace("_", "-")


def _given(args) -> dict:
    """The suite parameters that were set on the command line."""
    keys = {spec[0] for _, specs in suites.SUITES.values() for spec in specs}
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _emit(payload, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    rows = payload if isinstance(payload, list) else [payload]
    keys = sorted({k for row in rows for k in row})
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_csv_cell(row.get(k)) for k in keys])


def _csv_cell(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
        flags = _given(args)
        given = {}
        for name in names:
            reads = {spec[0] for spec in suites.SUITES[name][1]}
            given[name] = {key: flags[key] for key in flags.keys() & reads}
            unread = sorted(map(_flag, flags.keys() - reads))
            if unread and args.suite != "all":
                parser.error(f"verify {name}: {', '.join(unread)} not read by this suite")
            try:
                suites.parameters(name, given[name])
            except ValueError as exc:
                parser.error(f"verify {name}: {exc}")
    elif args.n < 0:
        parser.error(f"enumerate {args.kind}: n must be nonnegative, got {args.n}")
    # opened before any sweep, so that an unwritable --out is a usage error
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc.strerror}")
    with out or contextlib.nullcontext(sys.stdout) as stream:
        if args.command == "verify":
            reports = [suites.run(name, **given[name]).to_json_dict() for name in names]
            payload = reports if args.suite == "all" else reports[0]
        else:
            payload = (suites.enumerate_params_report if args.kind == "params"
                       else suites.enumerate_descent_report)(args.n)
            reports = [payload]
        try:
            _emit(payload, args.format, stream)
            stream.flush()
        except OSError as exc:
            # closed, so that the bytes left in its buffer are not written again at exit
            with contextlib.suppress(OSError):
                stream.close()
            print(f"endosign: output not written: {exc.strerror}", file=sys.stderr)
            return 2
    if any(report.get("incomplete") for report in reports):
        return 3
    return 1 if any(report.get("failures") for report in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
