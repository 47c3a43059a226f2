"""Summarize run records from ``perfbench/out/`` into one results file.

    python3 perfbench/summarize.py OUT_JSON... > perfbench/results/NAME.json

For every workload and end-to-end metric: the per-run values (each the
median of that run's samples), their median and quartiles, and the spread
``(q3 - q1) / median`` next to the bound from ``BENCHMARK.json``.  For the
traced runs: the per-layer values, and whether every ``.calls`` counter
repeated exactly across runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import ROOT, quartiles


def spread(values: list[float]) -> dict:
    out = dict(quartiles(values), values=values)
    if "q1" in out:
        out["spread"] = (out["q3"] - out["q1"]) / out["median"] if out["median"] else 0.0
    return out


def summarize(records: list[dict]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    loads = [x for r in records for x in r["environment"]["loadavg_start"][:1]
             + r["environment"]["loadavg_end"][:1]]
    env = dict(records[0]["environment"])
    env.pop("loadavg_start")
    env.pop("loadavg_end")
    env["loadavg_1min_range"] = [min(loads), max(loads)]
    out = {"environment": env, "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        entry = {"runs": len(plain), "seeds": [r["seed"] for r in plain],
                 "all_correct": all(r["correct"] for r in plain + traced),
                 "fail_ratio": sum(r["failed"] for r in plain) /
                 max(1, sum(r["attempted"] for r in plain))}
        if plain:
            entry["samples_per_run"] = {
                name: [r["stats"][name]["n"] for r in plain] for name in bounds}
            entry["end_to_end"] = {}
            for name, bound in bounds.items():
                s = spread([r["metrics"][name]["value"] for r in plain])
                s.update(unit=plain[0]["metrics"][name]["unit"], bound=bound)
                entry["end_to_end"][name] = s
        if traced:
            layer = {}
            for name in traced[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in traced]
                layer[name] = values[0] if len(set(values)) == 1 else spread(values)
            entry["per_layer"] = layer
            entry["traced_runs"] = len(traced)
            entry["calls_repeat_exactly"] = all(
                len({r["metrics"][n]["value"] for r in traced}) == 1
                for n in layer if n.endswith(".calls"))
        out["workloads"][workload] = entry
    return out


if __name__ == "__main__":
    records = [json.loads(Path(p).read_text(encoding="utf-8")) for p in sys.argv[1:]]
    if not records:
        sys.exit("usage: summarize.py OUT_JSON...")
    json.dump(summarize(records), sys.stdout, indent=1)
    sys.stdout.write("\n")
